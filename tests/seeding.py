"""Per-trial seeds for the seeded tests.

Keep the constants as they are: every seeded test (C7, the sampled round
trips, the extremal pairs) is written against the streams they draw.
"""

_MIX = 0x9E3779B97F4A7C15  # 64-bit golden-ratio multiplier


def trial_seed(master_seed: int, trial_index: int) -> int:
    """Derive a per-trial seed from a master seed; stable across platforms."""
    value = (master_seed * _MIX + trial_index * 0xBF58476D1CE4E5B9 + 1) % 2**64
    value ^= value >> 31
    return (value * _MIX) % 2**63
