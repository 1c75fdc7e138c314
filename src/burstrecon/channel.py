"""Noisy channel simulation: apply specific bursts or sample distinct outputs.

Sampling draws random burst event lists and rejects duplicate outputs, so it
is trace-weighted, not uniform over the ball: each output's chance is
proportional to the number of burst event lists that produce it, with every
burst position uniform over the legal ones and payload symbols uniform.
After too many consecutive rejections it falls back to shuffling the ball
members not yet drawn (enumerated by ``balls``) and records the greedy
leftmost trace for each one it takes.  Everything is driven by a named,
seedable generator so runs reproduce bit for bit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .balls import (
    DEFAULT_CAP,
    BallKind,
    _check_kind,
    _greedy_block_starts,
    enumerate_deletion_ball,
    enumerate_insertion_ball,
)
from .combinatorics import del_ball_size, ins_ball_size
from .errors import BallTooSmall, EnumerationCapExceeded
from .sequences import Word, format_word, validate_word

RNG_ALGORITHM = "mt19937"  # random.Random; stable across platforms and versions
FALLBACK_REJECTIONS_PER_OUTPUT = 64

_MIX = 0x9E3779B97F4A7C15  # 64-bit golden-ratio multiplier


def trial_seed(master_seed: int, trial_index: int) -> int:
    """Derive a per-trial seed from a master seed; stable across platforms."""
    value = (master_seed * _MIX + trial_index * 0xBF58476D1CE4E5B9 + 1) % 2**64
    value ^= value >> 31
    return (value * _MIX) % 2**63


@dataclass(frozen=True)
class BurstEvent:
    """One burst applied at a 1-based position of the current word.

    Insertions carry the inserted block as payload; deletions carry none and
    take their length from the enclosing trace.
    """

    kind: str
    position: int
    payload: Word | None = None


@dataclass(frozen=True)
class ChannelTrace:
    """An input word, the burst events applied in order, and the output."""

    input: Word
    events: tuple[BurstEvent, ...]
    output: Word
    burst_length: int

    def replay(self) -> Word:
        """Re-apply the events to the input; equals output for valid traces."""
        w = self.input
        for e in self.events:
            if e.kind == "insertion":
                w = apply_burst_insertion(w, e.position, e.payload)
            else:
                w = apply_burst_deletion(w, e.position, self.burst_length)
        return w


@dataclass(frozen=True)
class ChannelSample:
    """Distinct channel outputs in sampled order, each with its trace."""

    outputs: tuple[Word, ...]
    traces: tuple[ChannelTrace, ...]
    seed: int
    rng_algorithm: str = field(default=RNG_ALGORITHM)


def apply_burst_insertion(x: Word, position: int, payload: Word) -> Word:
    """Insert payload so that it starts at the given 1-based position."""
    if payload is None or len(payload) < 1:
        raise ValueError("insertion payload must be a nonempty word")
    if not 1 <= position <= len(x) + 1:
        raise ValueError(f"insertion position must be in [1, {len(x) + 1}], got {position}")
    i = position - 1
    return x[:i] + payload + x[i:]


def apply_burst_deletion(x: Word, position: int, b: int) -> Word:
    """Remove the b symbols starting at the given 1-based position."""
    if b < 1:
        raise ValueError(f"burst length must be at least 1, got {b}")
    if not 1 <= position <= len(x) - b + 1:
        raise ValueError(
            f"deletion position must be in [1, {len(x) - b + 1}], got {position}"
        )
    i = position - 1
    return x[:i] + x[i + b :]


def format_event(event: BurstEvent, q: int) -> str:
    """Line form of one event: 'ins POS PAYLOAD' or 'del POS'."""
    if event.kind == "insertion":
        return f"ins {event.position} {format_word(event.payload, q)}"
    return f"del {event.position}"


def _random_trace(rng: random.Random, x: Word, q: int, t: int, b: int, kind: BallKind) -> ChannelTrace:
    w = x
    events = []
    for _ in range(t):
        if kind == "insertion":
            position = rng.randint(1, len(w) + 1)
            payload = bytes(rng.randrange(q) for _ in range(b))
            events.append(BurstEvent("insertion", position, payload))
            w = apply_burst_insertion(w, position, payload)
        else:
            position = rng.randint(1, len(w) - b + 1)
            events.append(BurstEvent("deletion", position))
            w = apply_burst_deletion(w, position, b)
    return ChannelTrace(x, tuple(events), w, b)


def _greedy_trace(x: Word, w: Word, t: int, b: int, kind: BallKind) -> ChannelTrace:
    """The leftmost-placement trace from x to a member w of its ball."""
    if kind == "insertion":
        starts = _greedy_block_starts(w, x, t, b)
        events = [BurstEvent("insertion", s + 1, w[s : s + b]) for s in starts]
    else:
        starts = _greedy_block_starts(x, w, t, b)
        events = [BurstEvent("deletion", s - k * b + 1) for k, s in enumerate(starts)]
    return ChannelTrace(x, tuple(events), w, b)


def sample_distinct_outputs(
    x: Word,
    q: int,
    t: int,
    b: int,
    kind: BallKind,
    count: int,
    seed: int,
    cap: int = DEFAULT_CAP,
) -> ChannelSample:
    """Sample `count` distinct members of the radius-t ball around x.

    A `count` above `cap` is refused with `EnumerationCapExceeded` before any
    work.  Feasibility is checked next by counting the ball (closed form for
    insertions, `del_ball_size` for deletions, whose sizes depend on the
    center); if the ball is smaller than `count` the error reports the exact
    ball size, and a deletion ball above `cap`, which the fallback might
    have to enumerate, is refused.  A fixed seed yields identical outputs
    and traces on every run.

    Draws are trace-weighted: each output's chance is proportional to the
    number of burst event lists that produce it, with positions uniform over
    the legal ones and payload symbols uniform; it is not uniform over the
    ball.  After `FALLBACK_REJECTIONS_PER_OUTPUT * count` consecutive
    duplicates the remaining ball members are shuffled and taken in order,
    each with the greedy leftmost trace (blocks slid as far left as they go).
    """
    validate_word(x, q)
    _check_kind(kind)
    if count < 1:
        raise ValueError(f"need at least one output, got {count}")
    if t < 0:
        raise ValueError(f"radius must be nonnegative, got {t}")
    if b < 1:
        raise ValueError(f"burst length must be at least 1, got {b}")
    if count > cap:
        raise EnumerationCapExceeded(count, cap)
    if kind == "insertion":
        ball_size = ins_ball_size(q, b, len(x), t)
    else:
        ball_size = del_ball_size(x, t, b)
        if ball_size > cap:
            raise EnumerationCapExceeded(ball_size, cap)
    if ball_size < count:
        raise BallTooSmall(count, ball_size)

    rng = random.Random(seed)
    chosen: dict[Word, ChannelTrace] = {}
    rejections = 0
    limit = FALLBACK_REJECTIONS_PER_OUTPUT * count
    while len(chosen) < count and rejections < limit:
        trace = _random_trace(rng, x, q, t, b, kind)
        if trace.output in chosen:
            rejections += 1
        else:
            rejections = 0
            chosen[trace.output] = trace
    if len(chosen) < count:
        if kind == "insertion":
            ball = enumerate_insertion_ball(x, q, t, b, cap)
        else:
            ball = enumerate_deletion_ball(x, t, b, cap)
        remaining = sorted(ball.difference(chosen))
        rng.shuffle(remaining)
        for w in remaining[: count - len(chosen)]:
            chosen[w] = _greedy_trace(x, w, t, b, kind)
    return ChannelSample(tuple(chosen), tuple(chosen.values()), seed)
