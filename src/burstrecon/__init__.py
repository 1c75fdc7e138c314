"""Exact combinatorics, simulation, and reconstruction for burst channels.

Channels apply t bursts, each inserting or deleting exactly b consecutive
symbols of a q-ary word.  This package computes the exact ball sizes,
worst-case ball overlaps, and code-size bounds for such channels, enumerates
the balls by brute force to cross-check every closed form, simulates the
channels reproducibly, and decodes a transmitted word from one more distinct
output than the overlap maximum.
"""

from types import ModuleType as _ModuleType

from .balls import (
    DEFAULT_CAP,
    BallKind,
    enumerate_deletion_ball,
    enumerate_insertion_ball,
    is_deletion_descendant,
    is_insertion_descendant,
    max_intersection_exhaustive,
)
from .channel import (
    RNG_ALGORITHM,
    BurstEvent,
    ChannelSample,
    apply_burst_deletion,
    apply_burst_insertion,
    format_event,
    sample_distinct_outputs,
)
from .combinatorics import (
    MAX_ALPHABET,
    binom,
    count_centers_by_radius1_ball_size,
    del_ball_max,
    del_ball_size,
    del_intersection_lower_bound,
    del_intersection_max_binary,
    del_intersection_threshold,
    ins_ball_size,
    ins_intersection_max,
    sphere_packing_bound,
)
from .errors import (
    AmbiguousSymbol,
    BallTooSmall,
    BelowThreshold,
    CandidateFilterError,
    EnumerationCapExceeded,
    InconsistentOutputs,
    ReconstructionError,
    ThresholdNotMet,
)
from .reconstruct import (
    ReconstructionResult,
    StepInfo,
    candidate_expansion,
    reconstruct_from_deletions,
    reconstruct_from_insertions,
)
from .sequences import (
    Word,
    all_words,
    b_cyclic,
    format_word,
    parse_word,
    validate_word,
    y_sequence,
)

# the public API is every name the imports above bind, less the submodules
# they bind as a side effect
__all__ = sorted(
    name for name, value in globals().items() if name[0] != "_" and not isinstance(value, _ModuleType)
)
