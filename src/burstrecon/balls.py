"""Brute-force ball enumeration, exhaustive overlap search, membership tests.

These are the oracles the closed-form counts are checked against, so the
enumerations stay strictly operational: apply every burst at every legal
position, round by round, and deduplicate.  Nothing here consults a formula
except to refuse hopeless enumerations up front.

``_check_cap`` is the package's one cap rule, wherever a requirement (a ball,
a sample count, the decoder's phase-2 candidates) meets the enumeration cap.

The exhaustive overlap search enumerates one ball at a time and keeps it only
as a bitmask over the words numbered so far, so an overlap is the popcount of
an AND and no ball set outlives its own enumeration.
"""

from __future__ import annotations

from itertools import product
from typing import Literal

from .combinatorics import _check_deletable, _check_params, _deletion_ways, ins_ball_size
from .errors import EnumerationCapExceeded
from .sequences import Word, all_words, validate_word

BallKind = Literal["insertion", "deletion"]

DEFAULT_CAP = 10**7


def _check_cap(required: int, cap: int) -> None:
    """Refuse a cap below 1, then any requirement of more than ``cap`` words."""
    _check_params(cap=cap)
    if required > cap:
        raise EnumerationCapExceeded(required, cap)


def _check_kind(kind: str) -> None:
    if kind not in ("insertion", "deletion"):
        raise ValueError(f"ball kind must be 'insertion' or 'deletion', got {kind!r}")


def _payloads(q: int, b: int) -> list[Word]:
    return [bytes(p) for p in product(range(q), repeat=b)]


def enumerate_insertion_ball(
    x: Word, q: int, t: int, b: int, cap: int = DEFAULT_CAP
) -> frozenset[Word]:
    """The exact set of words reachable from x by t bursts of b insertions.

    Refuses up front (EnumerationCapExceeded) when the known final size
    exceeds the cap; intermediate rounds are never larger than the final one.
    """
    validate_word(x, q)
    _check_cap(ins_ball_size(q, b, len(x), t), cap)  # checks b and t
    payloads = _payloads(q, b)
    words = {x}
    for _ in range(t):
        grown: set[Word] = set()
        add = grown.add
        for w in words:
            for i in range(len(w) + 1):
                head = w[:i]
                tail = w[i:]
                for p in payloads:
                    add(head + p + tail)
        words = grown
    return frozenset(words)


def enumerate_deletion_ball(
    x: Word, t: int, b: int, cap: int = DEFAULT_CAP
) -> frozenset[Word]:
    """The exact set of words reachable from x by t bursts of b deletions.

    Refuses up front (EnumerationCapExceeded) with the exact size of the first
    round over the cap; rounds are counted only when (len(x)-b+1)**t exceeds it.
    """
    _check_params(b=b, t=t, cap=cap)
    _check_deletable(len(x), t, b)
    if (len(x) - b + 1) ** t > cap:
        for size in _deletion_ways(x, t, b)[0][1:]:
            _check_cap(size, cap)
    words = {x}
    for _ in range(t):
        shrunk: set[Word] = set()
        add = shrunk.add
        for w in words:
            for i in range(len(w) - b + 1):
                add(w[:i] + w[i + b :])
        words = shrunk
    return frozenset(words)


def _bitmask(words: frozenset[Word], index: dict[Word, int]) -> int:
    """Bitmask of words: bit k is set iff the word numbered k in index is one of them.

    Words seen for the first time get the next free numbers in index.
    """
    number = index.setdefault
    ks = [number(w, len(index)) for w in words]
    bits = bytearray(len(index) // 8 + 1)
    for k in ks:
        bits[k >> 3] |= 1 << (k & 7)
    return int.from_bytes(bits, "little")


def max_intersection_exhaustive(
    n: int, q: int, b: int, t: int, kind: BallKind, cap: int = DEFAULT_CAP
) -> tuple[int, tuple[Word, Word]]:
    """Exhaustive maximum ball overlap over all pairs of distinct length-n centers.

    Returns the maximum and the lexicographically smallest maximizing pair.
    This is the oracle the closed-form overlap maxima are judged against.

    Every center's ball is enumerated in full, then turned into a bitmask over
    one numbering of all words seen so far and dropped; the overlap of two
    balls is the popcount of their masks' AND.  Only the counting of the
    enumerated sets is compressed, so the result still rests on enumeration
    alone and not on any formula.  A mask takes about U/8 bytes for U distinct
    words, where a held ball would take some 80 bytes per member.
    """
    _check_kind(kind)
    _check_params(q=q, b=b, t=t, n=n)
    if n < 1:
        raise ValueError(f"need words of length at least 1, got {n}")
    if kind == "deletion":
        _check_deletable(n, t, b)
    _check_cap(q**n, cap)
    centers = list(all_words(q, n))
    index: dict[Word, int] = {}
    if kind == "insertion":
        masks = [_bitmask(enumerate_insertion_ball(x, q, t, b, cap), index) for x in centers]
    else:
        masks = [_bitmask(enumerate_deletion_ball(x, t, b, cap), index) for x in centers]
    best = -1
    witness = (centers[0], centers[1])
    for i in range(len(centers)):
        mask_i = masks[i]
        for j in range(i + 1, len(centers)):
            m = (mask_i & masks[j]).bit_count()
            if m > best:
                best = m
                witness = (centers[i], centers[j])
    return best, witness


def _common_prefix(a: Word, b: Word) -> int:
    """Length of the longest common prefix of two equal-length words, at C speed."""
    diff = int.from_bytes(a, "big") ^ int.from_bytes(b, "big")
    return len(a) - (diff.bit_length() + 7) // 8


def is_deletion_descendant(v: Word, y: Word, t: int, b: int) -> bool:
    """True iff y is reachable from v by exactly t bursts of b deletions.

    Interval frontier over burst counts.  With f bursts spent, the reachable
    prefix lengths of v are exactly the interval [f*b, reach_f]: matching
    moves along the diagonal j = i - f*b, so a run of matches from any point
    of the interval ends where the run from reach_f ends, and a burst shifts
    the whole interval by b.  Each step is one common-prefix length of
    v[reach:] and y[reach - f*b:], so a call costs t+1 C-speed comparisons.
    """
    _check_params(b=b, t=t)
    if len(y) != len(v) - t * b:
        raise ValueError(
            f"length mismatch: expected {len(v) - t * b}, got {len(y)}"
        )
    reach = 0
    for f in range(t + 1):
        if f:
            reach += b
        j = reach - f * b  # symbols of y matched at the frontier
        reach += _common_prefix(v[reach : reach + len(y) - j], y[j:])
    return reach == len(v)


def is_insertion_descendant(x: Word, y: Word, t: int, b: int) -> bool:
    """True iff y is reachable from x by exactly t bursts of b insertions.

    Equivalent to x being reachable from y by t bursts of b deletions, since
    the inserted blocks are exactly the removable ones.
    """
    if len(y) != len(x) + t * b:
        raise ValueError(
            f"length mismatch: expected {len(x) + t * b}, got {len(y)}"
        )
    return is_deletion_descendant(y, x, t, b)
