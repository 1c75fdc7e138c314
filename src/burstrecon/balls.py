"""Brute-force ball enumeration, exhaustive overlap search, membership tests.

These are the oracles the closed-form counts are checked against, so the
enumerations stay strictly operational: apply every burst at every legal
position, round by round, and deduplicate.  Nothing here consults a formula
except to refuse hopeless enumerations up front.

``_check_cap`` is the package's one cap rule, wherever a requirement (a ball,
a sample count, phase-2 candidates, a ``verify`` row's work) meets the cap.

The exhaustive overlap search reads one table per cell, ``_center_masks``:
every center's ball, enumerated one at a time and kept only as a bitmask, so
an overlap is the popcount of an AND, a ball's size is its mask's popcount,
and no ball set outlives its own enumeration.  Insertion tables with t >= 1
number a word by its rank in ``all_words`` and apply each center's last burst
to ranks, not to words (``_insertion_masks``); the other tables number words
in the order the balls first produce them.
Nothing here keeps a table: it belongs to whoever built it and dies with that
caller.  A cached table would escape the cap that bounds every enumeration,
so this module holds no cache; ``cli``'s cell runner decides when one
``verify`` cell builds a table and shares it between its rows.
"""

from __future__ import annotations

from itertools import product, repeat
from typing import Iterator, Literal

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


def _center_balls(
    n: int, q: int, b: int, t: int, kind: BallKind, cap: int
) -> Iterator[frozenset[Word]]:
    """Every length-n center's ball, enumerated one at a time in ``all_words`` order.

    Callers check the parameters; the enumerators refuse a ball over the cap.
    """
    if kind == "insertion":
        return (enumerate_insertion_ball(x, q, t, b, cap) for x in all_words(q, n))
    return (enumerate_deletion_ball(x, t, b, cap) for x in all_words(q, n))


def _center_masks(
    n: int, q: int, b: int, t: int, kind: BallKind, cap: int
) -> tuple[int, ...]:
    """The ball table of one cell: every length-n center's ball as a bitmask.

    Refuses (EnumerationCapExceeded) when the q**n centers exceed the cap,
    before it builds anything.  Insertion tables with t >= 1 are numbered by
    rank (``_insertion_masks``); otherwise each ball of ``_center_balls`` is
    numbered with ``_bitmask`` over one numbering of all words seen so far,
    then dropped.
    """
    _check_cap(q**n, cap)
    if kind == "insertion" and t:
        return _insertion_masks(n, q, b, t, cap)
    # one index numbers every ball; map drops each ball before enumerating the
    # next, where a loop variable would keep it alive one ball longer
    return tuple(map(_bitmask, _center_balls(n, q, b, t, kind, cap), repeat({})))


def _insertion_masks(n: int, q: int, b: int, t: int, cap: int) -> tuple[int, ...]:
    """The insertion ball table of a cell with t >= 1, numbered by word rank.

    Bit k of a mask is the k-th word of ``all_words(q, n + t*b)``.  Each
    center's ball is enumerated to radius t-1, and the last burst is applied
    to ranks: cutting a word u of length m at i, with s = m - i symbols after
    the cut, gives the words ``u[:i] + p + u[i:]`` the ranks
    ``pre*q**(b+s) + rank(p)*q**s + suf``, where pre and suf are the ranks of
    ``u[:i]`` and ``u[i:]``.  So every payload inserted at that cut sets one
    comb of bits, ``p*q**s`` for every payload rank p, shifted by
    ``rank(u) + pre*q**s*(q**b - 1)``; the OR of the combs merges the words
    that several insertions produce.
    """
    _check_cap(ins_ball_size(q, b, n, t), cap)
    m = n + (t - 1) * b
    payloads = q**b
    combs = [sum(1 << (p * q**s) for p in range(payloads)) for s in range(m, -1, -1)]
    weights = [q**s * (payloads - 1) for s in range(m, -1, -1)]
    masks = []
    for x in all_words(q, n):
        mask = 0
        for u in enumerate_insertion_ball(x, q, t - 1, b, cap):
            # prefix ranks by Horner: pres[i] is the rank of u[:i]
            pres = [0]
            for c in u:
                pres.append(pres[-1] * q + c)
            rank = pres[-1]
            for comb, weight, pre in zip(combs, weights, pres):
                mask |= comb << (rank + pre * weight)
        masks.append(mask)
    return tuple(masks)


def _max_overlap(masks: tuple[int, ...]) -> tuple[int, tuple[int, int]]:
    """Largest overlap of two distinct balls of a table, and the first pair reaching it.

    The pair is of table indices (i < j), the lexicographically smallest
    among the maximizing pairs.  The search is exact but skips pairs that
    cannot reach the maximum: since an overlap is at most the smaller ball,
    it visits balls by decreasing size and stops once a size falls below the
    best overlap found.  Pairs that tie the best replace the witness when
    they come first in index order.
    """
    sizes = [mask.bit_count() for mask in masks]
    order = sorted(range(len(masks)), key=sizes.__getitem__, reverse=True)
    best = -1
    pair = (0, 1)
    for p, i in enumerate(order):
        if sizes[i] < best:
            break
        mask_i = masks[i]
        for j in order[p + 1 :]:
            if sizes[j] < best:
                break
            m = (mask_i & masks[j]).bit_count()
            if m >= best:
                candidate = (i, j) if i < j else (j, i)
                if m > best or candidate < pair:
                    best = m
                    pair = candidate
    return best, pair


def max_intersection_exhaustive(
    n: int, q: int, b: int, t: int, kind: BallKind, cap: int = DEFAULT_CAP
) -> tuple[int, tuple[Word, Word]]:
    """Exhaustive maximum ball overlap over all pairs of distinct length-n centers.

    Returns the maximum and the lexicographically smallest maximizing pair.
    This is the oracle the closed-form overlap maxima are judged against.

    Every center's ball is enumerated in full and kept as a bitmask in a
    table of its own (``_center_masks``), searched by ``_max_overlap`` and
    dropped when the call returns; the overlap of two balls is the popcount
    of their masks' AND.  Only the counting of the enumerated sets is
    compressed, so the result still rests on enumeration alone and not on
    any formula.  A mask takes about U/8 bytes for U distinct words, where a
    held ball would take some 80 bytes per member.
    """
    _check_kind(kind)
    _check_params(q=q, b=b, t=t, n=n)
    if n < 1:
        raise ValueError(f"need words of length at least 1, got {n}")
    if kind == "deletion":
        _check_deletable(n, t, b)
    best, (i, j) = _max_overlap(_center_masks(n, q, b, t, kind, cap))
    centers = list(all_words(q, n))
    return best, (centers[i], centers[j])


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
