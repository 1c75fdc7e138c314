"""Brute-force ball enumeration, exhaustive overlap search, membership tests.

These are the oracles the closed-form counts are checked against, so the
enumerations stay strictly operational: apply every burst at every legal
position, round by round, and deduplicate.  Nothing here consults a formula
except to refuse hopeless enumerations up front.

``_check_cap`` is the package's one cap rule, wherever a requirement (a ball,
a sample count, phase-2 candidates, a ``verify`` row's work) meets the cap;
one deletion ball meets it round by round (``_check_deletion_rounds``).

The exhaustive overlap search reads one table per cell, ``_center_masks``:
every center's ball kept only as a bitmask over word ranks, so an overlap is
the popcount of an AND, a ball's size is its mask's popcount, and no ball
set outlives its own enumeration; the table's counts choose its search.
Every table and ball that ``verify`` builds acts on ranks, not on words,
through one burst rule (``_cuts``): deleting a block maps a word's rank to a
shorter word's, and inserting one is the inverse map.  ``_rank_balls`` gives
every center's ball, of either kind, as a set of ranks; ``_insertion_masks``
takes those sets to radius t-1 and applies the last burst as combs of bits;
``_deletion_masks`` builds a deletion table level by level.  One long word
whose symbols are in hand, the b-cyclic word of ``del-extremal`` and
``del-int-lb`` or its flip, is stepped from cut to cut
(``_stepped_deletion_ranks``), which refuses an over-cap ball before it
steps; its last round streams ranks, so the flip's ball is never held.  Its
keys are ranks times one odd constant, ``_SPREAD``: bare ranks of words over
2 or 4 symbols share few low hash bits, the bits that pick a table slot, and
the keys spread them, though keys share full hashes as often as ranks.  No
module but this one calls the word enumerators, the reference the rank
builders are checked against.  Nothing here keeps a table: it belongs to
whoever built it and dies with that caller.  A cached table would escape
the cap that bounds every enumeration, so this module holds no cache;
``cli``'s cell runner decides when one ``verify`` cell builds a table and
shares it between its rows.
"""

from __future__ import annotations

import re
from collections import Counter, defaultdict
from itertools import accumulate, chain, product
from operator import mul, sub
from typing import Iterable, Iterator, Literal

from .combinatorics import _check_deletable, _check_params, _deletion_ways, ins_ball_size
from .errors import EnumerationCapExceeded
from .sequences import Word, validate_word

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


def enumerate_insertion_ball(
    x: Word, q: int, t: int, b: int, cap: int = DEFAULT_CAP
) -> frozenset[Word]:
    """The exact set of words reachable from x by t bursts of b insertions.

    Refuses up front (EnumerationCapExceeded) when the known final size
    exceeds the cap; intermediate rounds are never larger than the final one.
    """
    validate_word(x, q)
    _check_cap(ins_ball_size(q, b, len(x), t), cap)  # checks b and t
    payloads = [bytes(p) for p in product(range(q), repeat=b)]
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


def _check_deletion_rounds(x: Word, t: int, b: int, cap: int) -> None:
    """Refuse x's deletion ball, as words or as ranks, at its first round over the cap;
    ``_deletion_ways`` counts each round exactly, after refusing a word too short."""
    _check_params(b=b, t=t, cap=cap)
    for size in _deletion_ways(x, t, b)[0][1:]:
        _check_cap(size, cap)


def enumerate_deletion_ball(
    x: Word, t: int, b: int, cap: int = DEFAULT_CAP
) -> frozenset[Word]:
    """The exact set of words reachable from x by t bursts of b deletions."""
    _check_deletion_rounds(x, t, b, cap)
    words = {x}
    for _ in range(t):
        shrunk: set[Word] = set()
        add = shrunk.add
        for w in words:
            for i in range(len(w) - b + 1):
                add(w[:i] + w[i + b :])
        words = shrunk
    return frozenset(words)


def _cuts(q: int, b: int, length: int) -> list[tuple[int, int]]:
    """The one burst rule on ranks: a block of b symbols at every cut of a word of this length.

    For every cut i, the pair (high, low) = (q**(length-i), q**(length-i-b)):
    deleting symbols i..i+b-1 from the word of rank r leaves the word of rank
    ``r // high * low + r % low``, the rank of the prefix shifted past the
    suffix plus the rank of the suffix.  Inserting a block at cut i of the
    shorter word is the inverse: rank r gives ``r // low * high + r % low + p``,
    where the payload adds p, one of ``range(0, high, low)``.
    """
    return [(q ** (length - i), q ** (length - i - b)) for i in range(length - b + 1)]


def _rank_balls(n: int, q: int, b: int, t: int, kind: BallKind) -> Iterator[set[int]]:
    """The ball of every length-n center, as a set of word ranks, one center at a time.

    The enumerators' rounds on ranks (``_cuts``): the k-th ball is that of
    the k-th word of ``all_words(q, n)``, and rank j in it stands for the
    j-th word of ``all_words(q, n - t*b)`` (deletion) or ``all_words(q, n +
    t*b)`` (insertion).  Only one ball is held at a time.  Callers check the
    parameters, the cap and the length.
    """
    if kind == "deletion":
        rounds = [_cuts(q, b, n - s * b) for s in range(t)]
    else:
        rounds = [_cuts(q, b, n + s * b) for s in range(1, t + 1)]
    for center in range(q**n):
        ball = {center}
        for cuts in rounds:
            if kind == "deletion":
                ball = {r // high * low + r % low for r in ball for high, low in cuts}
            else:
                ball = {
                    r // low * high + r % low + p
                    for r in ball for high, low in cuts for p in range(0, high, low)
                }
        yield ball


# the keys' odd scale: a 64-bit golden-ratio constant (``_stepped_deletion_ranks``)
_SPREAD = 0x9E3779B97F4A7C15


def _stepped_deletion_ranks(x: Word, q: int, b: int, t: int, cap: int) -> Iterator[int]:
    """x's deletion ball as keys ``_SPREAD * rank``, stepped from cut to cut along x.

    Rank j stands for the j-th word of ``all_words(q, len(x) - t*b)``; a key
    may repeat.  Cut 0 of a word w of rank r leaves rank ``r % low``, and
    each next cut i+1 adds ``(w[i] - w[i+b]) * low`` of that cut (``_cuts``),
    so one ``accumulate`` steps through a word at C speed.  Earlier rounds
    keep each distinct word with its key; the last streams keys only.
    ``_check_deletion_rounds`` refuses a round over the cap before any step;
    callers check x and q.

    The first rank and every round's weights are scaled by the odd constant
    ``_SPREAD``, so the same steps give ``_SPREAD * rank`` with no operation
    added per key: keys stay distinct, and ``key % (_SPREAD * low)`` is still
    cut 0.  CPython hashes an int by its residue mod 2**61 - 1, where every
    power of 2 or 4 is a power of two.  At (q, b, t, n) = (2, 2, 2, 300) the
    43,957 bare ranks take 1,398 distinct low 16 bits of hash, which pick the
    slot, and a set of them builds twice as slowly as one of random ints; the
    keys take 21,310 (and 9,784 against 837 at (4, 2, 2, 150)).  Only those
    bits spread: scaling permutes residues, so keys share full hashes as often
    as ranks (25,444 and 10,583 distinct), and still compare on a shared one.
    """
    _check_deletion_rounds(x, t, b, cap)
    words = {_SPREAD * sum(map(mul, x, (q**k for k in reversed(range(len(x)))))): x}
    for length in range(len(x), len(x) - t * b, -b):
        top, *lows = (_SPREAD * low for _, low in _cuts(q, b, length))
        steps = (
            (w, accumulate(map(mul, map(sub, w, w[b:]), lows), initial=r % top))
            for r, w in words.items()
        )
        if length == len(x) - (t - 1) * b:
            return chain.from_iterable(ranks for _, ranks in steps)
        words = {r: w[:i] + w[i + b :] for w, ranks in steps for i, r in enumerate(ranks)}
    return iter(words)


def _center_masks(
    n: int, q: int, b: int, t: int, kind: BallKind, cap: int
) -> tuple[int, ...]:
    """The ball table of one cell: every length-n center's ball as a bitmask.

    Bit k of a mask is the k-th word of ``all_words(q, n + t*b)`` for
    insertion and ``all_words(q, n - t*b)`` for deletion.  Refuses
    (EnumerationCapExceeded) when the q**n centers exceed the cap, before it
    builds anything, and then (``_check_deletable``) a deletion cell whose
    words cannot lose t bursts.  Insertion tables with t >= 1 come from
    ``_insertion_masks``, the others from ``_deletion_masks``, both by the
    rank rule of ``_cuts``: a radius-0 ball of either kind is its center alone.
    """
    _check_cap(q**n, cap)
    if kind == "insertion" and t:
        return _insertion_masks(n, q, b, t, cap)
    _check_deletable(n, t, b)
    return _deletion_masks(n, q, b, t)


def _deletion_masks(n: int, q: int, b: int, t: int) -> tuple[int, ...]:
    """The deletion ball table of a cell, built level by level on word ranks.

    Level s holds the radius-s ball of every word of length n - (t-s)*b, as
    a mask indexed by the word's rank; level 0 is the singletons
    ``1 << rank``, and level t, the q**n centers, is the table.  A word's
    level-s mask is the OR of the level-(s-1) masks at its cut ranks
    (``_cuts``).  Every burst is still applied at every cut, round by round,
    and the OR merges the words that several deletions produce.  Only the
    level below is held, at most 1/q**b of the table's masks, so the table
    bounds what a build holds.  A ball holds at most q**(n-t*b) words, so it
    needs no cap check of its own.
    """
    level = [1 << r for r in range(q ** (n - t * b))]
    for length in range(n - (t - 1) * b, n + 1, b):
        cuts = _cuts(q, b, length)
        lower, level = level, []
        for r in range(q**length):
            mask = 0
            for high, low in cuts:
                mask |= lower[r // high * low + r % low]
            level.append(mask)
    return tuple(level)


def _insertion_masks(n: int, q: int, b: int, t: int, cap: int) -> tuple[int, ...]:
    """The insertion ball table of a cell with t >= 1, numbered by word rank.

    Bit k of a mask is the k-th word of ``all_words(q, n + t*b)``.  Each
    center's radius-(t-1) ball comes from ``_rank_balls``.  The last burst
    inserts every payload at every cut (high, low) of ``_cuts``, which sets
    one comb of q**b bits, ``1 << p`` for p in ``range(0, high, low)``,
    shifted by ``r // low * high + r % low``; the OR of the combs merges the
    words that several insertions produce.
    """
    _check_cap(ins_ball_size(q, b, n, t), cap)
    cuts = [
        (high, low, sum(1 << p for p in range(0, high, low)))
        for high, low in _cuts(q, b, n + t * b)
    ]
    masks = []
    for ball in _rank_balls(n, q, b, t - 1, "insertion"):
        mask = 0
        for r in ball:
            for high, low, comb in cuts:
                mask |= comb << (r // low * high + r % low)
        masks.append(mask)
    return tuple(masks)


def _max_overlap(masks: tuple[int, ...]) -> tuple[int, tuple[int, int]]:
    """Largest overlap of two distinct balls of a table, and the first pair reaching it.

    The pair is of table indices (i < j), the lexicographically smallest
    maximizing pair.  The table picks one of two exact searches: ANDing at
    most C(K, 2) pairs of K masks, or counting co-occurrences, about S2 =
    sum of deg(u)**2, deg(u) the balls holding word u.  As S2 >= (sum of
    sizes)**2 / width, a table where that reaches C(K, 2), such as the (n, q,
    b, t) = (4, 3, 3, 2) insertion table, lists no bit.  Counting runs when
    3*S2 < 2*C(K, 2), under the pairs that ``verify`` caps: on a 2-core VM,
    Python 3.11.7, it took 0.7-1.9x the pair time at S2 = 0.67-0.8 C(K, 2),
    0.1-0.3x at 0.1-0.2 C(K, 2) ((10, 2, 2, 1) deletion 47 -> 8.4 ms).
    """
    sizes = [mask.bit_count() for mask in masks]
    pairs = len(masks) * (len(masks) - 1) // 2
    if 3 * sum(sizes) ** 2 < 2 * pairs * max(map(int.bit_length, masks), default=0):
        rows = [[one.start() for one in re.finditer("1", bin(mask)[:1:-1])] for mask in masks]
        degrees = Counter(chain.from_iterable(rows)).values()
        if 3 * sum(map(mul, degrees, degrees)) < 2 * pairs:
            return _max_cooccurrence(rows)
    return _max_pair_overlap(masks, sizes)


def _max_pair_overlap(masks: tuple[int, ...], sizes: list[int]) -> tuple[int, tuple[int, int]]:
    """``_max_overlap`` by ANDing pairs of balls in decreasing size, until a size is below
    the best overlap, which no later pair can beat; ties take the witness in index order."""
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


def _max_cooccurrence(rows: list[list[int]]) -> tuple[int, tuple[int, int]]:
    """``_max_overlap`` on each ball's set bits.  From the last row x to the first,
    ``holders[u]`` lists the later rows holding word u, so one ``Counter`` gives x's
    overlaps with them; a tie moves the witness to x.  If no rows meet: (0, (0, 1))."""
    holders: defaultdict[int, list[int]] = defaultdict(list)
    best, first, partners = 0, 0, Counter({1: 0})
    for x in reversed(range(len(rows))):
        counts = Counter(chain.from_iterable(map(holders.__getitem__, rows[x])))
        m = max(counts.values(), default=0)
        if m and m >= best:
            best, first, partners = m, x, counts
        for u in rows[x]:
            holders[u].append(x)
    return best, (first, min(y for y, count in partners.items() if count == best))


def max_intersection_exhaustive(
    n: int, q: int, b: int, t: int, kind: BallKind, cap: int = DEFAULT_CAP
) -> tuple[int, tuple[Word, Word]]:
    """Exhaustive maximum ball overlap over all pairs of distinct length-n centers.

    Returns the maximum and the lexicographically smallest maximizing pair.
    This is the oracle the closed-form overlap maxima are judged against.

    Every center's ball is kept as a bitmask over word ranks in a table of
    its own (``_center_masks``), searched by ``_max_overlap`` and dropped
    when the call returns; the overlap of two balls is the popcount of their
    masks' AND.  The balls are built on ranks by applying every burst at
    every cut, so the result rests on enumeration alone and not on any
    formula.  A mask takes about U/8 bytes over a range of U ranks.
    """
    _check_kind(kind)
    _check_params(q=q, b=b, t=t, n=n)
    if n < 1:
        raise ValueError(f"need words of length at least 1, got {n}")
    if kind == "deletion":
        _check_deletable(n, t, b)
    best, (i, j) = _max_overlap(_center_masks(n, q, b, t, kind, cap))
    weights = [q**e for e in range(n - 1, -1, -1)]  # a rank's base-q digits are its word's symbols
    return best, (bytes(i // w % q for w in weights), bytes(j // w % q for w in weights))


def is_deletion_descendant(v: Word, y: Word, t: int, b: int) -> bool:
    """True iff y is reachable from v by exactly t bursts of b deletions.

    Checks b, t and the length of y, then runs ``_descends_all`` on y alone.
    """
    _check_params(b=b, t=t)
    if len(y) != len(v) - t * b:
        raise ValueError(f"length mismatch: expected {len(v) - t * b}, got {len(y)}")
    return _descends_all(v, (y,), t, b)


def _descends_all(v: Word, ys: Iterable[Word], t: int, b: int) -> bool:
    """True iff every y in ys is reachable from v by exactly t bursts of b deletions.

    Interval frontier over burst counts: with f bursts spent, the reachable
    prefix lengths of v are [f*b, f*b + j], j the symbols of y matched, since
    a run of matches from any point of the interval ends where the run from
    its top ends, and a burst shifts the interval by b.  The run at f compares
    window f of v, ``v[f*b : f*b + len(y)]``, with y past its first j symbols:
    on integers, one XOR masked to the unmatched symbols, whose length in
    bytes is the count still unmatched.  y is reached iff none is left after
    window t.  The windows are read once per call and each y once; the scan
    stops at the first y not reached.  Callers check b, t and the lengths.
    """
    length = len(v) - t * b
    windows = [int.from_bytes(v[f * b : f * b + length], "big") for f in range(t + 1)]
    for word in ys:
        y = int.from_bytes(word, "big")
        unmatched = length
        for window in windows:
            unmatched = (((window ^ y) & ((1 << 8 * unmatched) - 1)).bit_length() + 7) // 8
        if unmatched:
            return False
    return True


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
