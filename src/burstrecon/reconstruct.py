"""Threshold reconstruction of a transmitted word from distinct channel outputs.

Both decoders peel the transmitted word from the front, one symbol per step,
using exact class-size thresholds, and both peel by offset: the outputs are
never stripped, the survivors share every symbol before the current offset
(so they stay distinct), and a step reads them at that offset and filters
them once with C-speed ``map``, ``compress`` and ``Counter`` passes.

* the insertion decoder compares, for each pair of symbols, how many outputs
  show one before the other on the burst grid (positions 1, b+1, ..., t*b+1),
  then descends into the largest same-prefix class.  Each step counts the
  distinct grid patterns at the offset (at most q**(t+1)), and the class
  sizes and precedence counts come from those pattern counts;
* the deletion decoder (binary only) takes the first-symbol majority; a
  suspiciously small majority class proves a burst ate the word's front, in
  which case b-1 positions are deferred as open cells, each with a vote
  from the discarded majority class.  Phase 2 tries the completions of the
  open cells in vote order (the majority fill first, then fills that flip
  1, 2, ... of the least confident cells) and returns the first one whose
  ball contains every output, checking each candidate against all outputs
  in one pass of the integer membership frontier (``balls._descends_all``).

Given at least one more output than the worst-case ball overlap, the peeled
word is exact and no other completion contains every output, so the first
survivor is the only one; with fewer outputs the decoders refuse.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from itertools import combinations, compress, permutations, product
from operator import itemgetter
from typing import Callable, Collection, Iterable, Iterator, Mapping, Sequence

from .balls import DEFAULT_CAP, _check_cap, _descends_all
from .combinatorics import (
    del_intersection_max_binary,
    del_intersection_threshold,
    ins_intersection_max,
)
from .errors import (
    AmbiguousSymbol,
    BelowThreshold,
    CandidateFilterError,
    InconsistentOutputs,
    ThresholdNotMet,
)
from .sequences import _ALPHABETS, Word, _out_of_range


def _tally_grid(
    counts: Mapping[bytes, int], q: int, t: int
) -> tuple[dict[tuple[int, int], int], dict[tuple[int, int], int]]:
    """Class sizes and precedence counts of counted grid patterns.

    A pattern is the t+1 grid symbols of an output.  Returns
    ``sizes[(symbol, slot)]``, the outputs whose first ``symbol`` is at the
    1-based ``slot``, and ``precedence[(alpha, beta)]``, the outputs that show
    alpha strictly before beta.
    """
    sizes = dict.fromkeys(product(range(q), range(1, t + 2)), 0)
    precedence = dict.fromkeys(permutations(range(q), 2), 0)
    never = t + 2  # sentinel slot for symbols absent from the grid
    for pattern, count in counts.items():
        first: dict[int, int] = {}
        for slot, symbol in enumerate(pattern, 1):
            if symbol not in first:
                first[symbol] = slot
        for alpha, slot in first.items():
            sizes[(alpha, slot)] += count
            for beta in range(q):
                if beta != alpha and slot < first.get(beta, never):
                    precedence[(alpha, beta)] += count
    return sizes, precedence


def _grid(off: int, b: int, t: int) -> Callable[[Word], bytes]:
    """The map from a word to its grid pattern w[off], w[off+b], ..., w[off+t*b]."""
    return itemgetter(slice(off, off + t * b + 1, b))


@dataclass(frozen=True)
class StepInfo:
    """Diagnostics for one decoding step: which symbol won, at what cost."""

    position: int  # 1-based index of the decided symbol
    symbol: int
    consumed_bursts: int
    class_sizes: tuple[int, ...]


@dataclass(frozen=True)
class ReconstructionResult:
    word: Word
    steps: tuple[StepInfo, ...]
    phase1_seconds: float
    phase2_seconds: float = 0.0
    phase2_tried: int = 0  # phase-2 candidates checked, the survivor included


class _Completions:
    """The binary completions of a cell list, sized up front and built one at a time."""

    def __init__(self, fill: bytes, flip_order: list[int]):
        self.fill = fill
        self.flip_order = flip_order

    def __len__(self) -> int:
        return 2 ** len(self.flip_order)

    def __iter__(self) -> Iterator[Word]:
        for flips in range(len(self.flip_order) + 1):
            for chosen in combinations(self.flip_order, flips):
                word = bytearray(self.fill)
                for idx in chosen:
                    word[idx] ^= 1
                yield bytes(word)


def candidate_expansion(cells: Sequence[int | None], votes: Sequence[int]) -> _Completions:
    """Every binary completion of the open (None) cells, each once, in vote order.

    ``votes`` holds one tally per open cell, left to right: ones minus zeros
    among the outputs that voted on it.  The first completion is the vote
    majority (0 on a tie); then come the fills that flip 1, 2, ... cells,
    the least confident cells (smallest ``abs(vote)``, leftmost on a tie)
    flipped first.  The result has ``len() == 2**open_cells`` and builds
    each word only when iterated.
    """
    slots = [i for i, c in enumerate(cells) if c is None]
    if len(votes) != len(slots):
        raise ValueError(f"{len(slots)} open cells but {len(votes)} votes")
    fill = bytearray(0 if c is None else c for c in cells)
    for idx, vote in zip(slots, votes):
        fill[idx] = vote > 0
    ranked = sorted(range(len(slots)), key=lambda k: abs(votes[k]))
    return _Completions(bytes(fill), [slots[k] for k in ranked])


def _read_outputs(
    outputs: Iterable[Word], q: int, length: int, rule: str, threshold: int
) -> frozenset[Word]:
    """The distinct outputs, each a valid length-``length`` word, at least threshold+1 of them.

    The caller has checked q; each output is one ``translate`` against the
    alphabet, with no joined copy of the outputs.
    """
    words = frozenset(outputs)
    alphabet = _ALPHABETS[q]
    for w in words:
        bad = w.translate(None, alphabet)
        if bad:
            raise _out_of_range(bad[0], q)
        if len(w) != length:
            raise ValueError(f"outputs must have length {rule} = {length}, got {len(w)}")
    if len(words) < threshold + 1:
        raise BelowThreshold(len(words), threshold + 1)
    return words


def reconstruct_from_insertions(
    outputs: Iterable[Word], n: int, q: int, b: int, t: int
) -> ReconstructionResult:
    """Recover the length-n word whose insertion ball produced the outputs.

    Needs strictly more outputs than the worst-case overlap between two
    distinct insertion balls; with fewer it raises BelowThreshold.  Each step
    decides one symbol by strict pairwise precedence, locates the deepest
    burst count whose first-symbol class clears its pigeonhole bound, and
    restarts on the largest same-prefix subclass with the offset moved past
    that prefix.  The survivors all share the outputs' first ``off`` symbols,
    so they stay distinct without being stripped.  A step is one pass over
    the survivors to count their grid patterns at the offset (and a few more
    to keep the chosen block), plus work per distinct pattern, not per output.

    No step rechecks the running threshold N(m, t_rem)+1, N the worst-case
    overlap and m the symbols left: ``_read_outputs`` gives the first step
    N(n, t)+1 outputs, and a step that chooses j bursts keeps a class of at
    least K*N(m-1, t_rem-j)+1 with K = (q-1)**j * q**(j*(b-1)) possible
    prefixes (j non-winner grid symbols, j*(b-1) free ones), so its largest
    prefix group clears the next.
    """
    started = time.perf_counter()
    threshold = ins_intersection_max(q, b, n, t)  # checks q, b, t and n
    if n < 1 or t < 1:
        raise ValueError(f"the insertion decoder needs n >= 1 and t >= 1, got n={n}, t={t}")
    # the surviving outputs all share words[i][:off], so they stay distinct unstripped
    words: Collection[Word] = _read_outputs(outputs, q, n + t * b, "n + t*b", threshold)
    off = 0
    t_rem = t
    recovered: list[int] = []
    steps: list[StepInfo] = []
    while len(recovered) < n:
        grid = _grid(off, b, t_rem)
        counts = Counter(map(grid, words))
        sizes, precedence = _tally_grid(counts, q, t_rem)
        winner = None
        for beta in range(q):
            if all(
                precedence[(alpha, beta)] < precedence[(beta, alpha)]
                for alpha in range(q)
                if alpha != beta
            ):
                winner = beta
                break
        if winner is None:
            raise AmbiguousSymbol(
                "no symbol wins every pairwise precedence comparison"
            )
        recovered.append(winner)
        chosen_j = None
        for j in range(t_rem, -1, -1):
            need = (q - 1) ** j * q ** (j * (b - 1)) * ins_intersection_max(
                q, b, n - len(recovered), t_rem - j
            ) + 1
            if sizes[(winner, j + 1)] >= need:
                chosen_j = j
                break
        if chosen_j is None:
            raise ThresholdNotMet(
                "no first-symbol class clears its pigeonhole bound"
            )
        steps.append(
            StepInfo(
                len(recovered),
                winner,
                chosen_j,
                tuple(sizes[(winner, s)] for s in range(1, t_rem + 2)),
            )
        )
        if chosen_j == 0:
            # the class is the outputs with the winner at off, all one prefix
            words = list(compress(words, map(winner.__eq__, map(itemgetter(off), words))))
            off += 1
            continue
        # the winner first appears after chosen_j bursts: keep the outputs of
        # the class's largest block w[start:off] (the smallest block on a tie)
        chosen = {p for p in counts if p.find(winner) == chosen_j}
        members = list(compress(words, map(chosen.__contains__, map(grid, words))))
        start, off = off, off + chosen_j * b + 1
        prefix = itemgetter(slice(start, off))
        blocks = Counter(map(prefix, members))
        _, block = min((-count, block) for block, count in blocks.items())
        words = list(compress(members, map(block.__eq__, map(prefix, members))))
        if chosen_j == t_rem:
            # burst budget exhausted before this symbol: the survivors carry
            # the untouched tail verbatim
            if len(words) != 1:
                raise InconsistentOutputs(
                    "several distinct tails remain after the last burst"
                )
            recovered.extend(words[0][off:])
            break
        t_rem -= chosen_j
    return ReconstructionResult(
        bytes(recovered), tuple(steps), time.perf_counter() - started
    )


def reconstruct_from_deletions(
    outputs: Iterable[Word], n: int, b: int, t: int
) -> ReconstructionResult:
    """Recover the length-n binary word whose deletion ball produced the outputs.

    Phase 1 walks the word front to back: the first-symbol majority is always
    the true symbol; when the majority class is no bigger than the next
    overlap bound, the front was eaten by a burst, so the symbol one burst
    ahead is the complement, the b-1 in-between cells become unknowns, and
    decoding resumes past them on the complement class.  The discarded
    majority class still shows the open cells at offsets 1..b-1, so each
    open cell gets its vote there.  Phase 1 returns only once all t bursts
    are placed, so exactly t*(b-1) cells stay open.  Phase 2 tries their
    completions in vote order and returns the first whose ball contains
    every output; at most one can, since two such words would share more
    outputs than the overlap maximum allows.  When the 2**(t*(b-1))
    candidates exceed DEFAULT_CAP the decoder refuses with
    EnumerationCapExceeded before reading the outputs.
    """
    started = time.perf_counter()
    threshold = del_intersection_max_binary(b, n, t)  # refuses outside the proven domain
    _check_cap(2 ** (t * (b - 1)), DEFAULT_CAP)
    words = _read_outputs(outputs, 2, n - t * b, "n - t*b", threshold)

    cells: list[int | None] = [None] * n
    votes: list[int] = []  # ones minus zeros, per open cell left to right
    current: Collection[Word] = words
    off = 0  # the survivors share their first off symbols, so they stay distinct unstripped
    t_rem = t
    i = 0  # 0-based index of the next cell to decide
    steps: list[StepInfo] = []
    while t_rem > 0:
        # threshold+1 outputs never run out first (the accounting is pinned in
        # tests/test_reconstruct.py); this guard keeps itemgetter(off) inside them
        if n - i <= t_rem * b:
            raise InconsistentOutputs(
                "outputs exhausted before all bursts were accounted for"
            )
        front = list(map(itemgetter(off), current))
        ones = sum(front)
        zeros = len(front) - ones
        if zeros == ones:
            raise AmbiguousSymbol("first-symbol counts tie")
        beta = 0 if zeros > ones else 1
        cells[i] = keep = beta
        if max(zeros, ones) > del_intersection_threshold(b, n - i - 1, t_rem):
            steps.append(StepInfo(i + 1, beta, 0, (zeros, ones)))
            i += 1
        else:
            # a burst consumed the front: the complement sits one burst ahead
            # and the b-1 cells between stay open for phase 2, each with the
            # vote of the discarded majority class
            steps.append(StepInfo(i + 1, beta, 1, (zeros, ones)))
            cells[i + b] = keep = 1 - beta
            gaps = [w[off + 1 : off + b] for w in compress(current, map(beta.__eq__, front))]
            tallies = [2 * sum(column) - len(gaps) for column in zip(*gaps)]
            votes += tallies + [0] * (b - 1 - len(tallies))
            i += b + 1
            t_rem -= 1
        current = list(compress(current, map(keep.__eq__, front)))
        off += 1
    # t >= 1, so the loop ended on its last burst: the survivors carry the tail
    if len(current) != 1:
        raise InconsistentOutputs("tail not unique once the burst budget ran out")
    cells[i:] = current[0][off:]
    phase1_seconds = time.perf_counter() - started

    started2 = time.perf_counter()
    candidates = candidate_expansion(cells, votes)
    for tried, v in enumerate(candidates, 1):
        if _descends_all(v, words, t, b):
            return ReconstructionResult(
                v, tuple(steps), phase1_seconds, time.perf_counter() - started2, tried
            )
    raise CandidateFilterError(len(candidates))
