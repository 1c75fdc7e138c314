"""Brute-force oracles: enumeration, exhaustive overlap search, membership."""

import dataclasses
import random
import sys
import tracemalloc
from collections import Counter
from itertools import groupby, product

import pytest
from hypothesis import given, settings, strategies as st

from burstrecon import (
    EnumerationCapExceeded,
    all_words,
    b_cyclic,
    del_ball_max,
    del_intersection_lower_bound,
    del_intersection_max_binary,
    enumerate_deletion_ball,
    enumerate_insertion_ball,
    ins_ball_size,
    ins_intersection_max,
    is_deletion_descendant,
    is_insertion_descendant,
    max_intersection_exhaustive,
    parse_word,
    sample_distinct_outputs,
    y_sequence,
)
from burstrecon import cli
import burstrecon.balls
from burstrecon.balls import (
    _center_masks,
    _check_cap,
    _descends_all,
    _max_cooccurrence,
    _max_overlap,
    _max_pair_overlap,
    _rank_balls,
    _stepped_deletion_ranks,
)


def words_of(*texts):
    return frozenset(parse_word(t, 10) for t in texts)


def reference_is_deletion_descendant(v, y, t, b):
    """The per-symbol set dynamic program that the interval frontier replaced.

    ``feasible[i]`` holds the burst counts f with which the first i symbols
    of v can be consumed, i - f*b of them matched against y.
    """
    nv, ny = len(v), len(y)
    feasible = [set() for _ in range(nv + 1)]
    feasible[0].add(0)
    for i in range(nv):
        for f in feasible[i]:
            j = i - f * b
            if j < ny and v[i] == y[j]:
                feasible[i + 1].add(f)
            if f < t and i + b <= nv:
                feasible[i + b].add(f + 1)
    return t in feasible[nv]


def set_bits(mask):
    """The indices of a mask's set bits, in increasing order."""
    return [k for k, bit in enumerate(reversed(bin(mask)[2:])) if bit == "1"]


def words_of_ranks(ranks, q, length):
    """The words of the given ranks in ``all_words(q, length)``, by base-q division."""
    words = set()
    for k in ranks:
        word = bytearray(length)
        for i in reversed(range(length)):
            k, word[i] = divmod(k, q)
        assert k == 0, "rank past the last word"
        words.add(bytes(word))
    return words


def words_of_keys(keys, q, length):
    """The words of stepped keys, ``_SPREAD * rank``: each key must divide, then its rank decodes."""
    ranks = []
    for key in keys:
        rank, rest = divmod(key, burstrecon.balls._SPREAD)
        assert rest == 0, "key is not a multiple of _SPREAD"
        ranks.append(rank)
    return words_of_ranks(ranks, q, length)


def both_searches(masks):
    """(pair search, co-occurrence): each exact overlap search's (max, witness) on one table."""
    return (
        _max_pair_overlap(masks, [mask.bit_count() for mask in masks]),
        _max_cooccurrence([set_bits(mask) for mask in masks]),
    )


def reference_max_intersection(n, q, b, t, kind):
    """The pairwise loop the bitmask overlap count replaced.

    Holds every ball as a frozenset and counts each pair's overlap with ``&``,
    scanning pairs i < j in center order and keeping the first strict maximum.
    """
    centers = list(all_words(q, n))
    if kind == "insertion":
        balls = [enumerate_insertion_ball(x, q, t, b) for x in centers]
    else:
        balls = [enumerate_deletion_ball(x, t, b) for x in centers]
    best = -1
    witness = (centers[0], centers[1])
    for i in range(len(centers)):
        for j in range(i + 1, len(centers)):
            m = len(balls[i] & balls[j])
            if m > best:
                best = m
                witness = (centers[i], centers[j])
    return best, witness


class TestEnumerateInsertionBall:
    def test_single_symbol_unit_burst(self):
        assert enumerate_insertion_ball(b"\x00", 2, 1, 1) == words_of("00", "01", "10")

    def test_single_symbol_two_burst(self):
        ball = enumerate_insertion_ball(b"\x00", 2, 1, 2)
        assert ball == words_of("000", "001", "010", "011", "100", "110")

    def test_radius_zero(self):
        x = parse_word("0120", 3)
        assert enumerate_insertion_ball(x, 3, 0, 2) == frozenset({x})

    def test_size_matches_formula_on_grid(self):
        for q in (2, 3):
            for b in (1, 2, 3):
                for t in (1, 2):
                    for n in range(0, 5):
                        expected = ins_ball_size(q, b, n, t)
                        for x in all_words(q, n):
                            assert len(enumerate_insertion_ball(x, q, t, b)) == expected

    def test_size_matches_formula_large_words_sampled(self):
        # exhausting q^n centers gets slow past n = 5; seeded samples plus the
        # structured extremes keep the large-n cells covered
        import random

        rng = random.Random(1789)
        for q in (2, 3):
            for b in (1, 2, 3):
                for t in (1, 2):
                    for n in (6, 7, 8):
                        expected = ins_ball_size(q, b, n, t)
                        centers = {bytes(n), bytes([q - 1]) * n, b_cyclic(n, q, b, 0)}
                        while len(centers) < 8:
                            centers.add(bytes(rng.randrange(q) for _ in range(n)))
                        for x in centers:
                            assert len(enumerate_insertion_ball(x, q, t, b)) == expected

    def test_cap_refusal(self):
        with pytest.raises(EnumerationCapExceeded):
            enumerate_insertion_ball(bytes(4), 2, 2, 2, cap=10)

    def test_first_symbol_decomposition(self):
        # the ball splits by first symbol: the center's own first symbol heads
        # the ball of its tail; any other symbol heads a free block over the
        # smaller radius
        for q in (2, 3):
            for b in (1, 2):
                for t in (1, 2):
                    for x in (parse_word("010", q), parse_word("110", q)):
                        ball = enumerate_insertion_ball(x, q, t, b)
                        for alpha in range(q):
                            got = frozenset(w for w in ball if w[0] == alpha)
                            if alpha == x[0]:
                                want = frozenset(
                                    bytes([alpha]) + w
                                    for w in enumerate_insertion_ball(x[1:], q, t, b)
                                )
                            else:
                                want = frozenset(
                                    bytes([alpha]) + bytes(block) + w
                                    for block in all_words(q, b - 1)
                                    for w in enumerate_insertion_ball(x, q, t - 1, b)
                                )
                            assert got == want, (q, b, t, x, alpha)


class TestEnumerateDeletionBall:
    def test_windows(self):
        assert enumerate_deletion_ball(parse_word("0110", 2), 1, 2) == words_of(
            "10", "00", "01"
        )

    def test_locked(self):
        assert enumerate_deletion_ball(parse_word("0101", 2), 1, 2) == words_of("01")

    def test_radius_zero(self):
        x = parse_word("0110", 2)
        assert enumerate_deletion_ball(x, 0, 2) == frozenset({x})

    def test_too_short(self):
        with pytest.raises(ValueError):
            enumerate_deletion_ball(bytes(3), 2, 2)

    def test_sizes_bounded_with_extremal_equality(self):
        for b in (2, 3):
            for t in (1, 2):
                for n in range(b * t, b * t + 4):
                    bound = del_ball_max(2, b, n, t)
                    top = 0
                    for x in all_words(2, n):
                        size = len(enumerate_deletion_ball(x, t, b))
                        top = max(top, size)
                        assert size <= bound
                    assert top == bound


def reference_deletion_ball(x, t, b, cap):
    """The enumeration that builds each round, then compares its size with the cap."""
    words = {x}
    for _ in range(t):
        words = {w[:i] + w[i + b :] for w in words for i in range(len(w) - b + 1)}
        if len(words) > cap:
            raise EnumerationCapExceeded(len(words), cap)
    return frozenset(words)


class TestDeletionBallCap:
    def test_over_cap_round_refused_before_it_is_built(self):
        # rounds 1-3 of this center hold 120, 7,022 and 267,034 words; the
        # third is the first over the cap, and it is counted, never built
        tracemalloc.start()
        try:
            with pytest.raises(EnumerationCapExceeded) as info:
                enumerate_deletion_ball(y_sequence(120, 2, 1), 4, 1, cap=10**5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (info.value.required, info.value.cap) == (267_034, 10**5)
        assert peak < 10 * 2**20, peak

    @pytest.mark.parametrize("b, t", [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 2)])
    def test_same_refusals_as_building_each_round(self, b, t):
        # every cap from 1 to just past the largest ball, on every center:
        # the same result or the same refusal (same required words) as the
        # enumeration that checks a round only once it is built
        for n in range(b * t, b * t + 5):
            for x in all_words(2, n):
                top = len(reference_deletion_ball(x, t, b, 10**9))
                for cap in range(1, top + 2):
                    try:
                        expected = reference_deletion_ball(x, t, b, cap)
                    except EnumerationCapExceeded as exc:
                        with pytest.raises(EnumerationCapExceeded) as info:
                            enumerate_deletion_ball(x, t, b, cap)
                        assert info.value.required == exc.required
                    else:
                        assert enumerate_deletion_ball(x, t, b, cap) == expected


# each capped entry point, called with cap as its last argument
CAPPED = {
    "enumerate_insertion_ball": lambda cap: enumerate_insertion_ball(bytes(2), 2, 1, 1, cap),
    "enumerate_deletion_ball": lambda cap: enumerate_deletion_ball(bytes(4), 1, 2, cap),
    "enumerate_deletion_ball/t=0": lambda cap: enumerate_deletion_ball(bytes(4), 0, 2, cap),
    "_stepped_deletion_ranks": lambda cap: _stepped_deletion_ranks(bytes(4), 2, 2, 1, cap),
    "max_intersection_exhaustive": lambda cap: max_intersection_exhaustive(
        3, 2, 1, 1, "insertion", cap
    ),
    "sample_distinct_outputs": lambda cap: sample_distinct_outputs(
        bytes(4), 2, 1, 2, "insertion", 1, 0, cap
    ),
    "_check_cap": lambda cap: _check_cap(0, cap),
}


class TestOneCapRule:
    @pytest.mark.parametrize("cap", [0, -1])
    @pytest.mark.parametrize("name", sorted(CAPPED))
    def test_cap_below_one_has_the_shared_message(self, name, cap):
        with pytest.raises(ValueError) as excinfo:
            CAPPED[name](cap)
        assert str(excinfo.value) == f"cap must be at least 1, got {cap}"

    @pytest.mark.parametrize("name", sorted(CAPPED))
    def test_cap_of_one_is_accepted(self, name):
        # 1 passes the range rule; a call that needs more words refuses by the cap
        try:
            CAPPED[name](1)
        except EnumerationCapExceeded as exc:
            assert exc.cap == 1

    def test_requirement_at_the_cap_passes(self):
        _check_cap(5, 5)
        with pytest.raises(EnumerationCapExceeded) as info:
            _check_cap(6, 5)
        assert (info.value.required, info.value.cap) == (6, 5)


class TestIntersection:
    def test_unit_burst_balls(self):
        a = enumerate_insertion_ball(b"\x00", 2, 1, 1)
        b = enumerate_insertion_ball(b"\x01", 2, 1, 1)
        both = a & b
        assert both == words_of("01", "10")
        assert len(both) == ins_intersection_max(2, 1, 1, 1)


class TestMaxIntersectionExhaustive:
    def test_insertion_value_from_enumeration(self):
        best, witness = max_intersection_exhaustive(2, 2, 2, 2, "insertion")
        assert best == 32 == ins_intersection_max(2, 2, 2, 2)
        # any maximizing pair differs in exactly one position
        assert sum(1 for a, b in zip(*witness) if a != b) == 1

    def test_deletion_value_from_enumeration(self):
        best, _ = max_intersection_exhaustive(7, 2, 2, 2, "deletion")
        assert best == 6 == del_intersection_max_binary(2, 7, 2)

    def test_insertion_matches_formula_small_grid(self):
        for q in (2, 3):
            for b in (2, 3):
                for t in (1, 2):
                    for n in (1, 2):
                        best, _ = max_intersection_exhaustive(n, q, b, t, "insertion")
                        assert best == ins_intersection_max(q, b, n, t)

    def test_witness_is_lexicographically_first(self):
        _, witness = max_intersection_exhaustive(2, 2, 1, 1, "insertion")
        assert witness == (bytes([0, 0]), bytes([0, 1]))

    def test_cap(self):
        with pytest.raises(EnumerationCapExceeded):
            max_intersection_exhaustive(8, 2, 2, 1, "deletion", cap=100)

    def test_table_refuses_centers_over_the_cap_before_building(self, monkeypatch):
        def no_enumeration(*args):
            raise AssertionError("a ball was enumerated")

        # every table works on ranks; the enumerators are patched as well,
        # so that a table path that reached them again would fail here
        for name in (
            "_rank_balls", "enumerate_insertion_ball", "enumerate_deletion_ball",
            "_insertion_masks", "_deletion_masks", "_cuts", "_stepped_deletion_ranks",
        ):
            monkeypatch.setattr(burstrecon.balls, name, no_enumeration)
        # the last deletion cell is too short for its bursts: the cap refuses first
        for n, b, t, kind in (
            (4, 3, 2, "insertion"), (4, 1, 0, "insertion"), (4, 1, 2, "deletion"),
            (4, 2, 0, "deletion"), (4, 3, 2, "deletion"),
        ):
            with pytest.raises(EnumerationCapExceeded) as excinfo:
                _center_masks(n, 3, b, t, kind, 80)
            assert (excinfo.value.required, excinfo.value.cap) == (81, 80), (n, b, t, kind)

    def test_insertion_table_refuses_a_ball_over_the_cap_before_building(self, monkeypatch):
        # 81 centers pass the cap; each ball holds 5,913 words
        assert ins_ball_size(3, 3, 4, 2) == 5913
        assert len(_center_masks(4, 3, 3, 2, "insertion", 5913)) == 81

        def no_enumeration(*args):
            raise AssertionError("a ball was enumerated")

        monkeypatch.setattr(burstrecon.balls, "_rank_balls", no_enumeration)
        with pytest.raises(EnumerationCapExceeded) as excinfo:
            _center_masks(4, 3, 3, 2, "insertion", 5912)
        assert (excinfo.value.required, excinfo.value.cap) == (5913, 5912)

    def test_insertion_masks_and_rank_sets_are_numbered_by_rank(self):
        # bit k of a mask, and rank k of a size row's set, is the k-th word of
        # all_words(q, n + t*b); decoding them by base-q division must give
        # back the enumerated ball, so a comb or a payload offset shifted by
        # one cut shows even where the sizes agree.  t = 0 and n = 0 are in
        # the grid, and a size row's sizes are the enumerated ones.
        cells = 0
        for q in (2, 3, 4, 5):
            for b in (1, 2, 3):
                for t in (0, 1, 2, 3):
                    for n in range(4):
                        length = n + t * b
                        if q**n * q**length > 200_000:
                            break
                        balls = [enumerate_insertion_ball(x, q, t, b) for x in all_words(q, n)]
                        masks = _center_masks(n, q, b, t, "insertion", 10**7)
                        for ball, mask, ranks in zip(
                            balls, masks, _rank_balls(n, q, b, t, "insertion"),
                            strict=True,
                        ):
                            assert words_of_ranks(set_bits(mask), q, length) == ball, (q, b, t, n)
                            assert words_of_ranks(ranks, q, length) == ball, (q, b, t, n)
                        sizes = cli._ball_sizes("insertion", q, b, t, n, 10**7, 1, None, {})
                        assert sizes == [len(ball) for ball in balls], (q, b, t, n)
                        cells += 1
        assert cells > 150

    def test_deletion_masks_and_rank_sets_are_numbered_by_rank(self):
        # bit k of a deletion mask, and rank k of a size row's set, is the
        # k-th word of all_words(q, n - t*b); decoding them by base-q division
        # must give back the enumerated ball, so a cut rank off by one shows
        # even where the sizes agree.  A t = 0 table of either kind is the
        # singletons 1 << rank.
        cells = 0
        for q in (2, 3, 4, 5):
            for b in (1, 2, 3):
                for t in (0, 1, 2, 3):
                    for n in range(t * b, t * b + 5):
                        length = n - t * b
                        if q**n * (length + 1) > 5_000:
                            break
                        balls = [enumerate_deletion_ball(x, t, b) for x in all_words(q, n)]
                        masks = _center_masks(n, q, b, t, "deletion", 10**7)
                        for ball, mask, ranks in zip(
                            balls, masks, _rank_balls(n, q, b, t, "deletion"),
                            strict=True,
                        ):
                            assert words_of_ranks(set_bits(mask), q, length) == ball, (q, b, t, n)
                            assert words_of_ranks(ranks, q, length) == ball, (q, b, t, n)
                        sizes = cli._ball_sizes("deletion", q, b, t, n, 10**7, 1, None, {})
                        assert sizes == [len(ball) for ball in balls], (q, b, t, n)
                        if t == 0:
                            assert masks == tuple(1 << r for r in range(q**n))
                            assert _center_masks(n, q, b, t, "insertion", 10**7) == masks
                        cells += 1
        assert cells > 150

    def test_deletion_tables_and_size_rows_enumerate_no_ball(self, monkeypatch):
        # both work on ranks alone; a size-only del-ball sweep builds no table
        # but every center's ball, on ranks, and the b-cyclic rows step the
        # b-cyclic word once per cell and its flip once more for del-int-lb
        def no_enumeration(*args):
            raise AssertionError("a ball was enumerated")

        built = []
        stepped = Counter()
        real, real_stepped = burstrecon.cli._rank_balls, burstrecon.cli._stepped_deletion_ranks

        def counting(n, q, b, t, kind):
            built.append((q, b, t, n, kind))
            return real(n, q, b, t, kind)

        def counting_steps(x, q, b, t, cap):
            stepped[q, b, t, x] += 1
            return real_stepped(x, q, b, t, cap)

        monkeypatch.setattr(burstrecon.balls, "enumerate_deletion_ball", no_enumeration)
        monkeypatch.setattr(burstrecon.cli, "_rank_balls", counting)
        monkeypatch.setattr(burstrecon.cli, "_stepped_deletion_ranks", counting_steps)
        masks = _center_masks(9, 2, 2, 2, "deletion", 10**7)
        assert max(mask.bit_count() for mask in masks) == del_ball_max(2, 2, 9, 2)
        grid = dict(q_values=(2, 3), b_values=(1, 2), t_values=(0, 1, 2), n_values=(4, 5, 6))
        config = cli.SweepConfig(**grid, kinds=("del-ball",), cap=10**7, seed=0, trials=1, jobs=1)
        assert {r.match for r in cli.run_sweep(config)} == {"true"}
        assert built == [
            (q, b, t, n, "deletion")
            for q in grid["q_values"] for b in grid["b_values"]
            for t in grid["t_values"] for n in grid["n_values"]
        ]
        assert not stepped
        built.clear()
        config = dataclasses.replace(config, kinds=("del-extremal", "del-int-lb"))
        rows = cli.run_sweep(config)
        assert {r.match for r in rows} == {"true", "skip"}
        assert built == []
        expected = Counter()
        for (q, b, t, n), cell in groupby(rows, key=lambda r: (r.q, r.b, r.t, r.n)):
            ran = {r.kind for r in cell if r.match == "true"}
            center, flipped = cyclic_pair(q, b, n)
            expected[q, b, t, center] += bool(ran)
            expected[q, b, t, flipped] += "del-int-lb" in ran
        assert stepped == expected
        assert expected.total() == sum(r.match == "true" for r in rows)

    def test_deletion_table_of_short_words_refuses_as_the_enumerator(self):
        with pytest.raises(ValueError) as enumerated:
            enumerate_deletion_ball(bytes(3), 2, 2)
        with pytest.raises(ValueError) as tabled:
            _center_masks(3, 2, 2, 2, "deletion", 10**7)
        assert str(tabled.value) == str(enumerated.value)
        assert str(tabled.value) == "word of length 3 too short for 2 bursts of 2 deletions"

    def test_deletion_size_row_holds_no_level(self):
        # a table build of q=2, b=1, t=2, n=13 holds level 1: the radius-1
        # masks of all 4,096 words of length 12, which is the table of
        # (n=12, t=1); a size row holds one center's set of ranks at a time,
        # so a size path that kept a level or a table would fail here
        level = _center_masks(12, 2, 1, 1, "deletion", 10**7)
        held = sys.getsizeof(level) + sum(map(sys.getsizeof, level))
        del level
        tracemalloc.start()
        try:
            sizes = cli._ball_sizes("deletion", 2, 1, 2, 13, 10**7, 1, None, {})
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert max(sizes) == del_ball_max(2, 1, 13, 2)
        assert peak * 8 < held, (peak, held)

    def test_insertion_size_row_holds_one_ball(self):
        # an ins-int row of q=2, b=3, t=1, n=10 builds the table of 1,024
        # masks over the 8,192 words of length 13; a size-only ins-ball row
        # holds one center's set of ranks at a time, so a size path that
        # built or kept a table, or kept every ball, would fail here
        table = _center_masks(10, 2, 3, 1, "insertion", 10**7)
        held = sys.getsizeof(table) + sum(map(sys.getsizeof, table))
        del table
        tracemalloc.start()
        try:
            sizes = cli._ball_sizes("insertion", 2, 3, 1, 10, 10**7, 1, None, {})
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert set(sizes) == {ins_ball_size(2, 3, 10, 1)}
        assert peak * 8 < held, (peak, held)

    @pytest.mark.parametrize("q, b, t, n", [(2, 2, 2, 12), (2, 1, 1, 12), (3, 2, 1, 7)])
    def test_deletion_table_peak_stays_near_its_masks(self, q, b, t, n):
        # only the level below the top is held while the table is built
        tracemalloc.start()
        try:
            masks = _center_masks(n, q, b, t, "deletion", 10**7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        table = sys.getsizeof(masks) + sum(map(sys.getsizeof, masks))
        assert peak < 1.5 * table, (peak, table)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 2**12 - 1), min_size=2, max_size=12))
    def test_max_overlap_matches_pairwise_scan(self, masks):
        # any table, not only ball tables: many ties, equal sizes and all-zero
        # masks, through the chosen search and through each search alone
        pairs = [(i, j) for i in range(len(masks)) for j in range(i + 1, len(masks))]
        overlap = {(i, j): (masks[i] & masks[j]).bit_count() for i, j in pairs}
        best = max(overlap.values())
        first = min(pair for pair in pairs if overlap[pair] == best)
        assert _max_overlap(tuple(masks)) == (best, first)
        assert both_searches(tuple(masks)) == ((best, first), (best, first))

    def test_matches_pairwise_reference(self):
        # every cell of q 2,3 x b 1..3 x t 0..2, both kinds, from the shortest
        # legal n (and the one after it) until the centers' balls hold more
        # than 10,000 words in all
        cells = 0
        for kind in ("insertion", "deletion"):
            for q in (2, 3):
                for b in (1, 2, 3):
                    for t in (0, 1, 2):
                        first = 1 if kind == "insertion" else max(1, t * b)
                        for n in range(first, first + 6):
                            size = (
                                ins_ball_size(q, b, n, t)
                                if kind == "insertion"
                                else del_ball_max(q, b, n, t)
                            )
                            if n > first + 1 and q**n * size > 10000:
                                break
                            got = max_intersection_exhaustive(n, q, b, t, kind)
                            assert got == reference_max_intersection(n, q, b, t, kind), (
                                kind, q, b, t, n,
                            )
                            self.assert_searches_agree(got, n, q, b, t, kind)
                            cells += 1
        # binary deletion cells large enough for the size bound to prune,
        # where many pairs tie the maximum
        for b in (1, 2, 3):
            for n in (9, 10):
                got = max_intersection_exhaustive(n, 2, b, 2, "deletion")
                assert got == reference_max_intersection(n, 2, b, 2, "deletion"), (b, n)
                self.assert_searches_agree(got, n, 2, b, 2, "deletion")
                cells += 1
        # alphabets past the digit text form, where a word's rank cannot be
        # read from its text
        for n, q, b, t in ((2, 12, 1, 1), (1, 11, 2, 2), (1, 255, 1, 1)):
            got = max_intersection_exhaustive(n, q, b, t, "insertion")
            assert got == reference_max_intersection(n, q, b, t, "insertion"), (q, b, t, n)
            self.assert_searches_agree(got, n, q, b, t, "insertion")
            cells += 1
        assert cells > 150

    @staticmethod
    def assert_searches_agree(got, n, q, b, t, kind):
        """Both searches give got, max_intersection_exhaustive's (max, witness), on the cell's table."""
        pairs, cooccurrence = both_searches(_center_masks(n, q, b, t, kind, 10**7))
        weights = [q**e for e in range(n - 1, -1, -1)]
        assert (pairs[0], tuple(bytes(k // w % q for w in weights) for k in pairs[1])) == got
        assert cooccurrence == pairs, (kind, q, b, t, n)

    @pytest.mark.parametrize("b, n", [(1, 5), (1, 6), (1, 7), (2, 5), (2, 6), (2, 7), (2, 8), (3, 6), (3, 7)])
    def test_searches_agree_on_ternary_radius_one_deletion_tables(self, b, n):
        # every ball exceeds the largest overlap, so the pair search visits all pairs
        got = max_intersection_exhaustive(n, 3, b, 1, "deletion")
        self.assert_searches_agree(got, n, 3, b, 1, "deletion")

    @pytest.mark.parametrize(
        "n, q, b, t, kind, search",
        [
            (10, 2, 2, 1, "deletion", "_max_cooccurrence"),
            (10, 2, 3, 1, "deletion", "_max_cooccurrence"),
            (10, 2, 2, 2, "deletion", "_max_pair_overlap"),
            (4, 3, 3, 2, "insertion", "_max_pair_overlap"),
        ],
    )
    def test_the_table_chooses_the_search(self, monkeypatch, n, q, b, t, kind, search):
        # t = 1 deletion balls all exceed the overlap, so the size bound never
        # prunes; the (10, 2, 2, 2) pair search prunes.  On the last two even
        # the Cauchy-Schwarz bound on the co-occurrence count exceeds the
        # pairs, so no set bit is listed (478,953 on the insertion table)
        masks = _center_masks(n, q, b, t, kind, 10**7)
        calls = Counter()
        for module, name in (
            (burstrecon.balls.re, "finditer"),  # lists one mask's set bits
            (burstrecon.balls, "_max_cooccurrence"),
            (burstrecon.balls, "_max_pair_overlap"),
        ):
            real = getattr(module, name)
            spy = lambda *args, real=real, name=name: calls.update([name]) or real(*args)
            monkeypatch.setattr(module, name, spy)
        result = _max_overlap(masks)
        monkeypatch.undo()
        assert calls[search] == 1
        assert calls["_max_cooccurrence"] + calls["_max_pair_overlap"] == 1
        assert calls["finditer"] == (len(masks) if kind == "deletion" and t == 1 else 0)
        assert result == both_searches(masks)[0]

    def test_cooccurrence_holds_no_pair_counts(self):
        # one Counter of every pair that meets peaks at about 8 MB on this table
        masks = _center_masks(10, 2, 3, 1, "deletion", 10**7)
        (best, _), peak = traced_peak(lambda: _max_overlap(masks))
        assert best == del_intersection_max_binary(3, 10, 1)
        assert peak < 2**20, peak

    def test_holds_no_ball_sets(self):
        # the 81 insertion balls of this cell hold 5,913 words each; keeping
        # them all, as the pairwise loop did, peaks at their summed size, and
        # the call's own table of masks is dropped when it returns
        ball = enumerate_insertion_ball(bytes(4), 3, 2, 3)
        summed = 3**4 * (sys.getsizeof(ball) + sum(sys.getsizeof(w) for w in ball))
        del ball
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            best, _ = max_intersection_exhaustive(4, 3, 3, 2, "insertion")
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert best == ins_intersection_max(3, 3, 4, 2)
        assert peak * 3 < summed, (peak, summed)
        assert after - before < 4096, (before, after)

    def test_sweep_leaves_no_table(self):
        # the size and overlap rows of a cell share its table, which dies with
        # the cell; these tables peak at about 300 KB and 100 KB
        for q, b, t, n, kinds in (
            (2, 1, 3, 8, ("ins-ball", "ins-int")),
            (2, 2, 2, 10, ("del-ball", "del-int")),
        ):
            config = cli.SweepConfig(
                q_values=(q,), b_values=(b,), t_values=(t,), n_values=(n,),
                kinds=kinds, cap=10**7, seed=0, trials=1, jobs=1,
            )
            tracemalloc.start()
            try:
                before, _ = tracemalloc.get_traced_memory()
                matches = [r.match for r in cli.run_sweep(config)]
                after, _ = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert matches == ["true", "true"]
            assert after - before < 4096, (kinds, before, after)


class TestConstructedPairOverlap:
    def test_flip_pair_achieves_lower_bound(self):
        for q in (2, 3):
            for b in (2, 3):
                for t in (1, 2):
                    for n in range(b * (t + 1) - 1, b * (t + 1) + 3):
                        x = bytes(b) + b_cyclic(n - b, q, b, 1 % q)
                        y = bytearray(x)
                        y[b - 1] = 1
                        ball_x = enumerate_deletion_ball(x, t, b)
                        got = len(ball_x & enumerate_deletion_ball(bytes(y), t, b))
                        assert got == del_intersection_lower_bound(q, b, n, t)

    def test_binary_flip_pair_is_maximal(self):
        for b in (2, 3):
            for t in (1, 2):
                n = b * (t + 1) + 1
                best, _ = max_intersection_exhaustive(n, 2, b, t, "deletion")
                assert best == del_intersection_lower_bound(2, b, n, t)


def traced_peak(run):
    """The result of run() and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        result = run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def cyclic_pair(q, b, n):
    """The b-cyclic center of del-extremal and del-int-lb, and its copy with entry b set to 1."""
    center = bytes(i // b % q for i in range(n))
    return center, center[: b - 1] + b"\x01" + center[b:]


def refusal(run):
    """The ``required`` of the EnumerationCapExceeded that run() raises, or None."""
    try:
        run()
    except EnumerationCapExceeded as exc:
        return exc.required
    return None


class TestSteppedDeletionRanks:
    # the b-cyclic rows step one long word's deletion ball from cut to cut:
    # key _SPREAD * j stands for the j-th word of all_words(q, len(x) - t*b),
    # and the last round yields one key per cut of every word of the round
    # before

    @staticmethod
    def check(x, q, b, t):
        keys = list(_stepped_deletion_ranks(x, q, b, t, 10**7))
        ball = enumerate_deletion_ball(x, t, b)
        assert words_of_keys(keys, q, len(x) - t * b) == ball, (q, b, t, x)
        cuts = len(x) - t * b + 1
        assert len(keys) == (len(enumerate_deletion_ball(x, t - 1, b)) * cuts if t else 1)
        return ball

    def test_ranks_decode_to_the_enumerated_ball(self):
        # random words and the b-cyclic pair, on alphabets past the digit text
        # form too, where the step weights q**k are large; decoding by base-q
        # division shows a weight shifted by one cut, and a first rank that
        # kept the deleted block runs past the last word; a key that is no
        # multiple of _SPREAD shows a weight or a cut left unscaled
        rng = random.Random(25)
        balls = 0
        for q in (2, 3, 4, 5, 11, 255):
            for b in (1, 2, 3):
                for t in (0, 1, 2, 3):
                    for n in range(t * b, 10):
                        words = [bytes(rng.randrange(q) for _ in range(n)) for _ in range(2)]
                        words += cyclic_pair(q, b, n) if n >= b else ()
                        for x in words:
                            self.check(x, q, b, t)
                            balls += 1
        assert balls > 1000

    def test_refuses_over_the_cap_before_any_step(self, monkeypatch):
        # at every cap up to just past the largest round, the builder refuses
        # with the required words of the reference that builds each round, at
        # the call: no cut is taken and no rank is yielded
        cuts = []
        real = burstrecon.balls._cuts
        monkeypatch.setattr(burstrecon.balls, "_cuts", lambda *args: cuts.append(args) or real(*args))
        rng = random.Random(31)
        refused = passed = 0
        for q, b, t in product((2, 3), (1, 2), (1, 2, 3)):
            for n in range(t * b, t * b + 4):
                x = bytes(rng.randrange(q) for _ in range(n))
                rounds = [len(reference_deletion_ball(x, s, b, 10**9)) for s in range(t + 1)]
                for cap in range(1, max(rounds) + 2):
                    expected = refusal(lambda: reference_deletion_ball(x, t, b, cap))
                    cuts.clear()
                    got = refusal(lambda: _stepped_deletion_ranks(x, q, b, t, cap))
                    assert got == expected, (q, b, t, x, cap)
                    if expected is None:
                        passed += 1
                    else:
                        assert cuts == [], (q, b, t, x, cap)
                        refused += 1
        assert refused > 50 and passed > 50
        # the long center whose third round, 267,034 words, is the first over the cap
        cuts.clear()
        with pytest.raises(EnumerationCapExceeded) as info:
            _stepped_deletion_ranks(y_sequence(120, 2, 1), 2, 1, 4, 10**5)
        assert (info.value.required, cuts) == (267_034, [])

    @pytest.mark.parametrize("q, b, t, n", [(2, 2, 2, 200), (4, 2, 2, 150)])
    def test_keys_spread_over_hash_slots(self, q, b, t, n):
        # bare ranks of a b-cyclic ball over 2 or 4 symbols hash to few
        # residues mod 2**61 - 1 (1,116 and 837 distinct low 16 bits here);
        # the keys must take at least one low-16-bit hash per two keys
        keys = set(_stepped_deletion_ranks(cyclic_pair(q, b, n)[0], q, b, t, 10**7))
        assert len({hash(key) & 0xFFFF for key in keys}) >= len(keys) // 2, (q, b, t, n)

    @pytest.mark.parametrize("q, b, t, n", [(2, 2, 3, 40), (2, 1, 3, 30), (3, 3, 2, 60), (5, 2, 2, 25)])
    def test_long_words(self, q, b, t, n):
        rng = random.Random(f"{q} {b} {t} {n}")
        for x in (bytes(rng.randrange(q) for _ in range(n)), *cyclic_pair(q, b, n)):
            assert len(self.check(x, q, b, t)) > 100


class TestCyclicRankBalls:
    # del-extremal and del-int-lb hold the b-cyclic ball as a set of word
    # ranks and stream its flip's ranks into the overlap; the word enumerator
    # is the reference for both
    GRID = [
        (q, b, t, n)
        for q in (2, 3, 4) for b in (1, 2, 3) for t in (0, 1, 2, 3)
        for n in range(max(b, t * b), 10)
    ]

    def test_rank_sets_decode_to_the_enumerated_balls(self, monkeypatch):
        # each center word is stepped once, the b-cyclic word and its flip;
        # dividing what each yielded by _SPREAD, with no remainder, and
        # decoding the quotient by base-q division must give back the
        # enumerated balls, so a flip at the wrong entry shows even where the
        # sizes agree
        built = {}
        real = cli._stepped_deletion_ranks

        def recording(x, q, b, t, cap):
            assert x not in built, "a center word was stepped twice"
            built[x] = []
            for r in real(x, q, b, t, cap):
                built[x].append(r)
                yield r

        monkeypatch.setattr(cli, "_stepped_deletion_ranks", recording)
        for q, b, t, n in self.GRID:
            center, flipped = cyclic_pair(q, b, n)
            built.clear()
            tables = {}
            overlap = cli._flip_pair_overlap(q, b, t, n, 10**7, 1, None, tables)
            ball_x, ball_y = enumerate_deletion_ball(center, t, b), enumerate_deletion_ball(flipped, t, b)
            assert list(built) == [center, flipped], (q, b, t, n)
            assert set(built[center]) == tables["b-cyclic"], (q, b, t, n)
            assert words_of_keys(built[center], q, n - t * b) == ball_x, (q, b, t, n)
            assert words_of_keys(built[flipped], q, n - t * b) == ball_y, (q, b, t, n)
            assert overlap == len(ball_x & ball_y), (q, b, t, n)
            assert len(cli._cyclic_deletion_ball(q, b, t, n, 10**7, 1, None, tables)) == len(ball_x)
            assert list(built) == [center, flipped], (q, b, t, n)
        assert len(self.GRID) > 200

    @pytest.mark.parametrize("cap", [1, 10, 50])
    def test_rank_path_refuses_as_the_enumerator(self, cap):
        # the b-cyclic ball refuses with the enumerator's required words, and
        # the flip pair as enumerating both words did; each word's builder
        # gates its own rounds, and the flip's never meet the cap before the
        # b-cyclic word's (y_sequence has the largest ball at every radius)
        outcomes = set()
        for q, b, t, n in self.GRID:
            center, flipped = cyclic_pair(q, b, n)
            expected = refusal(lambda: enumerate_deletion_ball(center, t, b, cap))
            got = refusal(lambda: cli._cyclic_deletion_ball(q, b, t, n, cap, 1, None, {}))
            assert got == expected, (q, b, t, n)
            pair = expected or refusal(lambda: enumerate_deletion_ball(flipped, t, b, cap))
            got = refusal(lambda: cli._flip_pair_overlap(q, b, t, n, cap, 1, None, {}))
            assert got == pair, (q, b, t, n)
            outcomes.add(expected is None)
        assert outcomes == {True, False}

    def test_cyclic_rows_hold_under_half_the_word_sets(self):
        # a 19,307-word ball of 196-symbol words and its flip's: as ranks, a
        # del-extremal,del-int-lb cell peaks under half of what the two word
        # sets take
        q, b, t, n = 2, 2, 2, 200
        config = cli.SweepConfig(
            q_values=(q,), b_values=(b,), t_values=(t,), n_values=(n,),
            kinds=("del-extremal", "del-int-lb"), cap=10**7, seed=0, trials=1, jobs=1,
        )
        rows, ranks = traced_peak(lambda: [(r.oracle, r.match) for r in cli.run_sweep(config)])
        center, flipped = cyclic_pair(q, b, n)

        def word_sets():
            ball = enumerate_deletion_ball(center, t, b)
            return [len(ball), len(ball & enumerate_deletion_ball(flipped, t, b))]

        sizes, words = traced_peak(word_sets)
        assert rows == [(str(size), "true") for size in sizes] and sizes[0] == 19_307
        assert ranks * 2 < words, (ranks, words)


    def test_flip_ball_is_never_held(self):
        # del-int-lb streams the flip's ranks into the overlap, so its traced
        # peak stays near the b-cyclic rank set it builds and keeps; holding
        # the flip's ball as a set too would take about twice that
        q, b, t, n = 2, 2, 2, 200
        tables = {}
        overlap, peak = traced_peak(
            lambda: cli._flip_pair_overlap(q, b, t, n, 10**7, 1, None, tables)
        )
        ball = tables["b-cyclic"]
        held = sys.getsizeof(ball) + sum(map(sys.getsizeof, ball))
        assert (len(ball), overlap) == (19_307, del_intersection_lower_bound(q, b, n, t))
        assert peak < 1.4 * held, (peak, held)


class TestDeletionMembership:
    def test_known_members(self):
        assert is_deletion_descendant(parse_word("0110", 2), parse_word("10", 2), 1, 2)
        assert not is_deletion_descendant(parse_word("0101", 2), parse_word("11", 2), 1, 2)

    def test_radius_zero(self):
        v = parse_word("0110", 2)
        assert is_deletion_descendant(v, v, 0, 2)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            is_deletion_descendant(parse_word("0110", 2), parse_word("0", 2), 1, 2)

    def test_agrees_with_enumeration_exhaustively(self):
        for b in (1, 2, 3):
            for t in (1, 2):
                for n in range(b * t, b * t + 4):
                    for v in all_words(2, n):
                        ball = enumerate_deletion_ball(v, t, b)
                        for y in all_words(2, n - t * b):
                            assert is_deletion_descendant(v, y, t, b) == (y in ball)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_enumeration_random(self, data):
        q = data.draw(st.sampled_from([2, 3]))
        b = data.draw(st.integers(1, 3))
        t = data.draw(st.integers(1, 2))
        n = data.draw(st.integers(b * t, b * t + 5))
        v = bytes(data.draw(st.integers(0, q - 1)) for _ in range(n))
        y = bytes(data.draw(st.integers(0, q - 1)) for _ in range(n - t * b))
        ball = enumerate_deletion_ball(v, t, b)
        assert is_deletion_descendant(v, y, t, b) == (y in ball)


    def test_matches_reference_exhaustively(self):
        pairs = 0
        for q in (2, 3):
            for b in (1, 2, 3):
                for t in (0, 1, 2, 3):
                    for n in range(t * b, t * b + 6):
                        if q ** (2 * n - t * b) > 20000:
                            break
                        for v in all_words(q, n):
                            for y in all_words(q, n - t * b):
                                assert is_deletion_descendant(v, y, t, b) == (
                                    reference_is_deletion_descendant(v, y, t, b)
                                ), (v, y, t, b)
                                pairs += 1
        assert pairs > 100000

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_on_flipped_members(self, data):
        # a member of the ball, then the same word with one symbol changed:
        # near misses are where a wrong frontier would go astray
        q = data.draw(st.sampled_from([2, 3]))
        b = data.draw(st.integers(1, 6))
        t = data.draw(st.integers(0, 4))
        n = data.draw(st.integers(t * b, t * b + 24))
        v = bytes(data.draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n)))
        y = v
        for _ in range(t):
            start = data.draw(st.integers(0, len(y) - b))
            y = y[:start] + y[start + b :]
        assert is_deletion_descendant(v, y, t, b)
        if y:
            k = data.draw(st.integers(0, len(y) - 1))
            flipped = y[:k] + bytes([(y[k] + 1) % q]) + y[k + 1 :]
            assert is_deletion_descendant(v, flipped, t, b) == (
                reference_is_deletion_descendant(v, flipped, t, b)
            )

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_random(self, data):
        q = data.draw(st.sampled_from([2, 3]))
        b = data.draw(st.integers(1, 4))
        t = data.draw(st.integers(1, 3))
        n = data.draw(st.integers(b * t, b * t + 6))
        v = bytes(data.draw(st.integers(0, q - 1)) for _ in range(n))
        y = bytes(data.draw(st.integers(0, q - 1)) for _ in range(n - t * b))
        assert is_deletion_descendant(v, y, t, b) == reference_is_deletion_descendant(
            v, y, t, b
        )


    def test_sets_match_reference(self):
        # the frontier over a whole output set, as phase 2 runs it: a set of
        # members passes, and a near miss put first, in the middle or last
        # decides the set as the per-output reference does (a flip may land
        # on another member)
        rng = random.Random(20261020)
        sets = 0
        for q in (2, 3, 255):
            for b in range(1, 7):
                for t in range(5):
                    for _ in range(4):
                        n = rng.randint(t * b, t * b + 24)
                        v = bytes(rng.randrange(q) for _ in range(n))
                        members = []
                        for _ in range(rng.randint(1, 6)):
                            y = v
                            for _ in range(t):
                                start = rng.randint(0, len(y) - b)
                                y = y[:start] + y[start + b :]
                            members.append(y)
                        assert _descends_all(v, members, t, b), (q, b, t, v, members)
                        assert _descends_all(v, [], t, b)
                        if n == t * b:
                            continue
                        y = rng.choice(members)
                        k = rng.randrange(len(y))
                        symbol = (y[k] + rng.randrange(1, q)) % q
                        flipped = y[:k] + bytes([symbol]) + y[k + 1 :]
                        middle = len(members) // 2
                        for ys in (
                            [flipped] + members,
                            members[:middle] + [flipped] + members[middle:],
                            members + [flipped],
                        ):
                            expected = all(reference_is_deletion_descendant(v, y, t, b) for y in ys)
                            assert _descends_all(v, ys, t, b) == expected, (q, b, t, v, ys)
                            sets += 1
        assert sets > 1000


class TestInsertionMembership:
    def test_known_members(self):
        assert is_insertion_descendant(b"\x00", parse_word("010", 2), 1, 2)
        assert not is_insertion_descendant(b"\x00", parse_word("111", 2), 1, 2)

    def test_radius_zero(self):
        x = parse_word("012", 3)
        assert is_insertion_descendant(x, x, 0, 3)

    def test_agrees_with_enumeration(self):
        for q in (2, 3):
            for b in (1, 2):
                for t in (1, 2):
                    for n in (0, 1, 2):
                        for x in all_words(q, n):
                            ball = enumerate_insertion_ball(x, q, t, b)
                            for y in all_words(q, n + t * b):
                                assert is_insertion_descendant(x, y, t, b) == (y in ball)
