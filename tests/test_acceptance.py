"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass/fail line (run with ``pytest -s`` to see them all
live).  Counts are exact, so every comparison below is strict equality; the
only tolerance anywhere is the factor-of-4 allowance on the runtime-scaling
check, which exists for machine noise alone.
"""

import random

import pytest

from burstrecon import (
    BelowThreshold,
    all_words,
    b_cyclic,
    count_centers_by_radius1_ball_size,
    del_ball_max,
    del_intersection_max_binary,
    enumerate_deletion_ball,
    enumerate_insertion_ball,
    ins_ball_size,
    ins_intersection_max,
    is_deletion_descendant,
    is_insertion_descendant,
    max_intersection_exhaustive,
    reconstruct_from_deletions,
    reconstruct_from_insertions,
    sample_distinct_outputs,
    sphere_packing_bound,
    y_sequence,
)
from seeding import trial_seed

MASTER_SEED = 20260810
TRIALS_PER_CELL = 100


def _report(cid, description, body):
    try:
        detail = body()
    except BaseException:
        print(f"[{cid}] FAIL  {description}")
        raise
    suffix = f" ({detail})" if detail else ""
    print(f"[{cid}] PASS  {description}{suffix}")


def test_criterion_01_insertion_ball_regularity():
    def body():
        cells = 0
        for q in (2, 3):
            for b in (1, 2, 3):
                for t in (1, 2):
                    for n in range(1, 8):
                        expected = ins_ball_size(q, b, n, t)
                        for x in all_words(q, n):
                            got = len(enumerate_insertion_ball(x, q, t, b))
                            assert got == expected, (q, b, t, n, x, got, expected)
                        cells += 1
        return f"{cells} grid cells, every center"

    _report("C1", "insertion ball size matches the closed form for every center", body)


def test_criterion_02_insertion_intersection_maximum():
    def body():
        cells = 0
        for q in (2, 3):
            for b in (2, 3):
                for t in (1, 2):
                    for n in range(1, 5):
                        expected = ins_intersection_max(q, b, n, t)
                        got, witness = max_intersection_exhaustive(n, q, b, t, "insertion")
                        assert got == expected, (q, b, t, n, got, expected)
                        # a pair differing exactly at the first position achieves it
                        for tail in (bytes(n - 1), bytes([1] * (n - 1))):
                            x = bytes([0]) + tail
                            y = bytes([1]) + tail
                            ball_x = enumerate_insertion_ball(x, q, t, b)
                            overlap = ball_x & enumerate_insertion_ball(y, q, t, b)
                            assert len(overlap) == expected, (q, b, t, n, tail)
                        cells += 1
        return f"{cells} grid cells, exhaustive over all pairs"

    _report("C2", "exhaustive insertion overlap equals the closed form", body)


def test_criterion_03_radius_one_spot_values():
    def body():
        for q in (2, 3):
            for b in (2, 3, 4):
                # insertion side: the overlap maximum at radius one
                expected_plus = 2 * q ** (b - 1)
                for n in (1, 2, 5):
                    assert ins_intersection_max(q, b, n, 1) == expected_plus
                got, _ = max_intersection_exhaustive(2, q, b, 1, "insertion")
                assert got == expected_plus, (q, b, got, expected_plus)
                # deletion side at the shortest proven length
                n = 2 * b - 1
                expected_minus = max(2, b)
                got, _ = max_intersection_exhaustive(n, q, b, 1, "deletion")
                assert got == expected_minus, (q, b, got, expected_minus)
                if q == 2:
                    assert del_intersection_max_binary(b, n, 1) == expected_minus
        return "b in {2,3,4}, q in {2,3}"

    _report("C3", "radius-1 overlap spot values on both channels", body)


def test_criterion_04_deletion_ball_maximum():
    def body():
        cells = 0
        for b in (2, 3):
            for t in (1, 2):
                for n in range(b * t + 1, 11):
                    expected = del_ball_max(2, b, n, t)
                    top = max(
                        len(enumerate_deletion_ball(x, t, b)) for x in all_words(2, n)
                    )
                    assert top == expected, (b, t, n, top, expected)
                    for start in (0, 1):
                        for j in range(b):
                            center = y_sequence(n, 2, b, start, j)
                            got = len(enumerate_deletion_ball(center, t, b))
                            assert got == expected, (b, t, n, start, j, got)
                    cells += 1
        return f"{cells} grid cells, every center and every extremal center"

    _report("C4", "deletion ball maximum and its extremal centers", body)


def test_criterion_05_binary_deletion_intersection_maximum():
    def body():
        cells = 0
        b = 2
        for t in (1, 2):
            for n in range(b * (t + 1) - 1, 10):
                expected = del_ball_max(2, b, n, t) - _binom(n - (t + 1) * b + 1, t)
                assert expected == del_intersection_max_binary(b, n, t)
                got, _ = max_intersection_exhaustive(n, 2, b, t, "deletion")
                assert got == expected, (t, n, got, expected)
                x, y = _flip_pair(2, b, n)
                overlap = enumerate_deletion_ball(x, t, b) & enumerate_deletion_ball(y, t, b)
                assert len(overlap) == expected, (t, n)
                cells += 1
        return f"{cells} grid cells, exhaustive over all pairs"

    _report("C5", "exhaustive binary deletion overlap equals the closed form", body)


def test_criterion_06_sphere_packing_burst_independence():
    def body():
        points = 0
        for q in (2, 3):
            for t in (1, 2):
                for n in range(1, 9):
                    values = {sphere_packing_bound(q, b, n, t)[0] for b in (1, 2, 3)}
                    assert len(values) == 1, (q, t, n, values)
                    points += 1
        return f"{points} parameter points, exact rationals"

    _report("C6", "sphere-packing bound independent of the burst length", body)


def test_criterion_07_reconstruction_round_trips():
    def body():
        failures = 0
        trials = 0
        vacuous = []
        trial_counter = 0
        for q in (2, 3):
            for b in (2, 3):
                for t in (1, 2):
                    for n in range(1, 7):
                        need = ins_intersection_max(q, b, n, t) + 1
                        assert ins_ball_size(q, b, n, t) >= need
                        rng = random.Random(trial_seed(MASTER_SEED, trial_counter))
                        trial_counter += 1
                        for _ in range(TRIALS_PER_CELL):
                            x = bytes(rng.randrange(q) for _ in range(n))
                            sample = sample_distinct_outputs(
                                x, q, t, b, "insertion", need, rng.getrandbits(48)
                            )
                            result = reconstruct_from_insertions(sample.outputs, n, q, b, t)
                            trials += 1
                            if result.word != x:
                                failures += 1
        for b in (2, 3):
            for t in (1, 2):
                for n in range(b * (t + 1) - 1, 11):
                    need = del_intersection_max_binary(b, n, t) + 1
                    eligible = [
                        x
                        for x in all_words(2, n)
                        if len(enumerate_deletion_ball(x, t, b)) >= need
                    ]
                    if not eligible:
                        # threshold+1 exceeds the largest ball: no channel can
                        # produce a qualifying output set at this length
                        vacuous.append((b, t, n))
                        continue
                    rng = random.Random(trial_seed(MASTER_SEED, trial_counter))
                    trial_counter += 1
                    for _ in range(TRIALS_PER_CELL):
                        x = eligible[rng.randrange(len(eligible))]
                        sample = sample_distinct_outputs(
                            x, 2, t, b, "deletion", need, rng.getrandbits(48)
                        )
                        result = reconstruct_from_deletions(sample.outputs, n, b, t)
                        trials += 1
                        if result.word != x:
                            failures += 1
        assert failures == 0, f"{failures} of {trials} trials failed"
        return f"{trials} trials, 0 failures, {len(vacuous)} vacuous deletion cells"

    _report("C7", "seeded round trips recover the center in 100% of trials", body)


def test_criterion_08_threshold_tightness():
    def body():
        # insertion side: centers differing at the first position
        q, b, t, n = 2, 2, 2, 3
        x = bytes([0, 1, 0])
        y = bytes([1, 1, 0])
        overlap = enumerate_insertion_ball(x, q, t, b) & enumerate_insertion_ball(y, q, t, b)
        assert len(overlap) == ins_intersection_max(q, b, n, t)
        for w in overlap:
            assert is_insertion_descendant(x, w, t, b)
            assert is_insertion_descendant(y, w, t, b)
        with pytest.raises(BelowThreshold):
            reconstruct_from_insertions(overlap, n, q, b, t)

        # deletion side: the cyclic center and its flipped twin
        b, t, n = 2, 2, 7
        x, y = _flip_pair(2, b, n)
        overlap = enumerate_deletion_ball(x, t, b) & enumerate_deletion_ball(y, t, b)
        assert len(overlap) == del_intersection_max_binary(b, n, t)
        for w in overlap:
            assert is_deletion_descendant(x, w, t, b)
            assert is_deletion_descendant(y, w, t, b)
        with pytest.raises(BelowThreshold):
            reconstruct_from_deletions(overlap, n, b, t)
        return "both channels: threshold-sized sets fit two centers and are refused"

    _report("C8", "the +1 in both reconstruction thresholds is necessary", body)


def test_criterion_09_ball_size_distribution():
    def body():
        for q, b, n in ((2, 2, 6), (3, 2, 5)):
            histogram = {}
            for x in all_words(q, n):
                size = len(enumerate_deletion_ball(x, 1, b))
                histogram[size] = histogram.get(size, 0) + 1
            for i in range(1, n - b + 2):
                expected = count_centers_by_radius1_ball_size(q, b, n, i)
                assert histogram.get(i, 0) == expected, (q, b, n, i)
            assert sum(histogram.values()) == q**n
            assert set(histogram) <= set(range(1, n - b + 2))
        return "(q,b,n) in {(2,2,6), (3,2,5)}, exact histogram"

    _report("C9", "radius-1 ball-size distribution matches the census formula", body)


def test_criterion_10_linear_runtime_scaling():
    def body():
        ratios = []

        # insertion decoder at a mid-size length
        q, b, t, n = 2, 2, 2, 40
        base = ins_intersection_max(q, b, n, t) + 1
        rng = random.Random(trial_seed(MASTER_SEED, 999))
        x = bytes(rng.randrange(q) for _ in range(n))
        times = {}
        for count in (base, 2 * base):
            sample = sample_distinct_outputs(x, q, t, b, "insertion", count, 4242)
            best = min(
                reconstruct_from_insertions(sample.outputs, n, q, b, t).phase1_seconds
                for _ in range(7)
            )
            times[count] = best
        ratios.append(times[2 * base] / times[base])

        # deletion decoder at a mid-size length; the base sits at twice the
        # threshold so that base and doubled runs walk the same branch shape
        b, t, n = 2, 2, 100
        base = 2 * (del_intersection_max_binary(b, n, t) + 1)
        x = y_sequence(n, 2, b, 0, 0)
        times = {}
        for count in (base, 2 * base):
            sample = sample_distinct_outputs(x, 2, t, b, "deletion", count, 4242)
            best = min(
                reconstruct_from_deletions(sample.outputs, n, b, t).phase1_seconds
                for _ in range(7)
            )
            times[count] = best
        ratios.append(times[2 * base] / times[base])

        for ratio in ratios:
            assert ratio <= 4.0, f"doubling the outputs scaled phase 1 by {ratio:.2f}x"
        return "doubling ratios " + ", ".join(f"{r:.2f}x" for r in ratios)

    _report("C10", "phase-1 time scales at most linearly in the output count", body)


def _binom(n, k):
    from burstrecon import binom

    return binom(n, k)


def _flip_pair(q, b, n):
    x = bytes(b) + b_cyclic(n - b, q, b, 1 % q)
    y = bytearray(x)
    y[b - 1] = 1
    return x, bytes(y)
