"""Closed-form counts: frozen values, identities, and grid properties.

Frozen expected values marked 'from enumeration' were computed with the
brute-force ball oracles in burstrecon.balls before being pinned here.
"""

import pytest
from fractions import Fraction

from hypothesis import given, strategies as st

from burstrecon import (
    BelowThreshold,
    BurstEvent,
    MAX_ALPHABET,
    all_words,
    apply_burst_deletion,
    b_cyclic,
    binom,
    count_centers_by_radius1_ball_size,
    del_ball_max,
    del_ball_size,
    del_intersection_lower_bound,
    del_intersection_max_binary,
    del_intersection_threshold,
    enumerate_deletion_ball,
    enumerate_insertion_ball,
    format_event,
    format_word,
    ins_ball_size,
    ins_intersection_max,
    is_deletion_descendant,
    is_insertion_descendant,
    max_intersection_exhaustive,
    parse_word,
    reconstruct_from_deletions,
    reconstruct_from_insertions,
    sample_distinct_outputs,
    sphere_packing_bound,
    validate_word,
    y_sequence,
)
from burstrecon.combinatorics import _check_params

GRID_Q = (2, 3)
GRID_B = (1, 2, 3)


class TestBinom:
    def test_upper_smaller_than_lower_is_zero(self):
        assert binom(3, 5) == 0

    def test_equal_indices(self):
        assert binom(5, 5) == 1
        assert binom(0, 0) == 1

    def test_plain_value(self):
        assert binom(4, 2) == 6

    def test_negative_upper_is_zero(self):
        assert binom(-1, 0) == 0
        assert binom(-3, 2) == 0

    def test_negative_lower_rejected(self):
        with pytest.raises(ValueError):
            binom(4, -1)

    @given(st.integers(-20, 40), st.integers(1, 20))
    def test_pascal(self, n, k):
        assert binom(n, k) == binom(n - 1, k) + binom(n - 1, k - 1)


class TestInsBallSize:
    def test_radius_zero(self):
        assert ins_ball_size(2, 2, 1, 0) == 1

    @pytest.mark.parametrize("q,b,t", [(2, 2, 1), (2, 3, 2), (3, 2, 2), (3, 1, 1)])
    def test_empty_center(self, q, b, t):
        assert ins_ball_size(q, b, 0, t) == q ** (b * t)

    def test_small_value_from_enumeration(self):
        # distinct results of one 2-burst insertion into 010
        assert ins_ball_size(2, 2, 3, 1) == 10

    def test_burst_factor(self):
        for q in GRID_Q:
            for b in GRID_B:
                for t in range(3):
                    for n in range(9):
                        assert ins_ball_size(q, b, n, t) == q ** (
                            t * (b - 1)
                        ) * ins_ball_size(q, 1, n, t)


class TestInsIntersectionMax:
    def test_radius_one_value(self):
        for q in GRID_Q:
            for b in (1, 2, 3, 4):
                for n in (1, 3, 6):
                    assert ins_intersection_max(q, b, n, 1) == 2 * q ** (b - 1)

    def test_small_value_from_enumeration(self):
        # exhaustive max over distinct binary pairs of length 2
        assert ins_intersection_max(2, 2, 2, 2) == 32

    def test_radius_zero_is_zero(self):
        assert ins_intersection_max(2, 2, 4, 0) == 0

    def test_binary_ball_relation(self):
        for b in GRID_B:
            for t in (1, 2, 3):
                for n in (1, 2, 5):
                    assert ins_intersection_max(2, b, n, t) == 2**b * ins_ball_size(
                        2, b, n, t - 1
                    )

    def test_burst_factor(self):
        for q in GRID_Q:
            for b in GRID_B:
                for t in (1, 2):
                    for n in range(9):
                        assert ins_intersection_max(q, b, n, t) == q ** (
                            t * (b - 1)
                        ) * ins_intersection_max(q, 1, n, t)

    def test_every_ball_holds_threshold_plus_one_words(self):
        # distinct centers have distinct balls of one size, so no overlap fills a
        # ball: a roundtrip-ins center always has threshold+1 outputs to draw
        gaps = [
            ins_ball_size(q, b, n, t) - ins_intersection_max(q, b, n, t)
            for q in (2, 3, 4, 5, 11, 255)
            for b in (1, 2, 3)
            for t in range(1, 6)
            for n in range(1, 40)
        ]
        assert min(gaps) == 1


def ins_recurrences_hold(size, over, q, b, n, t):
    """Whether ball sizes and maximum overlaps satisfy the insertion recurrences.

    ``size(q, b, n, t)`` and ``over(q, b, n, t)`` are the counts at length n
    and radius t (n, t >= 1).  Returns ``(sizes_ok, overlaps_ok)``: whether
    the ball-size recurrences and the overlap recurrences hold at this point.
    """
    step = (q - 1) * q ** (b - 1)
    sizes_ok = (
        size(q, b, n, t) == size(q, b, n - 1, t) + step * size(q, b, n, t - 1)
        and size(q, b, n, t)
        == sum((q - 1) ** i * q ** (i * (b - 1)) * size(q, b, n - 1, t - i) for i in range(t + 1))
    )
    overlaps_ok = (
        over(q, b, n - 1, t) + q ** (b - 1) * over(q, b, n, t - 1)
        == 2 * q ** (b - 1) * size(q, b, n, t - 1)
        and over(q, b, n, t) == over(q, b, n - 1, t) + step * over(q, b, n, t - 1)
        and over(q, b, n, t)
        == sum((q - 1) ** i * q ** (i * (b - 1)) * over(q, b, n - 1, t - i) for i in range(t))
        and over(q, b, n, t)
        == 2 * q ** (b - 1) * size(q, b, n, t - 1) + (q - 2) * q ** (b - 1) * over(q, b, n, t - 1)
        and over(q, b, n, t)
        == 2 * sum((q - 2) ** (i - 1) * q ** (i * (b - 1)) * size(q, b, n, t - i) for i in range(1, t + 1))
    )
    return sizes_ok, overlaps_ok


class TestInsRecurrences:
    @pytest.mark.parametrize("q,b,n,t", [(2, 2, 3, 1), (3, 2, 2, 2), (2, 1, 4, 2)])
    def test_spec_points(self, q, b, n, t):
        assert ins_recurrences_hold(ins_ball_size, ins_intersection_max, q, b, n, t) == (True, True)

    def test_grid(self):
        for q in GRID_Q:
            for b in GRID_B:
                for t in (1, 2):
                    for n in range(1, 9):
                        assert ins_recurrences_hold(
                            ins_ball_size, ins_intersection_max, q, b, n, t
                        ) == (True, True)

    def test_enumerated_counts(self):
        # the same recurrences over counts taken from the brute-force oracles;
        # n >= 2 keeps every overlap on words of length at least 1
        def size(q, b, n, t):
            return len(enumerate_insertion_ball(bytes(n), q, t, b))

        def over(q, b, n, t):
            return max_intersection_exhaustive(n, q, b, t, "insertion")[0]

        for q in GRID_Q:
            for b in (1, 2):
                for t in (1, 2):
                    for n in (2, 3):
                        assert ins_recurrences_hold(size, over, q, b, n, t) == (True, True)


class TestDelBallSize:
    def test_matches_enumeration_on_grid(self):
        # every center of the acceptance grid's sizes, both alphabets
        for q in GRID_Q:
            for b in GRID_B:
                for t in (0, 1, 2, 3):
                    for n in range(b * t, b * t + 7):
                        if q**n > 3000:
                            break
                        for x in all_words(q, n):
                            assert del_ball_size(x, t, b) == len(
                                enumerate_deletion_ball(x, t, b)
                            ), (x, t, b)

    def test_extremal_centers_reach_the_maximum(self):
        for b in (2, 3):
            for t in (1, 2, 3):
                for n in (*range(b * t, b * t + 12), 400):
                    for j in range(b):
                        center = y_sequence(n, 2, b, 0, j)
                        assert del_ball_size(center, t, b) == del_ball_max(2, b, n, t)

    def test_refuses_like_enumeration(self):
        with pytest.raises(ValueError, match="too short for 2 bursts of 2 deletions"):
            del_ball_size(bytes(3), 2, 2)
        with pytest.raises(ValueError):
            del_ball_size(bytes(3), -1, 2)
        with pytest.raises(ValueError):
            del_ball_size(bytes(3), 1, 0)


class TestDelBallMax:
    def test_tight_word(self):
        for q in GRID_Q:
            for b in GRID_B:
                for t in (1, 2, 3):
                    assert del_ball_max(q, b, b * t, t) == 1

    def test_too_short_or_negative_radius(self):
        assert del_ball_max(2, 2, 3, 2) == 0
        assert del_ball_max(2, 2, 5, -1) == 0

    def test_radius_one(self):
        # extremal center has n - b + 1 length-b runs
        assert del_ball_max(2, 2, 5, 1) == 4

    def test_radius_two_from_enumeration(self):
        # ball of 1100110 under two 2-burst deletions
        assert del_ball_max(2, 2, 7, 2) == 7

    def test_binary_form_is_binomial_sum(self):
        for b in GRID_B:
            for t in (1, 2):
                for n in range(b * t, 12):
                    assert del_ball_max(2, b, n, t) == sum(
                        binom(n - b * t, i) for i in range(t + 1)
                    )

    def test_alphabet_peeling_recurrence(self):
        for q in GRID_Q:
            for b in GRID_B:
                for t in (1, 2):
                    for n in range(b * t + 1, 12):
                        assert del_ball_max(q, b, n, t) == sum(
                            del_ball_max(q, b, n - i * b - 1, t - i) for i in range(q)
                        )

    def test_monotonicity(self):
        for q in GRID_Q:
            for b in GRID_B:
                for t in (1, 2):
                    for n in range(b * t + 1, 12):
                        assert del_ball_max(q, b, n - b, t - 1) <= del_ball_max(q, b, n, t)
                        assert del_ball_max(q, b, n, t) <= del_ball_max(q, b, n + 1, t)


class TestDelIntersectionMaxBinary:
    @pytest.mark.parametrize("b", [2, 3, 4])
    def test_radius_one_spot(self, b):
        assert del_intersection_max_binary(b, 2 * b - 1, 1) == b

    def test_small_value_from_enumeration(self):
        # exhaustive max over distinct binary pairs of length 7
        assert del_intersection_max_binary(2, 7, 2) == 6

    def test_two_closed_forms_agree(self):
        for b in (2, 3):
            for t in (1, 2, 3):
                for n in range(b * (t + 1) - 1, 14):
                    via_balls = (
                        del_ball_max(2, b, n, t)
                        - del_ball_max(2, b, n - b, t)
                        + del_ball_max(2, b, n - 3 * b, t - 2)
                    )
                    via_binom = del_ball_max(2, b, n, t) - binom(n - (t + 1) * b + 1, t)
                    assert del_intersection_max_binary(b, n, t) == via_balls == via_binom

    def test_recurrence(self):
        for b in (2, 3):
            for t in (1, 2, 3):
                for n in range(max(b * t + 1, 2 * b), 14):
                    assert del_intersection_threshold(b, n, t) == (
                        del_intersection_threshold(b, n - 1, t)
                        + del_intersection_threshold(b, n - b - 1, t - 1)
                    )

    def test_lower_bound_by_smaller_balls(self):
        for b in (2, 3):
            for t in (1, 2):
                for n in range(b * (t + 1) - 1, 14):
                    assert del_intersection_max_binary(b, n, t) >= 2 * del_ball_max(
                        2, b, n - b - 1, t - 1
                    )

    def test_preconditions(self):
        with pytest.raises(ValueError):
            del_intersection_max_binary(1, 5, 1)
        with pytest.raises(ValueError):
            del_intersection_max_binary(2, 5, 0)
        with pytest.raises(ValueError):
            del_intersection_max_binary(2, 2, 1)  # n below b*(t+1)-1


class TestDelIntersectionThreshold:
    def test_zero_radius(self):
        assert del_intersection_threshold(2, 6, 0) == 0
        assert del_intersection_threshold(3, 1, 0) == 0

    def test_matches_public_value_on_overlap_domain(self):
        # D(n,t) - binom(n-(t+1)*b+1, t) against D(n,t) - D(n-b,t) + D(n-3b,t-2)
        cells = 0
        for b in range(2, 8):
            for t in range(1, 7):
                for n in range(b * (t + 1) - 1, 60):
                    assert del_intersection_threshold(b, n, t) == del_intersection_max_binary(b, n, t)
                    cells += 1
        assert cells == 1467

    def test_short_word(self):
        assert del_intersection_threshold(2, 1, 1) == 0

    def test_binomial_form_on_the_decoder_range(self):
        # D(n,t) - binom(n-(t+1)*b+1, t), D the binary del_ball_max, on every
        # (n, t) the deletion decoder asks about: t >= 1 and n >= b*t
        cells = 0
        for b in range(2, 9):
            for t in range(1, 6):
                for n in range(b * t, 120):
                    assert del_intersection_threshold(b, n, t) == (
                        del_ball_max(2, b, n, t) - binom(n - (t + 1) * b + 1, t)
                    ), (b, n, t)
                    cells += 1
        assert cells == 3675


class TestDelIntersectionLowerBound:
    def test_matches_binary_maximum(self):
        for b in (2, 3):
            for t in (1, 2):
                for n in range(b * (t + 1) - 1, 12):
                    assert del_intersection_lower_bound(2, b, n, t) == (
                        del_intersection_max_binary(b, n, t)
                    )

    def test_ternary_value_from_enumeration(self):
        # overlap of the deletion balls of 00112 and 01112
        assert del_intersection_lower_bound(3, 2, 5, 1) == 2

    def test_last_term_vanishes_when_radius_below_alphabet(self):
        for q in (3, 4):
            for b in (2, 3):
                for t in range(1, q):
                    n = b * (t + 1) + 3
                    assert del_intersection_lower_bound(q, b, n, t) == (
                        del_ball_max(q, b, n, t) - del_ball_max(q, b, n - b, t)
                    )

    def test_preconditions(self):
        with pytest.raises(ValueError):
            del_intersection_lower_bound(1, 2, 9, 1)
        with pytest.raises(ValueError):
            del_intersection_lower_bound(3, 1, 9, 1)
        with pytest.raises(ValueError):
            del_intersection_lower_bound(3, 2, 2, 1)


class TestSpherePackingBound:
    def test_small_value(self):
        value, floor = sphere_packing_bound(2, 1, 3, 1)
        assert value == Fraction(16, 5)
        assert floor == 3

    def test_burst_length_independence(self):
        for q in GRID_Q:
            for t in (1, 2):
                for n in range(1, 9):
                    values = {sphere_packing_bound(q, b, n, t)[0] for b in GRID_B}
                    assert len(values) == 1

    def test_radius_zero(self):
        for q in GRID_Q:
            for n in (0, 1, 5):
                value, floor = sphere_packing_bound(q, 2, n, 0)
                assert value == floor == q**n

    def test_exact_rational(self):
        value, _ = sphere_packing_bound(3, 2, 4, 2)
        assert value * ins_ball_size(3, 2, 4, 2) == 3 ** (4 + 4)


class TestCenterCountsByBallSize:
    def test_small_value_from_enumeration(self):
        # binary length-4 words whose radius-1 2-burst ball has 2 members
        assert count_centers_by_radius1_ball_size(2, 2, 4, 2) == 8

    def test_minimum_ball(self):
        for q in GRID_Q:
            for b in (1, 2, 3):
                assert count_centers_by_radius1_ball_size(q, b, b + 2, 1) == q**b

    def test_total_is_whole_space(self):
        for q in GRID_Q:
            for b in (1, 2):
                for n in range(b + 1, 9):
                    total = sum(
                        count_centers_by_radius1_ball_size(q, b, n, i)
                        for i in range(1, n - b + 2)
                    )
                    assert total == q**n

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            count_centers_by_radius1_ball_size(2, 2, 5, 0)
        with pytest.raises(ValueError):
            count_centers_by_radius1_ball_size(2, 2, 5, 5)
        with pytest.raises(ValueError):
            count_centers_by_radius1_ball_size(2, 2, 2, 1)


def test_no_floats_anywhere():
    # exactness contract: results are ints or Fractions even at sizes that
    # overflow doubles
    big = ins_ball_size(3, 3, 200, 30)
    assert isinstance(big, int) and big > 2**64
    value, floor = sphere_packing_bound(3, 3, 200, 2)
    assert isinstance(value, Fraction) and isinstance(floor, int)
    assert floor > 2**64


# --- the one range rule for q, b, t and n ------------------------------------

# Every public function that takes q, b, t or n, called at (q, b, t, n); the
# string names the parameters it refuses with the shared messages.  A word
# argument has length n, so functions that take a word instead of n omit "n".
# del_ball_max omits t and n (negative radii and short words count 0) and
# del_intersection_threshold omits everything (total in n and t, b >= 2 of its
# own).
REFUSERS = {
    "ins_ball_size": ("qbtn", lambda q, b, t, n: ins_ball_size(q, b, n, t)),
    "ins_intersection_max": ("qbtn", lambda q, b, t, n: ins_intersection_max(q, b, n, t)),
    "del_ball_max": ("qb", lambda q, b, t, n: del_ball_max(q, b, n, t)),
    "del_ball_size": ("bt", lambda q, b, t, n: del_ball_size(bytes(n), t, b)),
    "del_intersection_lower_bound": (
        "qbtn", lambda q, b, t, n: del_intersection_lower_bound(q, b, n, t)
    ),
    "del_intersection_max_binary": (
        "btn", lambda q, b, t, n: del_intersection_max_binary(b, n, t)
    ),
    "sphere_packing_bound": ("qbtn", lambda q, b, t, n: sphere_packing_bound(q, b, n, t)),
    "count_centers_by_radius1_ball_size": (
        "qbn", lambda q, b, t, n: count_centers_by_radius1_ball_size(q, b, n, 1)
    ),
    "all_words": ("qn", lambda q, b, t, n: all_words(q, n)),
    "b_cyclic": ("qbn", lambda q, b, t, n: b_cyclic(n, q, b)),
    "y_sequence": ("qbn", lambda q, b, t, n: y_sequence(n, q, b)),
    "validate_word": ("q", lambda q, b, t, n: validate_word(bytes(n), q)),
    "format_word": ("q", lambda q, b, t, n: format_word(bytes(n), q)),
    "parse_word": ("q", lambda q, b, t, n: parse_word("0" * n, q)),
    "format_event": ("q", lambda q, b, t, n: format_event(BurstEvent(1, bytes(b)), q)),
    "enumerate_insertion_ball": (
        "qbt", lambda q, b, t, n: enumerate_insertion_ball(bytes(n), q, t, b)
    ),
    "enumerate_deletion_ball": ("bt", lambda q, b, t, n: enumerate_deletion_ball(bytes(n), t, b)),
    "max_intersection_exhaustive/insertion": (
        "qbtn", lambda q, b, t, n: max_intersection_exhaustive(n, q, b, t, "insertion")
    ),
    "max_intersection_exhaustive/deletion": (
        "qbtn", lambda q, b, t, n: max_intersection_exhaustive(n, q, b, t, "deletion")
    ),
    "is_deletion_descendant": (
        "bt", lambda q, b, t, n: is_deletion_descendant(bytes(n), bytes(n - t * b), t, b)
    ),
    "is_insertion_descendant": (
        "bt", lambda q, b, t, n: is_insertion_descendant(bytes(n), bytes(n + t * b), t, b)
    ),
    "apply_burst_deletion": ("b", lambda q, b, t, n: apply_burst_deletion(bytes(n), 1, b)),
    "sample_distinct_outputs/insertion": (
        "qbt", lambda q, b, t, n: sample_distinct_outputs(bytes(n), q, t, b, "insertion", 1, 0)
    ),
    "sample_distinct_outputs/deletion": (
        "qbt", lambda q, b, t, n: sample_distinct_outputs(bytes(n), q, t, b, "deletion", 1, 0)
    ),
    "reconstruct_from_insertions": (
        "qbtn", lambda q, b, t, n: reconstruct_from_insertions([], n, q, b, t)
    ),
    "reconstruct_from_deletions": (
        "btn", lambda q, b, t, n: reconstruct_from_deletions([], n, b, t)
    ),
}

VALID = {"q": 2, "b": 2, "t": 1, "n": 4}
OUT_OF_RANGE = {
    "q": [(1, "alphabet size must be in [2, 255], got 1"),
          (0, "alphabet size must be in [2, 255], got 0"),
          (256, "alphabet size must be in [2, 255], got 256")],
    "b": [(0, "burst length must be at least 1, got 0")],
    "t": [(-1, "radius must be nonnegative, got -1")],
    "n": [(-1, "word length must be nonnegative, got -1")],
}


def refusal_cases():
    for name, (params, call) in REFUSERS.items():
        for param in params:
            for value, message in OUT_OF_RANGE[param]:
                args = {**VALID, param: value}
                yield pytest.param(call, args, message, id=f"{name}-{param}={value}")


class TestOneRangeRule:
    @pytest.mark.parametrize("call, args, message", refusal_cases())
    def test_out_of_range_value_has_the_shared_message(self, call, args, message):
        with pytest.raises(ValueError) as excinfo:
            call(**args)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("name", sorted(REFUSERS))
    def test_valid_point_is_accepted(self, name):
        # the table's base point is inside every function's domain, so each
        # refusal above comes from the one value put out of range
        _, call = REFUSERS[name]
        if name.startswith("reconstruct"):
            # the decoders get no outputs, so they pass the checks and stop short of the threshold
            with pytest.raises(BelowThreshold):
                call(**VALID)
        else:
            call(**VALID)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: max_intersection_exhaustive(2, 1, 1, 1, "deletion"),
             "alphabet size must be in [2, 255], got 1"),
            (lambda: max_intersection_exhaustive(1, 300, 1, 1, "deletion"),
             "alphabet size must be in [2, 255], got 300"),
            (lambda: b_cyclic(4, 300, 1, 299), "alphabet size must be in [2, 255], got 300"),
            (lambda: b_cyclic(4, 1, 1, 0), "alphabet size must be in [2, 255], got 1"),
            (lambda: y_sequence(4, 1, 2), "alphabet size must be in [2, 255], got 1"),
            (lambda: y_sequence(4, 2, 0), "burst length must be at least 1, got 0"),
        ],
        ids=["exhaustive-q1", "exhaustive-q300", "b_cyclic-q300", "b_cyclic-q1",
             "y_sequence-q1", "y_sequence-b0"],
    )
    def test_former_gaps_refused_by_the_rule(self, call, message):
        with pytest.raises(ValueError) as excinfo:
            call()
        assert str(excinfo.value) == message

    def test_largest_alphabet_accepted(self):
        assert ins_ball_size(MAX_ALPHABET, 1, 1, 1) == 1 + 2 * (MAX_ALPHABET - 1)
        assert b_cyclic(3, MAX_ALPHABET, 1, MAX_ALPHABET - 1) == bytes([254, 0, 1])

    def test_short_word_for_deletions_has_one_message(self):
        message = "word of length 3 too short for 2 bursts of 2 deletions"
        for call in (
            lambda: del_ball_size(bytes(3), 2, 2),
            lambda: enumerate_deletion_ball(bytes(3), 2, 2),
            lambda: max_intersection_exhaustive(3, 2, 2, 2, "deletion"),
        ):
            with pytest.raises(ValueError) as excinfo:
                call()
            assert str(excinfo.value) == message

    def test_narrower_domains_checked_after_the_rule(self):
        cases = [
            (lambda: del_intersection_threshold(1, 4, 1), "burst length must be at least 2, got 1"),
            (lambda: reconstruct_from_insertions([], 0, 2, 2, 1),
             "the insertion decoder needs n >= 1 and t >= 1, got n=0, t=1"),
            (lambda: max_intersection_exhaustive(0, 2, 2, 1, "insertion"),
             "need words of length at least 1, got 0"),
            (lambda: count_centers_by_radius1_ball_size(2, 2, 2, 1),
             "word length must be at least b+1 = 3, got 2"),
        ]
        for call, message in cases:
            with pytest.raises(ValueError) as excinfo:
                call()
            assert str(excinfo.value) == message

    def test_parameters_are_keyword_only(self):
        # positional calls could silently swap t and n, which the library orders both ways
        with pytest.raises(TypeError):
            _check_params(2, 1, 1, 4)
