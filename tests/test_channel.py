"""Channel operations: burst application, traces, seeded distinct sampling."""

import pytest
from hypothesis import given, settings, strategies as st

from burstrecon import (
    BallTooSmall,
    EnumerationCapExceeded,
    apply_burst_deletion,
    apply_burst_insertion,
    enumerate_deletion_ball,
    enumerate_insertion_ball,
    format_event,
    is_deletion_descendant,
    is_insertion_descendant,
    parse_word,
    sample_distinct_outputs,
    trial_seed,
)


class TestApplyBursts:
    def test_insertion_middle(self):
        assert apply_burst_insertion(parse_word("010", 2), 2, parse_word("11", 2)) == (
            parse_word("01110", 2)
        )

    def test_insertion_into_empty(self):
        assert apply_burst_insertion(b"", 1, parse_word("01", 2)) == parse_word("01", 2)

    def test_insertion_append(self):
        assert apply_burst_insertion(b"\x00", 2, parse_word("10", 2)) == parse_word(
            "010", 2
        )

    def test_insertion_position_bounds(self):
        with pytest.raises(ValueError):
            apply_burst_insertion(b"\x00", 0, b"\x01")
        with pytest.raises(ValueError):
            apply_burst_insertion(b"\x00", 3, b"\x01")

    def test_deletion_middle(self):
        assert apply_burst_deletion(parse_word("01110", 2), 2, 2) == parse_word("010", 2)

    def test_deletion_front(self):
        assert apply_burst_deletion(parse_word("0110", 2), 1, 2) == parse_word("10", 2)

    @pytest.mark.parametrize("b", [1, 2, 3])
    def test_deletion_everything(self, b):
        assert apply_burst_deletion(bytes(b), 1, b) == b""

    def test_deletion_position_bounds(self):
        with pytest.raises(ValueError):
            apply_burst_deletion(parse_word("0110", 2), 4, 2)
        with pytest.raises(ValueError):
            apply_burst_deletion(parse_word("0110", 2), 0, 2)


class TestSampling:
    def test_deterministic_per_seed(self):
        x = parse_word("01100", 2)
        a = sample_distinct_outputs(x, 2, 1, 2, "deletion", 3, seed=7)
        b = sample_distinct_outputs(x, 2, 1, 2, "deletion", 3, seed=7)
        assert a.outputs == b.outputs
        assert a.traces == b.traces
        c = sample_distinct_outputs(x, 2, 1, 2, "deletion", 3, seed=8)
        assert a.outputs != c.outputs or a.traces != c.traces

    def test_outputs_distinct_and_inside_ball(self):
        x = parse_word("01100", 2)
        sample = sample_distinct_outputs(x, 2, 1, 2, "deletion", 3, seed=5)
        assert len(set(sample.outputs)) == 3
        ball = enumerate_deletion_ball(x, 1, 2)
        assert set(sample.outputs) <= ball
        assert all(is_deletion_descendant(x, w, 1, 2) for w in sample.outputs)

    def test_insertion_outputs_are_descendants(self):
        x = parse_word("0102", 3)
        sample = sample_distinct_outputs(x, 3, 2, 2, "insertion", 20, seed=3)
        assert len(set(sample.outputs)) == 20
        assert all(is_insertion_descendant(x, w, 2, 2) for w in sample.outputs)
        ball = enumerate_insertion_ball(x, 3, 2, 2)
        assert set(sample.outputs) <= ball

    def test_traces_replay(self):
        x = parse_word("0110", 2)
        sample = sample_distinct_outputs(x, 2, 2, 1, "insertion", 10, seed=9)
        for w, trace in zip(sample.outputs, sample.traces):
            assert trace.input == x
            assert trace.output == w
            assert trace.replay() == w
            assert len(trace.events) == 2

    def test_ball_too_small_reports_size(self):
        with pytest.raises(BallTooSmall) as info:
            sample_distinct_outputs(parse_word("0101", 2), 2, 1, 2, "deletion", 2, seed=1)
        assert info.value.ball_size == 1

    def test_count_above_cap_refused_before_sampling(self):
        # the whole insertion ball (6 words) fits the request but not the cap
        with pytest.raises(EnumerationCapExceeded) as info:
            sample_distinct_outputs(bytes([0, 1, 0, 1]), 2, 1, 1, "insertion", 6, 0, cap=5)
        assert (info.value.required, info.value.cap) == (6, 5)

    def test_single_output(self):
        sample = sample_distinct_outputs(parse_word("0101", 2), 2, 1, 2, "deletion", 1, seed=1)
        assert sample.outputs == (parse_word("01", 2),)
        assert sample.traces[0].replay() == sample.outputs[0]

    def test_whole_ball_request_exercises_fallback(self):
        x = b"\x00"
        ball = enumerate_insertion_ball(x, 2, 1, 2)
        sample = sample_distinct_outputs(x, 2, 1, 2, "insertion", len(ball), seed=2)
        assert frozenset(sample.outputs) == ball
        assert all(tr.replay() == w for w, tr in zip(sample.outputs, sample.traces))

    def test_rng_metadata(self):
        sample = sample_distinct_outputs(b"\x00", 2, 1, 1, "insertion", 2, seed=0)
        assert sample.rng_algorithm == "mt19937"
        assert sample.seed == 0

    @given(st.integers(0, 2**32), st.integers(1, 3))
    @settings(max_examples=50, deadline=None)
    def test_random_seeds_still_valid(self, seed, t):
        x = parse_word("011010", 2)
        sample = sample_distinct_outputs(x, 2, t, 1, "insertion", 4, seed=seed)
        assert len(set(sample.outputs)) == 4
        for w, trace in zip(sample.outputs, sample.traces):
            assert trace.replay() == w
            assert is_insertion_descendant(x, w, t, 1)


class TestTrialSeed:
    def test_deterministic(self):
        assert trial_seed(42, 7) == trial_seed(42, 7)

    def test_spreads(self):
        seeds = {trial_seed(42, i) for i in range(1000)}
        assert len(seeds) == 1000


class TestEventFormat:
    def test_lines(self):
        x = parse_word("01100", 2)
        sample = sample_distinct_outputs(x, 2, 1, 2, "deletion", 2, seed=7)
        for trace in sample.traces:
            line = format_event(trace.events[0], 2)
            assert line.startswith("del ")
        sample = sample_distinct_outputs(x, 2, 1, 2, "insertion", 2, seed=7)
        line = format_event(sample.traces[0].events[0], 2)
        kind, pos, payload = line.split()
        assert kind == "ins" and pos.isdigit() and len(payload) == 2
