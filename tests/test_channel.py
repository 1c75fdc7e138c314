"""Channel operations: burst application, traces, seeded distinct sampling."""

import random
import sys
from bisect import bisect_left, bisect_right
from dataclasses import fields
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from burstrecon import (
    BallTooSmall,
    BurstEvent,
    ChannelSample,
    EnumerationCapExceeded,
    all_words,
    apply_burst_deletion,
    apply_burst_insertion,
    enumerate_deletion_ball,
    enumerate_insertion_ball,
    format_event,
    ins_ball_size,
    is_deletion_descendant,
    is_insertion_descendant,
    parse_word,
    sample_distinct_outputs,
    y_sequence,
)
from burstrecon import channel
from burstrecon.channel import _deletion_unranker, _insertion_unranker
from burstrecon.combinatorics import _deletion_ways


def reference_insertion_unranker(x, q, t, b):
    """The insertion unranker built one burst at a time with apply_burst_insertion."""
    n = len(x)
    rest_choices = q ** (b - 1)
    head, tail = (q - 1) * rest_choices, q**b
    payloads = [head**k * tail ** (t - k) for k in range(t + 1)]
    sizes = [(comb(n + k - 1, k) if n else k == 0) * p for k, p in enumerate(payloads)]
    columns = [[comb(c, i) for c in range(n + t)] for i in range(t + 1)]

    def unrank(rank):
        for k, size in enumerate(sizes):
            if rank < size:
                break
            rank -= size
        combination, rank = divmod(rank, payloads[k])
        slots = [n] * t
        top = n + k - 1
        for i in range(k, 0, -1):
            top = bisect_right(columns[i], combination, 0, top) - 1
            combination -= columns[i][top]
            slots[i - 1] = top - i + 1
        w, events = x, []
        for done, j in enumerate(slots):
            if j < n:
                rank, digits = divmod(rank, head)
                digits += (digits // rest_choices >= x[j]) * rest_choices
            else:
                rank, digits = divmod(rank, tail)
            payload = bytes(digits // q**e % q for e in range(b - 1, -1, -1))
            position = j + done * b + 1
            w = apply_burst_insertion(w, position, payload)
            events.append(BurstEvent(position, payload))
        return w, tuple(events)

    return sum(sizes), unrank


def reference_deletion_unranker(x, t, b):
    """The deletion unranker built one burst at a time with apply_burst_deletion."""
    n = len(x)
    ways = _deletion_ways(x, t, b)
    rising = [[-row[u] for row in ways] for u in range(t + 1)]

    def unrank(rank):
        w, events, i, u = x, [], 0, t
        while u:
            i = bisect_left(rising[u], -rank, i + 1) - 1
            rank -= ways[i + 1][u]
            for f in range(1, u + 1):
                end = i + f * b
                if end == n:
                    break
                if x[end] not in x[i:end:b]:
                    if rank < ways[end + 1][u - f]:
                        break
                    rank -= ways[end + 1][u - f]
            position = i - (t - u) * b + 1
            for _ in range(f):
                w = apply_burst_deletion(w, position, b)
                events.append(BurstEvent(position))
            i, u = end + 1, u - f
        return w, tuple(events)

    return ways[0][t], unrank


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

    @pytest.mark.parametrize("payload", [b"", None])
    def test_insertion_payload_must_be_a_word(self, payload):
        with pytest.raises(ValueError) as excinfo:
            apply_burst_insertion(parse_word("01", 2), 1, payload)
        assert str(excinfo.value) == "insertion payload must be a nonempty word"

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
        assert (sample.input, sample.kind, sample.burst_length) == (x, "insertion", 1)
        for i, w in enumerate(sample.outputs):
            assert sample.replay(i) == w
            assert len(sample.traces[i]) == 2

    def test_ball_too_small_reports_size(self):
        with pytest.raises(BallTooSmall) as info:
            sample_distinct_outputs(parse_word("0101", 2), 2, 1, 2, "deletion", 2, seed=1)
        assert info.value.ball_size == 1

    def test_count_above_cap_refused_before_sampling(self):
        # the whole insertion ball (6 words) fits the request but not the cap
        with pytest.raises(EnumerationCapExceeded) as info:
            sample_distinct_outputs(bytes([0, 1, 0, 1]), 2, 1, 1, "insertion", 6, 0, cap=5)
        assert (info.value.required, info.value.cap) == (6, 5)

    @pytest.mark.parametrize(
        "kind, count, message",
        [
            ("x", 1, "ball kind must be 'insertion' or 'deletion', got 'x'"),
            ("deletion", 0, "need at least one output, got 0"),
        ],
    )
    def test_kind_and_count_refused(self, kind, count, message):
        with pytest.raises(ValueError) as excinfo:
            sample_distinct_outputs(b"\x00\x01", 2, 1, 1, kind, count, 0)
        assert str(excinfo.value) == message

    def test_negative_seed_refused(self):
        # random.Random(seed) uses abs(seed), so seed -7 would replay the stream of 7
        with pytest.raises(ValueError) as excinfo:
            sample_distinct_outputs(parse_word("0110", 2), 2, 1, 2, "insertion", 3, -7)
        assert str(excinfo.value) == "seed must be nonnegative, got -7"

    def test_deletion_feasibility_counted_not_enumerated(self, monkeypatch):
        # one output from a 78,607-word ball, and whole small balls: nothing enumerates
        def enumerated(*args):
            raise AssertionError("ball enumerated by the sampler")

        monkeypatch.setattr("burstrecon.balls.enumerate_insertion_ball", enumerated)
        monkeypatch.setattr("burstrecon.balls.enumerate_deletion_ball", enumerated)
        x = y_sequence(400, 2, 2, 0, 0)
        sample = sample_distinct_outputs(x, 2, 2, 2, "deletion", 1, seed=1)
        assert sample.replay(0) == sample.outputs[0]
        with pytest.raises(BallTooSmall) as info:
            sample_distinct_outputs(parse_word("0101", 2), 2, 1, 2, "deletion", 2, seed=1)
        assert info.value.ball_size == 1
        for kind, size in (("insertion", 16), ("deletion", 3)):
            sample = sample_distinct_outputs(parse_word("011010", 2), 2, 1, 2, kind, size, seed=2)
            assert len(set(sample.outputs)) == size
            assert all(sample.replay(i) == w for i, w in enumerate(sample.outputs))

    def test_deletion_ball_above_cap_sampled(self):
        # the ball {0010, 0110, 1010} is counted, never enumerated, so only count > cap refuses
        sample = sample_distinct_outputs(parse_word("011010", 2), 2, 1, 2, "deletion", 2, 0, cap=2)
        assert len(set(sample.outputs)) == 2
        assert set(sample.outputs) <= {parse_word(w, 2) for w in ("0010", "0110", "1010")}

    def test_ball_above_maxsize(self):
        x = bytes(range(0, 200, 10))
        assert ins_ball_size(255, 3, 20, 3) > sys.maxsize
        sample = sample_distinct_outputs(x, 255, 3, 3, "insertion", 5, seed=6)
        assert len(set(sample.outputs)) == 5
        for i, w in enumerate(sample.outputs):
            assert len(sample.traces[i]) == 3
            assert sample.replay(i) == w
            assert is_insertion_descendant(x, w, 3, 3)

    def test_single_output(self):
        sample = sample_distinct_outputs(parse_word("0101", 2), 2, 1, 2, "deletion", 1, seed=1)
        assert sample.outputs == (parse_word("01", 2),)
        assert sample.replay(0) == sample.outputs[0]

    @pytest.mark.parametrize(
        "kind, q, b, x",
        [
            ("insertion", 2, 2, parse_word("01", 2)),
            ("insertion", 3, 2, parse_word("2", 3)),
            ("deletion", 2, 2, parse_word("0110100110", 2)),
        ],
        ids=["ins-q2", "ins-q3", "del"],
    )
    @pytest.mark.parametrize("whole", [True, False], ids=["whole", "half"])
    def test_fallback_takes_shuffled_ball_with_greedy_traces(self, monkeypatch, kind, q, b, x, whole):
        # whole- and half-ball requests, which an enumerate-and-shuffle fallback with
        # greedy traces once served, are drawn by rank like any other: no enumeration
        t = 2
        if kind == "insertion":
            ball, member = enumerate_insertion_ball(x, q, t, b), is_insertion_descendant
        else:
            ball, member = enumerate_deletion_ball(x, t, b), is_deletion_descendant

        def enumerated(*args):
            raise AssertionError("ball enumerated by the sampler")

        monkeypatch.setattr("burstrecon.balls.enumerate_insertion_ball", enumerated)
        monkeypatch.setattr("burstrecon.balls.enumerate_deletion_ball", enumerated)
        count = len(ball) if whole else len(ball) // 2
        sample = sample_distinct_outputs(x, q, t, b, kind, count, seed=4)
        assert sample == sample_distinct_outputs(x, q, t, b, kind, count, seed=4)
        assert len(set(sample.outputs)) == count and set(sample.outputs) <= ball
        if whole:
            assert frozenset(sample.outputs) == ball
        assert sample.input == x
        for i, w in enumerate(sample.outputs):
            assert len(sample.traces[i]) == t
            assert sample.replay(i) == w
            assert member(x, w, t, b)

    @pytest.mark.parametrize("b", [1, 2, 3])
    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("kind", ["insertion", "deletion"])
    def test_unranking_is_exact_bijection(self, kind, q, b):
        # every rank of every small ball: distinct members, the whole ball, replaying traces
        for t in range(4):
            if kind == "insertion":
                lengths = range(5 if q == 2 else 4)
            else:
                lengths = range(t * b, 11 if q == 2 else 7)
            for n in lengths:
                if kind == "insertion" and ins_ball_size(q, b, n, t) > 3000:
                    continue
                for x in all_words(q, n):
                    if kind == "insertion":
                        size, unrank = _insertion_unranker(x, q, t, b)
                        assert size == ins_ball_size(q, b, n, t)
                        ball = enumerate_insertion_ball(x, q, t, b)
                    else:
                        size, unrank = _deletion_unranker(x, t, b)
                        ball = enumerate_deletion_ball(x, t, b)
                        assert size == len(ball)
                    words, traces = unrank(range(size))
                    assert len(set(words)) == size and set(words) == ball
                    sample = ChannelSample(x, kind, b, words, traces, 0)
                    for i, w in enumerate(words):
                        assert len(traces[i]) == t
                        assert sample.replay(i) == w

    def test_one_record_per_sample(self):
        # each sampled fact is stored once: events carry no kind, traces no input
        assert [f.name for f in fields(ChannelSample)] == [
            "input", "kind", "burst_length", "outputs", "traces", "seed", "rng_algorithm",
        ]
        assert [f.name for f in fields(BurstEvent)] == ["position", "payload"]
        ins = sample_distinct_outputs(b"\x00", 2, 1, 2, "insertion", 3, seed=0)
        dele = sample_distinct_outputs(parse_word("0110", 2), 2, 1, 2, "deletion", 2, seed=0)
        assert all(e.payload is not None for events in ins.traces for e in events)
        assert all(e.payload is None for events in dele.traces for e in events)

    def test_rng_metadata(self):
        sample = sample_distinct_outputs(b"\x00", 2, 1, 1, "insertion", 2, seed=0)
        assert sample.rng_algorithm == "mt19937/unrank-v1"
        assert sample.seed == 0

    @given(st.integers(0, 2**32), st.integers(1, 3))
    @settings(max_examples=50, deadline=None)
    def test_random_seeds_still_valid(self, seed, t):
        x = parse_word("011010", 2)
        sample = sample_distinct_outputs(x, 2, t, 1, "insertion", 4, seed=seed)
        assert len(set(sample.outputs)) == 4
        for i, w in enumerate(sample.outputs):
            assert sample.replay(i) == w
            assert is_insertion_descendant(x, w, t, 1)


class TestUnrankerMatchesReference:
    """The one-join unrankers give the per-burst reference's member and trace for every rank."""

    @staticmethod
    def check(unranker, reference, ranks):
        # the ranks ascending, shuffled and descending: members and traces come
        # back in the order given, whatever order the unranker works in
        size, unrank = unranker()
        ref_size, ref_unrank = reference()
        assert size == ref_size
        ranks = list(ranks(size))
        expected = {rank: ref_unrank(rank) for rank in ranks}
        shuffled = random.Random(len(ranks)).sample(ranks, len(ranks))
        for order in (ranks, shuffled, ranks[::-1]):
            members, traces = unrank(order)
            assert len(members) == len(traces) == len(order)
            for rank, member, trace in zip(order, members, traces):
                assert (member, trace) == expected[rank], rank

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_every_small_ball(self, q):
        # every center up to 16 of them (else three), every rank of balls up to
        # 500 words, and of larger ones 500 seeded ranks plus the first and
        # last rank of every group of equal k
        rng = random.Random(q)
        checked = 0
        for b, t, n in product(range(1, 4), range(4), range(6)):
            centers = list(all_words(q, n))
            if len(centers) > 16:
                centers = [bytes(n), bytes([q - 1] * n), bytes(rng.randrange(q) for _ in range(n))]
            for x in centers:
                sizes = [
                    (comb(n + k - 1, k) if n else k == 0)
                    * ((q - 1) * q ** (b - 1)) ** k
                    * q ** (b * (t - k))
                    for k in range(t + 1)
                ]
                edges = [sum(sizes[:k]) for k in range(t + 2)]

                def ranks(size):
                    if size <= 500:
                        return range(size)
                    picked = {r for e in edges for r in (e - 1, e) if 0 <= r < size}
                    return sorted(picked | {rng.randrange(size) for _ in range(500)})

                self.check(
                    lambda: _insertion_unranker(x, q, t, b),
                    lambda: reference_insertion_unranker(x, q, t, b),
                    ranks,
                )
                if n >= t * b:
                    self.check(
                        lambda: _deletion_unranker(x, t, b),
                        lambda: reference_deletion_unranker(x, t, b),
                        range,
                    )
                checked += 1
        assert checked >= 100

    @pytest.mark.parametrize("q, n", [(2, 800), (4, 200)])
    def test_random_ranks_of_large_balls(self, q, n):
        rng = random.Random(n)
        x = bytes(rng.randrange(q) for _ in range(n))
        b = t = 2
        for unranker, reference in (
            (lambda: _insertion_unranker(x, q, t, b), lambda: reference_insertion_unranker(x, q, t, b)),
            (lambda: _deletion_unranker(x, t, b), lambda: reference_deletion_unranker(x, t, b)),
        ):
            self.check(unranker, reference, lambda size: [rng.randrange(size) for _ in range(2000)])


def floyd_ranks(size, count, seed):
    """The sampler's ranks in draw order, drawn again from random.Random(seed)."""
    rng = random.Random(seed)
    ranks = {}
    for top in range(size - count, size):
        rank = rng.randrange(top + 1)
        ranks[top if rank in ranks else rank] = None
    return list(ranks)


class TestSamplerDraws:
    """The sampler unranks Floyd's ranks in draw order, one burst call per drawn burst."""

    @pytest.mark.parametrize(
        "kind, q, b, t, n, count",
        [
            ("insertion", 2, 2, 2, 4, None),
            ("insertion", 3, 2, 3, 10, 50),
            ("deletion", 2, 2, 2, 10, None),
            ("deletion", 2, 2, 3, 60, 40),
        ],
        ids=["ins-whole", "ins-sparse", "del-whole", "del-sparse"],
    )
    def test_one_burst_call_per_drawn_burst(self, monkeypatch, kind, q, b, t, n, count):
        # a sampler that reused a built piece for a repeated burst would make fewer calls
        rng = random.Random(n)
        x = bytes(rng.randrange(q) for _ in range(n))
        if count is None:
            count = ins_ball_size(q, b, n, t) if kind == "insertion" else len(enumerate_deletion_ball(x, t, b))
        calls = {"apply_burst_insertion": 0, "apply_burst_deletion": 0}
        for name in calls:
            def counted(*args, _name=name, _apply=getattr(channel, name)):
                calls[_name] += 1
                return _apply(*args)

            monkeypatch.setattr(channel, name, counted)
        sample = sample_distinct_outputs(x, q, t, b, kind, count, seed=3)
        assert len(set(sample.outputs)) == count
        applied = "apply_burst_insertion" if kind == "insertion" else "apply_burst_deletion"
        assert calls == {name: count * t if name == applied else 0 for name in calls}

    @pytest.mark.parametrize(
        "q, b, t, n, count, seed",
        [
            (2, 2, 2, 4, 30, 1),
            (2, 3, 3, 7, 400, 2),
            (3, 1, 3, 5, 200, 3),
            (4, 2, 2, 12, 300, 4),
            (11, 2, 3, 3, 100, 5),
            (255, 1, 2, 0, 50, 6),
            (255, 3, 3, 5, 50, 7),
            (2, 2, 3, 3, None, 8),
        ],
    )
    def test_insertion_sample_is_the_reference_on_floyds_ranks(self, q, b, t, n, count, seed):
        rng = random.Random(seed)
        x = bytes(rng.randrange(q) for _ in range(n))
        size, unrank = reference_insertion_unranker(x, q, t, b)
        count = size if count is None else count
        ranks = floyd_ranks(size, count, seed)
        if count < size:
            assert ranks != sorted(ranks)
        expected = [unrank(rank) for rank in ranks]
        sample = sample_distinct_outputs(x, q, t, b, "insertion", count, seed)
        assert sample.outputs == tuple(w for w, _ in expected)
        assert sample.traces == tuple(events for _, events in expected)

    @pytest.mark.parametrize(
        "kind, q, b, t, n, count",
        [
            ("insertion", 2, 2, 2, 6, None),
            ("insertion", 4, 2, 2, 30, 2000),
            ("insertion", 11, 1, 3, 5, 500),
            ("deletion", 2, 2, 3, 40, 600),
            ("deletion", 3, 1, 3, 12, None),
        ],
    )
    def test_events_shared_per_position_and_payload(self, kind, q, b, t, n, count):
        # the command line formats each event object once, so one (position,
        # payload) pair must be one object in every trace that holds it
        rng = random.Random(f"{kind} {q} {n}")
        x = bytes(rng.randrange(q) for _ in range(n))
        if count is None:
            count = ins_ball_size(q, b, n, t) if kind == "insertion" else len(enumerate_deletion_ball(x, t, b))
        sample = sample_distinct_outputs(x, q, t, b, kind, count, seed=4)
        events = [event for trace in sample.traces for event in trace]
        assert len(events) == count * t
        assert len({id(e) for e in events}) == len({(e.position, e.payload) for e in events})

    @pytest.mark.parametrize(
        "size, count",
        [(top + 1, 1) for k in (1, 5, 32, 63, 64) for top in (0, 2**k - 1, 2**k, 2**k + 1)]
        + [(2**64 + 12346, 1), (2**100 + 2, 1), (40, 40), (2**16 + 2, 3), (2**64 + 3, 6)],
    )
    def test_draws_are_randranges(self, monkeypatch, size, count):
        # the sampler's inlined draws are randrange's, so the seeded stream stays mt19937/unrank-v1
        class Drawn(Exception):
            pass

        def unranker(x, q, t, b):
            def unrank(ranks):
                raise Drawn(ranks)

            return size, unrank

        monkeypatch.setattr(channel, "_insertion_unranker", unranker)
        for seed in (0, 1, 7, 2**40):
            with pytest.raises(Drawn) as drawn:
                sample_distinct_outputs(b"", 2, 1, 1, "insertion", count, seed)
            assert drawn.value.args[0] == floyd_ranks(size, count, seed)
            if count == 1:
                assert drawn.value.args[0] == [random.Random(seed).randrange(size)]

    @pytest.mark.parametrize("kind", ["insertion", "deletion"])
    def test_whole_ball_draw_comes_out_in_rank_order(self, kind):
        # each of Floyd's draws over a whole ball takes a new top rank or repeats
        # and takes top, so the draw order is rank order, whatever the seed
        x = bytes([0, 1, 1, 0, 1, 0, 0, 1])
        if kind == "insertion":
            size, unrank = _insertion_unranker(x, 2, 2, 2)
        else:
            size, unrank = _deletion_unranker(x, 2, 2)
        for seed in (0, 1, 2):
            sample = sample_distinct_outputs(x, 2, 2, 2, kind, size, seed)
            assert (sample.outputs, sample.traces) == unrank(range(size))


class TestEventFormat:
    def test_lines(self):
        x = parse_word("01100", 2)
        sample = sample_distinct_outputs(x, 2, 1, 2, "deletion", 2, seed=7)
        for events in sample.traces:
            line = format_event(events[0], 2)
            assert line.startswith("del ")
        sample = sample_distinct_outputs(x, 2, 1, 2, "insertion", 2, seed=7)
        line = format_event(sample.traces[0][0], 2)
        kind, pos, payload = line.split()
        assert kind == "ins" and pos.isdigit() and len(payload) == 2
