"""Both decoders: classifier machinery, round trips, refusal modes."""

import random
from collections import Counter
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings, strategies as st

import burstrecon.reconstruct
from burstrecon import (
    DEFAULT_CAP,
    AmbiguousSymbol,
    BelowThreshold,
    CandidateFilterError,
    EnumerationCapExceeded,
    InconsistentOutputs,
    ReconstructionError,
    StepInfo,
    ThresholdNotMet,
    all_words,
    b_cyclic,
    candidate_expansion,
    del_intersection_max_binary,
    del_intersection_threshold,
    enumerate_deletion_ball,
    enumerate_insertion_ball,
    ins_ball_size,
    ins_intersection_max,
    parse_word,
    reconstruct_from_deletions,
    reconstruct_from_insertions,
    sample_distinct_outputs,
)
from burstrecon.balls import _check_cap
from burstrecon.reconstruct import _grid, _read_outputs, _tally_grid
from seeding import trial_seed


def words_of(*texts):
    return frozenset(parse_word(t, 10) for t in texts)


def reference_classes(words, q, b, t):
    """Per-word bucketing of the burst grid: the classes and precedence of each output."""
    classes = {(symbol, slot): set() for symbol in range(q) for slot in range(1, t + 2)}
    precedence = {(alpha, beta): 0 for alpha in range(q) for beta in range(q) if alpha != beta}
    never = t + 2
    for w in words:
        first = {}
        for slot in range(t + 1):
            first.setdefault(w[slot * b], slot + 1)
        for symbol, slot in first.items():
            classes[(symbol, slot)].add(w)
        for alpha, slot in first.items():
            for beta in range(q):
                if beta != alpha and slot < first.get(beta, never):
                    precedence[(alpha, beta)] += 1
    return classes, precedence


def grid_classes(words, b, t):
    """The classes and precedence counts of an output set, through the decoder's tally.

    ``_tally_grid`` counts grid patterns; each word goes back into the class
    (symbol, slot) of every symbol on its grid, slot being the symbol's first
    grid appearance, and the class sizes must be the tally's.  The tally is
    keyed by the symbols that the grid shows, every slot of each.
    """
    patterns = {w: _grid(0, b, t)(w) for w in set(words)}
    sizes, precedence = _tally_grid(Counter(patterns.values()), t)
    shown = set().union(*patterns.values())
    assert set(sizes) == set(product(shown, range(1, t + 2)))
    assert set(precedence) == set(permutations(shown, 2))
    classes = {key: set() for key in sizes}
    for w, pattern in patterns.items():
        for symbol in set(pattern):
            classes[(symbol, pattern.find(symbol) + 1)].add(w)
    assert {key: len(members) for key, members in classes.items()} == sizes
    return classes, precedence


def assert_tally_matches_reference(words, q, b, t):
    """The tally's entries equal the alphabet-wide reference's.  Beyond them
    the reference holds nothing for a symbol that the grid does not show,
    and counts every output that shows a symbol as showing it before each
    symbol that the grid does not show."""
    classes, precedence = grid_classes(words, b, t)
    expected_classes, expected_precedence = reference_classes(set(words), q, b, t)
    assert classes == {key: expected_classes[key] for key in classes}
    assert precedence == {key: expected_precedence[key] for key in precedence}
    assert not any(v for key, v in expected_classes.items() if key not in classes)
    showing = Counter()
    for (symbol, _), members in classes.items():
        showing[symbol] += len(members)
    for (alpha, beta), count in expected_precedence.items():
        if (alpha, beta) not in precedence:
            assert count == showing[alpha]


def reference_insertion_decoder(outputs, n, q, b, t):
    """The insertion decoder that strips every surviving output at every step."""
    threshold = ins_intersection_max(q, b, n, t)
    if n < 1 or t < 1:
        raise ValueError(f"the insertion decoder needs n >= 1 and t >= 1, got n={n}, t={t}")
    current = _read_outputs(outputs, q, n + t * b, "n + t*b", threshold)
    n_rem, t_rem = n, t
    recovered, steps = [], []
    while len(recovered) < n:
        if len(current) < ins_intersection_max(q, b, n_rem, t_rem) + 1:
            raise InconsistentOutputs(
                "class sizes fell below the running threshold; the outputs do "
                "not all come from one insertion ball"
            )
        classes, precedence = reference_classes(current, q, b, t_rem)
        winner = next(
            (
                beta
                for beta in range(q)
                if all(
                    precedence[(alpha, beta)] < precedence[(beta, alpha)]
                    for alpha in range(q)
                    if alpha != beta
                )
            ),
            None,
        )
        if winner is None:
            raise AmbiguousSymbol("no symbol wins every pairwise precedence comparison")
        recovered.append(winner)
        chosen_j = next(
            (
                j
                for j in range(t_rem, -1, -1)
                if len(classes[(winner, j + 1)])
                >= (q - 1) ** j * q ** (j * (b - 1)) * ins_intersection_max(q, b, n_rem - 1, t_rem - j)
                + 1
            ),
            None,
        )
        if chosen_j is None:
            raise ThresholdNotMet("no first-symbol class clears its pigeonhole bound")
        steps.append(
            StepInfo(
                len(recovered),
                winner,
                chosen_j,
                tuple(len(classes[(winner, s)]) for s in range(1, t_rem + 2)),
            )
        )
        cut = chosen_j * b + 1
        groups = {}
        for w in classes[(winner, chosen_j + 1)]:
            groups.setdefault(w[:cut], set()).add(w[cut:])
        _, stripped = min(groups.items(), key=lambda kv: (-len(kv[1]), kv[0]))
        if chosen_j == t_rem:
            if len(stripped) != 1:
                raise InconsistentOutputs("several distinct tails remain after the last burst")
            recovered.extend(next(iter(stripped)))
            break
        current = stripped
        t_rem -= chosen_j
        n_rem -= 1
    return bytes(recovered), tuple(steps)


def decode_both(outputs, n, q, b, t):
    """Run both insertion decoders, require the same word and steps or the same refusal."""
    outputs = list(outputs)
    try:
        expected = reference_insertion_decoder(outputs, n, q, b, t)
    except (ReconstructionError, ValueError) as error:
        expected = error
    try:
        result = reconstruct_from_insertions(outputs, n, q, b, t)
    except (ReconstructionError, ValueError) as error:
        assert (type(error), str(error)) == (type(expected), str(expected))
        raise
    assert (result.word, result.steps) == expected
    return result


def reference_deletion_decoder(outputs, n, b, t):
    """The deletion decoder that strips every surviving output at every phase-1 step."""
    threshold = del_intersection_max_binary(b, n, t)
    _check_cap(2 ** (t * (b - 1)), DEFAULT_CAP)
    words = _read_outputs(outputs, 2, n - t * b, "n - t*b", threshold)

    cells = [None] * n
    votes = []  # ones minus zeros, per open cell left to right
    current = set(words)
    n_rem = n
    t_rem = t
    i = 0  # 0-based index of the next cell to decide
    steps = []
    while t_rem > 0:
        if n_rem <= t_rem * b:
            raise InconsistentOutputs(
                "outputs exhausted before all bursts were accounted for"
            )
        ones = sum(w[0] for w in current)
        zeros = len(current) - ones
        if zeros == ones:
            raise AmbiguousSymbol("first-symbol counts tie")
        beta = 0 if zeros > ones else 1
        majority_size = max(zeros, ones)
        cells[i] = beta
        if majority_size > del_intersection_threshold(b, n_rem - 1, t_rem):
            steps.append(StepInfo(i + 1, beta, 0, (zeros, ones)))
            current = {w[1:] for w in current if w[0] == beta}
            i += 1
            n_rem -= 1
        else:
            # a burst consumed the front: the complement sits one burst ahead
            # and the b-1 cells between stay open for phase 2, each with the
            # vote of the discarded majority class
            steps.append(StepInfo(i + 1, beta, 1, (zeros, ones)))
            cells[i + b] = 1 - beta
            gaps = [w[1:b] for w in current if w[0] == beta]
            tallies = [2 * sum(column) - len(gaps) for column in zip(*gaps)]
            votes += tallies + [0] * (b - 1 - len(tallies))
            current = {w[1:] for w in current if w[0] == 1 - beta}
            i += b + 1
            n_rem -= b + 1
            t_rem -= 1
            if t_rem == 0:
                if len(current) != 1:
                    raise InconsistentOutputs(
                        "tail not unique once the burst budget ran out"
                    )
                tail = next(iter(current))
                cells[i:] = list(tail)
                break

    # the word enumerator, not the frontier under test, decides which completions survive
    candidates = candidate_expansion(cells, votes)
    for tried, v in enumerate(candidates, 1):
        if words <= enumerate_deletion_ball(v, t, b):
            return v, tuple(steps), tried
    raise CandidateFilterError(len(candidates))


def decode_both_deletion(outputs, n, b, t):
    """Run both deletion decoders, require the same word, steps and phase-2 count or refusal."""
    outputs = list(outputs)
    try:
        expected = reference_deletion_decoder(outputs, n, b, t)
    except (ReconstructionError, ValueError) as error:
        expected = error
    try:
        result = reconstruct_from_deletions(outputs, n, b, t)
    except (ReconstructionError, ValueError) as error:
        assert (type(error), str(error)) == (type(expected), str(expected))
        raise
    assert (result.word, result.steps, result.phase2_tried) == expected
    return result


class TestClassifier:
    # a six-word output set whose burst grid positions are 1, 3, 5
    U = words_of("010000", "010100", "010101", "100001", "101001", "101011")

    def test_partition(self):
        classes, _ = grid_classes(self.U, 2, 2)
        assert classes[(0, 1)] == words_of("010000", "010100", "010101")
        assert classes[(0, 2)] == words_of("100001")
        assert classes[(0, 3)] == words_of("101001")
        assert classes[(1, 1)] == words_of("100001", "101001", "101011")
        assert classes[(1, 2)] == frozenset()
        assert classes[(1, 3)] == frozenset()

    def test_precedence_counts(self):
        _, precedence = grid_classes(self.U, 2, 2)
        assert precedence[(0, 1)] == 3
        assert precedence[(1, 0)] == 3

    def test_singleton(self):
        classes, precedence = grid_classes(words_of("010101"), 2, 2)
        # only symbol 0 shows up on the grid, so the tally holds no pair, and
        # the reference holds 0 before 1 once and 1 before 0 never
        assert classes == {(0, 1): set(words_of("010101")), (0, 2): set(), (0, 3): set()}
        assert precedence == {}
        _, expected = reference_classes(words_of("010101"), 2, 2, 2)
        assert expected == {(0, 1): 1, (1, 0): 0}
        assert_tally_matches_reference(words_of("010101"), 2, 2, 2)

    def test_empty(self):
        assert grid_classes(frozenset(), 2, 2) == ({}, {})
        assert_tally_matches_reference(frozenset(), 2, 2, 2)

    def test_tables_cover_only_the_shown_symbols(self, monkeypatch):
        # three outputs decode a 255-symbol word of length 200 at b = t = 1;
        # every table a step builds is sized by the symbols its outputs show
        rng = random.Random(255)
        x = bytes(rng.randrange(255) for _ in range(200))
        outputs = sample_distinct_outputs(x, 255, 1, 1, "insertion", 3, 35).outputs
        real = burstrecon.reconstruct._tally_grid
        tables = []

        def recording(counts, *args):
            sizes, precedence = real(counts, *args)
            tables.append((len(set().union(*counts)), args[-1], len(sizes), len(precedence)))
            return sizes, precedence

        monkeypatch.setattr(burstrecon.reconstruct, "_tally_grid", recording)
        assert reconstruct_from_insertions(outputs, 200, 255, 1, 1).word == x
        assert len(tables) >= 2
        for shown, t, sizes, precedence in tables:
            assert sizes <= shown * (t + 1) and precedence <= shown * (shown - 1)

    def test_words_cover_true_first_symbol_slots(self):
        # every output of a known center lands in one class of the center's
        # first symbol
        x = parse_word("102", 3)
        ball = enumerate_insertion_ball(x, 3, 2, 2)
        classes, _ = grid_classes(ball, 2, 2)
        covered = set()
        for slot in (1, 2, 3):
            covered |= classes[(x[0], slot)]
        assert covered == set(ball)


def completions(cells):
    """Every binary completion of the open (None) cells, as a set."""
    slots = [i for i, c in enumerate(cells) if c is None]
    out = set()
    for fill in product((0, 1), repeat=len(slots)):
        word = list(cells)
        for idx, value in zip(slots, fill):
            word[idx] = value
        out.add(bytes(word))
    return out


class TestCandidateExpansion:
    def test_no_unknowns(self):
        got = candidate_expansion((0, 1, 1), ())
        assert len(got) == 1
        assert list(got) == [parse_word("011", 2)]

    def test_two_unknowns(self):
        # tied votes: the all-zero fill, then the leftmost cell flipped first
        assert list(candidate_expansion([None, 1, None], (0, 0))) == [
            parse_word("010", 2),
            parse_word("110", 2),
            parse_word("011", 2),
            parse_word("111", 2),
        ]
        # majority fill 1?0; the cell voted -1 is less confident than the one voted 3
        assert list(candidate_expansion([None, 1, None], (3, -1))) == [
            parse_word("110", 2),
            parse_word("111", 2),
            parse_word("010", 2),
            parse_word("011", 2),
        ]

    def test_single_unknown(self):
        assert list(candidate_expansion((0, None, 1), (0,))) == [
            parse_word("001", 2),
            parse_word("011", 2),
        ]
        assert list(candidate_expansion((0, None, 1), (2,))) == [
            parse_word("011", 2),
            parse_word("001", 2),
        ]

    def test_unknown_positions(self):
        # only the open cells vary; every decided cell is copied through
        got = list(candidate_expansion((1, None, 0, None, None), (0, 0, 0)))
        assert len(got) == 8
        assert {(w[0], w[2]) for w in got} == {(1, 0)}
        assert {(w[1], w[3], w[4]) for w in got} == set(product((0, 1), repeat=3))

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_each_completion_once_in_vote_order(self, data):
        cells = data.draw(st.lists(st.sampled_from([0, 1, None]), max_size=9))
        k = cells.count(None)
        votes = data.draw(st.lists(st.integers(-5, 5), min_size=k, max_size=k))
        expansion = candidate_expansion(cells, votes)
        got = list(expansion)
        assert len(expansion) == len(got) == 2**k
        assert len(set(got)) == len(got) and set(got) == completions(cells)
        slots = [i for i, c in enumerate(cells) if c is None]
        majority = got[0]
        assert [majority[i] for i in slots] == [int(v > 0) for v in votes]
        flipped = [sum(w[i] != majority[i] for i in slots) for w in got]
        assert flipped == sorted(flipped)
        if k:
            # the first single flip is the least confident cell, leftmost on a tie
            weakest = min(range(k), key=lambda j: abs(votes[j]))
            assert [i for i in slots if got[1][i] != majority[i]] == [slots[weakest]]

    def test_built_lazily(self):
        # 2**60 completions: sized up front, each word built only when iterated
        cells = [None] * 60 + [1]
        expansion = candidate_expansion(cells, [1] * 60)
        assert len(expansion) == 2**60
        assert next(iter(expansion)) == bytes([1] * 61)

    def test_votes_must_match_open_cells(self):
        with pytest.raises(ValueError):
            candidate_expansion((None, 1, None), (1,))


class TestInsertionDecoder:
    def test_every_five_subset_of_small_ball(self):
        x = b"\x00"
        ball = enumerate_insertion_ball(x, 2, 1, 2)
        assert ins_intersection_max(2, 2, 1, 1) + 1 == 5
        for subset in combinations(sorted(ball), 5):
            result = reconstruct_from_insertions(set(subset), 1, 2, 2, 1)
            assert result.word == x

    def test_full_ball_round_trip_small_grid(self):
        for q in (2, 3):
            for b in (2, 3):
                for t in (1, 2):
                    for n in (1, 2, 3):
                        for x in all_words(q, n):
                            ball = enumerate_insertion_ball(x, q, t, b)
                            result = reconstruct_from_insertions(ball, n, q, b, t)
                            assert result.word == x

    def test_sampled_round_trips(self):
        rng = random.Random(20260810)
        for q in (2, 3):
            for b in (2, 3):
                for t in (1, 2):
                    for n in (2, 5):
                        need = ins_intersection_max(q, b, n, t) + 1
                        for _ in range(3):
                            x = bytes(rng.randrange(q) for _ in range(n))
                            sample = sample_distinct_outputs(
                                x, q, t, b, "insertion", need, rng.getrandbits(48)
                            )
                            result = reconstruct_from_insertions(sample.outputs, n, q, b, t)
                            assert result.word == x

    def test_refuses_exact_threshold(self):
        ball = enumerate_insertion_ball(b"\x00", 2, 1, 2)
        overlap = ball & enumerate_insertion_ball(b"\x01", 2, 1, 2)
        assert len(overlap) == ins_intersection_max(2, 2, 1, 1)
        with pytest.raises(BelowThreshold):
            reconstruct_from_insertions(overlap, 1, 2, 2, 1)

    def test_rejects_wrong_lengths(self):
        with pytest.raises(ValueError):
            reconstruct_from_insertions(words_of("01"), 1, 2, 2, 1)

    def test_mixed_centers_never_silently_decode(self):
        # outputs drawn from two far-apart centers must end in a named error,
        # never in a quiet wrong answer for either center... unless the union
        # is itself consistent with one of them, which the sizes here prevent
        a = parse_word("0000", 2)
        b = parse_word("1111", 2)
        mixed = set(enumerate_insertion_ball(a, 2, 1, 2)) | set(
            enumerate_insertion_ball(b, 2, 1, 2)
        )
        with pytest.raises(ReconstructionError):
            reconstruct_from_insertions(mixed, 4, 2, 2, 1)

    def test_diagnostics_present(self):
        x = parse_word("0102", 3)
        ball = enumerate_insertion_ball(x, 3, 2, 2)
        result = reconstruct_from_insertions(ball, 4, 3, 2, 2)
        assert result.word == x
        assert len(result.steps) >= 1
        assert result.phase1_seconds >= 0.0
        first = result.steps[0]
        assert first.position == 1 and first.symbol == x[0]


class TestDeletionDecoder:
    def test_every_three_subset(self):
        x = parse_word("01100", 2)
        ball = enumerate_deletion_ball(x, 1, 2)
        assert len(ball) == 4
        assert del_intersection_max_binary(2, 5, 1) + 1 == 3
        for subset in combinations(sorted(ball), 3):
            result = reconstruct_from_deletions(set(subset), 5, 2, 1)
            assert result.word == x

    def test_full_ball_round_trips(self):
        for b in (2, 3):
            for t in (1, 2):
                for n in range(b * (t + 1) - 1, b * (t + 1) + 4):
                    need = del_intersection_max_binary(b, n, t) + 1
                    for x in all_words(2, n):
                        ball = enumerate_deletion_ball(x, t, b)
                        if len(ball) < need:
                            continue
                        result = reconstruct_from_deletions(ball, n, b, t)
                        assert result.word == x

    def test_sampled_round_trips(self):
        rng = random.Random(trial_seed(20260810, 1))
        for b in (2, 3):
            for t in (1, 2):
                n = b * (t + 1) + t + 3
                need = del_intersection_max_binary(b, n, t) + 1
                eligible = [
                    x
                    for x in all_words(2, n)
                    if len(enumerate_deletion_ball(x, t, b)) >= need
                ]
                assert eligible
                for _ in range(5):
                    x = eligible[rng.randrange(len(eligible))]
                    sample = sample_distinct_outputs(
                        x, 2, t, b, "deletion", need, rng.getrandbits(48)
                    )
                    result = reconstruct_from_deletions(sample.outputs, n, b, t)
                    assert result.word == x

    def test_refuses_exact_threshold_two_center_witness(self):
        b, t, n = 2, 2, 7
        x = bytes(b) + b_cyclic(n - b, 2, b, 1)
        y = bytearray(x)
        y[b - 1] = 1
        y = bytes(y)
        overlap = enumerate_deletion_ball(x, t, b) & enumerate_deletion_ball(y, t, b)
        assert len(overlap) == del_intersection_max_binary(b, n, t) == 6
        with pytest.raises(BelowThreshold):
            reconstruct_from_deletions(overlap, n, b, t)

    def test_tie_raises(self):
        outputs = words_of("0000", "0101", "1010", "1111")
        assert len(outputs) >= del_intersection_max_binary(2, 6, 1) + 1
        with pytest.raises(AmbiguousSymbol):
            reconstruct_from_deletions(outputs, 6, 2, 1)

    def test_rejects_wrong_params(self):
        with pytest.raises(ValueError):
            reconstruct_from_deletions(words_of("01"), 5, 1, 1)  # b too small
        with pytest.raises(ValueError):
            reconstruct_from_deletions(words_of("01"), 2, 2, 1)  # n too small

    def test_unknowns_stay_within_budget(self):
        # centers that force minority branches still decode
        for b in (2, 3):
            for t in (1, 2):
                n = b * (t + 1) + t + 2
                need = del_intersection_max_binary(b, n, t) + 1
                for start in (0, 1):
                    x = b_cyclic(n, 2, b, start)
                    ball = enumerate_deletion_ball(x, t, b)
                    if len(ball) < need:
                        continue
                    result = reconstruct_from_deletions(ball, n, b, t)
                    assert result.word == x
                    assert result.phase2_seconds >= 0.0

    def test_phase2_expands_exactly_t_times_b_minus_1_cells(self, monkeypatch):
        # phase 1 returns only once all t bursts are placed, each leaving b-1
        # cells open; phase 2 expands them in one call
        expanded = []
        real = burstrecon.reconstruct.candidate_expansion

        def recording(cells, votes):
            expanded.append(sum(1 for c in cells if c is None))
            return real(cells, votes)

        monkeypatch.setattr(burstrecon.reconstruct, "candidate_expansion", recording)
        rng = random.Random(trial_seed(20261018, 5))
        grid = ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1), (4, 2))
        decoded = []
        for b, t in grid:
            for n in range(b * (t + 1) - 1, b * (t + 1) + 3):
                need = del_intersection_max_binary(b, n, t) + 1
                centers = [b_cyclic(n, 2, b, 0), b_cyclic(n, 2, b, 1)]
                centers += [bytes(rng.randrange(2) for _ in range(n)) for _ in range(4)]
                for x in centers:
                    if len(enumerate_deletion_ball(x, t, b)) < need:
                        continue
                    sample = sample_distinct_outputs(
                        x, 2, t, b, "deletion", need, rng.getrandbits(48)
                    )
                    expanded.clear()
                    assert reconstruct_from_deletions(sample.outputs, n, b, t).word == x
                    assert expanded == [t * (b - 1)], (b, t, n, x)
                    decoded.append((b, t))
        assert set(decoded) == set(grid) and len(decoded) >= 40

    def test_phase2_above_cap_refused_before_reading_outputs(self):
        # 2**(t*(b-1)) candidates: 2**24 is above the default cap, 2**22 is not
        with pytest.raises(EnumerationCapExceeded) as info:
            reconstruct_from_deletions(iter(()), 40, 13, 2)
        assert (info.value.required, info.value.cap) == (2**24, DEFAULT_CAP)
        with pytest.raises(BelowThreshold):
            reconstruct_from_deletions(iter(()), 40, 12, 2)

    def test_first_survivor_is_the_only_one(self, monkeypatch):
        # every candidate of the expansion is checked against every output:
        # exactly one survives, it is the decoded word, and phase 2 stopped on it
        expansions = []
        real = burstrecon.reconstruct.candidate_expansion

        def recording(cells, votes):
            expansions.append(real(cells, votes))
            return expansions[-1]

        monkeypatch.setattr(burstrecon.reconstruct, "candidate_expansion", recording)
        rng = random.Random(trial_seed(20261018, 7))
        decodes = 0
        for b, t in ((2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2), (5, 2)):
            for n in range(b * (t + 1) - 1, b * (t + 1) + 3):
                need = del_intersection_max_binary(b, n, t) + 1
                centers = [b_cyclic(n, 2, b, 0), b_cyclic(n, 2, b, 1)]
                centers += [bytes(rng.randrange(2) for _ in range(n)) for _ in range(4)]
                for x in centers:
                    if len(enumerate_deletion_ball(x, t, b)) < need:
                        continue
                    sample = sample_distinct_outputs(
                        x, 2, t, b, "deletion", need, rng.getrandbits(48)
                    )
                    expansions.clear()
                    result = reconstruct_from_deletions(sample.outputs, n, b, t)
                    (expansion,) = expansions
                    order = list(expansion)
                    outputs = set(sample.outputs)
                    survivors = [v for v in order if outputs <= enumerate_deletion_ball(v, t, b)]
                    assert result.word == x and survivors == [x], (b, t, n, x)
                    assert order.index(x) + 1 == result.phase2_tried
                    decodes += 1
        assert decodes >= 40

    def test_no_survivor_refused(self):
        # phase 1 leaves one open cell; neither completion's ball holds all three
        with pytest.raises(CandidateFilterError) as info:
            reconstruct_from_deletions(words_of("000", "001", "101"), 5, 2, 1)
        assert info.value.candidates == 2

    def test_outputs_outlast_the_burst_budget(self):
        # Why phase 1's "outputs exhausted" refusal is a guard that no input
        # reaches.  With f = del_intersection_threshold, the survivors before
        # cell i number at least f(n - i, t_rem) + 1: the read outputs hold
        # f(n, t) + 1, a step without a burst keeps a majority above
        # f(n - i - 1, t_rem), and a burst step keeps the minority, at least
        # f(n - i, t_rem) - f(n - i - 1, t_rem) + 1 >= f(n - i - b - 1, t_rem - 1) + 1.
        # The outputs run out at n - i = b*t_rem, where the distinct survivors
        # share every symbol, so at most one is left, against f(b*t, t) + 1 = 2.
        f = del_intersection_threshold
        for b in range(2, 9):
            for t in range(1, 7):
                assert f(b, b * t, t) == 1
                for m in range(b * t + 1, 80):
                    assert f(b, m, t) >= f(b, m - 1, t) + f(b, m - b - 1, t - 1), (b, t, m)


def test_insertion_decoder_refuses_an_out_of_range_symbol_before_the_threshold():
    # _read_outputs refuses the symbol first, though the set falls short
    with pytest.raises(ValueError, match="symbol 3 out of range for alphabet of size 2"):
        reconstruct_from_insertions([bytes([0, 3, 1, 0, 1]), bytes([0, 1, 1, 0, 1])], 3, 2, 2, 1)


def test_deletion_decoder_refuses_an_out_of_range_symbol():
    # the set clears the threshold; _read_outputs refuses the symbol first
    with pytest.raises(ValueError, match="symbol 2 out of range for alphabet of size 2"):
        reconstruct_from_deletions(
            [bytes([0, 2, 1, 1]), bytes([0, 0, 1, 1]), bytes([1, 0, 1, 1])], 6, 2, 1
        )


class TestExtremalPairs:
    """The paper's pairs of centers whose balls share the maximum number of outputs.

    Their intersection has exactly the maximum size, so it alone is refused,
    and one more word from either ball's own part decodes to that ball's center.
    """

    @staticmethod
    def check_pair(x, y, ball, decode, threshold, per_side, rng):
        ball_x, ball_y = ball(x), ball(y)
        common = ball_x & ball_y
        assert len(common) == threshold, (x, y)
        with pytest.raises(BelowThreshold):
            decode(common)
        decodes = 0
        for center, own in ((x, ball_x - ball_y), (y, ball_y - ball_x)):
            own = sorted(own)
            for w in own if per_side is None else rng.sample(own, min(per_side, len(own))):
                assert decode(common | {w}).word == center, (x, y, w)
                decodes += 1
        return decodes

    @classmethod
    def insertion_pair_decodes(cls, decoder):
        # 0z against 1z, for z all zeros, all (q-1)s and one seeded random tail
        rng = random.Random(10)
        decodes = 0
        for q, b, t, n in product((2, 3), (1, 2, 3), (1, 2), range(1, 6)):
            if ins_ball_size(q, b, n, t) > 4000:
                continue
            tails = {bytes(n - 1), bytes([q - 1] * (n - 1))}
            tails.add(bytes(rng.randrange(q) for _ in range(n - 1)))
            for z in sorted(tails):
                decodes += cls.check_pair(
                    b"\x00" + z,
                    b"\x01" + z,
                    lambda x: enumerate_insertion_ball(x, q, t, b),
                    lambda words: decoder(words, n, q, b, t),
                    ins_intersection_max(q, b, n, t),
                    5,
                    rng,
                )
        return decodes

    def test_insertion_pairs_differ_in_the_first_symbol(self):
        assert self.insertion_pair_decodes(reconstruct_from_insertions) >= 1000

    @classmethod
    def deletion_pair_decodes(cls, decoder):
        # 0^b 1^b 0^b ... against 0^(b-1) 1 1^b 0^b ..., every word of each side
        decodes = 0
        for b, t in product((2, 3), (1, 2)):
            for n in range(b * (t + 1) - 1, 13):
                x = b_cyclic(n, 2, b, 0)
                y = x[: b - 1] + b"\x01" + x[b:]
                decodes += cls.check_pair(
                    x,
                    y,
                    lambda w: enumerate_deletion_ball(w, t, b),
                    lambda words: decoder(words, n, b, t),
                    del_intersection_max_binary(b, n, t),
                    None,
                    None,
                )
        return decodes

    def test_deletion_pairs_differ_in_the_bth_symbol(self):
        assert self.deletion_pair_decodes(reconstruct_from_deletions) >= 200


class TestInsertionDecoderMatchesReference:
    """The offset decoder against the stripping decoder it replaced, set by set."""

    @staticmethod
    def grid_sets():
        # one threshold+1 sample per cell of the roundtrip-small insertion grid,
        # with the same set less one output, with one output of another center,
        # as a random threshold+1 mixture of its outputs and another ball's, and
        # threshold+1 distinct words drawn uniformly, no ball's sample
        rng = random.Random(14)
        mix = random.Random(17)
        uniform = random.Random(31)
        for q, b, t, n in product((2, 3), (2, 3), (1, 2, 3), (1, 2, 3, 4, 6, 8, 10, 12)):
            need = ins_intersection_max(q, b, n, t) + 1
            if need > 3000:
                continue
            x = bytes(rng.randrange(q) for _ in range(n))
            y = bytes([(x[0] + 1) % q]) + bytes(rng.randrange(q) for _ in range(n - 1))
            outputs = sample_distinct_outputs(x, q, t, b, "insertion", need, rng.getrandbits(32)).outputs
            # at most need-1 outputs of y's ball are x's, so one of these is not
            count = min(need + 1, ins_ball_size(q, b, n, t))
            others = sample_distinct_outputs(y, q, t, b, "insertion", count, rng.getrandbits(32))
            stranger = next(w for w in others.outputs if w not in outputs)
            yield (q, b, t, n), x, outputs
            yield (q, b, t, n), None, outputs[1:]
            yield (q, b, t, n), None, (stranger,) + outputs[1:]
            z = x
            while z == x:
                z = bytes(mix.randrange(q) for _ in range(n))
            k = mix.randint(1, max(1, need - 1))
            zs = sample_distinct_outputs(z, q, t, b, "insertion", need, mix.getrandbits(32)).outputs
            # at most k of z's need outputs are among the k taken from x's ball
            yield (q, b, t, n), None, outputs[:k] + tuple(w for w in zs if w not in outputs[:k])[: need - k]
            weights = [q**e for e in reversed(range(n + t * b))]
            ranks = uniform.sample(range(q ** (n + t * b)), need)
            yield (q, b, t, n), None, tuple(bytes(r // w % q for w in weights) for r in ranks)

    def test_grid_sets(self):
        outcomes = {"decoded": 0, "below": 0, "refused": 0}
        for (q, b, t, n), x, outputs in self.grid_sets():
            assert_tally_matches_reference(outputs, q, b, t)
            try:
                word = decode_both(outputs, n, q, b, t).word
            except BelowThreshold:
                outcomes["below"] += 1
            except ReconstructionError:
                outcomes["refused"] += 1
            else:
                assert x is None or word == x
                outcomes["decoded"] += 1
        assert outcomes["below"] == 75 and outcomes["decoded"] >= 75 and outcomes["refused"] >= 1

    @staticmethod
    def large_alphabet_sets():
        # threshold+1 samples at b = 1 on alphabets of 11, 64 and 255 symbols:
        # as sampled, with one and with two outputs swapped for uniform foreign
        # words, and as a random mixture with another center's outputs
        rng = random.Random(35)
        cells = [(q, 1, n) for q in (11, 64, 255) for n in (1, 2, 5, 12, 20)]
        cells += [(11, 2, n) for n in (1, 4, 12, 20)] + [(64, 2, 1), (64, 2, 3), (255, 2, 1)]
        for q, t, n in cells:
            need = ins_intersection_max(q, 1, n, t) + 1
            x = bytes(rng.randrange(q) for _ in range(n))
            outputs = sample_distinct_outputs(x, q, t, 1, "insertion", need, rng.getrandbits(32)).outputs
            yield (q, 1, t, n), x, outputs
            for swaps in (1, 2):
                swapped = list(outputs)
                for _ in range(swaps):
                    swapped[rng.randrange(need)] = bytes(rng.randrange(q) for _ in range(n + t))
                yield (q, 1, t, n), None, tuple(swapped)
            z = bytes(rng.randrange(q) for _ in range(n))
            zs = sample_distinct_outputs(z, q, t, 1, "insertion", need, rng.getrandbits(32)).outputs
            k = rng.randint(1, max(1, need - 1))
            yield (q, 1, t, n), None, outputs[:k] + tuple(w for w in zs if w not in outputs[:k])[: need - k]

    def test_large_alphabet_sets(self):
        outcomes = Counter()
        for (q, b, t, n), x, outputs in self.large_alphabet_sets():
            assert_tally_matches_reference(outputs, q, b, t)
            try:
                word = decode_both(outputs, n, q, b, t).word
            except ReconstructionError as error:
                assert x is None  # every sampled set decodes
                outcomes[type(error).__name__] += 1
            else:
                assert x is None or word == x
                outcomes["decoded"] += 1
        # the foreign words draw both refusals
        assert outcomes["decoded"] >= 18 + 20
        assert outcomes["AmbiguousSymbol"] >= 10 and outcomes["ThresholdNotMet"] >= 10

    def test_extremal_pair_sets(self):
        assert TestExtremalPairs.insertion_pair_decodes(decode_both) >= 1000


class TestDeletionDecoderMatchesReference:
    """The offset deletion decoder against the stripping decoder it replaced, set by set."""

    @staticmethod
    def outcome(outputs, n, b, t, x, outcomes):
        try:
            word = decode_both_deletion(outputs, n, b, t).word
        except ReconstructionError as error:
            outcomes[type(error).__name__] += 1
        else:
            assert x is None or word == x
            outcomes["decoded"] += 1

    def test_three_subsets_of_small_balls(self):
        # threshold+1 is 3 at b = 2, t = 1 and 4 at b = 3, t = 1
        outcomes = Counter()
        for b, n in ((2, 4), (2, 5), (2, 6), (3, 5), (3, 6), (3, 7)):
            for x in all_words(2, n):
                for subset in combinations(sorted(enumerate_deletion_ball(x, 1, b)), 3):
                    self.outcome(subset, n, b, 1, x if b == 2 else None, outcomes)
        assert outcomes == {"decoded": 160, "BelowThreshold": 320}

    def test_full_balls(self):
        outcomes = Counter()
        for b, t in product((2, 3, 4), (1, 2)):
            for n in range(b * (t + 1) - 1, min(b * (t + 1) + 4, 11)):
                for x in all_words(2, n):
                    self.outcome(enumerate_deletion_ball(x, t, b), n, b, t, None, outcomes)
        assert outcomes["decoded"] >= 1000 and outcomes["BelowThreshold"] >= 100

    def test_mixed_two_center_sets(self):
        # a threshold+1 set that takes k outputs of one ball and the rest of another's
        rng = random.Random(18)
        outcomes = Counter()
        for b, t in ((2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (2, 3)):
            for n in range(b * (t + 1) - 1, b * (t + 1) + 4):
                need = del_intersection_max_binary(b, n, t) + 1
                balls = [enumerate_deletion_ball(x, t, b) for x in all_words(2, n)]
                for _ in range(20):
                    first, second = (sorted(ball) for ball in rng.sample(balls, 2))
                    k = rng.randint(1, need)
                    taken = rng.sample(first, min(k, len(first)))
                    rest = [w for w in second if w not in taken]
                    outputs = taken + rng.sample(rest, min(need - len(taken), len(rest)))
                    self.outcome(outputs, n, b, t, None, outcomes)
        assert outcomes["decoded"] >= 50
        assert {"InconsistentOutputs", "AmbiguousSymbol", "CandidateFilterError"} <= set(outcomes)

    def test_extremal_pair_sets(self):
        assert TestExtremalPairs.deletion_pair_decodes(decode_both_deletion) >= 200
