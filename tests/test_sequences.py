"""Word representation, text forms, and the extremal deletion centers."""

import random

import pytest
from hypothesis import given, strategies as st

from burstrecon import (
    all_words,
    b_cyclic,
    del_ball_max,
    enumerate_deletion_ball,
    format_word,
    parse_word,
    validate_word,
    y_sequence,
)
from burstrecon.sequences import _format_words, _parse_words


def radius1_del_ball_size(x, b):
    """Size of the radius-1 burst-deletion ball of x (len(x) >= b+1), by counting.

    One plus the number of positions whose symbol differs from the symbol b
    places earlier: each such position starts a new length-b run.
    """
    return 1 + sum(1 for j in range(b, len(x)) if x[j] != x[j - b])


def array_rows(x, b):
    """x laid out column by column into b rows, short rows padded by repetition.

    Row i holds the symbols at 0-based indices i, i+b, i+2b, ...; a row that
    ends early repeats its final symbol out to the full width, so padding
    never adds a run.
    """
    width = -(-len(x) // b)
    return [row + row[-1:] * (width - len(row)) for row in (x[r::b] for r in range(b))]


def run_count(row):
    return 1 + sum(1 for k in range(1, len(row)) if row[k] != row[k - 1])


class TestParseFormat:
    def test_digit_form(self):
        assert parse_word("0110", 2) == bytes([0, 1, 1, 0])
        assert format_word(bytes([0, 1, 1, 0]), 2) == "0110"

    def test_comma_form(self):
        assert parse_word("10,3,254", 255) == bytes([10, 3, 254])
        assert format_word(bytes([10, 3, 254]), 255) == "10,3,254"

    def test_empty(self):
        assert parse_word("", 2) == b""
        assert format_word(b"", 2) == ""

    def test_symbol_out_of_range(self):
        with pytest.raises(ValueError):
            parse_word("012", 2)
        with pytest.raises(ValueError):
            validate_word(bytes([5]), 3)

    def test_non_digit_rejected(self):
        with pytest.raises(ValueError):
            parse_word("01a0", 2)

    # fullwidth digits, Arabic-Indic digits, a superscript: str.isdigit()
    # accepts all three, the digit form does not
    @pytest.mark.parametrize("text", ["\uff11\uff10", "\u0660\u0661", "\u00b2"])
    def test_non_ascii_digits_rejected(self, text):
        with pytest.raises(ValueError, match="expected a digit string for alphabet of size 2"):
            parse_word(text, 2)

    # each comma-separated part must be nonempty ASCII digits
    @pytest.mark.parametrize("text", ["\uff11\uff10,3", " 3 , 4", "+3,4", "3_0,1", "-1,2", "3,,4", ",3", "3,"])
    def test_comma_form_strict(self, text):
        with pytest.raises(ValueError, match="expected comma-separated ASCII integers for alphabet of size 20"):
            parse_word(text, 20)

    def test_comma_form_names_out_of_range_symbol(self):
        with pytest.raises(ValueError, match="symbol 300 out of range for alphabet of size 20"):
            parse_word("300,1", 20)
        with pytest.raises(ValueError, match="symbol 20 out of range for alphabet of size 20"):
            parse_word("3,20,25", 20)
        assert parse_word("  007,19\n", 20) == bytes([7, 19])

    def test_format_rejects_invalid_word(self):
        # "123" would parse back as a different word
        with pytest.raises(ValueError, match="symbol 12 out of range for alphabet of size 10"):
            format_word(bytes([12, 3]), 10)

    @given(st.integers(2, 10), st.lists(st.integers(0, 9), max_size=12))
    def test_round_trip_digits(self, q, symbols):
        symbols = [s % q for s in symbols]
        w = bytes(symbols)
        assert parse_word(format_word(w, q), q) == w

    @given(st.integers(11, 255), st.lists(st.integers(0, 254), min_size=1, max_size=8))
    def test_round_trip_commas(self, q, symbols):
        w = bytes(s % q for s in symbols)
        assert parse_word(format_word(w, q), q) == w


def outcome(convert, *args):
    """What a conversion returns, or the class and message of the ValueError it raises."""
    try:
        return convert(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def parse_each(texts, q):
    return [parse_word(text, q) for text in texts]


def format_each(words, q):
    return [format_word(x, q) for x in words]


# faults planted into a valid text at index i: each text is parsed as a
# whole, so a newline inside it is a fault, not a separator
TEXT_FAULTS = {
    "interior newline": lambda text, i, q, rng: text[:i] + "\n" + text[i:],
    "carriage return": lambda text, i, q, rng: text + "\r",
    "tab": lambda text, i, q, rng: text[:i] + "\t" + text[i:],
    "non-ASCII digit": lambda text, i, q, rng: text[:i] + rng.choice("\u0661\uff11\u00b2") + text[i:],
    "letter": lambda text, i, q, rng: text[:i] + "x" + text[i:],
    "padding": lambda text, i, q, rng: " " + text,
    "symbol of q or more": lambda text, i, q, rng: (
        text[:i] + str(rng.randrange(q, 10)) + text[i:] if q < 10 else f"{rng.randrange(q, 1000)},{text}"
    ),
}


class TestBatchForms:
    """_parse_words and _format_words return what parse_word and format_word
    return line by line, or raise the same class and message, on seeded
    batches of valid lines and words with planted faults."""

    @staticmethod
    def batches(key, make, plant):
        """300 seeded batches of 1 to 40 items; half of them hold one or two faults."""
        rng = random.Random(key)
        for _ in range(300):
            batch = [make(rng) for _ in range(rng.randint(1, 40))]
            for _ in range(rng.choice((0, 0, 1, 2))):
                k = rng.randrange(len(batch))
                batch[k] = plant(batch[k], rng)
            yield batch

    @pytest.mark.parametrize("q", [2, 3, 10, 11, 255])
    def test_parse_matches_parse_word(self, q):
        def text(rng):
            symbols = [rng.randrange(q) for _ in range(rng.randint(0, 8))]
            return ("," if q > 10 else "").join(map(str, symbols))

        # at q = 10 no digit is out of range: the newline, symbol 10, is
        names = sorted(TEXT_FAULTS.keys() - ({"symbol of q or more"} if q == 10 else set()))
        planted = set()

        def plant(text, rng):
            name = rng.choice(names)
            planted.add(name)
            return TEXT_FAULTS[name](text, rng.randint(0, len(text)), q, rng)

        results = set()
        for texts in self.batches(f"parse {q}", text, plant):
            found = outcome(_parse_words, texts, q)
            assert found == outcome(parse_each, texts, q), texts
            results.add(type(found))
        assert results == {list, tuple}
        assert planted == set(names)

    @pytest.mark.parametrize("q", [2, 3, 10, 11, 255])
    def test_format_matches_format_word(self, q):
        def word(rng):
            return bytes(rng.randrange(q) for _ in range(rng.randint(0, 8)))

        def plant(x, rng):
            # symbol 10 is the newline byte that joins the batch
            symbol = 10 if q <= 10 and rng.random() < 0.5 else rng.randrange(q, 256)
            i = rng.randint(0, len(x))
            return x[:i] + bytes([symbol]) + x[i:]

        results = set()
        for words in self.batches(f"format {q}", word, plant):
            found = outcome(_format_words, words, q)
            assert found == outcome(format_each, words, q), words
            results.add(type(found))
        assert results == {list, tuple}

    @pytest.mark.parametrize(
        "texts, q",
        [
            (["10", "0\n1"], 2),
            (["1\r", "0"], 2),
            (["1\t0"], 10),
            (["100", "0\u06610", "01x"], 2),
            (["100", "012", "01x"], 2),
            (["", "9", "09"], 10),
            (["10", "2,3"], 10),
            (["3,10", "3,11"], 11),
            (["0"], 1),
            (["0"], 256),
            ([], 1),
        ],
    )
    def test_parse_cases(self, texts, q):
        assert outcome(_parse_words, texts, q) == outcome(parse_each, texts, q)

    @pytest.mark.parametrize(
        "words, q",
        [
            ([b"\x01", b"\x0a"], 10),
            ([b"\x01\x0a\x00"], 2),
            ([b"", b""], 2),
            ([b"\x09\x00", b""], 10),
            ([b"\x01\x02"], 2),
            ([b"\x0a", b"\x0b"], 11),
            ([b"\x00"], 1),
            ([], 1),
        ],
    )
    def test_format_cases(self, words, q):
        assert outcome(_format_words, words, q) == outcome(format_each, words, q)


def reference_validate(x, q):
    """The per-symbol check that validate_word's byte-level scan replaces."""
    if not 2 <= q <= 255:
        raise ValueError(f"alphabet size must be in [2, 255], got {q}")
    for s in x:
        if s >= q:
            raise ValueError(f"symbol {s} out of range for alphabet of size {q}")


class TestValidateWord:
    @given(st.integers(-1, 257), st.binary(max_size=16))
    def test_matches_reference_loop(self, q, x):
        try:
            reference_validate(x, q)
        except ValueError as exc:
            with pytest.raises(ValueError) as caught:
                validate_word(x, q)
            assert str(caught.value) == str(exc)
        else:
            validate_word(x, q)


class TestAllWords:
    def test_lexicographic_and_complete(self):
        words = list(all_words(2, 3))
        assert len(words) == 8
        assert words == sorted(words)
        assert words[0] == bytes(3)

    def test_empty_length(self):
        assert list(all_words(3, 0)) == [b""]


class TestBCyclic:
    def test_ternary_example(self):
        assert format_word(b_cyclic(10, 3, 2, 0), 3) == "0011220011"
        assert format_word(b_cyclic(10, 3, 2, 2), 3) == "2200112200"

    def test_unit_burst_alternation(self):
        assert format_word(b_cyclic(4, 2, 1, 0), 2) == "0101"

    def test_start_out_of_range(self):
        with pytest.raises(ValueError):
            b_cyclic(5, 2, 2, 2)


class TestYSequence:
    def test_binary_examples(self):
        assert format_word(y_sequence(7, 2, 2, 0, 0), 2) == "1100110"
        assert format_word(y_sequence(7, 2, 2, 0, 1), 2) == "0110011"

    def test_ternary_example(self):
        assert format_word(y_sequence(6, 3, 2, 1, 1), 3) == "122001"

    def test_prefix_out_of_range(self):
        with pytest.raises(ValueError):
            y_sequence(7, 2, 2, 0, 2)

    def test_extremal_ball_sizes(self):
        # every prefix length and start symbol reaches the maximum
        for q in (2, 3):
            for b in (2, 3):
                for t in (1, 2):
                    for n in range(b * t + 1, b * t + 5):
                        expected = del_ball_max(q, b, n, t)
                        for start in range(q):
                            for j in range(b):
                                center = y_sequence(n, q, b, start, j)
                                ball = enumerate_deletion_ball(center, t, b)
                                assert len(ball) == expected, (q, b, t, n, start, j)

    def test_last_start_without_prefix_is_the_b_cyclic_word(self):
        # verify's del-extremal and del-int-lb share the ball of this one word
        for q in (2, 3, 4, 255):
            for b in range(1, 5):
                for n in range(3 * b + 2):
                    assert y_sequence(n, q, b, q - 1, 0) == b_cyclic(n, q, b), (q, b, n)

    def test_start_symbol_irrelevant_for_cyclic(self):
        for q in (2, 3):
            for b in (1, 2):
                for t in (1, 2):
                    for n in range(b * t + 1, b * t + 5):
                        sizes = {
                            len(enumerate_deletion_ball(b_cyclic(n, q, b, s), t, b))
                            for s in range(q)
                        }
                        assert len(sizes) == 1


class TestRadius1BallSize:
    def test_locked_word(self):
        assert radius1_del_ball_size(parse_word("0101", 2), 2) == 1

    def test_small_value_from_enumeration(self):
        # ball of 0110 is {10, 00, 01}
        assert radius1_del_ball_size(parse_word("0110", 2), 2) == 3

    @pytest.mark.parametrize("b", [1, 2, 3])
    def test_constant_word(self, b):
        assert radius1_del_ball_size(bytes(b + 3), b) == 1

    def test_matches_enumeration_exhaustively(self):
        for b in (1, 2, 3):
            for n in range(b + 1, 9):
                for x in all_words(2, n):
                    assert radius1_del_ball_size(x, b) == len(
                        enumerate_deletion_ball(x, 1, b)
                    )

    def test_cyclic_center_is_extremal(self):
        for q in (2, 3):
            for b in (1, 2, 3):
                for n in range(b + 1, 10):
                    assert radius1_del_ball_size(b_cyclic(n, q, b, 0), b) == n - b + 1


class TestArrayRepresentation:
    def test_padding_example(self):
        rows = array_rows(parse_word("01011", 2), 2)
        assert [list(r) for r in rows] == [[0, 0, 1], [1, 1, 1]]

    def test_single_column(self):
        rows = array_rows(parse_word("000", 2), 3)
        assert [list(r) for r in rows] == [[0], [0], [0]]

    def test_run_counts_reproduce_ball_size(self):
        # with every row populated, the runs beyond the first in each row,
        # plus one, count the radius-1 ball
        for b in (1, 2, 3):
            for n in range(b + 1, 9):
                for x in all_words(2, n):
                    derived = 1 + sum(run_count(r) - 1 for r in array_rows(x, b))
                    assert derived == len(enumerate_deletion_ball(x, 1, b))
