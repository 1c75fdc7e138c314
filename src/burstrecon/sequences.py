"""Words over {0..q-1}, their text forms, and the extremal deletion centers.

A word is a ``bytes`` object whose entries are the symbol values; the
alphabet size q travels alongside wherever it matters.  Bytes keep words
hashable, compact, and lexicographically comparable, and cap symbols at 255.

``parse_word`` and ``format_word`` convert one word, and only they phrase
the refusal of a faulty text or word.  The command line converts its text a
batch of lines at a time with ``_parse_words`` and ``_format_words``: for
q <= 10, one joined ``str``/``bytes`` pass per batch; a batch that fails its
checks goes through the one-word rules line by line.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator

from .combinatorics import MAX_ALPHABET, _check_params

Word = bytes

# bytes.translate tables: the symbols of each alphabet, and the digit text
# form of q <= 10 in both directions.
_ALPHABETS = tuple(bytes(range(q)) for q in range(MAX_ALPHABET + 1))
_TO_TEXT = bytes.maketrans(bytes(range(10)), b"0123456789")
_FROM_TEXT = bytes.maketrans(b"0123456789", bytes(range(10)))
_DIGIT_LINES = b"0123456789\n"


def _out_of_range(symbol: int, q: int) -> ValueError:
    return ValueError(f"symbol {symbol} out of range for alphabet of size {q}")


def validate_word(x: Word, q: int) -> None:
    """Raise ValueError unless q is a supported alphabet size and every symbol of x is below q."""
    _check_params(q=q)
    bad = x.translate(None, _ALPHABETS[q])
    if bad:
        raise _out_of_range(bad[0], q)


def parse_word(text: str, q: int) -> Word:
    """Parse the text form of a word.

    For q <= 10 it is a string of ASCII digits; above, ASCII decimal
    integers separated by single commas, with nothing else in between.
    Surrounding whitespace is ignored.
    """
    _check_params(q=q)
    text = text.strip()
    if not text:
        return b""
    if q <= 10:
        if not (text.isascii() and text.isdigit()):
            raise ValueError(f"expected a digit string for alphabet of size {q}: {text!r}")
        x = text.encode("ascii").translate(_FROM_TEXT)
        validate_word(x, q)
        return x
    parts = text.split(",")
    if not all(part.isascii() and part.isdigit() for part in parts):
        raise ValueError(f"expected comma-separated ASCII integers for alphabet of size {q}: {text!r}")
    symbols = [int(part) for part in parts]
    for symbol in symbols:
        if symbol >= q:
            raise _out_of_range(symbol, q)
    return bytes(symbols)


def format_word(x: Word, q: int) -> str:
    """Render a valid word as text; inverse of parse_word for the same q."""
    validate_word(x, q)
    if q <= 10:
        return x.translate(_TO_TEXT).decode("ascii")
    return ",".join(map(str, x))


def _parse_words(texts: list[str], q: int) -> list[Word]:
    """``[parse_word(text, q) for text in texts]``, in one pass for q <= 10.

    texts are stripped lines.  The batch is joined with newlines, so it
    holds len(texts) - 1 separators.  A batch that is not ASCII digits and
    newlines, holds a symbol of q or more, or splits into more words than it
    has texts, and every batch above q = 10, is parsed line by line, so
    parse_word refuses the first faulty line with its own message.
    """
    if texts and q <= 10:
        _check_params(q=q)
        text = "\n".join(texts)
        if text.isascii() and not (data := text.encode("ascii")).translate(None, _DIGIT_LINES):
            data = data.translate(_FROM_TEXT)
            # symbol 10 is the newline byte: the separators are counted, not deleted
            if (
                len(data.translate(None, _ALPHABETS[q])) == len(texts) - 1
                and len(words := data.split(b"\n")) == len(texts)
            ):
                return words
    return [parse_word(text, q) for text in texts]


def _format_words(words: list[Word], q: int) -> list[str]:
    """``[format_word(x, q) for x in words]``, in one pass for q <= 10.

    A batch that holds a symbol of q or more, and every batch above q = 10,
    is formatted word by word, so format_word refuses the first invalid
    word with its own message.
    """
    if words and q <= 10:
        _check_params(q=q)
        data = b"\n".join(words)
        # symbol 10 is the newline byte: the separators are counted, not deleted
        if len(data.translate(None, _ALPHABETS[q])) == len(words) - 1:
            return data.translate(_TO_TEXT).decode("ascii").split("\n")
    return [format_word(x, q) for x in words]


def all_words(q: int, n: int) -> Iterator[Word]:
    """Every length-n word over {0..q-1}, lazily, in lexicographic order."""
    _check_params(q=q, n=n)
    return map(bytes, product(range(q), repeat=n))


def b_cyclic(n: int, q: int, b: int, start: int = 0) -> Word:
    """The word whose symbol at 0-based index i is (start + i // b) mod q.

    Blocks of b equal symbols stepping cyclically through the alphabet; among
    all length-n words it has the most length-b runs, hence the largest
    radius-1 burst-deletion ball.
    """
    _check_params(q=q, b=b, n=n)
    if not 0 <= start < q:
        raise ValueError(f"start symbol {start} out of range for alphabet of size {q}")
    return bytes((start + i // b) % q for i in range(n))


def y_sequence(n: int, q: int, b: int, start: int = 0, prefix_len: int = 0) -> Word:
    """prefix_len copies of start, then the b-cyclic word opening at start+1.

    For every prefix_len in [0, b-1] the radius-t burst-deletion ball of this
    word attains the maximum size over all length-n centers.
    """
    _check_params(q=q, b=b, n=n)
    if not 0 <= prefix_len <= b - 1:
        raise ValueError(f"prefix length must be in [0, {b - 1}], got {prefix_len}")
    if not 0 <= start < q:
        raise ValueError(f"start symbol {start} out of range for alphabet of size {q}")
    if n < prefix_len:
        raise ValueError(f"length {n} shorter than the prefix {prefix_len}")
    return bytes([start]) * prefix_len + b_cyclic(n - prefix_len, q, b, (start + 1) % q)
