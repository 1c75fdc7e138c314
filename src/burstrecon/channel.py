"""Noisy channel simulation: apply specific bursts or sample distinct outputs.

Sampling is exact and uniform over the ball.  Every member has one leftmost
(canonical) burst placement, so the members can be counted and numbered: the
sampler draws distinct ranks from a named, seedable generator, so runs
reproduce bit for bit, and one walk per kind turns the ranks back into their
canonical bursts.  Each drawn burst is applied once (`apply_burst_insertion`,
`apply_burst_deletion`) to the piece of the input it ends, and the member is
one join of the pieces, so no burst copies the whole word.  A sample is one
`ChannelSample` record: the input, the channel, the outputs in draw order
and, per output, the burst events that produce it from the input.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from itertools import accumulate
from math import comb

from .balls import DEFAULT_CAP, BallKind, _check_cap, _check_kind
from .combinatorics import _check_params, _deletion_ways
from .errors import BallTooSmall
from .sequences import Word, format_word, validate_word

# random.Random, stable across platforms and versions, drawing ranks to unrank
RNG_ALGORITHM = "mt19937/unrank-v1"


@dataclass(frozen=True, slots=True)
class BurstEvent:
    """One burst at a 1-based position of the current word.

    An insertion carries the inserted block as payload; a deletion carries
    none and removes the sample's burst length of symbols.
    """

    position: int
    payload: Word | None = None


@dataclass(frozen=True)
class ChannelSample:
    """Distinct channel outputs of one input word, in Floyd's draw order.

    The set is uniform over the ball, but the order is not uniformly random:
    a prefix of the outputs is not a uniform subset, and a whole-ball draw
    comes out in rank order.  ``traces[i]`` is the tuple of burst events
    that, applied in order, turns ``input`` into ``outputs[i]``.
    """

    input: Word
    kind: BallKind
    burst_length: int
    outputs: tuple[Word, ...]
    traces: tuple[tuple[BurstEvent, ...], ...]
    seed: int
    rng_algorithm: str = RNG_ALGORITHM

    def replay(self, i: int) -> Word:
        """Re-apply the events of ``traces[i]`` to the input; equals ``outputs[i]``."""
        w = self.input
        for e in self.traces[i]:
            if e.payload is None:
                w = apply_burst_deletion(w, e.position, self.burst_length)
            else:
                w = apply_burst_insertion(w, e.position, e.payload)
        return w


# unranked members and their traces, in the order of the ranks given
_Members = tuple[tuple[Word, ...], tuple[tuple[BurstEvent, ...], ...]]
_Unrank = Callable[[Sequence[int]], _Members]


def apply_burst_insertion(x: Word, position: int, payload: Word) -> Word:
    """Insert payload so that it starts at the given 1-based position."""
    if payload is None or len(payload) < 1:
        raise ValueError("insertion payload must be a nonempty word")
    if not 1 <= position <= len(x) + 1:
        raise ValueError(f"insertion position must be in [1, {len(x) + 1}], got {position}")
    i = position - 1
    return x[:i] + payload + x[i:]


def apply_burst_deletion(x: Word, position: int, b: int) -> Word:
    """Remove the b symbols starting at the given 1-based position."""
    _check_params(b=b)
    if not 1 <= position <= len(x) - b + 1:
        raise ValueError(
            f"deletion position must be in [1, {len(x) - b + 1}], got {position}"
        )
    i = position - 1
    return x[:i] + x[i + b :]


def format_event(event: BurstEvent, q: int) -> str:
    """Line form of one event: 'ins POS PAYLOAD' or 'del POS'."""
    if event.payload is None:
        return f"del {event.position}"
    return f"ins {event.position} {format_word(event.payload, q)}"


def _insertion_unranker(x: Word, q: int, t: int, b: int) -> tuple[int, _Unrank]:
    """The insertion ball's size, and the map from ranks to their members and traces.

    A canonical pattern puts f_j bursts right before x[j], each starting with
    a symbol other than x[j] ((q-1)*q**(b-1) payloads), and the other bursts
    after x[-1] (q**b payloads).  Ranks are ordered by k, the bursts before
    x[-1], then by the k-multiset of slots (combinadic), then by payload, so
    the ranks of one block (k, slots) are consecutive.  One walk takes the
    ranks in rank order: a rank that opens a block works out its slots, the
    pieces of x between them, positions, radices and skip thresholds, and
    each rank of the block splits into t payload digits.  Each burst is
    inserted at the end of the piece of x it ends (one `apply_burst_insertion`)
    and the member is one join.  Members and traces come back in the order of
    the ranks given.  Payloads and events are built when first drawn and
    shared after that, so a sample holds no more of them than it draws.
    """
    n = len(x)
    rest_choices = q ** (b - 1)
    head, tail = (q - 1) * rest_choices, q**b
    # payload choices and members with k bursts before x[-1], for k = 0..t
    payloads = [head**k * tail ** (t - k) for k in range(t + 1)]
    sizes = [(comb(n + k - 1, k) if n else k == 0) * p for k, p in enumerate(payloads)]
    columns = [[comb(c, i) for c in range(n + t)] for i in range(t + 1)]

    starts = list(accumulate(sizes[:-1], initial=0))  # first rank of each k
    digit_weights = [q**e for e in range(b - 1, -1, -1)]
    skips = [symbol * rest_choices for symbol in x]  # head digits from skips[j] on lead past x[j]
    built: dict[int, Word] = {}  # payload of each digit value drawn so far
    made: dict[int, dict[int, BurstEvent]] = {}  # event of each position and digits so far

    def unrank(ranks: Sequence[int]) -> _Members:
        members: list[Word] = [b""] * len(ranks)
        traces: list[tuple[BurstEvent, ...]] = [()] * len(ranks)
        first = end = 0  # the block in hand holds the ranks in range(first, end)
        for index in sorted(range(len(ranks)), key=ranks.__getitem__):
            rank = ranks[index]
            if rank >= end:  # a new block (k, combination)
                k = bisect_right(starts, rank) - 1
                combination = (rank - starts[k]) // payloads[k]
                first = starts[k] + combination * payloads[k]
                end = first + payloads[k]
                slots, top = [n] * t, n + k - 1
                for i in range(k, 0, -1):  # the i-th smallest of k elements of range(top)
                    top = bisect_right(columns[i], combination, 0, top) - 1
                    combination -= columns[i][top]
                    slots[i - 1] = top - i + 1
                # per burst: the piece of x that it ends, its position in the member,
                # the events made there, its radix, and the digit from which the
                # leading symbol skips the one that it precedes
                bursts, kept, position = [], 0, 1
                for j in slots:
                    position += j - kept  # the burst starts right before x[j]
                    radix, skip = (head, skips[j]) if j < n else (tail, tail)
                    bursts.append((x[kept:j], position, made.setdefault(position, {}), radix, skip))
                    kept = j
                    position += b
                after = x[kept:]
            rank -= first
            pieces, events = [], []
            for piece, position, made_at, radix, skip in bursts:
                rank, digits = divmod(rank, radix)
                if digits >= skip:  # the leading base-q digit skips x[j]
                    digits += rest_choices
                event = made_at.get(digits)
                if event is None:
                    payload = built.get(digits)
                    if payload is None:
                        payload = built[digits] = bytes(digits // d % q for d in digit_weights)
                    event = made_at[digits] = BurstEvent(position, payload)
                pieces.append(apply_burst_insertion(piece, len(piece) + 1, event.payload))
                events.append(event)
            pieces.append(after)
            members[index] = b"".join(pieces)
            traces[index] = tuple(events)
        return tuple(members), tuple(traces)

    return sum(sizes), unrank


def _deletion_unranker(x: Word, t: int, b: int) -> tuple[int, _Unrank]:
    """The deletion ball's size, and the map from ranks to their members and traces.

    Walks ``ways`` (``combinatorics._deletion_ways``): at each position the
    ranks below ``ways[i + 1][u]`` keep x[i], the next ones delete 1, 2, ...
    bursts there.  ``ways[i][u]`` never increases with i, so the run of kept
    symbols before the next deletion is one bisection.  One walk takes the
    ranks in the order given.
    """
    n = len(x)
    ways = _deletion_ways(x, t, b)
    rising = [[-row[u] for row in ways] for u in range(t + 1)]

    made: dict[int, BurstEvent] = {}  # event of each position drawn so far

    def unrank(ranks: Sequence[int]) -> _Members:
        members, traces = [], []
        for rank in ranks:
            pieces, events, i, u, kept = [], [], 0, t, 0
            while u:
                # keep x[i] while rank < ways[i + 1][u]; rising[u] is that column negated
                i = bisect_left(rising[u], -rank, i + 1) - 1
                rank -= ways[i + 1][u]
                for f in range(1, u + 1):
                    end = i + f * b
                    if end == n:
                        break  # the last bursts end the word
                    if x[end] not in x[i:end:b]:
                        if rank < ways[end + 1][u - f]:
                            break
                        rank -= ways[end + 1][u - f]
                position = i - (t - u) * b + 1
                event = made.get(position)
                if event is None:
                    event = made[position] = BurstEvent(position)
                events += [event] * f
                piece = x[kept:end]
                for _ in range(f):
                    piece = apply_burst_deletion(piece, i - kept + 1, b)
                pieces.append(piece)
                i, u, kept = end + 1, u - f, end
            pieces.append(x[kept:])
            members.append(b"".join(pieces))
            traces.append(tuple(events))
        return tuple(members), tuple(traces)

    return ways[0][t], unrank


def sample_distinct_outputs(
    x: Word,
    q: int,
    t: int,
    b: int,
    kind: BallKind,
    count: int,
    seed: int,
    cap: int = DEFAULT_CAP,
) -> ChannelSample:
    """Sample `count` distinct members of the radius-t ball around x, uniformly.

    A `count` above `cap` is refused with `EnumerationCapExceeded`, and a
    negative seed with `ValueError`, before any work.  The ball is counted,
    never enumerated; if it holds fewer than `count` words, `BallTooSmall`
    reports its exact size.  Floyd's algorithm draws `count` distinct ranks
    in exactly `count` draws, at any ball size, and each rank becomes its
    member with the canonical trace (every burst slid as far left as it
    goes).  A fixed seed yields identical outputs and traces on every run.
    """
    validate_word(x, q)
    _check_kind(kind)
    if count < 1:
        raise ValueError(f"need at least one output, got {count}")
    _check_params(b=b, t=t, seed=seed)
    _check_cap(count, cap)
    if kind == "insertion":
        ball_size, unrank = _insertion_unranker(x, q, t, b)
    else:
        ball_size, unrank = _deletion_unranker(x, t, b)
    if ball_size < count:
        raise BallTooSmall(count, ball_size)

    getrandbits = random.Random(seed).getrandbits
    ranks: dict[int, None] = {}
    # Floyd: one draw per rank; a repeat takes top, which no earlier draw could reach
    for top in range(ball_size - count, ball_size):
        # randrange(top + 1)'s own draws: k random bits until they are at most top
        rank = getrandbits(k := (top + 1).bit_length())
        while rank > top:
            rank = getrandbits(k)
        ranks[top if rank in ranks else rank] = None
    outputs, traces = unrank(list(ranks))
    return ChannelSample(x, kind, b, outputs, traces, seed)
