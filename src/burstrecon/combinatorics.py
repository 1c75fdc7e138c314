"""Exact counts for burst-error channels: ball sizes, overlap maxima, bounds.

All arithmetic is arbitrary-precision integer arithmetic; the sphere-packing
bound is an exact ``Fraction``.  No floating point enters this module.

Conventions used throughout (they make every formula total):

* ``binom(n, k) == 0`` whenever ``n < k``, including negative ``n``;
* a radius-0 ball has size 1 and two radius-0 balls never overlap;
* deletion-side counts are 0 when the radius is negative or the word is
  shorter than ``b*t``, and 1 when the word length is exactly ``b*t``.

``_check_params`` is the package's only range rule for the alphabet size q,
the burst length b, the radius t, the word length n, the enumeration cap and
the sampler seed, and ``_check_deletable`` its only rule for a word too short
to lose t bursts of b symbols.  Every module refuses out-of-range values through them, so each
value has one message; narrower domains (the proven range of an overlap
formula, for instance) are checked where they apply, after these.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

MAX_ALPHABET = 255


def binom(n: int, k: int) -> int:
    """Binomial coefficient with ``binom(n, k) == 0`` for every ``n < k``.

    ``k`` must be nonnegative; ``n`` may be any integer.
    """
    if k < 0:
        raise ValueError(f"lower index must be nonnegative, got {k}")
    if n < k:
        return 0
    return math.comb(n, k)


def _check_params(
    *, q: int | None = None, b: int | None = None, t: int | None = None, n: int | None = None,
    cap: int | None = None, seed: int | None = None,
) -> None:
    """Refuse q outside [2, MAX_ALPHABET], a burst length or cap below 1, or a
    negative radius, word length or seed; a parameter left as None is not checked.
    """
    if q is not None and not 2 <= q <= MAX_ALPHABET:
        raise ValueError(f"alphabet size must be in [2, {MAX_ALPHABET}], got {q}")
    if b is not None and b < 1:
        raise ValueError(f"burst length must be at least 1, got {b}")
    if t is not None and t < 0:
        raise ValueError(f"radius must be nonnegative, got {t}")
    if n is not None and n < 0:
        raise ValueError(f"word length must be nonnegative, got {n}")
    if cap is not None and cap < 1:
        raise ValueError(f"cap must be at least 1, got {cap}")
    if seed is not None and seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")


def _check_deletable(n: int, t: int, b: int) -> None:
    """Refuse a word of length n that t bursts of b deletions do not fit in."""
    if n < t * b:
        raise ValueError(f"word of length {n} too short for {t} bursts of {b} deletions")


def ins_ball_size(q: int, b: int, n: int, t: int) -> int:
    """Size of the radius-t burst-insertion ball around any length-n word.

    Equals ``q**(t*(b-1)) * sum(binom(n+t, i) * (q-1)**i for i in 0..t)``;
    the count does not depend on the chosen center.
    """
    _check_params(q=q, b=b, t=t, n=n)
    return q ** (t * (b - 1)) * sum(
        binom(n + t, i) * (q - 1) ** i for i in range(t + 1)
    )


def ins_intersection_max(q: int, b: int, n: int, t: int) -> int:
    """Largest burst-insertion ball overlap between two distinct length-n words.

    Equals ``q**(t*(b-1)) * sum(binom(n+t, i) * (q-1)**i * (1 - (-1)**(t-i)))``
    over ``i in 0..t-1``; returns 0 for ``t == 0``.
    """
    _check_params(q=q, b=b, t=t, n=n)
    return q ** (t * (b - 1)) * sum(
        binom(n + t, i) * (q - 1) ** i * (1 - (-1) ** (t - i)) for i in range(t)
    )


@lru_cache(maxsize=None)
def _unit_burst_del_max(q: int, n: int, t: int) -> int:
    """Largest radius-t deletion ball for unit bursts (b = 1), q-ary alphabet.

    Memoized on the (q, n, t) triple down to the one-symbol base case.
    """
    if t < 0 or n < t:
        return 0
    if q == 1 or t == 0 or n == t:
        return 1
    return sum(binom(n - t, i) * _unit_burst_del_max(q - 1, t, t - i) for i in range(t + 1))


@lru_cache(maxsize=None)
def del_ball_max(q: int, b: int, n: int, t: int) -> int:
    """Largest radius-t burst-deletion ball size over all length-n centers.

    Returns 0 when ``t < 0`` or ``n < b*t`` and 1 when ``n == b*t``; otherwise
    ``sum(binom(n - b*t, i) * unit(q-1, t, t-i) for i in 0..t)`` where ``unit``
    is the b = 1 count.  For q = 2 this collapses to a binomial partial sum.
    """
    _check_params(q=q, b=b)
    if t < 0 or n < b * t:
        return 0
    return sum(
        binom(n - b * t, i) * _unit_burst_del_max(q - 1, t, t - i) for i in range(t + 1)
    )


def _deletion_ways(x: bytes, t: int, b: int) -> list[list[int]]:
    """The table ``ways[i][u]`` of leftmost deletion patterns of x[i:] with u bursts.

    Every member of the radius-t burst-deletion ball has exactly one leftmost
    placement of its t deleted blocks: scan x, keep symbols while they match,
    and at a mismatch delete the fewest bursts that realign.  So the members
    correspond to the deletion patterns in which each run of f back-to-back
    bursts starting at i and followed by a kept symbol c = x[i + f*b] has
    x[i + g*b] != c for g = 0..f-1; a run that ends the word is always
    leftmost.  Each row starts as a copy of the next one (keep x[i]), so
    ``ways[i][u]`` never increases with i.  O(len(x) * t**2) steps.  Like
    ``balls.enumerate_deletion_ball``, it refuses a word shorter than t*b.
    """
    _check_params(b=b, t=t)
    n = len(x)
    _check_deletable(n, t, b)
    ways: list[list[int]] = [[]] * n + [[1] + [0] * t]
    for i in range(n - 1, -1, -1):
        row = ways[i] = ways[i + 1][:]  # keep x[i]
        for f in range(1, t + 1):
            end = i + f * b
            if end >= n:
                if end == n:
                    row[f] += 1  # a run that ends the word
                break
            if x[end] not in x[i:end:b]:
                after = ways[end + 1]
                for u in range(f, t + 1):
                    row[u] += after[u - f]
    return ways


def del_ball_size(x: bytes, t: int, b: int) -> int:
    """Exact size of the radius-t burst-deletion ball around the word x.

    The number of leftmost deletion patterns, ``_deletion_ways(x, t, b)[0][t]``.
    """
    return _deletion_ways(x, t, b)[0][t]


@lru_cache(maxsize=None)
def _flip_overlap(q: int, b: int, n: int, t: int) -> int:
    """``D(n,t) - D(n-b,t) + D(n-(q+1)*b, t-q)``, D the q-ary ``del_ball_max``."""
    D = del_ball_max
    return D(q, b, n, t) - D(q, b, n - b, t) + D(q, b, n - (q + 1) * b, t - q)


def del_intersection_max_binary(b: int, n: int, t: int) -> int:
    """Largest burst-deletion ball overlap between two distinct binary words.

    Proven exactly on ``b >= 2``, ``t >= 1``, ``n >= b*(t+1) - 1``; calling it
    outside that range is a usage error.  The value is
    ``del_intersection_lower_bound(2, b, n, t)``, that is
    ``D(n,t) - D(n-b,t) + D(n-3b,t-2)`` where ``D`` is the binary ``del_ball_max``.
    """
    return del_intersection_lower_bound(2, b, n, t)


def del_intersection_threshold(b: int, n: int, t: int) -> int:
    """Domain-extended binary overlap bound used for reconstruction bookkeeping.

    Total in (n, t): 0 for ``t <= 0`` or ``n < b*t``, otherwise the same
    ``D(n,t) - D(n-b,t) + D(n-3b,t-2)`` as ``del_intersection_max_binary``.
    On ``n >= max(b*t + 1, 2*b)`` it satisfies
    ``f(n,t) == f(n-1,t) + f(n-b-1,t-1)``, which is what the deletion
    decoder's per-step accounting relies on; decoder runs with valid inputs
    never leave that range.
    """
    if b < 2:
        raise ValueError(f"burst length must be at least 2, got {b}")
    if t <= 0 or n < b * t:
        return 0
    return _flip_overlap(2, b, n, t)


def del_intersection_lower_bound(q: int, b: int, n: int, t: int) -> int:
    """Deletion-ball overlap achieved by a b-cyclic center and its b-th-entry flip.

    Equals ``D(n,t) - D(n-b,t) + D(n-(q+1)*b, t-q)``.  For q = 2 this is the
    exact maximum; for q > 2 it is reported strictly as a lower bound on the
    true maximum, which is not known in closed form.
    """
    _check_params(q=q, b=b, t=t, n=n)
    if b < 2 or t < 1 or n < b * (t + 1) - 1:
        raise ValueError(
            f"deletion overlap needs b >= 2, t >= 1 and n >= b*(t+1)-1, got b={b}, t={t}, n={n}"
        )
    return _flip_overlap(q, b, n, t)


def sphere_packing_bound(q: int, b: int, n: int, t: int) -> tuple[Fraction, int]:
    """Ambient-space-to-ball-size ratio bounding burst-correcting codes.

    Returns the exact rational ``q**(n+t*b) / ins_ball_size(q,b,n,t)`` and its
    integer floor.  The ratio is identical for every burst length b, so it
    also matches the unit-burst bound ``q**(n+t) / ins_ball_size(q,1,n,t)``.
    """
    size = ins_ball_size(q, b, n, t)  # checks q, b, t and n
    value = Fraction(q ** (n + t * b), size)
    return value, math.floor(value)


def count_centers_by_radius1_ball_size(q: int, b: int, n: int, i: int) -> int:
    """Number of length-n words whose radius-1 burst-deletion ball has size i.

    Equals ``q**b * (q-1)**(i-1) * binom(n-b, i-1)``; valid for ``n >= b+1``
    and ``i in [1, n-b+1]``, and the counts over all i sum to ``q**n``.
    """
    _check_params(q=q, b=b, n=n)
    if n < b + 1:
        raise ValueError(f"word length must be at least b+1 = {b + 1}, got {n}")
    if not 1 <= i <= n - b + 1:
        raise ValueError(f"ball size must be in [1, {n - b + 1}], got {i}")
    return q ** b * (q - 1) ** (i - 1) * binom(n - b, i - 1)
