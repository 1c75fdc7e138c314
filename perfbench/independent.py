"""Reference computations the benchmark checks the program against.

Nothing here imports ``burstrecon``: a wrong closed form, a wrong sampler or a
wrong membership test in the program cannot certify itself through these.

* the abstract's closed forms I_{q,b}, N+_{q,b}, D_{q,b} and N-_{2,b}, with
  ``math.comb`` and plain integers;
* a deletion-membership dynamic program (is ``y`` reachable from ``v`` by
  exactly ``t`` bursts of ``b`` deletions?);
* a counting dynamic program for the size of one center's deletion ball, used
  to keep only centers whose ball holds threshold+1 words;
* the domain in which each ``verify`` kind must produce a value, not ``skip``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache


def comb0(n: int, k: int) -> int:
    """Binomial coefficient that is 0 whenever n < k or n < 0."""
    if k < 0 or n < k or n < 0:
        return 0
    return math.comb(n, k)


def ins_ball(q: int, b: int, n: int, t: int) -> int:
    """I_{q,b}(n,t) = q^{t(b-1)} sum_{i=0}^{t} C(n+t,i) (q-1)^i."""
    return q ** (t * (b - 1)) * sum(comb0(n + t, i) * (q - 1) ** i for i in range(t + 1))


def ins_overlap(q: int, b: int, n: int, t: int) -> int:
    """N+_{q,b}(n,t) = q^{t(b-1)} sum_{i=0}^{t-1} C(n+t,i) (q-1)^i [1-(-1)^{t-i}]."""
    return q ** (t * (b - 1)) * sum(
        comb0(n + t, i) * (q - 1) ** i * (1 - (-1) ** (t - i)) for i in range(t)
    )


@lru_cache(maxsize=None)
def del_ball(q: int, b: int, n: int, t: int) -> int:
    """D_{q,b}(n,t) = sum_{i=0}^{t} C(n-bt,i) D_{q-1,1}(t,t-i), D_{1,1} = 1.

    0 for a negative radius or a word shorter than b*t.
    """
    if t < 0 or n < b * t:
        return 0
    if q == 1:
        return 1
    return sum(comb0(n - b * t, i) * del_ball(q - 1, 1, t, t - i) for i in range(t + 1))


def del_overlap_binary(b: int, n: int, t: int) -> int:
    """N-_{2,b}(n,t) = D_{2,b}(n,t) - D_{2,b}(n-b,t) + D_{2,b}(n-3b,t-2)."""
    return del_ball(2, b, n, t) - del_ball(2, b, n - b, t) + del_ball(2, b, n - 3 * b, t - 2)


def del_overlap_lower_bound(q: int, b: int, n: int, t: int) -> int:
    """D(n,t) - D(n-b,t) + D(n-(q+1)b, t-q): the flip-pair overlap; N- at q = 2."""
    return del_ball(q, b, n, t) - del_ball(q, b, n - b, t) + del_ball(q, b, n - (q + 1) * b, t - q)


def del_threshold_extended(b: int, n: int, t: int) -> int:
    """D_{2,b}(n,t) - C(n-(t+1)b+1, t); equals N- once n >= b(t+1)-1."""
    if t <= 0 or n < b * t:
        return 0
    return del_ball(2, b, n, t) - comb0(n - (t + 1) * b + 1, t)


def sphere_ratio(q: int, b: int, n: int, t: int) -> Fraction:
    """q^{n+tb} / I_{q,b}(n,t), exactly."""
    return Fraction(q ** (n + t * b), ins_ball(q, b, n, t))


def is_burst_deletion_of(v: bytes, y: bytes, t: int, b: int) -> bool:
    """True iff y arises from v by deleting exactly t blocks of b consecutive symbols.

    reach[f] holds the prefix lengths i of v that can be consumed with f
    bursts spent while matching the first i - f*b symbols of y.
    """
    nv, ny = len(v), len(y)
    if ny != nv - t * b or t < 0:
        return False
    reach = [[False] * (nv + 1) for _ in range(t + 1)]
    reach[0][0] = True
    for i in range(nv + 1):
        for f in range(t + 1):
            if not reach[f][i]:
                continue
            j = i - f * b
            if i < nv and j < ny and v[i] == y[j]:
                reach[f][i + 1] = True
            if f < t and i + b <= nv:
                reach[f + 1][i + b] = True
    return reach[t][nv]


def deletion_ball_size(x: bytes, t: int, b: int) -> int:
    """Number of distinct words left after deleting t bursts of b symbols from x.

    Every word of the ball has exactly one left-to-right greedy embedding in x:
    keep symbols while they match, and at a mismatch skip the fewest bursts
    that realign.  So the ball size is the number of deletion patterns in
    which every maximal block of f bursts starting at i (and followed by a
    kept symbol c = x[i+fb]) has x[i+gb] != c for g = 0..f-1; a block that
    runs to the end of x is always canonical.  count[i][u] counts such
    patterns of the suffix from i with u bursts left.
    """
    n = len(x)
    if t < 0 or n < t * b:
        return 0
    count = [[0] * (t + 1) for _ in range(n + 2)]
    count[n][0] = 1
    for i in range(n - 1, -1, -1):
        for u in range(t + 1):
            total = count[i + 1][u]
            for f in range(1, u + 1):
                end = i + f * b
                if end > n:
                    break
                if end == n:
                    total += f == u
                    break
                c = x[end]
                if all(x[i + g * b] != c for g in range(f)):
                    total += count[end + 1][u - f]
            count[i][u] = total
    return count[0][t]


# --- verify kinds -----------------------------------------------------------

CLOSED_FORM_KINDS = {
    # kind -> the reference value its formula column must carry
    "ins-ball": lambda q, b, t, n: ins_ball(q, b, n, t),
    "ins-ball-rec": lambda q, b, t, n: ins_ball(q, b, n, t),
    "ins-int": lambda q, b, t, n: ins_overlap(q, b, n, t),
    "ins-int-rec": lambda q, b, t, n: ins_overlap(q, b, n, t),
    "del-ball": lambda q, b, t, n: del_ball(q, b, n, t),
    "del-ball-rec": lambda q, b, t, n: del_ball(q, b, n, t),
    "del-extremal": lambda q, b, t, n: del_ball(q, b, n, t),
    "del-int": lambda q, b, t, n: del_overlap_binary(b, n, t),
    "del-int-rec": lambda q, b, t, n: (
        del_overlap_binary(b, n, t) if n >= b * (t + 1) - 1 else del_threshold_extended(b, n, t)
    ),
    "del-int-lb": lambda q, b, t, n: del_overlap_lower_bound(q, b, n, t),
    "sphere": lambda q, b, t, n: sphere_ratio(q, b, n, t),
}

ROUNDTRIP_KINDS = ("roundtrip-ins", "roundtrip-del")


def in_domain(kind: str, q: int, b: int, t: int, n: int) -> bool:
    """Whether a verify row of this kind must carry a value rather than ``skip``.

    The domain is where the paper states the count (or the recurrence, or the
    decoder) holds; a round-trip cell counts only when some center's deletion
    ball holds threshold+1 words.
    """
    if kind == "ins-ball":
        return n >= 0 and t >= 0
    if kind in ("ins-ball-rec", "ins-int", "ins-int-rec", "roundtrip-ins"):
        return n >= 1 and t >= 1
    if kind == "del-ball":
        return n >= b * t
    if kind in ("del-ball-rec", "del-extremal"):
        return n >= b * t + 1
    if kind == "del-int":
        return q == 2 and b >= 2 and t >= 1 and n >= b * (t + 1) - 1
    if kind == "del-int-rec":
        return q == 2 and b >= 2 and t >= 1 and n >= max(b * t + 1, 2 * b)
    if kind == "del-int-lb":
        return b >= 2 and t >= 1 and n >= (t + 1) * b - 1
    if kind == "sphere":
        return t >= 1
    if kind == "roundtrip-del":
        return (
            q == 2 and b >= 2 and t >= 1 and n >= b * (t + 1) - 1
            and del_ball(2, b, n, t) >= del_overlap_binary(b, n, t) + 1
        )
    raise ValueError(f"unknown verify kind {kind!r}")
