"""The benchmark's own reference computations, checked by brute force."""

from fractions import Fraction
from itertools import product

import pytest

import independent as ind


def deletion_ball_bruteforce(x: bytes, t: int, b: int) -> set[bytes]:
    """The deletion ball by applying every burst round by round."""
    words = {x}
    for _ in range(t):
        words = {w[:i] + w[i + b :] for w in words for i in range(len(w) - b + 1)}
    return words


def test_closed_forms_match_hand_values():
    assert ind.ins_ball(2, 2, 3, 1) == 10
    assert ind.ins_overlap(2, 2, 3, 2) == 40
    assert ind.del_overlap_binary(2, 7, 2) == 6
    assert ind.sphere_ratio(2, 1, 3, 1) == Fraction(16, 5)
    # D_{2,b}(n,t) is a binomial partial sum of n - bt
    assert ind.del_ball(2, 3, 12, 2) == 1 + 6 + 15
    assert ind.del_ball(2, 2, 3, 2) == 0


@pytest.mark.parametrize("q,b,t,n_max", [(2, 1, 2, 9), (2, 2, 2, 10), (2, 3, 3, 11), (3, 2, 2, 7)])
def test_deletion_ball_count_matches_enumeration(q, b, t, n_max):
    for n in range(b * t, n_max + 1):
        sizes = []
        for symbols in product(range(q), repeat=n):
            x = bytes(symbols)
            size = ind.deletion_ball_size(x, t, b)
            assert size == len(deletion_ball_bruteforce(x, t, b)), x
            sizes.append(size)
        assert max(sizes) == ind.del_ball(q, b, n, t)


def test_membership_accepts_the_ball_and_nothing_else():
    for b, t, n in ((2, 1, 6), (2, 2, 8), (3, 2, 9)):
        for symbols in product(range(2), repeat=n):
            x = bytes(symbols)
            ball = deletion_ball_bruteforce(x, t, b)
            for y in product(range(2), repeat=n - t * b):
                assert ind.is_burst_deletion_of(x, bytes(y), t, b) == (bytes(y) in ball)


def test_domains():
    assert ind.in_domain("del-int", 2, 2, 2, 5)
    assert not ind.in_domain("del-int", 3, 2, 2, 5)
    assert not ind.in_domain("del-int", 2, 2, 2, 4)
    # b=2, t=2, n=5: threshold+1 exceeds the largest ball, so no round trip exists
    assert not ind.in_domain("roundtrip-del", 2, 2, 2, 5)
    assert ind.in_domain("roundtrip-del", 2, 2, 2, 7)
    with pytest.raises(ValueError):
        ind.in_domain("no-such-kind", 2, 2, 1, 3)
