import random

import pytest

from ramseycert.gf2 import even_weight_code, gf2_rank


def V(s):
    """The code of a coordinate string such as "1100" (leftmost = coordinate 0)."""
    return int(s[::-1], 2)


def enumerate_even_weight(t):
    """The codes of G0(t)'s vertices 0 .. 2^(t-1) - 1, in vertex order."""
    return [even_weight_code(x) for x in range(1 << (t - 1))]


def test_enumerate_even_weight_small():
    assert enumerate_even_weight(2) == [V("00"), V("11")]


@pytest.mark.parametrize("t", [2, 4, 6, 8])
def test_enumerate_even_weight_matches_oracle(t):
    # independent oracle: filter all codes by popcount parity
    expected = [c for c in range(1 << t) if bin(c).count("1") % 2 == 0]
    codes = enumerate_even_weight(t)
    assert codes == expected
    assert len(codes) == 2 ** (t - 1)


def test_rank_examples():
    assert gf2_rank([]) == 0
    assert gf2_rank(enumerate_even_weight(4)) == 3
    assert gf2_rank([V("1100"), V("0011"), V("1111")]) == 2


@pytest.mark.parametrize("t", [2, 4, 6, 8])
def test_rank_of_even_weight_space(t):
    assert gf2_rank(enumerate_even_weight(t)) == t - 1


def _rank_oracle(vectors):
    # the span of a set over GF(2) has exactly 2^rank elements
    span = {0}
    for v in vectors:
        span |= {s ^ v for s in span}
    return len(span).bit_length() - 1


def test_rank_matches_subset_sum_oracle():
    rng = random.Random(7)
    for _ in range(100):
        t = rng.choice((4, 6, 8))
        size = rng.randrange(0, 13)
        vectors = [rng.randrange(1 << t) for _ in range(size)]
        assert gf2_rank(vectors) == _rank_oracle(vectors)

