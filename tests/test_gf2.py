import random

import pytest

from ramseycert.gf2 import (
    BitVector,
    VectorSet,
    dot,
    enumerate_even_weight,
    gf2_rank,
    hamming_weight,
)

V = BitVector.from_string


def test_dot_examples():
    assert dot(V("1100"), V("1010")) == 1
    assert dot(V("1111"), V("1100")) == 0


def test_dot_self_orthogonal_on_even_weight():
    for t in (2, 4, 6, 8):
        for v in enumerate_even_weight(t):
            assert dot(v, v) == 0


def test_dot_dimension_mismatch():
    with pytest.raises(ValueError):
        dot(V("11"), V("1100"))


def test_dot_symmetric_and_bilinear():
    rng = random.Random(1)
    for _ in range(200):
        t = rng.choice((4, 6, 8))
        u, v, w = (BitVector(t, rng.randrange(1 << t)) for _ in range(3))
        assert dot(u, v) == dot(v, u)
        assert dot(u ^ w, v) == dot(u, v) ^ dot(w, v)


def test_hamming_weight_examples():
    assert hamming_weight(V("0000")) == 0
    assert hamming_weight(V("1010")) == 2
    assert hamming_weight(V("1111")) == 4


def test_bitvector_string_roundtrip():
    v = V("10110")
    assert str(v) == "10110"
    assert v.bits() == (1, 0, 1, 1, 0)
    assert v.code == 0b01101  # coordinate 0 is the least significant bit


def test_bitvector_rejects_bad_coordinates():
    with pytest.raises(ValueError):
        BitVector.from_bits([0, 2, 1])
    with pytest.raises(ValueError):
        BitVector(4, 16)


def test_enumerate_even_weight_small():
    vs = enumerate_even_weight(2)
    assert [str(v) for v in vs] == ["00", "11"]
    assert len(vs) == 2


@pytest.mark.parametrize("t", [2, 4, 6, 8])
def test_enumerate_even_weight_matches_oracle(t):
    # independent oracle: filter all codes by popcount parity
    expected = [c for c in range(1 << t) if bin(c).count("1") % 2 == 0]
    vs = enumerate_even_weight(t)
    assert [v.code for v in vs] == expected
    assert len(vs) == 2 ** (t - 1)


def test_enumerate_even_weight_rejects_odd_t():
    with pytest.raises(ValueError, match="construction requires even t"):
        enumerate_even_weight(5)


def test_enumerate_even_weight_dimension_guard():
    with pytest.raises(ValueError):
        enumerate_even_weight(0)
    with pytest.raises(ValueError):
        enumerate_even_weight(32)


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
        span |= {s ^ v.code for s in span}
    return len(span).bit_length() - 1


def test_rank_matches_subset_sum_oracle():
    rng = random.Random(7)
    for _ in range(100):
        t = rng.choice((4, 6, 8))
        size = rng.randrange(0, 13)
        vectors = [BitVector(t, rng.randrange(1 << t)) for _ in range(size)]
        assert gf2_rank(vectors) == _rank_oracle(vectors)


def test_vectorset_rejects_disorder():
    with pytest.raises(ValueError):
        VectorSet(4, (V("1111"), V("0011")))
