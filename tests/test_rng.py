import pytest
from hypothesis import given
from hypothesis import strategies as st

from ramseycert import rng


def test_stream_is_a_pure_function():
    a = rng.stream64(42, "pair", 3, 7)
    b = rng.stream64(42, "pair", 3, 7)
    assert a == b
    assert 0 <= a < 1 << 64


def test_stream_separates_keys():
    values = {
        rng.stream64(42, "pair", 3, 7),
        rng.stream64(42, "pair", 7, 3),
        rng.stream64(42, "blowup", 3, 7),
        rng.stream64(43, "pair", 3, 7),
        rng.stream64(42, "pair", 3),
    }
    assert len(values) == 5


def test_power_of_two_bound_is_mask_only():
    for key in range(50):
        direct = rng.stream64(9, "blowup", 1, key, 0) & 7
        assert rng.uniform_below(8, 9, "blowup", 1, key) == direct


def test_uniform_below_range_and_determinism():
    draws = [rng.uniform_below(3, 5, "pair", i) for i in range(3000)]
    assert draws == [rng.uniform_below(3, 5, "pair", i) for i in range(3000)]
    assert set(draws) == {0, 1, 2}
    # roughly uniform: each value within 3 sigma of 1/3
    for value in (0, 1, 2):
        freq = draws.count(value) / len(draws)
        assert abs(freq - 1 / 3) < 3 * (2 / 9 / len(draws)) ** 0.5


def test_uniform_below_edge_cases():
    assert rng.uniform_below(1, 0, "pair", 0) == 0
    with pytest.raises(ValueError):
        rng.uniform_below(0, 0, "pair", 0)


def test_seed_validation():
    rng.check_seed(0)
    rng.check_seed(rng.MAX_SEED)
    with pytest.raises(ValueError):
        rng.check_seed(-1)
    with pytest.raises(ValueError):
        rng.check_seed(rng.MAX_SEED + 1)


@given(
    seed=st.integers(0, rng.MAX_SEED),
    x=st.integers(0, (1 << 32) - 1),
    ys=st.integers(0, (1 << 200) - 1),
)
def test_pair_coins_equal_uniform_below(seed, x, ys):
    heads = rng.pair_coins(seed, "pair", x, ys)
    assert heads & ~ys == 0
    for y in range(200):
        if ys >> y & 1:
            assert heads >> y & 1 == rng.uniform_below(2, seed, "pair", x, y)
