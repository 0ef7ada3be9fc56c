import random
import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ramseycert import rng

from graph_support import from_top


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


SEEDS = st.sampled_from([0, rng.MAX_SEED]) | st.integers(0, rng.MAX_SEED)
# values at the lane edges: low, around 2^32 and just below 2^64
WORDS = (
    st.integers(0, 7)
    | st.integers((1 << 32) - 4, (1 << 32) + 3)
    | st.integers(rng.MASK64 - 7, rng.MASK64)
    | st.integers(0, rng.MASK64)
)


@given(seed=SEEDS, i=st.integers(0, 4) | WORDS, log_bound=st.integers(0, 70), n=st.integers(0, 40))
def test_uniform_row_equals_uniform_below(seed, i, log_bound, n):
    bound = 1 << log_bound
    row = rng.uniform_row(bound, seed, "blowup", i, n)
    assert row == [rng.uniform_below(bound, seed, "blowup", i, x) for x in range(n)]


def test_uniform_row_rejects_other_bounds():
    for bound in (0, 3, 6, -4):
        with pytest.raises(ValueError, match="power of two"):
            rng.uniform_row(bound, 0, "blowup", 1, 5)
    with pytest.raises(ValueError, match="non-negative"):
        rng.uniform_row(8, 0, "blowup", 1, -1)


def slot_words(lanes, n):
    return [int.from_bytes(lanes[16 * j : 16 * j + 16], "little") for j in range(n)]


@given(key=WORDS, pairs=st.lists(st.tuples(WORDS, WORDS), max_size=12))
def test_packed_lanes_equal_scalar_rounds(key, pairs):
    # whole 128-bit slots: nothing above the low 64 bits may survive a round
    # one int key for every lane, then 8 little-endian key bytes per lane
    ys = [y for _, y in pairs]
    lane_keys = [k for k, _ in pairs]
    packed = struct.pack(f"<{len(ys)}Q", *lane_keys)
    ones, lane = rng._lane_masks(len(ys))
    for keyed, keys in ((key, [key] * len(ys)), (packed, lane_keys)):
        lanes = rng._mix_lanes(keyed, ys, 2, rng.MASK64 * ones, lane)
        assert slot_words(lanes, len(ys)) == [rng._mix(rng._mix(k ^ y)) for k, y in zip(keys, ys)]


@given(
    pairs=st.lists(st.tuples(WORDS, WORDS), max_size=12),
    wider=st.integers(1, 40),
    low=st.sampled_from([1, 7, rng.MASK64]) | WORDS,
)
def test_draw_narrower_than_its_masks_equals_scalar_rounds(pairs, wider, low):
    # the caller's masks may be sized to a wider draw: the AND keeps the narrower width
    ys = [y for _, y in pairs]
    keys = [k for k, _ in pairs]
    packed = struct.pack(f"<{len(ys)}Q", *keys)
    ones, lane = rng._lane_masks(len(ys) + wider)
    lanes = rng._mix_lanes(packed, ys, 2, low * ones, lane)
    assert len(lanes) == 16 * len(ys)
    scalar = [rng._mix(rng._mix(k ^ y)) & low for k, y in zip(keys, ys)]
    assert slot_words(lanes, len(ys)) == scalar


# rows near 0 and near the 2^32 vertex capacity
ROWS = st.integers(0, 7) | st.integers((1 << 32) - 8, (1 << 32) - 1) | st.integers(0, 1 << 32)


@given(seed=SEEDS, xs=st.lists(ROWS, max_size=12))
def test_row_keys_equal_stream64(seed, xs):
    # coin_rows' key pass: one int key, a lane per row x
    key = rng._mix(seed ^ rng._tag_constant("pair"))
    ones, lane = rng._lane_masks(len(xs))
    lanes = rng._mix_lanes(key, xs, 1, rng.MASK64 * ones, lane)
    assert slot_words(lanes, len(xs)) == [rng.stream64(seed, "pair", x) for x in xs]


def symmetric(n, pairs):
    """Rows on range(n) of the pairs (x, y)."""
    rows = [0] * n
    for x, y in pairs:
        rows[x] |= 1 << y
        rows[y] |= 1 << x
    return rows


def scalar_rows(seed, free):
    """The heads of free, one scalar uniform_below per pair x < y, rows numbered upward.

    coin_rows takes and returns rows numbered from the top: from_top(free) and
    from_top(scalar_rows(seed, free)).
    """
    heads = [0] * len(free)
    for x, row in enumerate(free):
        for y in range(x + 1, row.bit_length()):
            if row >> y & 1 and rng.uniform_below(2, seed, "pair", x, y):
                heads[x] |= 1 << y
                heads[y] |= 1 << x
    return heads


def upper(x, above):
    """The partners x + 1 + j of x over the set bits j of above."""
    return [x + 1 + j for j in range(above.bit_length()) if above >> j & 1]


@given(
    seed=SEEDS,
    x=st.integers(0, 7),
    # an empty mask, a single bit, random masks, and a full 4096-bit row
    above=st.just(0)
    | st.integers(0, 4095).map(lambda j: 1 << j)
    | st.integers(0, (1 << 200) - 1)
    | st.just((1 << 4096) - 1),
)
def test_coin_rows_equal_uniform_below(seed, x, above):
    free = symmetric(x + 1 + above.bit_length(), [(x, y) for y in upper(x, above)])
    assert rng.coin_rows(seed, "pair", from_top(free)) == from_top(scalar_rows(seed, free))


def test_coin_blocks_span_rows_and_block_edges():
    # rows of 700 partners, gathered from vertex 10 down: vertex 8 takes the first block from
    # 1400 lanes past _BLOCK to 2100
    rand = random.Random(7)
    pairs = [(x, x + 1 + j) for x in range(11) if x != 5 for j in rand.sample(range(1400), 700)]
    assert len(pairs) >= 3 * rng._BLOCK and 1400 < rng._BLOCK < 2100
    free = symmetric(11 + 1400, pairs)
    seed = rand.getrandbits(64)
    assert rng.coin_rows(seed, "pair", from_top(free)) == from_top(scalar_rows(seed, free))


def test_coin_blocks_hold_whole_rows(monkeypatch):
    # the first block closes exactly at _BLOCK; the next row alone is wider than _BLOCK.
    # Rows are gathered from the highest vertex down, so vertex 5 - k holds widths[k]
    rand = random.Random(11)
    widths = [1000, rng._BLOCK - 1000, rng._BLOCK + 952, 500, 0, 700]
    pairs = [
        (x, x + 1 + j)
        for x, w in zip(range(len(widths) - 1, -1, -1), widths)
        for j in rand.sample(range(4000), w)
    ]
    free = symmetric(len(widths) + 4000, pairs)
    drawn = []
    mix_lanes = rng._mix_lanes

    def recording(key, ys, rounds, keep, lane):
        assert lane.bit_length() > 128 * (len(ys) - 1)  # the masks are never narrower
        if rounds == 2:
            drawn.append(len(ys))
        return mix_lanes(key, ys, rounds, keep, lane)

    monkeypatch.setattr(rng, "_mix_lanes", recording)
    seed = rand.getrandbits(64)
    assert rng.coin_rows(seed, "pair", from_top(free)) == from_top(scalar_rows(seed, free))
    assert drawn == [rng._BLOCK, rng._BLOCK + 952, 1200]
    # each block is consecutive whole rows, and holds under _BLOCK lanes before its last row
    row = iter(widths)
    for width in drawn:
        block = [next(row)]
        while sum(block) < width:
            block.append(next(row))
        assert sum(block) == width <= rng._BLOCK - 1 + max(block)
    assert next(row, None) is None


def test_coin_masks_are_sized_once_per_build(monkeypatch):
    # to the widest draw a build can hold: the key pass's n lanes, or a block of at most every
    # pair and under _BLOCK lanes plus a last row of at most n - 1
    sizes = []
    lane_masks = rng._lane_masks

    def recording(n):
        sizes.append(n)
        return lane_masks(n)

    monkeypatch.setattr(rng, "_lane_masks", recording)
    # every pair of 41 vertices: one block of 820 lanes
    free = symmetric(41, [(x, y) for x in range(41) for y in range(x + 1, 41)])
    assert rng.coin_rows(5, "pair", from_top(free)) == from_top(scalar_rows(5, free))
    assert sizes == [820]
    # every pair of 150 vertices: blocks of 2080, 2106, 2142, 2057, 2055 and 735 lanes
    sizes.clear()
    free = symmetric(150, [(x, y) for x in range(150) for y in range(x + 1, 150)])
    assert rng.coin_rows(3, "pair", from_top(free)) == from_top(scalar_rows(3, free))
    assert sizes == [rng._BLOCK + 148]
    # one pair of 4096 vertices: the key pass is the widest draw
    sizes.clear()
    free = symmetric(4096, [(0, 4095)])
    assert rng.coin_rows(9, "pair", from_top(free)) == from_top(scalar_rows(9, free))
    assert sizes == [4096]
