"""Counter-based deterministic randomness keyed by (seed, domain tag, indices).

Every drawn value is a pure function of its key, never of generation
order, so colorings can be rebuilt pair by pair in any order, on any
platform, and come out identical.
The mixer is the splitmix64 finalizer, applied sponge-style over the
tag constant and the index sequence; tag constants come from blake2b so
they are stable across interpreter runs (unlike hash()).

Whole rows of draws run their last rounds on packed lanes: 64-bit keys
sit in 128-bit slots of one Python int, and each round is a few big-int
operations with a lane mask after every xor-shift and multiply, so no
bit carries or shifts across a slot boundary. A blowup table is one row
under one key. The leftover coins of a whole class build go through
one pass for the keys of all rows, then through lane blocks that each
hold the partners of whole consecutive rows, each lane carrying its own
row's key. Lanes are packed and unpacked with explicit little-endian
struct formats; the native-order memoryview casts in between only move
whole 8-byte items, so the bits equal the scalar path's on hosts of
either byte order.
"""

from __future__ import annotations

import hashlib
import struct
from collections.abc import Iterator
from functools import lru_cache
from itertools import accumulate, compress

MASK64 = (1 << 64) - 1
MAX_SEED = MASK64

_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB
_SLOT = b"\x01" + bytes(15)  # the value 1 in one little-endian 128-bit slot
_BLOCK = 2048  # a coin block is drawn once it holds this many lanes


def _mix(x: int) -> int:
    x &= MASK64
    x = ((x ^ (x >> 30)) * _M1) & MASK64
    x = ((x ^ (x >> 27)) * _M2) & MASK64
    return x ^ (x >> 31)


def _lanes64(n: int) -> struct.Struct:
    # a fresh Struct: the module-level struct functions would cache one per n
    return struct.Struct(f"<{n}Q")


def _slots(words: bytes) -> int:
    """The little-endian 8-byte words of `words`, one in each 128-bit slot of an int."""
    slots = bytearray(2 * len(words))
    memoryview(slots).cast("Q")[::2] = memoryview(words).cast("Q")
    return int.from_bytes(slots, "little")


@lru_cache(maxsize=1)
def _lane_masks(n: int) -> tuple[int, int]:
    """(ones, lane): the value 1 and the value MASK64 in each of n 128-bit slots.

    A blowup's tables and its row keys share the width N, so one cached
    entry serves them all; each coin block holds whole rows, so its
    width varies and builds its own. Nothing is held before the first draw.
    """
    ones = int.from_bytes(_SLOT * n, "little")
    return ones, ones * MASK64


def _mix_lanes(key: int | bytes, ys, rounds: int, low: int) -> bytes:
    """`rounds` splitmix64 finalizer rounds on k ^ y, then & low, in 16 little-endian bytes per y.

    key is either one int k for every lane or 8 little-endian bytes per
    lane, lane j's k at offset 8j; every k, y and low is below 2^64.
    Slot j of the result is ys[j]'s.
    """
    n = len(ys)
    ones, lane = _lane_masks(n)
    z = _slots(_lanes64(n).pack(*ys))
    z ^= key * ones if isinstance(key, int) else _slots(key)
    for _ in range(rounds):
        z = (z ^ (z >> 30)) & lane
        z = z * _M1 & lane
        z = (z ^ (z >> 27)) & lane
        z = z * _M2 & lane
        z = (z ^ (z >> 31)) & lane
    return (z & (ones if low == 1 else low * ones)).to_bytes(16 * n, "little")


_TAG_CONSTANTS: dict[str, int] = {}


def _tag_constant(tag: str) -> int:
    c = _TAG_CONSTANTS.get(tag)
    if c is None:
        digest = hashlib.blake2b(tag.encode("utf-8"), digest_size=8).digest()
        c = _TAG_CONSTANTS[tag] = int.from_bytes(digest, "big")
    return c


def check_seed(seed: int) -> int:
    if not 0 <= seed <= MAX_SEED:
        raise ValueError(f"seed must be a 64-bit non-negative integer, got {seed}")
    return seed


def stream64(seed: int, tag: str, *indices: int) -> int:
    """64 uniform bits as a pure function of (seed, tag, indices)."""
    x = _mix(seed ^ _tag_constant(tag))
    for idx in indices:
        x = _mix(x ^ (idx & MASK64))
    return x


def uniform_below(bound: int, seed: int, tag: str, *indices: int) -> int:
    """Uniform draw from range(bound), exact for every bound.

    Masks down to the fewest bits covering bound and rejects overshoots
    by appending an attempt counter to the key; for power-of-two bounds
    (the blowup image draws) the mask alone is exact and the first
    attempt always lands.
    """
    if bound < 1:
        raise ValueError(f"bound must be positive, got {bound}")
    mask = (1 << (bound - 1).bit_length()) - 1
    attempt = 0
    while True:
        value = stream64(seed, tag, *indices, attempt) & mask
        if value < bound:
            return value
        attempt += 1


def uniform_row(bound: int, seed: int, tag: str, i: int, n: int) -> list[int]:
    """[uniform_below(bound, seed, tag, i, x) for x in range(n)] for a power-of-two bound.

    A power-of-two bound never rejects, so entry x is the masked
    stream64(seed, tag, i, x, 0); stream64(seed, tag, i) is mixed once and
    the two remaining rounds run on packed lanes.
    """
    if bound < 1 or bound & (bound - 1):
        raise ValueError(f"bound must be a power of two, got {bound}")
    if n < 0:
        raise ValueError(f"row length must be non-negative, got {n}")
    lanes = _mix_lanes(stream64(seed, tag, i), range(n), 2, (bound - 1) & MASK64)
    return list(_lanes64(n).unpack(memoryview(lanes).cast("Q")[::2].tobytes()))


def _partners(row: tuple[int, int]) -> list[int]:
    """The partners x + 1 + j of row (x, above) over the set bits j of above, ascending.

    Splitting above's bits, lowest first, on "1" gives the gaps between
    partners, so the gather is linear in the row's width and peels no bits.
    """
    x, above = row
    steps = [len(gap) + 1 for gap in format(above, "b")[::-1].split("1")]
    steps.pop()  # the zeros past the top partner, or the lone "0" of an empty row
    if steps:
        steps[0] += x
    return list(accumulate(steps))


def coin_heads(seed: int, tag: str, rows: list[tuple[int, int]]) -> Iterator[list[int]]:
    """For each (x, above) of rows, the partners y with uniform_below(2, seed, tag, x, y) = 1.

    The partners of x are y = x + 1 + j over the set bits j of `above`
    (the pairs above the diagonal of a symmetric relation, row x shifted
    right by x + 1), and its heads come in ascending order. Same bits as
    one uniform_below call per pair: a bound of 2 never rejects, so each
    coin is the low bit of stream64(seed, tag, x, y, 0), the low byte of
    its lane. Each row's key stream64(seed, tag, x) is drawn in one pass
    for all rows; then whole rows are gathered until a block holds at
    least _BLOCK lanes, and the block is drawn in one call, so memory
    stays bounded by one block plus one row.
    """
    keyed = _mix_lanes(_mix(seed ^ _tag_constant(tag)), [x for x, _ in rows], 1, MASK64)
    keys = memoryview(keyed).cast("Q")[::2].tobytes()
    block: list[list[int]] = []
    ys: list[int] = []
    lane_keys = bytearray()
    for i, row in enumerate(rows):
        partners = _partners(row)
        block.append(partners)
        ys += partners
        lane_keys += keys[8 * i : 8 * i + 8] * len(partners)
        if len(ys) >= _BLOCK or i == len(rows) - 1:
            coins = _mix_lanes(lane_keys, ys, 2, 1)[::16]
            start = 0
            for partners in block:
                yield list(compress(partners, coins[start : start + len(partners)]))
                start += len(partners)
            block, ys, lane_keys = [], [], bytearray()
