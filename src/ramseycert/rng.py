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
under one key. The leftover coins of a whole class build (coin_rows) go
through one pass for the keys of all rows, then through lane blocks
that each hold the partners of whole consecutive rows, each lane
carrying its own row's key. The caller of a draw owns its lane masks,
so nothing is cached between draws. A slot takes y in its low half and
its key in its high half, and one shift by 64 XORs them. Lanes are
packed and unpacked with explicit little-endian formats; the native-order
memoryview casts in between only move whole 8-byte items, so the bits
equal the scalar path's on hosts of either byte order.
"""

from __future__ import annotations

import hashlib
import struct
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


def _lane_masks(n: int) -> tuple[int, int]:
    """(ones, lane): the value 1 and the value MASK64 in each of n 128-bit slots."""
    ones = int.from_bytes(_SLOT * n, "little")
    return ones, ones * MASK64


def _mix_lanes(key: int | bytes, ys, rounds: int, keep: int, lane: int) -> bytes:
    """`rounds` splitmix64 finalizer rounds on k ^ y, then & keep, in 16 little-endian bytes per y.

    key is either one int k for every lane or 8 little-endian bytes per
    lane, lane j's k at offset 8j; every k and y is below 2^64. Slot j of
    the result is ys[j]'s. lane is _lane_masks(w)[1], keep the caller's
    mask of w slots, for any w >= len(ys): an AND keeps the narrower
    operand's width, so a wider mask is exact. Two strided stores put y in
    the low half of its slot and k in the high half, and a shift by 64
    XORs them.
    """
    n = len(ys)
    if isinstance(key, int):
        key = key.to_bytes(8, "little") * n
    slots = bytearray(16 * n)
    words = memoryview(slots).cast("Q")
    words[::2] = memoryview(_lanes64(n).pack(*ys)).cast("Q")
    words[1::2] = memoryview(key).cast("Q")
    z = int.from_bytes(slots, "little")
    z = (z ^ (z >> 64)) & lane
    for _ in range(rounds):
        z = (z ^ (z >> 30)) & lane
        z = z * _M1 & lane
        z = (z ^ (z >> 27)) & lane
        z = z * _M2 & lane
        z = (z ^ (z >> 31)) & lane
    return (z & keep).to_bytes(16 * n, "little")


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
    ones, lane = _lane_masks(n)
    lanes = _mix_lanes(stream64(seed, tag, i), range(n), 2, ((bound - 1) & MASK64) * ones, lane)
    return list(_lanes64(n).unpack(memoryview(lanes).cast("Q")[::2].tobytes()))


def coin_rows(seed: int, tag: str, free: list[int]) -> list[int]:
    """The rows of the pairs of `free` whose coin uniform_below(2, seed, tag, x, y) is 1.

    free holds the symmetric rows of a relation on n = len(free)
    vertices, with no diagonal, numbered from the top: row i and bit i
    stand for vertex x = n-1-i, as in coloring.color_class_graphs; so
    does the result. Each coin is keyed by the vertices, x < y, so the
    numbering moves no coin. Same bits as one uniform_below call per
    pair: a bound of 2 never rejects, so each coin is the low bit of
    stream64(seed, tag, x, y, 0), the low byte of its lane. Each
    vertex's key stream64(seed, tag, x) is drawn in one pass for all
    vertices. Row i's bits below i are x's partners y > x, and their
    binary string, read from its first "1", spells them from the lowest
    y up; split on "1" it gives the gaps between them, so the gather
    peels no bits. Rows are gathered from i = 0 up, the highest vertex
    first, until a block holds at least _BLOCK lanes, and the block is
    drawn in one call, so the lanes held stay bounded by one block plus
    one row. The lane masks are sized once, to the key pass's n lanes or
    the widest block: at most the pairs, and under _BLOCK lanes plus a
    last row of at most n - 1. Each draw keeps the caller's mask, whole
    lanes for the keys and the low bit for the coins. Each head is ORed
    into both of its rows from one table of powers of two.
    """
    n = len(free)
    ones, lane = _lane_masks(max(n, min(sum(map(int.bit_count, free)) // 2, _BLOCK + n - 2)))
    keyed = _mix_lanes(_mix(seed ^ _tag_constant(tag)), range(n), 1, lane, lane)
    keys = memoryview(keyed).cast("Q")[::2].tobytes()
    power = [1 << n - 1 - x for x in range(n)]  # vertex x's bit
    heads = [0] * n  # by vertex; reversed into rows at the end
    block: list[tuple[int, int]] = []  # (x, partner count) of the rows gathered
    ys: list[int] = []
    lane_keys = bytearray()
    for i, row in enumerate(free):
        x = n - 1 - i
        partners = row & power[x] - 1  # bits below i: the partners y > x
        steps = [len(gap) + 1 for gap in format(partners, "b").split("1")]
        steps.pop()  # the zeros past the top partner, or the lone "0" of an empty row
        if steps:
            steps[0] += n - 1 - partners.bit_length()
            ys += accumulate(steps)
            block.append((x, len(steps)))
            lane_keys += keys[8 * x : 8 * x + 8] * len(steps)
        if len(ys) >= _BLOCK or ys and x == 0:
            coins = _mix_lanes(lane_keys, ys, 2, ones, lane)[::16]
            end = 0
            for a, count in block:
                start, end = end, end + count
                bit, ahead = power[a], 0
                for y in compress(ys[start:end], coins[start:end]):
                    ahead |= power[y]
                    heads[y] |= bit
                heads[a] |= ahead
            block, ys, lane_keys = [], [], bytearray()
    heads.reverse()
    return heads
