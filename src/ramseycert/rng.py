"""Counter-based deterministic randomness keyed by (seed, domain tag, indices).

Every drawn value is a pure function of its key, never of generation
order, so colorings can be rebuilt pair by pair in any order, on any
platform, and come out identical.
The mixer is the splitmix64 finalizer, applied sponge-style over the
tag constant and the index sequence; tag constants come from blake2b so
they are stable across interpreter runs (unlike hash()).

Whole rows of draws that share a key prefix (a blowup table, the coins
of one vertex) run the last two rounds on packed lanes: 64-bit keys sit
in 128-bit slots of one Python int, and each round is a few big-int
operations with a lane mask after every xor-shift and multiply, so no
bit carries or shifts across a slot boundary. Lanes are packed and
unpacked with explicit little-endian struct formats; the native-order
memoryview casts in between only move whole 8-byte items, so the bits
equal the scalar path's on hosts of either byte order.
"""

from __future__ import annotations

import hashlib
import struct
from itertools import compress

MASK64 = (1 << 64) - 1
MAX_SEED = MASK64

_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB
_SLOT = b"\x01" + bytes(15)  # the value 1 in one little-endian 128-bit slot


def _mix(x: int) -> int:
    x &= MASK64
    x = ((x ^ (x >> 30)) * _M1) & MASK64
    x = ((x ^ (x >> 27)) * _M2) & MASK64
    return x ^ (x >> 31)


def _lanes64(n: int) -> struct.Struct:
    # a fresh Struct: the module-level struct functions would cache one per n
    return struct.Struct(f"<{n}Q")


def _mix2_lanes(key: int, ys, low: int) -> bytes:
    """_mix(_mix(key ^ y)) & low for each y of ys, in 16 little-endian bytes per y.

    key, every y and low are below 2^64; slot j of the result is ys[j]'s.
    """
    n = len(ys)
    slots = bytearray(16 * n)
    memoryview(slots).cast("Q")[::2] = memoryview(_lanes64(n).pack(*ys)).cast("Q")
    ones = int.from_bytes(_SLOT * n, "little")
    lane = ones * MASK64
    z = int.from_bytes(slots, "little") ^ key * ones
    for _ in range(2):
        z = (z ^ (z >> 30)) & lane
        z = z * _M1 & lane
        z = (z ^ (z >> 27)) & lane
        z = z * _M2 & lane
        z = (z ^ (z >> 31)) & lane
    return (z & low * ones).to_bytes(16 * n, "little")


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
    lanes = _mix2_lanes(stream64(seed, tag, i), range(n), (bound - 1) & MASK64)
    return list(_lanes64(n).unpack(memoryview(lanes).cast("Q")[::2].tobytes()))


def _coin_heads(seed: int, tag: str, x: int, partners: list[int]) -> list[int]:
    """The partners y whose coin uniform_below(2, seed, tag, x, y) is 1, in their order.

    Same bits as one uniform_below call per pair: a bound of 2 never
    rejects, so each coin is the low bit of stream64(seed, tag, x, y, 0).
    The key state stream64(seed, tag, x) is mixed once for the whole row,
    the partners go into packed lanes, and each coin is the low byte of
    its lane.
    """
    coins = _mix2_lanes(stream64(seed, tag, x), partners, 1)[::16]
    return list(compress(partners, coins))
