"""Counter-based deterministic randomness keyed by (seed, domain tag, indices).

Every drawn value is a pure function of its key, never of generation
order, so colorings can be rebuilt pair by pair in any order, on any
platform, and come out identical.
The mixer is the splitmix64 finalizer, applied sponge-style over the
tag constant and the index sequence; tag constants come from blake2b so
they are stable across interpreter runs (unlike hash()).
"""

from __future__ import annotations

import hashlib

MASK64 = (1 << 64) - 1
MAX_SEED = MASK64


def _mix(x: int) -> int:
    x &= MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


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


def pair_coins(seed: int, tag: str, x: int, ys: int) -> int:
    """The bits y of the mask ys whose coin uniform_below(2, seed, tag, x, y) is 1.

    Same bits as one uniform_below call per pair: a bound of 2 never
    rejects, so each coin is the low bit of stream64(seed, tag, x, y, 0).
    The key state up to x is mixed once for the whole row, and the two
    remaining splitmix64 rounds are inlined.
    """
    key = _mix(_mix(seed ^ _tag_constant(tag)) ^ (x & MASK64))
    heads = 0
    while ys:
        low = ys & -ys
        ys ^= low
        z = key ^ (low.bit_length() - 1)
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        z ^= z >> 31
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        if (z ^ (z >> 31)) & 1:
            heads |= low
    return heads
