"""Exact linear algebra over GF(2) on bit-packed vectors.

A vector in F_2^t stores coordinate i at bit i of an integer, so the
canonical encoding of a vector is sum(bits[i] << i) and comparing codes
compares vectors. All arithmetic is exact; there is no floating point
anywhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

# Enumerating all even-weight vectors materializes 2^(t-1) members; past
# this dimension the set no longer fits in memory at desk scale.
MAX_DIMENSION = 30


@dataclass(frozen=True, order=True)
class BitVector:
    """A vector in F_2^dim, packed into the integer `code`."""

    dim: int
    code: int

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"dimension must be positive, got {self.dim}")
        if not 0 <= self.code < (1 << self.dim):
            raise ValueError(f"code {self.code} out of range for dimension {self.dim}")

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "BitVector":
        """Build from coordinates, first coordinate at index 0."""
        code = 0
        dim = 0
        for i, b in enumerate(bits):
            if b not in (0, 1):
                raise ValueError(f"coordinates must be 0 or 1, got {b!r}")
            code |= b << i
            dim = i + 1
        return cls(dim, code)

    @classmethod
    def from_string(cls, s: str) -> "BitVector":
        """Build from a coordinate string such as "1100" (leftmost = coordinate 0)."""
        return cls.from_bits(int(ch) for ch in s)

    def bits(self) -> tuple[int, ...]:
        return tuple((self.code >> i) & 1 for i in range(self.dim))

    def weight(self) -> int:
        return self.code.bit_count()

    def __xor__(self, other: "BitVector") -> "BitVector":
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} != {other.dim}")
        return BitVector(self.dim, self.code ^ other.code)

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits())


def dot(u: BitVector, v: BitVector) -> int:
    """Scalar product over GF(2): parity of the coordinate-wise AND."""
    if u.dim != v.dim:
        raise ValueError(f"dimension mismatch: {u.dim} != {v.dim}")
    return (u.code & v.code).bit_count() & 1


def hamming_weight(v: BitVector) -> int:
    """Number of nonzero coordinates."""
    return v.weight()


@dataclass(frozen=True)
class VectorSet:
    """Distinct vectors of one dimension, kept sorted by canonical encoding."""

    dim: int
    members: tuple[BitVector, ...]

    def __post_init__(self) -> None:
        codes = [v.code for v in self.members]
        if any(v.dim != self.dim for v in self.members):
            raise ValueError("all members must share the set's dimension")
        if any(a >= b for a, b in zip(codes, codes[1:])):
            raise ValueError("members must be strictly ascending by encoding")

    def codes(self) -> list[int]:
        return [v.code for v in self.members]

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[BitVector]:
        return iter(self.members)

    def __getitem__(self, i: int) -> BitVector:
        return self.members[i]


def check_construction_t(t: int) -> None:
    """Reject a dimension the orthogonality-graph construction does not cover."""
    if t % 2 != 0:
        raise ValueError("construction requires even t")
    if not 2 <= t <= MAX_DIMENSION:
        raise ValueError(f"t must be between 2 and {MAX_DIMENSION}, got {t}")


def enumerate_even_weight(t: int) -> VectorSet:
    """All vectors of even Hamming weight in F_2^t, ascending by encoding.

    The result has exactly 2^(t-1) members: bits 1..t-1 are free and bit 0
    is forced to the parity that makes the total weight even.
    """
    check_construction_t(t)
    members = tuple(
        BitVector(t, (x << 1) | (x.bit_count() & 1)) for x in range(1 << (t - 1))
    )
    return VectorSet(t, members)


def _rank_of_codes(codes: Iterable[int]) -> int:
    """Rank of integer-coded vectors over GF(2), by elimination on pivot bits."""
    basis: list[int] = []  # each entry has a distinct highest set bit
    for code in codes:
        for b in basis:
            # clears b's pivot bit from code when set; a no-op otherwise
            code = min(code, code ^ b)
        if code:
            basis.append(code)
    return len(basis)


def gf2_rank(vectors: "VectorSet | Iterable[BitVector]") -> int:
    """Rank over GF(2) of a collection of vectors."""
    if isinstance(vectors, VectorSet):
        return _rank_of_codes(vectors.codes())
    return _rank_of_codes(v.code for v in vectors)
