"""The construction's dimension check, the code of a G0 vertex and GF(2) rank.

A vector in F_2^t is its integer code: coordinate i is bit i, so the
scalar product of u and v is the parity of u & v and comparing codes
compares vectors. All arithmetic is exact; there is no floating point
anywhere in this module.
"""

from __future__ import annotations

from typing import Iterable

# The largest order accepted: only G0 holds all 2^(t-1) codes, and graphs
# builds it only up to EXHAUSTIVE_LIMIT vertices (t <= 14).
MAX_DIMENSION = 30


def check_construction_t(t: int) -> None:
    """Reject a dimension the orthogonality-graph construction does not cover."""
    if t % 2 != 0:
        raise ValueError("construction requires even t")
    if not 2 <= t <= MAX_DIMENSION:
        raise ValueError(f"t must be between 2 and {MAX_DIMENSION}, got {t}")


def even_weight_code(x: int) -> int:
    """Vertex x of G0 as a code: bits 1.. hold x, bit 0 evens the weight (increasing in x)."""
    return (x << 1) | (x.bit_count() & 1)


def gf2_rank(codes: Iterable[int]) -> int:
    """Rank over GF(2) of integer-coded vectors, by elimination on pivot bits."""
    basis: list[int] = []  # each entry has a distinct highest set bit
    for code in codes:
        for b in basis:
            # clears b's pivot bit from code when set; a no-op otherwise
            code = min(code, code ^ b)
        if code:
            basis.append(code)
    return len(basis)
