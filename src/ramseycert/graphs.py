"""Bit-row adjacency graphs and the exact search kernels.

Adjacency is stored as one Python integer per vertex (bit j of row i set
iff {i, j} is an edge), so neighborhood intersections are single big-int
ANDs. The clique searches are branch-and-bound with greedy-coloring upper
bounds. The independent-set census of the orthogonality graph has a
closed form (g0_census); the depth-first census of an arbitrary graph
(count_independent_sets) is kept only as its test oracle. The text graph
file is checked header first, so a bad header allocates nothing, and
each error names the header field or the line. Everything here is
deterministic: the same graph always produces the same witness, the same
counts, and the same traversal order.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from math import comb
from typing import Iterable, Iterator, Optional, Sequence

from .gf2 import BitVector, check_construction_t, enumerate_even_weight


class BitGraph:
    """Undirected graph on vertices 0..n-1 with bit-mask adjacency rows."""

    __slots__ = ("n", "adj", "labels")

    def __init__(
        self,
        n: int,
        adj: Optional[list[int]] = None,
        labels: Optional[tuple[BitVector, ...]] = None,
    ):
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        self.n = n
        self.adj = adj if adj is not None else [0] * n
        self.labels = labels
        if len(self.adj) != n:
            raise ValueError("adjacency must have one row per vertex")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "BitGraph":
        adj = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(n, adj)

    @classmethod
    def complete(cls, n: int) -> "BitGraph":
        full = (1 << n) - 1
        return cls(n, [full & ~(1 << v) for v in range(n)])

    def add_edge(self, u: int, v: int) -> None:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"edge ({u},{v}) out of range for n={self.n}")
        self.adj[u] |= 1 << v
        self.adj[v] |= 1 << u

    def adjacent(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges (i, j) with i < j, in ascending lexicographic order."""
        for i in range(self.n):
            rest = self.adj[i] >> (i + 1)
            while rest:
                low = rest & -rest
                yield i, i + 1 + low.bit_length() - 1
                rest ^= low


def build_g0(t: int) -> BitGraph:
    """The GF(2) orthogonality graph on even-weight vectors of F_2^t.

    Vertices are the 2^(t-1) even-weight vectors, indexed ascending by
    encoding; u and v are adjacent iff their scalar product is 1.
    """
    vectors = enumerate_even_weight(t)
    codes = vectors.codes()
    n = len(codes)
    adj = [0] * n
    for i in range(n):
        ci = codes[i]
        row = adj[i]
        for j in range(i + 1, n):
            if (ci & codes[j]).bit_count() & 1:
                row |= 1 << j
                adj[j] |= 1 << i
        adj[i] = row
    return BitGraph(n, adj, labels=vectors.members)


def _bits_to_list(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _color_sort(cand: int, adj: list[int]) -> tuple[list[int], list[int]]:
    """Greedy coloring of the candidate set, ascending vertex order.

    Returns the candidates regrouped by color class together with their
    class numbers; no clique inside `cand` can exceed the number of
    classes, which is what the branch-and-bound prunes on.
    """
    order: list[int] = []
    bounds: list[int] = []
    color = 0
    rest = cand
    while rest:
        color += 1
        members: list[int] = []
        q = rest
        while q:
            low = q & -q
            v = low.bit_length() - 1
            members.append(v)
            q &= ~(adj[v] | low)
            rest ^= low
        # classes are consumed back to front by the searches; storing each
        # class reversed makes ties branch on the lowest vertex index first
        order.extend(reversed(members))
        bounds.extend([color] * len(members))
    return order, bounds


def max_clique(g: BitGraph) -> tuple[int, list[int]]:
    """Exact maximum clique size and one witness clique.

    Branch-and-bound over bit-mask candidate sets with greedy-coloring
    upper bounds; branching follows the coloring order with ties broken
    toward lower vertex indices, so the witness is deterministic.
    """
    adj = g.adj
    best_size = 0
    best_mask = 0

    def expand(r_mask: int, size: int, cand: int) -> None:
        nonlocal best_size, best_mask
        order, colors = _color_sort(cand, adj)
        for i in range(len(order) - 1, -1, -1):
            if size + colors[i] <= best_size:
                return
            v = order[i]
            bit = 1 << v
            child = cand & adj[v]
            if child:
                expand(r_mask | bit, size + 1, child)
            elif size + 1 > best_size:
                best_size = size + 1
                best_mask = r_mask | bit
            cand &= ~bit

    if g.n:
        expand(0, 0, (1 << g.n) - 1)
    return best_size, _bits_to_list(best_mask)


@dataclass(frozen=True)
class CliqueSearch:
    """Outcome of a k-clique existence search."""

    found: bool
    witness: Optional[list[int]]
    nodes: int

    def __bool__(self) -> bool:
        return self.found


def has_clique_of_order(g: BitGraph, k: int) -> CliqueSearch:
    """Whether the graph contains a clique of order k, with early exit.

    Returns as soon as one witness is found; when it reports False the
    search was exhaustive (every branch either explored or pruned by the
    coloring bound, which never prunes a branch containing a k-clique).
    """
    if k < 0:
        raise ValueError(f"clique order must be non-negative, got {k}")
    if k == 0:
        return CliqueSearch(True, [], 0)
    if k > g.n:
        return CliqueSearch(False, None, 0)
    adj = g.adj
    nodes = 0

    def expand(r_mask: int, size: int, cand: int) -> int:
        nonlocal nodes
        order, colors = _color_sort(cand, adj)
        for i in range(len(order) - 1, -1, -1):
            if size + colors[i] < k:
                return 0
            v = order[i]
            bit = 1 << v
            nodes += 1
            if size + 1 == k:
                return r_mask | bit
            child = cand & adj[v]
            if child:
                hit = expand(r_mask | bit, size + 1, child)
                if hit:
                    return hit
            cand &= ~bit
        return 0

    hit = expand(0, 0, (1 << g.n) - 1)
    if hit:
        return CliqueSearch(True, _bits_to_list(hit), nodes)
    return CliqueSearch(False, None, nodes)


def maximal_cliques(g: BitGraph) -> Iterator[list[int]]:
    """All maximal cliques, via Bron-Kerbosch with pivoting."""
    adj = g.adj

    def bk(r_mask: int, p: int, x: int) -> Iterator[list[int]]:
        if not p and not x:
            yield _bits_to_list(r_mask)
            return
        # pivot: vertex of p|x covering the most candidates, lowest index on ties
        best_cover = -1
        pivot = -1
        scan = p | x
        while scan:
            low = scan & -scan
            u = low.bit_length() - 1
            cover = (adj[u] & p).bit_count()
            if cover > best_cover:
                best_cover = cover
                pivot = u
            scan ^= low
        ext = p & ~adj[pivot]
        while ext:
            low = ext & -ext
            v = low.bit_length() - 1
            yield from bk(r_mask | low, p & adj[v], x & adj[v])
            p &= ~low
            x |= low
            ext ^= low

    if g.n:
        yield from bk(0, (1 << g.n) - 1, 0)


@dataclass(frozen=True)
class IndependentSetCensus:
    """Counts of independent sets by size, up to a size cap.

    counts[k] is the number of independent sets of size exactly k; the
    empty set gives counts[0] = 1 and the totals are reported both with
    and without it, since downstream consumers only ever use k >= 1.
    """

    t: int  # size cap
    n: int  # vertex count of the censused graph
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.counts) != self.t + 1:
            raise ValueError("counts must have one entry per size 0..t")
        if self.counts[0] != 1:
            raise ValueError("empty set convention requires counts[0] == 1")

    @property
    def total_nonempty(self) -> int:
        return sum(self.counts[1:])

    @property
    def total_with_empty(self) -> int:
        return self.total_nonempty + 1

    def fingerprint(self) -> str:
        payload = f"census|t={self.t}|n={self.n}|" + ",".join(map(str, self.counts))
        return hashlib.sha256(payload.encode()).hexdigest()


def count_independent_sets(g: BitGraph, max_size: int) -> IndependentSetCensus:
    """Exact counts of independent sets of each size up to max_size.

    Depth-first extension over vertices in ascending index: each set is
    visited exactly once, as its sorted vertex list. This exhaustive
    search is the test oracle for the closed form g0_census; nothing in
    the certification pipeline runs it.
    """
    if max_size < 0:
        raise ValueError(f"max_size must be non-negative, got {max_size}")
    adj = g.adj
    counts = [0] * (max_size + 1)
    counts[0] = 1

    def extend(cand: int, size: int) -> None:
        while cand:
            low = cand & -cand
            cand ^= low
            v = low.bit_length() - 1
            counts[size + 1] += 1
            if size + 1 < max_size:
                child = cand & ~adj[v]
                if child:
                    extend(child, size + 1)

    if g.n and max_size >= 1:
        extend((1 << g.n) - 1, 0)
    return IndependentSetCensus(t=max_size, n=g.n, counts=tuple(counts))


def _gaussian_binomial(n: int, k: int) -> int:
    """Number of k-dimensional subspaces of F_2^n."""
    count = 1
    for i in range(k):
        # each partial product is itself a Gaussian binomial, so the division is exact
        count = count * ((1 << (n - i)) - 1) // ((1 << (i + 1)) - 1)
    return count


def g0_census(t: int) -> IndependentSetCensus:
    """Closed-form census of build_g0(t): equal to count_independent_sets(build_g0(t), t).

    The independent sets are the sets of pairwise-orthogonal even-weight
    vectors, i.e. the subsets of totally isotropic subspaces of the
    even-weight space E. E has radical <1>, and E/<1> is symplectic of
    dimension 2n with n = (t-2)/2, where
      I(k) = [n choose k]_2 * prod_{i<k} (2^(n-i) + 1)
    counts the isotropic k-subspaces. An isotropic d-subspace of E either
    contains 1 (I(d-1) of them) or is one of 2^d complements of <1> over
    an isotropic d-subspace of the quotient, so S(d) = I(d-1) + 2^d I(d).
    Moebius inversion over the subspace lattice counts the k-subsets that
    span F_2^d:
      span(k, d) = sum_j (-1)^(d-j) 2^C(d-j, 2) [d choose j]_2 C(2^j, k),
    and counts[k] = sum_d S(d) span(k, d). Exact integers throughout.
    """
    check_construction_t(t)
    n = (t - 2) // 2

    def isotropic(k: int) -> int:
        if not 0 <= k <= n:
            return 0
        count = _gaussian_binomial(n, k)
        for i in range(k):
            count *= (1 << (n - i)) + 1
        return count

    counts = [0] * (t + 1)
    for d in range(n + 2):
        subspaces = isotropic(d - 1) + (1 << d) * isotropic(d)
        for k in range(t + 1):
            spanning = sum(
                (-1) ** (d - j)
                * (1 << comb(d - j, 2))
                * _gaussian_binomial(d, j)
                * comb(1 << j, k)
                for j in range(d + 1)
            )
            counts[k] += subspaces * spanning
    return IndependentSetCensus(t=t, n=1 << (t - 1), counts=tuple(counts))


def is_independent(g: BitGraph, vertices: Sequence[int]) -> bool:
    """Whether no two distinct listed vertices are adjacent.

    Duplicates are permitted and never violate independence, since
    adjacency requires distinct vertices.
    """
    mask = 0
    for v in vertices:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range for n={g.n}")
        mask |= 1 << v
    scan = mask
    while scan:
        low = scan & -scan
        v = low.bit_length() - 1
        if g.adj[v] & mask:
            return False
        scan ^= low
    return True


GRAPH_FILE_MAGIC = "g0"


def write_graph_file(g: BitGraph, t: int, path) -> None:
    """Write the text graph format: header then one `i j` line per edge, i < j."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{GRAPH_FILE_MAGIC} t={t} n={g.n} m={g.edge_count()}\n")
        for i, j in g.edges():
            fh.write(f"{i} {j}\n")


def _graph_file_lines(fh) -> Iterator[tuple[int, list[str]]]:
    """(line number, tokens) for each line of a binary file, ASCII only."""
    for number, raw in enumerate(fh, start=1):
        try:
            yield number, raw.decode("ascii").split()
        except UnicodeDecodeError:
            raise ValueError(f"graph file line {number}: non-ASCII byte") from None


def _graph_file_int(token: str, where: str) -> int:
    if not token.isdigit():
        raise ValueError(f"graph file {where} must be a non-negative integer, got {token!r}")
    return int(token)


def read_graph_file(path) -> tuple[BitGraph, int]:
    """Read the text graph format back; returns (graph, t).

    The header is checked before anything is allocated: t must be a
    construction order and n must be 2^(t-1). Every error names the
    header field or the line.
    """
    with open(path, "rb") as fh:
        lines = _graph_file_lines(fh)
        _, header = next(lines, (1, []))
        fields = dict(token.partition("=")[::2] for token in header[1:])
        if len(header) != 4 or header[0] != GRAPH_FILE_MAGIC or sorted(fields) != ["m", "n", "t"]:
            raise ValueError(f"graph file line 1: malformed header {' '.join(header)!r}")
        t, n, m = (_graph_file_int(fields[key], f"header field {key}") for key in "tnm")
        try:
            check_construction_t(t)
        except ValueError as exc:
            raise ValueError(f"graph file header field t: {exc}") from None
        if n != 1 << (t - 1):
            raise ValueError(f"graph file header field n: t={t} needs n={1 << (t - 1)}, got {n}")
        g = BitGraph(n)
        edge_lines = 0
        for number, tokens in lines:
            if not tokens:
                continue
            if len(tokens) != 2:
                raise ValueError(f"graph file line {number}: {len(tokens)} fields, expected `i j`")
            i, j = (_graph_file_int(token, f"line {number}") for token in tokens)
            if not i < j < n:
                raise ValueError(f"graph file line {number}: edge {i} {j} needs i < j < n={n}")
            g.add_edge(i, j)
            edge_lines += 1
        if edge_lines != m or g.edge_count() != m:
            raise ValueError(
                f"graph file header field m={m}, but the file has {edge_lines} edge lines "
                f"and {g.edge_count()} distinct edges"
            )
    return g, t
