"""Bit-row adjacency graphs and the exact search kernels.

Adjacency is stored as one Python integer per vertex (bit j of row i set
iff {i, j} is an edge), so a BitGraph's vertex count is its row count
and neighborhood intersections are single big-int ANDs.
orthogonality_rows pulls the orthogonality relation back through any
table of G0 vertices as fiber rows, linear in the vertex; G0, the identity
table's, is built only for graph files and for the test oracles, up to
EXHAUSTIVE_LIMIT vertices. Its clique number (g0_clique_number, Lemma 1
by its GF(2) rank proof) and its independent-set census (g0_census)
have closed forms; max_clique and the census of an arbitrary graph
(count_independent_sets) are kept as their test oracles. That census
groups the vertices with identical rows into false-twin classes and,
memoized on the candidate set, peels the highest of one vertex per
class in the graph's own numbering, nothing re-indexed, weighing the
class's nonempty subsets, (1+x)^k - 1 for k twins; its peel loop
answers memo hits itself. The classes come from the rows alone, not
from GF(2), so the oracle stays independent of the closed form; on
G0(t) they are the 2^(t-2) pairs of codes {v, v + 1}. _induced_rows
re-indexes rows onto an ascending vertex list, for max_clique only.

The k-clique search is branch-and-bound with greedy-coloring upper
bounds. A node colors all its candidates but lists only the classes
that can branch, those numbered at least kmin, the count of clique
vertices still missing. It peels the highest candidate first, its bit
length (int.bit_length) an index into per-search tables with one leading
slot, by one XOR and one AND against a closed row (the vertex and its
neighbors cleared); a node returns once its peeled classes use up the
candidates, so a child too small to hold kmin - 1 vertices needs no test.
The visit order is fixed, so the witness and the node count are
functions of the graph and k; a color class comes numbered from the
top (coloring.color_class_graphs), so the search meets its vertices in
the coloring's ascending order. The recursive helper refers to itself
through its closure; the search clears that reference when it ends, so
no garbage cycle keeps the helper and its rows alive until the next
cyclic collection.

max_clique asks the k-clique search for growing k. A graph may carry
`orbits`, one vertex per orbit of a group of its automorphisms; every
clique then maps onto one through a representative, so max_clique
searches only the representatives' neighbourhoods. build_g0 is the one
source of orbits.

Record is the base of the package's immutable values (clique searches
and censuses here; expectation reports, bound-table rows, coloring
specs, witnesses and certificates elsewhere). Its fields are the class
annotations, in order, with class-level defaults; it gives positional
and keyword construction, __post_init__ validation, read-only fields,
and ==, hash and repr by type and fields, without the start-up cost of
the dataclasses module.

A graph file is graph_file_chunks's bytes; check_graph_file compares a
file with them chunk by chunk, after a header check that allocates
nothing, and names the header field or the first line that differs.
Everything here is deterministic: the same graph always gives the same
witness, counts and traversal order.
"""

from __future__ import annotations

import hashlib
import re
from itertools import compress
from math import comb
from operator import itemgetter
from typing import Iterator, Optional, Sequence

from .gf2 import check_construction_t, even_weight_code, gf2_rank

EXHAUSTIVE_LIMIT = 10_000  # largest vertex count of a materialized graph: G0 or a color class


class Record:
    """An immutable value whose fields are its class annotations, in order.

    A subclass lists its fields as annotations, a class-level value being
    the field's default, and may validate them in __post_init__. Fields
    are given positionally or by keyword and are read-only afterwards.
    Two records are equal when they have the same type and equal fields;
    hash and repr are taken from the fields too.
    """

    _fields = ()
    _names = frozenset()
    _defaults = {}

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__annotations__)
        cls._names = frozenset(cls._fields)
        cls._defaults = {name: vars(cls)[name] for name in cls._fields if name in vars(cls)}

    def __init__(self, *args, **kwargs) -> None:
        values = dict(zip(self._fields, args))
        values.update(kwargs)
        given = len(values)
        if given < len(self._fields):
            values = {**self._defaults, **values}
        # fewer keys than values given: too many positional, or one named twice
        if given != len(args) + len(kwargs) or values.keys() != self._names:
            raise TypeError(
                f"{type(self).__name__} takes the fields {self._fields}, "
                f"got {len(args)} positional and {sorted(kwargs)} by keyword"
            )
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def _values(self) -> tuple:
        d = self.__dict__
        return tuple([d[name] for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")


class BitGraph:
    """Undirected graph with one bit-mask adjacency row per vertex, n = len(adj).

    `orbits` is None or one vertex per orbit of a group of automorphisms
    of the graph, ascending; max_clique searches only their
    neighbourhoods.
    """

    __slots__ = ("n", "adj", "orbits")

    def __init__(self, adj: list[int]):
        self.n = len(adj)
        self.adj = adj
        self.orbits: Optional[list[int]] = None

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2


def orthogonality_rows(table: Sequence[int], t: int) -> dict[int, int]:
    """One row per value v of table (per fiber): bit y is set iff G0(t) has the edge {v, table[y]}.

    Row x is the row of table[x]: with coord[b] the fibers {y : table[y]
    = u} of the values u whose code has bit b, the XOR of coord[b] over
    its code's bits (even weight keeps x off it). The code is linear, bit
    0 the parity, so bit j of v adds mask[j + 1] = coord[j + 1] ^ coord[0],
    and each fiber, in order of first appearance (the keys'), takes the
    row before it XOR the masks of the bits where the values differ:
    O(len(table) + fibers * t) big-int operations, and no G0.
    """
    fibers: dict[int, int] = {}
    for x, v in enumerate(table):
        fibers[v] = fibers.get(v, 0) | (1 << x)
    bit = [0] + [1 << j for j in range(t - 1)]  # bit[L]: value bit L - 1, code bit L
    coord = [0] * t
    for v, fiber in fibers.items():
        if v.bit_count() & 1:
            coord[0] |= fiber
        while v:
            L = v.bit_length()
            coord[L] |= fiber
            v ^= bit[L]
    mask = [c ^ coord[0] for c in coord]
    rows: dict[int, int] = {}
    row = prev = 0
    for v in fibers:
        d = prev ^ v
        while d:
            L = d.bit_length()
            row ^= mask[L]
            d ^= bit[L]
        rows[v] = row
        prev = v
    return rows


def _check_g0_order(t: int) -> int:
    check_construction_t(t)
    n = 1 << (t - 1)
    if n > EXHAUSTIVE_LIMIT:
        raise ValueError(f"t={t} gives G0 {n} vertices, past the guard {EXHAUSTIVE_LIMIT}")
    return n


def build_g0(t: int) -> BitGraph:
    """The GF(2) orthogonality graph on the even-weight vectors of F_2^t.

    Vertex i is even_weight_code(i); the rows are orthogonality_rows of the
    identity table, whose fibers are the single vertices. Built only for
    graph files and test oracles, up to EXHAUSTIVE_LIMIT vertices.

    Its orbits are the weight classes {w, t - w}, w even and at most t/2,
    under two kinds of automorphism. A coordinate permutation preserves
    every scalar product. x -> x + 1 (1 the all-ones vector) does too on
    even-weight vectors at even t, since <x+1, y+1> = <x, y> + wt(x) +
    wt(y) + t; it maps weight w to t - w. A permutation carries any
    vector onto any other of its weight, so `orbits` holds vertex 0 (the
    zero vector) and vertex 2^(w-1) - 1, whose code is e_1 + ... + e_w,
    for w = 2, 4, ..., at most t/2.
    """
    n = _check_g0_order(t)
    g = BitGraph(list(orthogonality_rows(range(n), t).values()))
    g.orbits = [0] + [(1 << (w - 1)) - 1 for w in range(2, t // 2 + 1, 2)]
    return g


def _bits_to_list(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class CliqueSearch(Record):
    """Outcome of a k-clique existence search."""

    found: bool
    witness: Optional[list[int]]
    nodes: int


def has_clique_of_order(g: BitGraph, k: int) -> CliqueSearch:
    """Whether the graph contains a clique of order k, with early exit.

    Returns as soon as one witness is found; when it reports False the
    search was exhaustive (every branch either explored or pruned by the
    coloring bound, which never prunes a branch containing a k-clique).

    A node with `size` vertices chosen colors its candidates greedily,
    highest vertex first, and branches only on the classes numbered
    kmin = k - size or more. The classes above a vertex are visited and
    removed before it, so a clique of the candidates left through a
    vertex of class c has at most c vertices, too few below kmin. The
    lower classes are still peeled, since the later classes depend on
    them, but never listed, and a node returns None once they use up
    its candidates. The per-search tables bit, adj and closed hold
    vertex v in slot v + 1, so a set's bit length is its highest
    vertex's slot and a peel is `v = q.bit_length(); rest ^= bit[v];
    q &= closed[v]`, closed[v] = ~(adj[v] | bit[v]) on the vertex set:
    a bit scan and no negative int, where the lowest bit q & -q would
    copy the full-width candidate set three times; witness slot v is
    vertex v - 1. A popcount per visit, to skip a child too small to
    branch, saves nothing.

    The visit order is a contract: classes highest first, the highest
    vertex first within a class, each visited vertex counted as one node
    and removed from the candidates. The same graph gives the same
    witness and node count. It is the ascending order of the graph
    numbered the other way round (vertex v as n-1-v), which is how
    coloring.color_class_graphs numbers a class, and
    coloring._decide_leaves maps a product's witness from its leaf's
    clique by assuming it.
    """
    if k < 0:
        raise ValueError(f"clique order must be non-negative, got {k}")
    if k == 0:
        return CliqueSearch(True, [], 0)
    if k > g.n:
        return CliqueSearch(False, None, 0)
    full = (1 << g.n) - 1
    bit = [0] + [1 << v for v in range(g.n)]  # slot L holds vertex L - 1
    adj = [0] + g.adj
    closed = [full ^ (row | b) for row, b in zip(adj, bit)]  # slot 0 is never peeled
    nodes = 0

    def expand(kmin: int, cand: int) -> Optional[list[int]]:
        """A kmin-clique inside cand, its slots last chosen first, or None."""
        nonlocal nodes
        rest = cand
        for _ in range(kmin - 1):  # classes 1..kmin-1: peeled, never listed
            q = rest
            while q:
                v = q.bit_length()
                rest ^= bit[v]
                q &= closed[v]
            if not rest:  # no class kmin and up: nothing to list or visit
                return None
        classes = []  # classes kmin and up, the ones that can branch
        while rest:
            members = []
            q = rest
            while q:
                v = q.bit_length()
                members.append(v)
                rest ^= bit[v]
                q &= closed[v]
            classes.append(members)
        if kmin == 1:  # entered only with candidates, so some class is listed
            nodes += 1
            return [classes[-1][0]]
        for members in reversed(classes):  # the visit order of the docstring
            for v in members:
                nodes += 1
                child = cand & adj[v]
                if child:
                    hit = expand(kmin - 1, child)
                    if hit:
                        hit.append(v)
                        return hit
                cand ^= bit[v]
        return None

    hit = expand(k, full)
    # expand's own cell refers back to it; clearing the cell frees expand
    # and the closed rows now, not at the next cyclic collection
    del expand
    if hit:
        return CliqueSearch(True, sorted(v - 1 for v in hit), nodes)
    return CliqueSearch(False, None, nodes)


def max_clique(g: BitGraph) -> tuple[int, list[int]]:
    """Exact maximum clique size and one witness clique.

    One incumbent `best` runs over the parts of the graph. Without
    orbits the one part is the whole graph, searched for a clique one
    larger than `best`. With orbits each representative r gives a part,
    N(r) re-indexed in ascending order, searched for a clique as large as
    `best`, which with r becomes the new `best`. That suffices: an
    automorphism carries any clique onto one through a representative r,
    and the rest of the image is a clique of N(r). Each part asks
    has_clique_of_order for growing k until the answer is no; that last
    search is exhaustive, so when every part has answered no, `best` is a
    maximum clique. One branch-and-bound kernel serves both questions,
    and the witness is as deterministic as its searches.
    """
    best: list[int] = []
    for root, vertices, part in _clique_parts(g):
        while True:
            result = has_clique_of_order(part, len(best) + 1 - len(root))
            if not result.found:
                break
            best = sorted(root + [vertices[v] for v in result.witness])
    return len(best), best


def _clique_parts(g: BitGraph) -> Iterator[tuple[list[int], Sequence[int], BitGraph]]:
    """max_clique's parts as (root, its vertices in g, the part's graph)."""
    if g.orbits is None:
        yield [], range(g.n), g
        return
    for r in g.orbits:
        vertices = _bits_to_list(g.adj[r])
        yield [r], vertices, BitGraph(_induced_rows(g, vertices))


def _induced_rows(g: BitGraph, vertices: list[int]) -> list[int]:
    """The rows of g restricted to the ascending `vertices`, re-indexed 0, 1, ..."""
    if not vertices:
        return []
    width = f"0{g.n}b"
    # bit v of a row is character n-1-v of its binary string; picked
    # highest vertex first, those characters spell the re-indexed row
    pick = itemgetter(*[g.n - 1 - v for v in reversed(vertices)])
    return [int("".join(pick(format(g.adj[v], width))), 2) for v in vertices]


def _twin_classes(g: BitGraph) -> list[list[int]]:
    """The vertices grouped by identical rows, each class ascending, by least vertex.

    Equal rows make a class of false twins: no row holds its own vertex,
    so two vertices with one row are not adjacent, and they have one
    neighbourhood.
    """
    classes: dict[int, list[int]] = {}
    for v, row in enumerate(g.adj):
        classes.setdefault(row, []).append(v)
    return list(classes.values())


class IndependentSetCensus(Record):
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

    The search runs on one representative per false-twin class (see
    _twin_classes), its least vertex, in the graph's own numbering: the
    candidate sets are subsets of the representatives, never re-indexed.
    Each independent set of g takes a nonempty subset of every class in
    one independent set of representatives, so a class of k twins weighs
    (1+x)^k - 1, truncated at max_size, where a lone vertex weighs x. On
    G0(t) the classes are the pairs of codes {v, v + 1}, 1 the all-ones
    vector, so the search runs on half the vertices.

    A descending peel over the representatives, memoized on the
    candidate set. sizes(cand, room) counts the independent subsets of
    the classes in `cand` of each size 0..room: each is its highest
    representative v's class's share, counted by v's weight, times an
    independent subset of the candidates below v that miss N(v), which
    is the deletion recurrence I(G) = I(G-v) + w(v) I(G-N[v]) unrolled.
    The tables bit, apart (the representatives off v's row) and weight
    hold vertex v in slot v + 1, so v = rest.bit_length() and a peel is
    one XOR and one AND, no negative int; a child, below v, is narrower
    than one above. At room 1 the count is the number of vertices in
    the classes. The counts travel packed in one int, `width` bits per
    size, wide enough for C(n, k) at every k <= max_size, so the counts
    up to room never carry into one another; a product's carries above
    room are masked off.

    Many branches reach the same candidate set, and each distinct set is
    counted once per call. The memo stores, above the counts, the largest
    room they answer: the room they were counted for, or max_size when
    they are complete, that is when no set has `room` vertices (the
    independent sets are closed under subsets, so none has more). A hit
    answers any request with a room no larger, masked, in the parent's
    peel loop, so sizes runs once per set recounted or room-1 child
    (never stored); a larger room recounts and overwrites. Counting only
    up to the requested room keeps a small max_size cheap: a memo that
    counts every set to full depth, to serve any later room, is many
    times slower than none on a sparse graph with a small max_size.

    The twin classes are read off the rows alone, so this search knows
    nothing of GF(2), of codes or of orbits: it stays an independent test
    oracle for the closed form g0_census, and nothing in the
    certification pipeline runs it.
    """
    if max_size < 0:
        raise ValueError(f"max_size must be non-negative, got {max_size}")
    if max_size == 0:
        return IndependentSetCensus(t=0, n=g.n, counts=(1,))
    classes = _twin_classes(g)
    reps = sum(1 << members[0] for members in classes)
    bit = [0] + [1 << v for v in range(g.n)]  # slot v + 1 holds vertex v
    apart = [0] + [reps ^ (row & reps) for row in g.adj]
    width = max(comb(g.n, k) for k in range(max_size + 1)).bit_length()
    weight = [0] * (g.n + 1)
    for members in classes:
        weight[members[0] + 1] = sum(
            comb(len(members), j) << j * width for j in range(1, min(len(members), max_size) + 1)
        )
    # twins[j - 1]: the representatives of classes of more than j vertices
    twins = [
        sum(1 << members[0] for members in classes if len(members) > j)
        for j in range(1, max(map(len, classes), default=1))
    ]
    top = (max_size + 1) * width
    keep = [(1 << (room + 1) * width) - 1 for room in range(max_size + 1)]
    memo: dict[int, int] = {}
    get = memo.get

    def sizes(cand: int, room: int) -> int:
        if room == 1:
            size = cand.bit_count()
            for layer in twins:
                size += (cand & layer).bit_count()
            return 1 + (size << width)
        total = 0
        rest = cand
        below, mask = room - 1, keep[room - 1]
        while rest:
            v = rest.bit_length()
            rest ^= bit[v]
            child = rest & apart[v]
            if child:
                entry = get(child) if below > 1 else None
                if entry is None or entry >> top < below:
                    total += weight[v] * sizes(child, below)
                else:
                    total += weight[v] * (entry & mask)
            else:
                total += weight[v]
        packed = (1 + total) & keep[room]
        memo[cand] = packed | (room if packed >> room * width else max_size) << top
        return packed

    packed = sizes(reps, max_size)
    del sizes  # as in has_clique_of_order: frees the memo now, not at the next cyclic collection
    counts = tuple((packed >> (k * width)) & keep[0] for k in range(max_size + 1))
    return IndependentSetCensus(t=max_size, n=g.n, counts=counts)


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


def g0_clique_number(t: int) -> int:
    """Clique number of build_g0(t), t - 1, by Lemma 1's proof; max_clique is its test oracle.

    Vertices 1, 2, 4, ..., 2^(t-2) have the codes e_0 + e_(i+1), which
    meet pairwise in e_0 alone, so they form a (t-1)-clique. Conversely,
    t pairwise-adjacent even-weight vectors have the Gram matrix J + I
    over GF(2), whose rows 1 + e_i have rank t at even t; so the vectors
    would be independent, t of them in the (t-1)-dimensional even-weight
    space. Both facts are checked here; a failed check raises
    AssertionError.
    """
    check_construction_t(t)
    clique = [even_weight_code(1 << i) for i in range(t - 1)]
    if not all((u & v).bit_count() & 1 for a, u in enumerate(clique) for v in clique[a + 1 :]):
        raise AssertionError(f"vertices 1, 2, ..., 2^{t - 2} are not a clique of G0({t})")
    ones = (1 << t) - 1
    if gf2_rank(ones ^ (1 << i) for i in range(t)) != t:
        raise AssertionError(f"J + I of order {t} is singular over GF(2)")
    return t - 1


_LINE_LIMIT = 64  # bytes read of a graph file's header, or of its first line that differs
_BITS = bytes.maketrans(b"01", b"\x00\x01")


def graph_file_chunks(g: BitGraph, t: int) -> Iterator[bytes]:
    """Canonical graph-file bytes: `g0 t=.. n=.. m=..`, then `i j` per edge, i < j, ascending.

    Each vertex i with a neighbour above it is one chunk: the binary string of
    adj[i] >> (i + 1), reversed and mapped to bytes 0 and 1, selects their names ` j\\n`.
    """
    yield b"g0 t=%d n=%d m=%d\n" % (t, g.n, g.edge_count())
    names = [b" %d\n" % j for j in range(g.n)]
    for i, row in enumerate(g.adj):
        if row >> (i + 1):
            prefix, bits = b"%d" % i, format(row >> (i + 1), "b").encode().translate(_BITS)
            yield prefix + prefix.join(compress(names[i + 1 :], bits[::-1]))


def write_graph_file(g: BitGraph, t: int, path) -> None:
    with open(path, "wb") as fh:
        fh.writelines(graph_file_chunks(g, t))


def _graph_file_int(token: str, where: str) -> int:
    if not token.isdigit():
        raise ValueError(f"graph file {where} must be a non-negative integer, got {token!r}")
    return int(token)


def _edge_line(number: int, read: bytes, start: int, fh, n: int) -> bytes:
    """Line `number`: read[start:], then fh, to _LINE_LIMIT bytes; raises unless `i j`, i<j<n."""
    line = read[start : read.find(b"\n", start, start + _LINE_LIMIT) + 1 or start + _LINE_LIMIT]
    if len(line) < _LINE_LIMIT and not line.endswith(b"\n"):
        line += fh.readline(_LINE_LIMIT - len(line))
    if not line:  # the end of the file
        return line
    if len(line) == _LINE_LIMIT and not line.endswith(b"\n"):
        raise ValueError(f"graph file line {number}: longer than {_LINE_LIMIT} bytes")
    if not line.isascii():
        raise ValueError(f"graph file line {number}: non-ASCII byte")
    tokens = line.split()
    if len(tokens) != 2:
        raise ValueError(f"graph file line {number}: {len(tokens)} fields, expected `i j`")
    i, j = (_graph_file_int(token.decode(), f"line {number}") for token in tokens)
    if not i < j < n:
        raise ValueError(f"graph file line {number}: edge {i} {j} needs i < j < n={n}")
    return line


def _differs(number: int, line: bytes, want: bytes) -> str:
    line, want = (repr(text.decode()) if text else "end of file" for text in (line, want))
    return f"graph file line {number}: {line} does not match the construction's {want}"


def check_graph_file(path) -> tuple[BitGraph, int, Optional[str]]:
    """(G0(t), t, None) if the file is graph_file_chunks(build_g0(t), t), t from its header.

    The header is checked first, t then n, allocating nothing; then the edge lines, a chunk
    at a time, and the header's bytes last, so a wrong m shows after the edges. The first
    line that differs gives a message in place of None, or raises ValueError if it is not
    ASCII `i j`, i < j < n. At most a chunk and a line of _LINE_LIMIT bytes are held.
    """
    with open(path, "rb") as fh:
        header = fh.readline(_LINE_LIMIT)
        text = header.decode("ascii", "replace")  # a non-ASCII byte then fails the checks below
        fields = re.fullmatch(r"g0 t=(\S*) n=(\S*) m=(\S*)\n", text)
        if not fields:
            raise ValueError(f"graph file line 1: malformed header {text!r}")
        t, n, _ = (_graph_file_int(v, f"header field {k}") for k, v in zip("tnm", fields.groups()))
        try:
            order = _check_g0_order(t)
        except ValueError as exc:
            raise ValueError(f"graph file header field t: {exc}") from None
        if n != order:
            raise ValueError(f"graph file header field n: t={t} needs n={order}, got {n}")
        g = build_g0(t)
        chunks = graph_file_chunks(g, t)
        canonical, number = next(chunks), 2  # number: the line the next chunk starts on
        for chunk in chunks:
            got = fh.read(len(chunk))
            if got != chunk:
                same = next((k for k, (a, b) in enumerate(zip(got, chunk)) if a != b), len(got))
                start = got.rfind(b"\n", 0, same) + 1
                number += got.count(b"\n", 0, start)
                line = _edge_line(number, got, start, fh, n)
                return g, t, _differs(number, line, chunk[start : chunk.index(b"\n", start) + 1])
            number += chunk.count(b"\n")
        extra = fh.readline(_LINE_LIMIT)
        if extra:
            return g, t, _differs(number, _edge_line(number, extra, 0, fh, n), b"")
    return g, t, None if header == canonical else _differs(1, header, canonical)
