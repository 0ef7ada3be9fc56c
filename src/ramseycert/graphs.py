"""Bit-row adjacency graphs and the exact search kernels.

Adjacency is stored as one Python integer per vertex (bit j of row i set
iff {i, j} is an edge), so a BitGraph's vertex count is its row count
and neighborhood intersections are single big-int ANDs.
orthogonality_rows pulls the orthogonality relation back through any
table of G0 vertices as fiber rows, linear in the vertex; G0, the identity
table's, is built only for graph files and for the test oracles, up to
EXHAUSTIVE_LIMIT vertices. Its clique number comes by Lemma 1's GF(2)
rank proof (g0_clique_number) and its independent-set census by a walk
over isotropic spans (g0_census); max_clique and the census of an
arbitrary graph (count_independent_sets) are kept as their test
oracles. That census groups the vertices with identical rows into
false-twin classes and, memoized on the candidate set, peels the
highest of one vertex per class in the graph's own numbering, nothing
re-indexed, weighing the class's nonempty subsets, (1+x)^k - 1 for k
twins; its peel loop answers memo hits itself. The classes come from
the rows alone, not from GF(2), so the oracle stays independent of the
walk; on G0(t) they are the 2^(t-2) pairs of codes {v, v + 1}.

The k-clique search is branch-and-bound with greedy-coloring upper
bounds. A node colors all its candidates but lists only the classes
that can branch, those numbered at least kmin, the count of clique
vertices still missing. It peels the highest candidate first, its bit
length (int.bit_length) an index into per-graph tables with one leading
slot, by one XOR and one AND against a closed row (the vertex and its
neighbors cleared); a node returns once its peeled classes use up the
candidates, so a child too small to hold kmin - 1 vertices needs no test.
The tables are built once per graph (_clique_search), and a search may
start from any candidate mask: it is then the search of the subgraph
the mask induces, in the graph's own numbering, nothing re-indexed.
The visit order is fixed, so the witness and the node count are
functions of the graph, the mask and k; a color class comes numbered
from the top (coloring.color_class_graphs), so the search meets its
vertices in the coloring's ascending order. The recursive helper refers
to itself through its closure; each search clears that reference when
it ends, so no garbage cycle keeps the helper alive until the next
cyclic collection.

max_clique builds the tables once and asks the search for growing k. A
graph may carry `orbits`, one vertex per orbit of a group of its
automorphisms; every clique then maps onto one through a
representative, so max_clique searches only the representatives'
neighbourhoods, each its row as the candidate mask. build_g0 is the one
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
from collections import Counter
from itertools import compress
from math import comb, factorial
from typing import Callable, Iterator, Optional, Sequence

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
    It builds the graph's tables (_clique_search) and searches from the
    full vertex set.

    A node with `size` vertices chosen colors its candidates greedily,
    highest vertex first, and branches only on the classes numbered
    kmin = k - size or more. The classes above a vertex are visited and
    removed before it, so a clique of the candidates left through a
    vertex of class c has at most c vertices, too few below kmin. The
    lower classes are still peeled, since the later classes depend on
    them, but never listed, and a node returns None once they use up
    its candidates. The tables bit, adj and closed hold vertex v in slot
    v + 1, so a set's bit length is its highest vertex's slot and a peel
    is `v = q.bit_length(); rest ^= bit[v]; q &= closed[v]`, closed[v] =
    ~(adj[v] | bit[v]) on the vertex set: a bit scan and no negative int,
    where the lowest bit q & -q would copy the full-width candidate set
    three times; witness slot v is vertex v - 1. A popcount per visit,
    to skip a child too small to branch, saves nothing.

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
    return _clique_search(g)(k, (1 << g.n) - 1)


def _clique_search(g: BitGraph) -> Callable[[int, int], CliqueSearch]:
    """g's k-clique search from a candidate mask, search(k, cand) for k >= 0, on tables built once.

    search(k, cand) is has_clique_of_order on the subgraph that cand
    induces, its vertices left in g's numbering: a re-indexing in
    ascending order would keep every visit, so the found flag, the node
    count and the witness, here named in g, are that search's. Every
    search of g shares the tables; each makes its own recursive helper.
    """
    full = (1 << g.n) - 1
    bit = [0] + [1 << v for v in range(g.n)]  # slot L holds vertex L - 1
    adj = [0] + g.adj
    closed = [full ^ (row | b) for row, b in zip(adj, bit)]  # slot 0 is never peeled

    def search(k: int, cand: int) -> CliqueSearch:
        if k == 0:
            return CliqueSearch(True, [], 0)
        if k > cand.bit_count():  # an empty cand too, which expand must not be given
            return CliqueSearch(False, None, 0)
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
            for members in reversed(classes):  # the visit order of has_clique_of_order
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

        hit = expand(k, cand)
        # expand's own cell refers back to it; clearing the cell frees expand
        # now, not at the next cyclic collection (the tables stay with search)
        del expand
        if hit:
            return CliqueSearch(True, sorted(v - 1 for v in hit), nodes)
        return CliqueSearch(False, None, nodes)

    return search


def max_clique(g: BitGraph) -> tuple[int, list[int]]:
    """Exact maximum clique size and one witness clique.

    One incumbent `best` runs over the parts of the graph, each a
    candidate mask searched in place by one _clique_search of g, so the
    tables are built once. Without orbits the one part is the whole
    graph, searched for a clique one larger than `best`. With orbits
    each representative r gives a part, its neighbourhood N(r) = adj[r],
    searched for a clique as large as `best`, which with r becomes the
    new `best`; vertex 0 of G0 is isolated, so its part is empty. That
    suffices: an automorphism carries any clique onto one through a
    representative r, and the rest of the image is a clique of N(r).
    Each part is searched for growing k until the answer is no; that
    last search is exhaustive, so when every part has answered no,
    `best` is a maximum clique. The witness is as deterministic as the
    searches.
    """
    search = _clique_search(g)
    if g.orbits is None:
        parts = [([], (1 << g.n) - 1)]
    else:
        parts = [([r], g.adj[r]) for r in g.orbits]
    best: list[int] = []
    for root, cand in parts:
        while True:
            result = search(len(best) + 1 - len(root), cand)
            if not result.found:
                break
            best = sorted(root + result.witness)
    return len(best), best


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
    oracle for g0_census, the walk over isotropic spans, and nothing in
    the certification pipeline runs it.
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


def g0_census(t: int) -> IndependentSetCensus:
    """Census of build_g0(t) by a walk over isotropic spans: count_independent_sets(build_g0(t), t).

    The vertices are the even-weight vectors of F_2^t, those orthogonal to
    the all-ones vector 1, each orthogonal to itself; an independent set
    is a set of pairwise-orthogonal vertices. List its vertices in order.
    Those chosen so far span a totally isotropic d-space S, with o = 1 iff
    S holds 1. The next vertex lies in (S + <1>)^perp, which has
    2^(t - d - 1 + o) vectors as the form is nondegenerate, and holds S,
    and 1 + S when o = 0. So the k-th vertex stays in S in 2^d - (k - 1)
    ways, as it repeats none of the k - 1 before it; enters 1 + S in 2^d
    ways when o = 0, to (d + 1, 1); and in the rest of (S + <1>)^perp adds
    a dimension, to (d + 1, o). The walk counts the ordered k-tuples by
    (d, o); each independent k-set is listed in k! orders, so counts[k] is
    the k-tuples over k!. Exact integers throughout.
    """
    check_construction_t(t)
    walk = {(0, 0): 1}  # (d, o) -> ordered tuples of distinct vertices
    counts = [1]
    for k in range(1, t + 1):
        step: Counter[tuple[int, int]] = Counter()
        for (d, o), tuples in walk.items():
            span = 1 << d
            rest = (1 << (t - d - 1 + o)) - span  # (S + <1>)^perp outside S
            step[d, o] += tuples * (span - (k - 1))
            if o:
                step[d + 1, 1] += tuples * rest
            else:
                step[d + 1, 1] += tuples * span
                step[d + 1, 0] += tuples * (rest - span)
        walk = {state: tuples for state, tuples in step.items() if tuples}
        counts.append(sum(walk.values()) // factorial(k))
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
