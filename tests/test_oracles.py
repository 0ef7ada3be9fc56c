"""The exact kernels against independent oracles on random graphs.

The clique kernels are checked against networkx. The k-clique kernel is
also held to an earlier kernel in its visit order, highest vertex first,
kept here as reference_has_clique_of_order: same found flag, same
witness, same node count. Certificates and product witnesses depend on
that visit order. Class graphs are numbered from the top, so a search of
one is held to ascending_has_clique_of_order, the kernel that visited
the lowest vertex first, kept here verbatim, on the class numbered
upward: the same search with the vertices renamed v -> N-1-v.

The independent-set census, which searches one vertex per false-twin
class, is held to the earlier census on every vertex, kept here verbatim
as reference_count_independent_sets, and to subset enumeration, on
graphs with planted twins, and to the reference alone on fixed graphs
whose candidate sets span two or three int digits.
"""

import itertools
import random
from math import comb, prod
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramseycert.coloring import ColoringSpec, EdgeColoring, color_class_graphs, regenerate
from ramseycert.graphs import (
    BitGraph,
    CliqueSearch,
    IndependentSetCensus,
    _bits_to_list,
    _twin_classes,
    build_g0,
    count_independent_sets,
    has_clique_of_order,
    max_clique,
)

from graph_support import (
    enumerated_census,
    from_top,
    graph_edges,
    graph_from_edges,
    pair_loop_classes,
    uniform_at,
)

nx = pytest.importorskip("networkx")


@st.composite
def small_graphs(draw):
    """A G(n, p) graph with n <= 22 and any density, as (BitGraph, networkx.Graph)."""
    n = draw(st.integers(0, 22))
    p = draw(st.floats(0.0, 1.0))
    rand = random.Random(draw(st.integers(0, 2**32 - 1)))
    edges = [pair for pair in itertools.combinations(range(n), 2) if rand.random() < p]
    oracle = nx.Graph()
    oracle.add_nodes_from(range(n))
    oracle.add_edges_from(edges)
    return graph_from_edges(n, edges), oracle


def clique_number(oracle) -> int:
    return max((len(c) for c in nx.find_cliques(oracle)), default=0)


def is_clique(oracle, vertices) -> bool:
    return len(set(vertices)) == len(vertices) and all(
        oracle.has_edge(u, v) for u, v in itertools.combinations(vertices, 2)
    )


@settings(max_examples=150, deadline=None)
@given(graphs=small_graphs())
def test_max_clique_matches_networkx(graphs):
    g, oracle = graphs
    size, witness = max_clique(g)
    assert size == clique_number(oracle)
    assert len(witness) == size and is_clique(oracle, witness)


def test_max_clique_of_g0_8_by_orbits_matches_networkx():
    g = build_g0(8)
    assert g.orbits is not None
    oracle = nx.Graph(graph_edges(g))
    size, witness = max_clique(g)
    assert size == clique_number(oracle) == 7
    assert len(witness) == size and is_clique(oracle, witness)


@settings(max_examples=150, deadline=None)
@given(graphs=small_graphs(), k=st.integers(0, 10))
def test_has_clique_of_order_matches_networkx(graphs, k):
    g, oracle = graphs
    result = has_clique_of_order(g, k)
    assert result.found == (clique_number(oracle) >= k)
    if result.found:
        assert len(result.witness) == k and is_clique(oracle, result.witness)
    else:
        assert result.witness is None


def _color_sort(cand: int, adj: list[int]) -> tuple[list[int], list[int]]:
    """Greedy coloring of the candidate set, highest vertex first.

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
            v = q.bit_length() - 1
            top = 1 << v
            members.append(v)
            q &= ~(adj[v] | top)
            rest ^= top
        # classes are consumed back to front by the searches; storing each
        # class reversed makes ties branch on the highest vertex index first
        order.extend(reversed(members))
        bounds.extend([color] * len(members))
    return order, bounds


def reference_has_clique_of_order(g: BitGraph, k: int) -> CliqueSearch:
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

    # keep this visit order (greedy classes last to first, highest vertex
    # first within a class): coloring._decide_leaves maps a product's
    # witness from its leaf's clique by assuming it, so product
    # witnesses depend on it
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


def same_search(g: BitGraph, k: int) -> CliqueSearch:
    """The kernel's result on (g, k), after checking it against the reference."""
    result = has_clique_of_order(g, k)
    assert result == reference_has_clique_of_order(g, k)
    return result


@st.composite
def bit_graphs(draw):
    """A G(n, p) BitGraph with n <= 40 and any density."""
    n = draw(st.integers(0, 40))
    p = draw(st.floats(0.0, 1.0))
    rand = random.Random(draw(st.integers(0, 2**32 - 1)))
    return graph_from_edges(
        n, [pair for pair in itertools.combinations(range(n), 2) if rand.random() < p]
    )


@settings(max_examples=300, deadline=None)
@given(g=bit_graphs(), k=st.integers(0, 8))
def test_has_clique_of_order_matches_reference(g, k):
    same_search(g, k)


def test_g0_8_lemma1_search_matches_reference():
    result = same_search(build_g0(8), 8)
    assert (result.found, result.nodes) == (False, 1892)


def test_blowup_class_search_matches_reference():
    coloring = regenerate(ColoringSpec(kind="blowup", t=6, m=4, ell=6, N=651, seed=3))
    result = same_search(color_class_graphs(coloring, [5])[5], 6)
    assert (result.found, result.nodes) == (False, 246)


def ascending_has_clique_of_order(g: BitGraph, k: int) -> CliqueSearch:
    """The k-clique kernel that greedy-colored and visited the lowest vertex first.

    Classes highest first, the lowest vertex first within a class. On the
    graph renamed v -> n-1-v it makes the visits of has_clique_of_order.
    """
    if k < 0:
        raise ValueError(f"clique order must be non-negative, got {k}")
    if k == 0:
        return CliqueSearch(True, [], 0)
    if k > g.n:
        return CliqueSearch(False, None, 0)
    adj = g.adj
    full = (1 << g.n) - 1
    closed = [full ^ (row | 1 << v) for v, row in enumerate(adj)]
    nodes = 0

    def expand(kmin: int, cand: int) -> Optional[list[int]]:
        """A kmin-clique inside cand, its vertices last chosen first, or None."""
        nonlocal nodes
        rest = cand
        for _ in range(kmin - 1):  # classes 1..kmin-1: peeled, never listed
            q = rest
            while q:
                low = q & -q
                rest ^= low
                q &= closed[low.bit_length() - 1]
        classes = []  # classes kmin and up, the ones that can branch
        while rest:
            members = []
            q = rest
            while q:
                low = q & -q
                v = low.bit_length() - 1
                members.append(v)
                rest ^= low
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
                cand ^= 1 << v
        return None

    hit = expand(k, full)
    # expand's own cell refers back to it; clearing the cell frees expand
    # and the closed rows now, not at the next cyclic collection
    del expand
    if hit:
        return CliqueSearch(True, sorted(hit), nodes)
    return CliqueSearch(False, None, nodes)


def random_leaf_spec(rand: random.Random, max_n: int) -> ColoringSpec:
    """A blowup or uniform random spec on up to max_n vertices."""
    N = rand.randint(2, max_n)
    if rand.random() < 0.7:
        t, m = rand.choice((2, 4, 6)), rand.randint(0, 3)
        return ColoringSpec("blowup", t, m, m + 2, N, rand.getrandbits(64))
    return ColoringSpec("erdos", 4, 0, rand.randint(2, 4), N, rand.getrandbits(64))


def test_class_search_from_the_top_is_the_ascending_search_upward():
    # on blowup and uniform colorings, and on the leaves of products, each class as
    # color_class_graphs numbers it searches like the ascending kernel on it numbered upward
    rand = random.Random(30)
    seen = {"blowup": 0, "erdos": 0, "leaf": 0, "found": 0, "none": 0}
    for _ in range(70):
        if rand.random() < 0.3:
            factors = (random_leaf_spec(rand, 12), random_leaf_spec(rand, 12))
            f1, f2 = factors
            product = ColoringSpec(
                "product", 4, 0, f1.ell + f2.ell, f1.N * f2.N, 0, factors
            )
            colorings = [leaf for leaf, _, _ in EdgeColoring(product)._leaves]
            seen["leaf"] += 1
        else:
            colorings = [EdgeColoring(random_leaf_spec(rand, 40))]
        for coloring in colorings:
            seen[coloring.spec.kind] += 1
            N, colors = coloring.N, list(range(1, coloring.ell + 1))
            graphs = color_class_graphs(coloring, colors)
            upward_rows = pair_loop_classes(coloring, colors)
            for c in colors:
                upward = BitGraph(upward_rows[c])
                assert graphs[c].adj == from_top(upward.adj)
                for k in (3, 4, 5):
                    result = has_clique_of_order(graphs[c], k)
                    expected = ascending_has_clique_of_order(upward, k)
                    assert (result.found, result.nodes) == (expected.found, expected.nodes)
                    if result.found:
                        assert sorted(N - 1 - v for v in result.witness) == expected.witness
                    seen["found" if result.found else "none"] += 1
    assert min(seen.values()) >= 10, seen


def reference_color_of(spec: ColoringSpec):
    """color_of of `spec` by the two-factor product rule, recursively.

    A product is read as its first leaf times the product of the rest. A
    product vertex v is the pair divmod(v, N2): the first factor colors
    the pairs whose first coordinates differ, the second factor, shifted
    past the first palette, the pairs inside one block.
    """
    if spec.kind != "product":
        return EdgeColoring(spec).color_of
    f1, *rest = spec.factors
    f2 = rest[0] if len(rest) == 1 else ColoringSpec(
        "product", spec.t, 0, sum(f.ell for f in rest), prod(f.N for f in rest), 0, tuple(rest)
    )
    first, second = reference_color_of(f1), reference_color_of(f2)

    def color_of(x: int, y: int) -> int:
        (a1, b1), (a2, b2) = divmod(x, f2.N), divmod(y, f2.N)
        return first(a1, a2) if a1 != a2 else f1.ell + second(b1, b2)

    return color_of


def random_small_leaf(rand: random.Random) -> ColoringSpec:
    """A blowup or uniform spec on 1..7 vertices, a single vertex half the time."""
    N = rand.choice((1, rand.randint(2, 7)))
    if rand.random() < 0.5:
        m = rand.randint(0, 2)
        return ColoringSpec("blowup", rand.choice((2, 4)), m, m + 2, N, rand.getrandbits(64))
    return ColoringSpec("erdos", 3, 0, rand.randint(2, 3), N, rand.getrandbits(64))


def test_product_colors_by_the_first_differing_leaf_as_by_two_factors():
    # a product colors a pair by its first leaf whose coordinates differ; on
    # every ordered pair that must be the two-factor rule, first leaf times the rest
    rand = random.Random(29)
    seen = {2: 0, 3: 0, 4: 0, "blowup": 0, "erdos": 0, "N=1": 0}
    checked = 0
    while checked < 60:
        leaves = tuple(random_small_leaf(rand) for _ in range(rand.randint(2, 4)))
        N = prod(leaf.N for leaf in leaves)
        if N > 120:
            continue
        t, ell = max(leaf.t for leaf in leaves), sum(leaf.ell for leaf in leaves)
        spec = ColoringSpec("product", t, 0, ell, N, 0, uniform_at(leaves, t))
        color_of, reference = regenerate(spec).color_of, reference_color_of(spec)
        for x, y in itertools.permutations(range(spec.N), 2):
            assert color_of(x, y) == reference(x, y), (spec, x, y)
        seen[len(leaves)] += 1
        seen["blowup"] += any(leaf.kind == "blowup" for leaf in leaves)
        seen["erdos"] += any(leaf.kind == "erdos" for leaf in leaves)
        seen["N=1"] += any(leaf.N == 1 for leaf in leaves)
        checked += 1
    assert min(seen.values()) >= 10, seen


def reference_count_independent_sets(g: BitGraph, max_size: int) -> IndependentSetCensus:
    """Exact counts of independent sets of each size up to max_size.

    Ascending extension over vertex indices, memoized on the candidate
    set. sizes(cand, room) counts the independent subsets of `cand` of
    each size 0..room: each such set is its least vertex v plus an
    independent subset of the candidates above v that miss N(v), which
    is the deletion recurrence I(G) = I(G-v) + x I(G-N[v]) unrolled. At
    room 1 the count is the popcount, and no room exceeds |cand|. The
    counts travel packed in one int, `width` bits per size, wide enough
    for C(n, k) at every k <= max_size, so sums never carry from one
    size into the next.

    Many branches reach the same candidate set, and each distinct set is
    counted once per call. The memo stores, above the counts, the room
    they were counted for: a hit answers any request with a room no
    larger, by masking, and a larger room recounts and overwrites.
    Counting only up to the requested room keeps a small max_size cheap:
    a memo that counts every set to its full depth, so that any later
    room can be served, is many times slower than no memo at all on a
    sparse graph with a small max_size.
    This search knows nothing of GF(2), so it is the test oracle for the
    closed form g0_census; nothing in the certification pipeline runs it.
    """
    if max_size < 0:
        raise ValueError(f"max_size must be non-negative, got {max_size}")
    if max_size == 0:
        return IndependentSetCensus(t=0, n=g.n, counts=(1,))
    adj = g.adj
    width = max(comb(g.n, k) for k in range(max_size + 1)).bit_length()
    top = (max_size + 1) * width
    keep = [(1 << (room + 1) * width) - 1 for room in range(max_size + 1)]
    memo: dict[int, int] = {}

    def sizes(cand: int, room: int) -> int:
        size = cand.bit_count()
        if size == 1 or room == 1:
            return 1 + (size << width)
        if room > size:
            room = size
        entry = memo.get(cand)
        if entry is not None and entry >> top >= room:
            return entry & keep[room]
        total = 0
        rest = cand
        while rest:
            low = rest & -rest
            rest ^= low
            child = rest & ~adj[low.bit_length() - 1]
            total += sizes(child, room - 1) if child else 1
        packed = 1 + (total << width)
        memo[cand] = packed | room << top
        return packed

    packed = sizes((1 << g.n) - 1, max_size)
    counts = tuple((packed >> (k * width)) & keep[0] for k in range(max_size + 1))
    return IndependentSetCensus(t=max_size, n=g.n, counts=counts)


def random_twin_graph(sizes, p, seed):
    """A G(len(sizes), p) base graph, base vertex i blown up into sizes[i] false twins, shuffled."""
    rand = random.Random(seed)
    labels = list(range(sum(sizes)))
    rand.shuffle(labels)
    blown = [[labels.pop() for _ in range(k)] for k in sizes]
    edges = []
    for a, b in itertools.combinations(range(len(sizes)), 2):
        if rand.random() < p:
            edges += itertools.product(blown[a], blown[b])
    return graph_from_edges(sum(sizes), edges)


@st.composite
def twin_graphs(draw, max_n):
    """A random base graph with each vertex blown up into 1-4 false twins, labels shuffled.

    At most max_n vertices. Base vertices left without edges are isolated,
    so their twins all share one class.
    """
    copies = draw(st.lists(st.integers(1, 4), max_size=8))
    while sum(copies) > max_n:
        copies.pop()
    return random_twin_graph(copies, draw(st.floats(0.0, 1.0)), draw(st.integers(0, 2**32 - 1)))


def same_census(g: BitGraph) -> None:
    """The census at every cap 0..n+1 equals the reference's, and enumeration's up to n = 12."""
    enumerated = enumerated_census(g, g.n + 1) if g.n <= 12 else None
    for cap in range(g.n + 2):
        census = count_independent_sets(g, cap)
        assert census == reference_count_independent_sets(g, cap)
        if enumerated is not None:
            assert list(census.counts) == enumerated[: cap + 1]


@settings(max_examples=150, deadline=None)
@given(g=twin_graphs(max_n=12))
def test_census_on_twin_classes_matches_reference_and_enumeration(g):
    same_census(g)


@settings(max_examples=60, deadline=None)
@given(g=twin_graphs(max_n=32))
def test_census_on_larger_twin_classes_matches_reference(g):
    same_census(g)


@pytest.mark.parametrize("n", range(5, 13))
def test_census_of_twin_free_cycles(n):
    cycle = graph_from_edges(n, [(v, (v + 1) % n) for v in range(n)])
    assert len(_twin_classes(cycle)) == n
    same_census(cycle)


@pytest.mark.parametrize(
    "sizes, p, seed",
    [([1] * 40, 0.3, 1), ([1] * 64, 0.2, 2), ([1] * 22 + [2] * 9 + [3] * 4 + [4] * 3, 0.3, 3)],
    ids=["twin-free-40", "twin-free-64", "twins-64"],
)
def test_census_of_candidate_sets_past_one_int_digit(sizes, p, seed):
    # a CPython int digit holds 30 bits: 40 and 64 twin-free vertices, and 38
    # representatives of 64 vertices, put the candidate sets past one and two digits
    g = random_twin_graph(sizes, p, seed)
    assert sorted(map(len, _twin_classes(g))) == sorted(sizes)
    for cap in (3, 4):
        assert count_independent_sets(g, cap) == reference_count_independent_sets(g, cap)


def test_census_puts_every_isolated_vertex_in_one_class():
    # a triangle's corners blown up into 1, 2 and 3 twins, and three isolated
    # vertices; labels interleaved so that no class is a run of vertices
    corners = [[0], [3, 7], [1, 5, 8]]
    g = graph_from_edges(
        9,
        [
            edge
            for a, b in itertools.combinations(range(3), 2)
            for edge in itertools.product(corners[a], corners[b])
        ],
    )
    assert sorted(_twin_classes(g)) == [[0], [1, 5, 8], [2, 4, 6], [3, 7]]
    same_census(g)
    # any subset of the isolated vertices, with no corner or a nonempty subset of one corner
    corner = [1] + [sum(comb(len(c), i) for c in corners) for i in range(1, 10)]
    assert count_independent_sets(g, 9).counts == tuple(
        sum(comb(3, k - i) * corner[i] for i in range(k + 1)) for k in range(10)
    )
