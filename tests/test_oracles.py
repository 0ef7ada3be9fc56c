"""The clique kernels against networkx, an independent implementation, on random graphs.

The k-clique kernel is also held to the earlier kernel, kept here verbatim
as reference_has_clique_of_order: same found flag, same witness, same node
count. Certificates and product witnesses depend on that visit order.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramseycert.coloring import ColoringSpec, color_class_graphs, regenerate
from ramseycert.graphs import (
    BitGraph,
    CliqueSearch,
    _bits_to_list,
    build_g0,
    has_clique_of_order,
    max_clique,
)

nx = pytest.importorskip("networkx")


@st.composite
def small_graphs(draw):
    """A G(n, p) graph with n <= 22 and any density, as (BitGraph, networkx.Graph)."""
    n = draw(st.integers(0, 22))
    p = draw(st.floats(0.0, 1.0))
    rand = random.Random(draw(st.integers(0, 2**32 - 1)))
    g = BitGraph(n)
    oracle = nx.Graph()
    oracle.add_nodes_from(range(n))
    for u, v in itertools.combinations(range(n), 2):
        if rand.random() < p:
            g.add_edge(u, v)
            oracle.add_edge(u, v)
    return g, oracle


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
    oracle = nx.Graph(list(g.edges()))
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

    # keep this visit order (greedy classes last to first, lowest vertex
    # first within a class): coloring._first_clique_class maps a product's
    # witness from its factor's clique by assuming it, so product
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
    g = BitGraph(n)
    for u, v in itertools.combinations(range(n), 2):
        if rand.random() < p:
            g.add_edge(u, v)
    return g


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
