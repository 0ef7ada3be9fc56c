"""The clique kernels against networkx, an independent implementation, on random graphs."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramseycert.graphs import BitGraph, has_clique_of_order, max_clique

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
