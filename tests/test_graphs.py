import itertools
import random

import pytest

from ramseycert.gf2 import BitVector, gf2_rank
from ramseycert.graphs import (
    BitGraph,
    build_g0,
    count_independent_sets,
    g0_census,
    has_clique_of_order,
    is_independent,
    max_clique,
    maximal_cliques,
    read_graph_file,
    write_graph_file,
)


def oracle_g0_edges(t):
    """Independent reconstruction: pairwise popcount parity on filtered codes."""
    codes = [c for c in range(1 << t) if bin(c).count("1") % 2 == 0]
    return {
        (i, j)
        for i, j in itertools.combinations(range(len(codes)), 2)
        if bin(codes[i] & codes[j]).count("1") % 2 == 1
    }


def random_graph(n, p, seed):
    rng = random.Random(seed)
    g = BitGraph(n)
    for i, j in itertools.combinations(range(n), 2):
        if rng.random() < p:
            g.add_edge(i, j)
    return g


def test_build_g0_t2():
    g = build_g0(2)
    assert g.n == 2
    assert g.edge_count() == 0


def test_build_g0_t4_against_oracle():
    g = build_g0(4)
    assert g.n == 8
    assert g.edge_count() == 12
    assert set(g.edges()) == oracle_g0_edges(4)
    # the zero vector and the all-ones vector are isolated
    zero = [i for i, v in enumerate(g.labels) if v.code == 0][0]
    ones = [i for i, v in enumerate(g.labels) if v.code == 0b1111][0]
    assert g.degree(zero) == 0
    assert g.degree(ones) == 0


def test_build_g0_t6_against_oracle():
    g = build_g0(6)
    assert g.n == 32
    assert set(g.edges()) == oracle_g0_edges(6)


def test_build_g0_rejects_odd_t():
    with pytest.raises(ValueError, match="construction requires even t"):
        build_g0(5)


def test_max_clique_edgeless_and_empty():
    assert max_clique(build_g0(2)) == (1, [0])
    assert max_clique(BitGraph(0)) == (0, [])


def test_max_clique_g0_4_with_brute_force_oracle(g0_4):
    # oracle: scan all 2^8 subsets for the largest clique
    best = 0
    for mask in range(1 << g0_4.n):
        verts = [v for v in range(g0_4.n) if (mask >> v) & 1]
        if all(g0_4.adjacent(a, b) for a, b in itertools.combinations(verts, 2)):
            best = max(best, len(verts))
    size, witness = max_clique(g0_4)
    assert size == best == 3
    assert all(g0_4.adjacent(a, b) for a, b in itertools.combinations(witness, 2))


def test_max_clique_complete_graph():
    size, witness = max_clique(BitGraph.complete(5))
    assert size == 5
    assert witness == [0, 1, 2, 3, 4]


def test_max_clique_witness_always_a_clique():
    for seed in range(10):
        g = random_graph(14, 0.5, seed)
        size, witness = max_clique(g)
        assert len(witness) == size
        assert all(g.adjacent(a, b) for a, b in itertools.combinations(witness, 2))


def test_has_clique_examples(g0_4):
    assert not has_clique_of_order(g0_4, 4)
    hit = has_clique_of_order(g0_4, 3)
    assert hit and len(hit.witness) == 3
    assert all(g0_4.adjacent(a, b) for a, b in itertools.combinations(hit.witness, 2))
    assert has_clique_of_order(g0_4, 0).witness == []


def test_has_clique_agrees_with_max_clique():
    for seed in range(12):
        g = random_graph(12, random.Random(seed).random(), seed)
        omega = max_clique(g)[0]
        for k in range(0, g.n + 2):
            assert bool(has_clique_of_order(g, k)) == (omega >= k)


def test_has_clique_rejects_negative_order(g0_4):
    with pytest.raises(ValueError):
        has_clique_of_order(g0_4, -1)


def census_oracle(g, cap):
    """Exhaustive subset enumeration, independent of the search kernel."""
    counts = [0] * (cap + 1)
    counts[0] = 1
    for mask in range(1, 1 << g.n):
        verts = [v for v in range(g.n) if (mask >> v) & 1]
        if len(verts) <= cap and all(
            not g.adjacent(a, b) for a, b in itertools.combinations(verts, 2)
        ):
            counts[len(verts)] += 1
    return counts


def test_census_g0_2():
    dfs = count_independent_sets(build_g0(2), 2)
    for census in (dfs, g0_census(2)):
        assert census.counts == (1, 2, 1)
        assert census.total_nonempty == 3
        assert census.total_with_empty == 4
    assert g0_census(2).fingerprint() == dfs.fingerprint()


def test_census_g0_4_matches_exhaustive_oracle(g0_4, census_4):
    for census in (census_4, g0_census(4)):
        assert list(census.counts) == census_oracle(g0_4, 4)
        assert census.counts == (1, 8, 16, 12, 3)
        assert census.total_nonempty == 39
    assert g0_census(4).fingerprint() == census_4.fingerprint()


def test_g0_census_matches_dfs_at_t6(census_6):
    closed = g0_census(6)
    assert closed.counts == census_6.counts
    assert closed.fingerprint() == census_6.fingerprint()


def test_g0_census_t8_matches_recorded_dfs_counts():
    # count_independent_sets(build_g0(8), 8), recorded once; the DFS takes seconds
    census = g0_census(8)
    assert census.counts == (1, 128, 4096, 44352, 202608, 554400, 1063440, 1539360, 1736820)
    assert census.n == 128


@pytest.mark.parametrize("t", [3, 0, 32])
def test_g0_census_rejects_what_build_g0_rejects(t):
    with pytest.raises(ValueError) as expected:
        build_g0(t)
    with pytest.raises(ValueError) as got:
        g0_census(t)
    assert str(got.value) == str(expected.value)
    assert str(got.value) in ("construction requires even t", f"t must be between 2 and 30, got {t}")


def test_census_complete_graph():
    census = count_independent_sets(BitGraph.complete(4), 4)
    assert census.counts == (1, 4, 0, 0, 0)


def test_census_random_graphs_match_oracle():
    for seed in range(8):
        n = 8 + seed
        g = random_graph(n, 0.4, 100 + seed)
        census = count_independent_sets(g, n)
        assert list(census.counts) == census_oracle(g, n)


def test_census_zero_cap(g0_4):
    census = count_independent_sets(g0_4, 0)
    assert census.counts == (1,)


def test_growth_against_slack_bound(census_4, census_6):
    import math

    for census, t in ((census_4, 4), (census_6, 6)):
        assert math.log2(census.total_nonempty) <= 5 * t * t / 8 + 2 * t


def test_is_independent_examples(g0_4):
    zero = next(i for i, v in enumerate(g0_4.labels) if v.code == 0)
    ones = next(i for i, v in enumerate(g0_4.labels) if v.code == 0b1111)
    assert is_independent(g0_4, [zero, ones])
    u = next(i for i, v in enumerate(g0_4.labels) if str(v) == "1100")
    w = next(i for i, v in enumerate(g0_4.labels) if str(v) == "1010")
    assert not is_independent(g0_4, [u, w])
    assert is_independent(g0_4, [u, u])  # duplicates never violate independence
    with pytest.raises(ValueError):
        is_independent(g0_4, [0, 99])


def test_maximal_cliques_match_brute_force():
    for seed in range(6):
        g = random_graph(9, 0.5, 200 + seed)
        found = {tuple(sorted(c)) for c in maximal_cliques(g)}
        expected = set()
        for mask in range(1, 1 << g.n):
            verts = [v for v in range(g.n) if (mask >> v) & 1]
            if not all(g.adjacent(a, b) for a, b in itertools.combinations(verts, 2)):
                continue
            extendable = any(
                all(g.adjacent(u, v) for v in verts)
                for u in range(g.n)
                if u not in verts
            )
            if not extendable:
                expected.add(tuple(verts))
        assert found == expected


@pytest.mark.parametrize("t", [4, 6])
def test_oddtown_rank_of_even_cliques(t):
    """Even-order cliques are linearly independent over GF(2).

    Maximal cliques of these graphs all have odd order, so the maximal-only
    check is vacuous; every even clique is a subset of a maximal one, so
    checking all even-order subsets covers all even cliques.
    """
    g = build_g0(t)
    for clique in maximal_cliques(g):
        if len(clique) % 2 == 0:
            labels = [g.labels[v] for v in clique]
            assert gf2_rank(labels) == len(clique)
        for size in range(2, len(clique) + 1, 2):
            for sub in itertools.combinations(clique, size):
                labels = [g.labels[v] for v in sub]
                assert gf2_rank(labels) == size


def test_graph_file_roundtrip(tmp_path, g0_4):
    path = tmp_path / "g0.graph"
    write_graph_file(g0_4, 4, path)
    first = path.read_text().splitlines()[0]
    assert first == "g0 t=4 n=8 m=12"
    loaded, t = read_graph_file(path)
    assert t == 4
    assert loaded.n == g0_4.n
    assert loaded.adj == g0_4.adj


def test_graph_file_rejects_malformed(tmp_path):
    bad_header = tmp_path / "bad1.graph"
    bad_header.write_text("graph n=2\n")
    with pytest.raises(ValueError):
        read_graph_file(bad_header)

    bad_edge = tmp_path / "bad2.graph"
    bad_edge.write_text("g0 t=2 n=2 m=1\n2 1\n")
    with pytest.raises(ValueError, match="line 2: edge 2 1 needs i < j < n=2"):
        read_graph_file(bad_edge)

    bad_count = tmp_path / "bad3.graph"
    bad_count.write_text("g0 t=2 n=2 m=2\n0 1\n")
    with pytest.raises(ValueError, match="header field m=2, but the file has 1 edge lines and 1 distinct edges"):
        read_graph_file(bad_count)


def test_bitgraph_rejects_self_loops_and_range():
    g = BitGraph(3)
    with pytest.raises(ValueError):
        g.add_edge(1, 1)
    with pytest.raises(ValueError):
        g.add_edge(0, 3)
