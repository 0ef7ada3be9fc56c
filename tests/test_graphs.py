import collections
import functools
import gc
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ramseycert.bounds import BoundTableRow, ExpectationReport, exact_independence_probability
from ramseycert.coloring import Certificate, ColoringSpec, MonoWitness
from ramseycert.graphs import (
    BitGraph,
    CliqueSearch,
    IndependentSetCensus,
    _twin_classes,
    build_g0,
    check_graph_file,
    count_independent_sets,
    g0_census,
    g0_clique_number,
    has_clique_of_order,
    max_clique,
    orthogonality_rows,
    write_graph_file,
)

from graph_support import (
    adjacent,
    complete_graph,
    enumerated_census,
    graph_edges,
    graph_from_edges,
    parse_graph_file,
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
    return graph_from_edges(
        n, [pair for pair in itertools.combinations(range(n), 2) if rng.random() < p]
    )


def test_build_g0_t2():
    g = build_g0(2)
    assert g.n == 2
    assert g.edge_count() == 0


@functools.lru_cache(maxsize=None)
def even_weight_codes(t):
    """The even-weight codes of F_2^t, ascending, by popcount: G0's vertices in order."""
    return [c for c in range(1 << t) if bin(c).count("1") % 2 == 0]


def test_build_g0_t4_against_oracle():
    g = build_g0(4)
    assert g.n == 8
    assert g.edge_count() == 12
    assert set(graph_edges(g)) == oracle_g0_edges(4)
    # the zero vector and the all-ones vector are isolated
    codes = even_weight_codes(4)
    zero, ones = codes.index(0), codes.index(0b1111)
    assert g.adj[zero].bit_count() == 0
    assert g.adj[ones].bit_count() == 0


def test_build_g0_t6_against_oracle():
    g = build_g0(6)
    assert g.n == 32
    assert set(graph_edges(g)) == oracle_g0_edges(6)


@pytest.mark.parametrize("t", [2, 4, 6, 8, 10])
def test_build_g0_rows_are_the_parity_definition(t):
    g = build_g0(t)
    codes = even_weight_codes(t)
    for i, ci in enumerate(codes):
        row = sum(1 << j for j, cj in enumerate(codes) if bin(ci & cj).count("1") % 2)
        assert g.adj[i] == row


def even_code(v):
    """G0 vertex v's code: each pair {2v, 2v + 1} holds one even-weight vector, the v-th ascending."""
    return next(c for c in (2 * v, 2 * v + 1) if bin(c).count("1") % 2 == 0)


@st.composite
def fiber_tables(draw):
    """(table, t): a handful of distinct G0(t) vertices, some near the last one, repeated."""
    t = draw(st.sampled_from(range(2, 31, 2)))
    last = (1 << (t - 1)) - 1
    vertices = st.integers(0, last) | st.integers(max(0, last - 7), last)
    values = draw(st.lists(vertices, min_size=1, max_size=6))
    return draw(st.lists(st.sampled_from(values), max_size=40)), t


# every vertex of G0(8) its own fiber, in no order
G0_8_SHUFFLED = random.Random(8).sample(range(128), 128)
# each value followed by its complement, so consecutive fibers differ in every bit
COMPLEMENTS_T30 = [
    v ^ ones for v in (0, 1, 0x15555555, 0x0ACE1234) for ones in (0, (1 << 29) - 1)
] * 2


@settings(max_examples=100, deadline=None)
@given(case=fiber_tables())
@example(case=(G0_8_SHUFFLED, 8))
@example(case=(COMPLEMENTS_T30, 30))
def test_orthogonality_rows_are_the_pairwise_parity(case):
    table, t = case
    codes = {v: even_code(v) for v in table}
    # one row per fiber, keyed by the table's values in the order they first appear
    assert orthogonality_rows(table, t) == {
        v: sum(1 << y for y, w in enumerate(table) if bin(codes[v] & codes[w]).count("1") % 2)
        for v in table
    }
    assert list(orthogonality_rows(table, t)) == list(dict.fromkeys(table))
    assert orthogonality_rows([], t) == {}


def test_build_g0_rejects_odd_t():
    with pytest.raises(ValueError, match="construction requires even t"):
        build_g0(5)


def test_max_clique_edgeless_and_empty():
    assert max_clique(build_g0(2)) == (1, [0])
    assert max_clique(BitGraph([])) == (0, [])


def is_clique(g, vertices):
    return all(adjacent(g, a, b) for a, b in itertools.combinations(vertices, 2))


@pytest.mark.parametrize("t", [2, 4, 6, 8, 10])
def test_g0_orbits_are_the_weight_classes(t):
    g = build_g0(t)
    codes = even_weight_codes(t)
    vertex = {c: x for x, c in enumerate(codes)}
    ones = (1 << t) - 1

    def swap(i):
        def move(c):
            pair = (c >> i ^ c >> (i + 1)) & 1
            return c ^ (pair << i | pair << (i + 1))

        return move

    generators = [swap(i) for i in range(t - 1)] + [lambda c: c ^ ones]
    parent = list(range(g.n))

    def root(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for move in generators:
        image = [vertex[move(c)] for c in codes]
        for x in range(g.n):
            assert g.adj[image[x]] == sum(1 << image[y] for y in range(g.n) if adjacent(g, x, y))
            parent[root(x)] = root(image[x])
    orbits = {}
    for x in range(g.n):
        orbits.setdefault(root(x), set()).add(x)
    weight_classes = [
        {x for x, c in enumerate(codes) if c.bit_count() in (w, t - w)}
        for w in range(0, t // 2 + 1, 2)
    ]
    assert sorted(map(sorted, orbits.values())) == sorted(map(sorted, weight_classes))
    assert g.orbits == sorted(set(g.orbits))
    assert [len(orbit & set(g.orbits)) for orbit in weight_classes] == [1] * len(weight_classes)


@pytest.mark.parametrize(
    "t, witness",
    [
        (2, [0]),
        (4, [1, 4, 5]),
        (6, [1, 17, 22, 26, 28]),
        (8, [1, 65, 82, 84, 88, 110, 112]),
        (10, [1, 268, 323, 337, 342, 346, 365, 435, 461]),
    ],
)
def test_max_clique_of_g0_is_pinned(t, witness):
    # the witnesses of the search that re-indexed each orbit's neighbourhood
    assert max_clique(build_g0(t)) == (t - 1, witness)


@pytest.mark.parametrize("t", [2, 4, 6, 8])
def test_max_clique_by_orbits_matches_the_plain_path(t):
    g = build_g0(t)
    plain = BitGraph(list(g.adj))
    assert plain.orbits is None
    size, witness = max_clique(g)
    assert size == max_clique(plain)[0] == t - 1
    assert len(witness) == size and is_clique(g, witness)


@pytest.mark.parametrize("t", [2, 4, 6, 8, 10, 12, 14])
def test_g0_clique_number_lists_a_clique_of_g0(t):
    # the proof's vertices 1, 2, 4, ..., 2^(t-2), read off the built rows
    g = build_g0(t)
    clique = [1 << i for i in range(t - 1)]
    assert g0_clique_number(t) == len(clique) == t - 1
    assert all(g.adj[u] >> v & 1 for u, v in itertools.combinations(clique, 2))


def test_g0_clique_number_past_the_g0_guard():
    assert g0_clique_number(30) == 29


def test_max_clique_g0_4_with_brute_force_oracle(g0_4):
    # oracle: scan all 2^8 subsets for the largest clique
    best = 0
    for mask in range(1 << g0_4.n):
        verts = [v for v in range(g0_4.n) if (mask >> v) & 1]
        if all(adjacent(g0_4, a, b) for a, b in itertools.combinations(verts, 2)):
            best = max(best, len(verts))
    size, witness = max_clique(g0_4)
    assert size == best == 3
    assert all(adjacent(g0_4, a, b) for a, b in itertools.combinations(witness, 2))


def test_max_clique_complete_graph():
    size, witness = max_clique(complete_graph(5))
    assert size == 5
    assert witness == [0, 1, 2, 3, 4]


def test_max_clique_witness_always_a_clique():
    for seed in range(10):
        g = random_graph(14, 0.5, seed)
        size, witness = max_clique(g)
        assert len(witness) == size
        assert all(adjacent(g, a, b) for a, b in itertools.combinations(witness, 2))


def test_has_clique_examples(g0_4):
    assert not has_clique_of_order(g0_4, 4).found
    hit = has_clique_of_order(g0_4, 3)
    assert hit.found and len(hit.witness) == 3
    assert all(adjacent(g0_4, a, b) for a, b in itertools.combinations(hit.witness, 2))
    assert has_clique_of_order(g0_4, 0).witness == []


def test_has_clique_agrees_with_max_clique():
    for seed in range(12):
        g = random_graph(12, random.Random(seed).random(), seed)
        omega = max_clique(g)[0]
        for k in range(0, g.n + 2):
            assert has_clique_of_order(g, k).found == (omega >= k)


def test_has_clique_leaves_no_garbage_cycle():
    # a self-referencing search closure would stay behind as a cycle,
    # holding its rows until the cyclic collector runs
    g = build_g0(6)
    gc.collect()
    gc.disable()
    try:
        assert has_clique_of_order(g, 5).found
        assert not has_clique_of_order(g, 6).found
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_max_clique_leaves_no_garbage_cycle():
    # the tables serve every search of the graph; each search's closure must still go
    g = build_g0(6)
    gc.collect()
    gc.disable()
    try:
        assert max_clique(g) == (5, [1, 17, 22, 26, 28])
        assert max_clique(BitGraph(list(g.adj)))[0] == 5
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_census_leaves_no_garbage_cycle():
    # the census's recursive closure, like the clique search's, holds its memo
    g = build_g0(6)
    gc.collect()
    gc.disable()
    try:
        assert count_independent_sets(g, 6) == g0_census(6)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_has_clique_rejects_negative_order(g0_4):
    with pytest.raises(ValueError):
        has_clique_of_order(g0_4, -1)


def test_census_g0_2():
    dfs = count_independent_sets(build_g0(2), 2)
    for census in (dfs, g0_census(2)):
        assert census.counts == (1, 2, 1)
        assert census.total_nonempty == 3
        assert census.total_with_empty == 4
    assert g0_census(2).fingerprint() == dfs.fingerprint()


def test_census_g0_4_matches_exhaustive_oracle(g0_4, census_4):
    for census in (census_4, g0_census(4)):
        assert list(census.counts) == enumerated_census(g0_4, 4)
        assert census.counts == (1, 8, 16, 12, 3)
        assert census.total_nonempty == 39
    assert g0_census(4).fingerprint() == census_4.fingerprint()


def test_g0_census_matches_dfs_at_t6(census_6):
    closed = g0_census(6)
    assert closed.counts == census_6.counts
    assert closed.fingerprint() == census_6.fingerprint()


def test_g0_census_t8_matches_recorded_dfs_counts():
    # count_independent_sets(build_g0(8), 8) as recorded once from the plain
    # depth-first census, which took seconds; the memoized census is checked
    # live below
    census = g0_census(8)
    assert census.counts == (1, 128, 4096, 44352, 202608, 554400, 1063440, 1539360, 1736820)
    assert census.n == 128


def test_census_t8_matches_span_walk():
    census = count_independent_sets(build_g0(8), 8)
    closed = g0_census(8)
    assert census.counts == closed.counts
    assert census.fingerprint() == closed.fingerprint()


def test_census_t10_matches_span_walk():
    # over the 256 twin classes of G0(10), in full and truncated at size 4: about 0.9 s
    g, closed = build_g0(10), g0_census(10)
    assert count_independent_sets(g, 10) == closed
    assert count_independent_sets(g, 4).counts == closed.counts[:5]


def gaussian_binomial(n, k):
    """Number of k-dimensional subspaces of F_2^n."""
    count = 1
    for i in range(k):
        # each partial product is itself a Gaussian binomial, so the division is exact
        count = count * ((1 << (n - i)) - 1) // ((1 << (i + 1)) - 1)
    return count


def subspace_lattice_census(t):
    """Closed-form census of build_g0(t), a reference for g0_census's walk over isotropic spans.

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
    n = (t - 2) // 2

    def isotropic(k):
        if not 0 <= k <= n:
            return 0
        count = gaussian_binomial(n, k)
        for i in range(k):
            count *= (1 << (n - i)) + 1
        return count

    counts = [0] * (t + 1)
    for d in range(n + 2):
        subspaces = isotropic(d - 1) + (1 << d) * isotropic(d)
        for k in range(t + 1):
            spanning = sum(
                (-1) ** (d - j)
                * (1 << math.comb(d - j, 2))
                * gaussian_binomial(d, j)
                * math.comb(1 << j, k)
                for j in range(d + 1)
            )
            counts[k] += subspaces * spanning
    return IndependentSetCensus(t=t, n=1 << (t - 1), counts=tuple(counts))


def dimension_walk(t):
    """Ordered t-tuples, repeats allowed, of pairwise-orthogonal even-weight vectors of F_2^t.

    A tuple spans a totally isotropic d-space S, with o = 1 iff S holds the
    all-ones vector 1; the walk counts tuples by (d, o). The next vector
    lies in (S + <1>)^perp, 2^(t - d - 1 + o) vectors as the form is
    nondegenerate: 2^d in S, 2^d in 1 + S when o = 0 (they add 1 to the
    span), and the rest add a new dimension only.
    """
    walk = {(0, 0): 1}
    for _ in range(t):
        step = collections.Counter()
        for (d, o), tuples in walk.items():
            step[d, o] += tuples << d
            new = (1 << (t - d - 1 + o)) - (1 << d)  # orthogonal to S and 1, outside S
            if o:
                step[d + 1, 1] += tuples * new
            else:
                step[d + 1, 1] += tuples << d
                step[d + 1, 0] += tuples * (new - (1 << d))
        walk = {state: tuples for state, tuples in step.items() if tuples}
    return sum(walk.values())


@pytest.mark.parametrize("t", range(2, 31, 2))
def test_g0_census_matches_the_dimension_walk(t):
    # g0_census walks the distinct tuples; the reference counts subspaces and
    # their spanning subsets with no walk, and tuples with repeats are the
    # maps of t points with an independent image
    census = g0_census(t)
    assert census == subspace_lattice_census(t)
    assert Fraction(dimension_walk(t), census.n**t) == exact_independence_probability(census, t)


@pytest.mark.parametrize("t", range(4, 11, 2))
def test_g0_twin_classes_are_the_complement_pairs(t):
    # x and x XOR (2^(t-1) - 1) have the codes v and v + 1, 1 the all-ones
    # vector, and <v + 1, y> = <v, y> for every even-weight y
    n = 1 << (t - 1)
    classes = _twin_classes(build_g0(t))
    assert len(classes) == 1 << (t - 2)
    assert classes == [[x, x ^ (n - 1)] for x in range(n // 2)]


@pytest.mark.parametrize("t", [2, 4, 6, 8])
def test_census_of_g0_read_back_matches_closed_form(tmp_path, t):
    path = tmp_path / "g0.graph"
    write_graph_file(build_g0(t), t, path)
    _, n, _, edges = parse_graph_file(path)
    g = graph_from_edges(n, edges)
    assert g.orbits is None
    assert count_independent_sets(g, t) == g0_census(t)


@pytest.mark.parametrize("t", [3, 0, 32])
def test_g0_census_rejects_what_build_g0_rejects(t):
    with pytest.raises(ValueError) as expected:
        build_g0(t)
    for graph_free in (g0_census, g0_clique_number):
        with pytest.raises(ValueError) as got:
            graph_free(t)
        assert str(got.value) == str(expected.value)
    assert str(expected.value) in (
        "construction requires even t",
        f"t must be between 2 and 30, got {t}",
    )


def test_census_complete_graph():
    census = count_independent_sets(complete_graph(4), 4)
    assert census.counts == (1, 4, 0, 0, 0)


def test_census_random_graphs_match_oracle():
    for seed in range(8):
        n = 8 + seed
        g = random_graph(n, 0.4, 100 + seed)
        census = count_independent_sets(g, n)
        assert list(census.counts) == enumerated_census(g, n)


@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(0, 14),
    p=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_census_every_cap_matches_oracle(n, p, seed):
    # sparse graphs with small caps reach one candidate set with several
    # rooms, so a memo hit must never answer a larger room than it holds
    g = random_graph(n, p, seed)
    full = enumerated_census(g, n)
    for cap in range(n + 2):
        expected = (full + [0])[: cap + 1]
        assert list(count_independent_sets(g, cap).counts) == expected


def test_census_zero_cap(g0_4):
    census = count_independent_sets(g0_4, 0)
    assert census.counts == (1,)


def test_census_rejects_a_negative_cap_and_malformed_counts(g0_4):
    with pytest.raises(ValueError, match="max_size must be non-negative, got -1"):
        count_independent_sets(g0_4, -1)
    with pytest.raises(ValueError, match="one entry per size 0..t"):
        IndependentSetCensus(t=2, n=4, counts=(1, 4))
    with pytest.raises(ValueError, match=r"counts\[0\] == 1"):
        IndependentSetCensus(t=2, n=4, counts=(0, 4, 3))


def test_growth_against_slack_bound(census_4, census_6):
    for census, t in ((census_4, 4), (census_6, 6)):
        assert math.log2(census.total_nonempty) <= 5 * t * t / 8 + 2 * t


def test_graph_file_roundtrip(tmp_path, g0_4):
    path = tmp_path / "g0.graph"
    write_graph_file(g0_4, 4, path)
    first = path.read_text().splitlines()[0]
    assert first == "g0 t=4 n=8 m=12"
    t, n, m, edges = parse_graph_file(path)
    assert (t, n, m) == (4, g0_4.n, 12)
    assert graph_from_edges(n, edges).adj == g0_4.adj


@pytest.mark.parametrize("t", range(2, 11, 2))
def test_graph_file_is_the_pairwise_parity_graph(tmp_path, t):
    # written once and read back by a parser that shares no code with the writer
    path = tmp_path / "g0.graph"
    write_graph_file(build_g0(t), t, path)
    t_read, n, m, edges = parse_graph_file(path)
    assert (t_read, n) == (t, 1 << (t - 1))
    assert edges == sorted(oracle_g0_edges(t))
    assert m == len(edges)


def test_graph_file_rejects_malformed(tmp_path):
    bad_header = tmp_path / "bad1.graph"
    bad_header.write_text("graph n=2\n")
    with pytest.raises(ValueError):
        check_graph_file(bad_header)

    bad_edge = tmp_path / "bad2.graph"
    bad_edge.write_text("g0 t=2 n=2 m=1\n2 1\n")
    with pytest.raises(ValueError, match="line 2: edge 2 1 needs i < j < n=2"):
        check_graph_file(bad_edge)

    bad_count = tmp_path / "bad3.graph"
    bad_count.write_text("g0 t=2 n=2 m=2\n0 1\n")
    _, _, difference = check_graph_file(bad_count)
    assert difference == (
        "graph file line 2: '0 1\\n' does not match the construction's end of file"
    )


SPEC_FIELDS = dict(kind="blowup", t=4, m=1, ell=3, N=9, seed=1, factors=None)
REPORT_FIELDS = dict(
    t=4,
    m=1,
    N=9,
    p_ind=Fraction(23, 128),
    per_set_mono=Fraction(23, 4096),
    expected_count=Fraction(2898, 4096),
    census_fingerprint="ab",
)
SPEC, REPORT = ColoringSpec(**SPEC_FIELDS), ExpectationReport(**REPORT_FIELDS)

# (record, its fields in order, one field and a different value for it,
# whether it hashes: a list or dict field makes it unhashable)
RECORDS = [
    (CliqueSearch, dict(found=True, witness=[0, 2], nodes=3), ("nodes", 4), False),
    (IndependentSetCensus, dict(t=2, n=4, counts=(1, 4, 3)), ("n", 5), True),
    (ExpectationReport, REPORT_FIELDS, ("N", 10), True),
    (
        BoundTableRow,
        dict(ell=3, source="lefmann", rate=Fraction(3, 4), rate_expr="3/4", base=1.682, note=""),
        ("note", "x"),
        True,
    ),
    (ColoringSpec, SPEC_FIELDS, ("seed", 2), True),
    (MonoWitness, dict(color=1, vertices=(0, 2, 5)), ("color", 2), True),
    (
        Certificate,
        dict(
            spec=SPEC,
            seed=1,
            t=4,
            verified=False,
            exhaustive=True,
            witness=MonoWitness(1, (0, 2, 5, 7)),
            expectation=REPORT,
            search_stats={"tries": 1},
        ),
        ("verified", True),
        False,
    ),
]


@pytest.mark.parametrize(
    "cls, values, change, hashable", RECORDS, ids=[record[0].__name__ for record in RECORDS]
)
def test_records_are_immutable_values(cls, values, change, hashable):
    a, b = cls(**values), cls(*values.values())
    assert a == b and not a != b
    assert a != tuple(values.values())
    if hashable:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)
    name, other = change
    assert cls(**{**values, name: other}) != a
    for field in values:
        with pytest.raises(AttributeError):
            setattr(a, field, getattr(a, field))
        with pytest.raises(AttributeError):
            delattr(a, field)
        assert f"{field}={getattr(a, field)!r}" in repr(a)
    assert repr(a).startswith(f"{cls.__name__}(")
    first, *rest = values
    for bad in (
        lambda: cls(**values, extra=1),  # unknown field
        lambda: cls(*values.values(), 1),  # too many values
        lambda: cls(values[first], **values),  # the first field twice
        lambda: cls(**{key: values[key] for key in rest}),  # a field with no default left out
    ):
        with pytest.raises(TypeError):
            bad()


def test_record_defaults():
    assert ColoringSpec("erdos", 4, 0, 2, 9, 1).factors is None
    assert BoundTableRow(3, "lefmann", Fraction(3, 4), "3/4", 1.682).note == ""
