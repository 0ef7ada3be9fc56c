import hashlib
import itertools
import json
import math
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from ramseycert import coloring as coloring_module
from ramseycert import graphs as graphs_module
from ramseycert import rng
from ramseycert.coloring import (
    Certificate,
    ColoringSpec,
    EdgeColoring,
    MonoWitness,
    canonical_json_bytes,
    certificate_core,
    color_class_graphs,
    generate_blowup_coloring,
    generate_erdos_coloring,
    produce_certificate,
    product_coloring,
    recheck_certificate,
    regenerate,
    save_certificate,
    verify_coloring,
    write_edge_dump,
)
from ramseycert.graphs import g0_census, has_clique_of_order

from graph_support import adjacent, find_mono_clique, from_top, pair_loop_classes, uniform_at

BLOWUP_SPEC_N9 = ColoringSpec(kind="blowup", t=4, m=1, ell=3, N=9, seed=1)


def all_pair_colors(coloring):
    return {
        (x, y): coloring.color_of(x, y)
        for x, y in itertools.combinations(range(coloring.N), 2)
    }


def test_spec_validation():
    with pytest.raises(ValueError):
        ColoringSpec(kind="blowup", t=5, m=1, ell=3, N=9, seed=0)
    with pytest.raises(ValueError):
        ColoringSpec(kind="blowup", t=4, m=1, ell=4, N=9, seed=0)
    with pytest.raises(ValueError):
        ColoringSpec(kind="blowup", t=4, m=-1, ell=1, N=9, seed=0)
    with pytest.raises(ValueError):
        ColoringSpec(kind="blowup", t=4, m=1, ell=3, N=0, seed=0)
    with pytest.raises(ValueError):
        ColoringSpec(kind="blowup", t=4, m=1, ell=3, N=9, seed=-1)
    with pytest.raises(ValueError):
        ColoringSpec(kind="erdos", t=0, m=0, ell=1, N=5, seed=0)
    with pytest.raises(ValueError):
        ColoringSpec(kind="mystery", t=4, m=1, ell=3, N=9, seed=0)
    leaf = BLOWUP_SPEC_N9
    square = ColoringSpec(kind="product", t=4, m=0, ell=6, N=81, seed=0, factors=(leaf, leaf))
    with pytest.raises(ValueError, match=r"factors\[1\] is a product: list its factors in"):
        ColoringSpec(kind="product", t=4, m=0, ell=9, N=729, seed=0, factors=(leaf, square))
    uniform = ColoringSpec(kind="erdos", t=17, m=0, ell=2, N=5, seed=131)
    message = r"factors\[1\] is a uniform coloring decided at the product's t=4, got t=17"
    with pytest.raises(ValueError, match=message):
        ColoringSpec(kind="product", t=4, m=0, ell=5, N=45, seed=0, factors=(leaf, uniform))


def test_spec_json_roundtrip():
    spec = BLOWUP_SPEC_N9
    assert ColoringSpec.from_json_dict(spec.to_json_dict()) == spec
    e1 = ColoringSpec(kind="erdos", t=3, m=0, ell=2, N=5, seed=131)
    e2 = ColoringSpec(kind="erdos", t=3, m=0, ell=2, N=5, seed=138)
    prod = ColoringSpec(
        kind="product", t=3, m=0, ell=4, N=25, seed=0, factors=(e1, e2)
    )
    assert ColoringSpec.from_json_dict(prod.to_json_dict()) == prod


def test_same_seed_regenerates_identical_colors():
    a = generate_blowup_coloring(4, 2, 50, 42)
    b = generate_blowup_coloring(4, 2, 50, 42)
    assert all_pair_colors(a) == all_pair_colors(b)
    c = generate_blowup_coloring(4, 2, 50, 43)
    assert all_pair_colors(a) != all_pair_colors(c)
    # a seed override draws the coloring of the spec with that seed
    assert all_pair_colors(regenerate(a.spec, seed=43)) == all_pair_colors(c)
    prod = product_coloring(a, generate_erdos_coloring(3, 2, 7, t=4))
    assert all_pair_colors(regenerate(prod.spec)) == all_pair_colors(prod)


def test_m0_blowup_equals_erdos_two_coloring():
    blowup = generate_blowup_coloring(4, 0, 12, 777)
    erdos = generate_erdos_coloring(12, 2, 777)
    colors = all_pair_colors(blowup)
    assert set(colors.values()) == {1, 2}
    assert colors == all_pair_colors(erdos)


def test_color_of_symmetry_and_range():
    coloring = generate_blowup_coloring(4, 2, 30, 3)
    for x, y in itertools.combinations(range(30), 2):
        c = coloring.color_of(x, y)
        assert 1 <= c <= 4
        assert coloring.color_of(y, x) == c


def test_color_of_rejects_bad_pairs():
    coloring = generate_blowup_coloring(4, 1, 9, 0)
    with pytest.raises(ValueError):
        coloring.color_of(3, 3)
    with pytest.raises(ValueError):
        coloring.color_of(0, 9)


def test_collapsed_pairs_never_take_blowup_color():
    # f_i(x) = f_i(y) means color != i
    coloring = generate_blowup_coloring(4, 1, 40, 11)
    table = [rng.uniform_below(8, 11, "blowup", 1, x) for x in range(40)]
    collisions = [
        (x, y)
        for x, y in itertools.combinations(range(40), 2)
        if table[x] == table[y]
    ]
    assert collisions  # 40 vertices into 8 images must collide
    assert all(coloring.color_of(x, y) != 1 for x, y in collisions)


def test_blowup_classes_are_clique_free():
    for seed in (0, 1, 2):
        coloring = generate_blowup_coloring(4, 2, 60, seed)
        graphs = color_class_graphs(coloring, colors=[1, 2])
        for c in (1, 2):
            assert not has_clique_of_order(graphs[c], 4).found


def random_coloring(rand: random.Random, depth: int = 0) -> EdgeColoring:
    """A small random blowup, uniform random or product coloring of up to four leaves."""
    kind = rand.random()
    if kind < 0.3 and depth < 2:
        first = random_coloring(rand, depth + 1)
        second = random_coloring(rand, depth + 1)
        if first.N * second.N <= 150:
            return product_coloring(first, second)
    if kind < 0.85:
        return generate_blowup_coloring(
            rand.choice((2, 4, 6)), rand.randint(0, 3), rand.randint(1, 40), rand.getrandbits(64)
        )
    return generate_erdos_coloring(rand.randint(1, 25), rand.randint(2, 4), rand.getrandbits(64))


def test_class_graphs_match_color_of_pair_loop():
    rand = random.Random(2024)
    kinds = set()
    for _ in range(80):
        coloring = random_coloring(rand)
        kinds.add(coloring.spec.kind)
        ell = coloring.ell
        subset = sorted(rand.sample(range(1, ell + 1), rand.randint(1, ell)))
        for colors in (list(range(1, ell + 1)), subset):
            graphs = color_class_graphs(coloring, colors)
            expected = pair_loop_classes(coloring, colors)
            assert sorted(graphs) == colors
            for c in colors:
                assert graphs[c].adj == from_top(expected[c]), (coloring.spec, c)
    assert kinds == {"blowup", "erdos", "product"}


def test_leftover_classes_over_several_coin_blocks_match_color_of_pair_loop():
    # the random colorings above stay within one lane block of leftover coins
    coloring = generate_blowup_coloring(4, 1, 150, 11)
    expected = pair_loop_classes(coloring, [2, 3])
    assert sum(row.bit_count() for c in (2, 3) for row in expected[c]) // 2 > 2 * rng._BLOCK
    for colors in ([2, 3], [3]):
        graphs = color_class_graphs(coloring, colors)
        for c in colors:
            assert graphs[c].adj == from_top(expected[c]), c


def test_blowup_class_rows_at_t8_match_color_of_pair_loop():
    # the random colorings above stop at t=6 and the pinned t=8 rows are leftover classes only,
    # so this checks the fiber rows of wanted blowup classes with 8-bit codes
    coloring = generate_blowup_coloring(8, 3, 70, 5)
    expected = pair_loop_classes(coloring, [1, 2, 3, 4, 5])
    assert all(any(expected[c]) for c in (1, 2, 3))
    assert len(set(coloring._tables[0])) < 70  # some fiber holds two vertices
    for colors in ([1, 2, 3, 4, 5], [2, 5], [3]):
        graphs = color_class_graphs(coloring, colors)
        for c in colors:
            assert graphs[c].adj == from_top(expected[c]), c


def test_class_graphs_reject_colors_outside_palette():
    coloring = generate_blowup_coloring(4, 1, 9, 0)
    for bad in (0, 4):
        with pytest.raises(ValueError, match="no color"):
            color_class_graphs(coloring, colors=[1, bad])


def test_all_class_search_finds_the_same_witness():
    # discharging the blowup classes by Lemma 1 must not change which
    # witness comes first: search every class in color order and compare
    compared = 0
    for seed in range(12):
        for t, m, N in ((4, 1, 12), (4, 2, 14), (4, 0, 9)):
            coloring = generate_blowup_coloring(t, m, N, seed)
            witness = find_mono_clique(coloring, t)
            assert witness == all_class_witness(coloring, t), (t, m, N, seed)
            compared += witness is not None
    assert compared >= 10


def all_class_witness(coloring, t):
    """The first witness of a search of every class in color order: the reference."""
    graphs = color_class_graphs(coloring, list(range(1, coloring.ell + 1)))
    for c in sorted(graphs):
        result = has_clique_of_order(graphs[c], t)
        if result.found:  # the class is numbered from the top
            return MonoWitness(c, tuple(sorted(coloring.N - 1 - v for v in result.witness)))
    return None


def random_product(rand: random.Random) -> EdgeColoring:
    """A product of two small random colorings, each spliced in by its leaves; at times a square."""
    while True:
        first = random_coloring(rand, 1)
        second = first if rand.random() < 0.2 else random_coloring(rand, 1)
        if 2 <= first.N * second.N <= 150:
            return product_coloring(first, second)


def test_product_search_on_factors_finds_the_all_class_witness():
    # deciding product classes on their factors must not change the
    # witness or the core: compare with a search of every product class
    rand = random.Random(6)
    seen = {
        "witness": 0, "none": 0, "three_leaves": 0, "erdos": 0, "small_factor": 0, "below_t": 0,
        "reused": 0,
    }
    for _ in range(300):
        coloring = random_product(rand)
        target = rand.randint(2, min(coloring.N, 6))
        factors = uniform_at(coloring.spec.factors, target)
        spec = ColoringSpec("product", target, 0, coloring.ell, coloring.N, 0, factors)
        cert = verify_coloring(spec)
        reference = all_class_witness(coloring, target)
        assert cert.witness == reference, (spec, target)
        expected = Certificate(
            spec=cert.spec,
            seed=cert.seed,
            t=cert.t,
            verified=reference is None,
            exhaustive=cert.exhaustive,
            witness=reference,
            expectation=cert.expectation,
            search_stats=cert.search_stats,
        )
        assert certificate_core(cert.to_json_dict()) == certificate_core(expected.to_json_dict())
        if len(set(factors)) == len(factors):  # no leaf repeats, so none is reused
            assert cert.search_stats["reused_factors"] == 0
        seen["witness" if reference else "none"] += 1
        seen["reused"] += cert.search_stats["reused_factors"] > 0
        seen["three_leaves"] += len(factors) > 2
        seen["erdos"] += any(f.kind == "erdos" for f in factors)
        seen["small_factor"] += any(f.N < target for f in factors)
        seen["below_t"] += target < coloring.spec.t
    assert min(seen.values()) >= 10, seen


def test_leaf_on_too_few_vertices_answers_no(monkeypatch):
    # with 0 nodes and no class build, and its repeat is not counted as reused
    built = count_class_builds(monkeypatch)
    small = generate_blowup_coloring(4, 1, 3, 0)
    decision = coloring_module._Decision
    assert coloring_module._decide_leaves(small, 4) == [decision((2, 3), None, 0, False)]
    square = product_coloring(small, small)
    assert coloring_module._decide_leaves(square, 4) == [
        decision((2, 3), None, 0, False), decision((5, 6), None, 0, False)
    ]
    assert built == []


def count_class_builds(monkeypatch):
    """The (spec, colors) of every color_class_graphs call from here on."""
    built = []
    real_classes = coloring_module.color_class_graphs

    def classes(coloring, colors):
        built.append((coloring.spec, colors))
        return real_classes(coloring, colors)

    monkeypatch.setattr(coloring_module, "color_class_graphs", classes)
    return built


def test_clique_free_answers_are_keyed_by_spec(monkeypatch):
    built = count_class_builds(monkeypatch)
    coloring, other = regenerate(BLOWUP_SPEC_N9), regenerate(BLOWUP_SPEC_N9, seed=2)
    decisions = coloring_module._decide_leaves(
        product_coloring(product_coloring(coloring, coloring), other), 4
    )
    # the repeated leaf is answered from the first one's decision; another seed is built
    assert built == [(BLOWUP_SPEC_N9, [2, 3]), (other.spec, [2, 3])]
    assert [d.witness for d in decisions] == [None, None, None]
    assert [d.reused for d in decisions] == [False, True, False]
    assert decisions[1].nodes == 0


def leaf_offsets(spec):
    """(leaf spec, the offset of its palette in `spec`'s) for every leaf, in order."""
    leaves = spec.factors or (spec,)
    return list(zip(leaves, itertools.accumulate((leaf.ell for leaf in leaves), initial=0)))


def test_search_stats_colors_are_the_colors_each_leaf_searches(monkeypatch):
    # verify_coloring reads searched_colors and lemma1_colors off the leaf
    # decisions: they must be the classes each leaf builds, palette-shifted
    built = count_class_builds(monkeypatch)
    rand = random.Random(28)
    tied = discharged = longer = 0
    while tied < 40:
        coloring = random_product(rand)
        if rand.random() < 0.5:  # a product spliced in second shifts its leaves' palettes
            coloring = product_coloring(random_coloring(rand, 1), coloring)
        target = rand.randint(2, 6)
        factors = uniform_at(coloring.spec.factors, target)
        spec = ColoringSpec("product", target, 0, coloring.ell, coloring.N, 0, factors)
        leaves = leaf_offsets(spec)
        specs = [leaf for leaf, _ in leaves]
        if len(set(specs)) < len(specs) or any(leaf.N < target for leaf in specs):
            continue  # a repeat is answered by an equal leaf, a small leaf is not built
        built.clear()
        cert = verify_coloring(spec)
        if not cert.verified:
            continue  # the search stops at the witness's leaf
        assert [leaf for leaf, _ in built] == specs
        searched = [offset + c for (_, offset), (_, colors) in zip(leaves, built) for c in colors]
        assert cert.search_stats["searched_colors"] == searched, spec
        rest = sorted(set(range(1, spec.ell + 1)) - set(searched))
        assert cert.search_stats["lemma1_colors"] == rest, spec
        tied += 1
        discharged += bool(rest)
        longer += len(specs) > 2
    assert discharged >= 10 and longer >= 5


def test_repeated_sub_product_is_answered_per_leaf(monkeypatch):
    # (F x F) x (F x F) is the four leaves F, F, F, F: F is decided once,
    # and its three repeats are answered from that decision, one leaf at a time
    built = count_class_builds(monkeypatch)
    factor = BLOWUP_SPEC_N9
    square = product_coloring(regenerate(factor), regenerate(factor))
    spec = product_coloring(square, square).spec
    assert spec == ColoringSpec(
        kind="product", t=4, m=0, ell=12, N=81 * 81, seed=0, factors=(factor,) * 4
    )
    cert = verify_coloring(spec)
    assert built == [(factor, [2, 3])]
    assert cert.verified and cert.search_stats["reused_factors"] == 3
    assert cert.search_stats["nodes"] == verify_coloring(factor).search_stats["nodes"]
    assert cert.search_stats["searched_colors"] == [2, 3, 5, 6, 8, 9, 11, 12]


def test_equal_leaves_share_one_coloring(monkeypatch):
    # the cube of one N=740 blowup with m=2 draws its two tables once, not once per leaf
    drawn = []
    uniform_row = rng.uniform_row

    def counting(*args):
        drawn.append(args)
        return uniform_row(*args)

    monkeypatch.setattr(rng, "uniform_row", counting)
    path = Path(__file__).resolve().parents[1] / "examples" / "r8_12.cube.json"
    spec = ColoringSpec.from_json_dict(json.loads(path.read_text(encoding="ascii")))
    cert = verify_coloring(spec)
    assert cert.verified and len(drawn) == 2
    leaves = [leaf for leaf, _, _ in regenerate(spec)._leaves]
    assert len(leaves) == 3 and all(leaf is leaves[0] for leaf in leaves)


def test_verified_product_builds_only_factor_classes(monkeypatch):
    built, searched = [], []
    real_classes = coloring_module.color_class_graphs
    real_search = coloring_module.has_clique_of_order

    def classes(coloring, colors):
        built.append(coloring.N)
        return real_classes(coloring, colors)

    def search(graph, k):
        result = real_search(graph, k)
        searched.append(result.nodes)
        return result

    monkeypatch.setattr(coloring_module, "color_class_graphs", classes)
    monkeypatch.setattr(coloring_module, "has_clique_of_order", search)
    factors = tuple(ColoringSpec(kind="blowup", t=4, m=1, ell=3, N=9, seed=1) for _ in (0, 1))
    spec = ColoringSpec(kind="product", t=4, m=0, ell=6, N=81, seed=0, factors=factors)
    cert = verify_coloring(spec)
    assert cert.verified
    assert built and max(built) == 9
    assert cert.search_stats["nodes"] == sum(searched)

    # with a witness too: it is mapped from the factor's clique
    built.clear()
    searched.clear()
    spec = ColoringSpec(kind="product", t=3, m=0, ell=6, N=81, seed=0, factors=factors)
    cert = verify_coloring(spec)
    assert cert.witness is not None and cert.witness.holds_in(regenerate(spec))
    assert built and max(built) == 9
    assert cert.search_stats["nodes"] == sum(searched)


def test_target_below_spec_t_searches_blowup_classes():
    # Lemma 1 discharges only targets of at least spec.t: the order-6
    # graph has triangles, so a triangle target finds one in class 1
    spec = ColoringSpec(kind="blowup", t=6, m=2, ell=4, N=40, seed=3)
    coloring = regenerate(spec)
    assert coloring_module._lemma1_colors(spec, 3) == set()
    witness = find_mono_clique(coloring, 3)
    assert witness.color == 1 and witness.holds_in(coloring)


def test_search_stats_name_searched_and_discharged_colors(census_4):
    cert = verify_coloring(BLOWUP_SPEC_N9, census=census_4)
    assert cert.verified
    assert cert.search_stats["searched_colors"] == [2, 3]
    assert cert.search_stats["lemma1_colors"] == [1]
    assert cert.search_stats["reused_factors"] == 0
    assert recheck_certificate(cert.to_json_dict()) is None

    # a factor on fewer than t vertices answers no, and its repeat is not counted as reused
    factor = ColoringSpec(kind="blowup", t=4, m=1, ell=3, N=3, seed=5)
    prod = ColoringSpec(kind="product", t=4, m=0, ell=6, N=9, seed=0, factors=(factor, factor))
    cert = verify_coloring(prod)
    assert cert.search_stats["lemma1_colors"] == [1, 4]
    assert cert.search_stats["searched_colors"] == [2, 3, 5, 6]
    assert cert.search_stats["reused_factors"] == 0

    factors = (BLOWUP_SPEC_N9, BLOWUP_SPEC_N9)
    square = ColoringSpec(kind="product", t=4, m=0, ell=6, N=81, seed=0, factors=factors)
    cert = verify_coloring(square)
    assert cert.verified and cert.search_stats["searched_colors"] == [2, 3, 5, 6]
    assert cert.search_stats["reused_factors"] == 1
    assert cert.search_stats["nodes"] == verify_coloring(BLOWUP_SPEC_N9).search_stats["nodes"]


def test_t8_m2_certificate_core_is_pinned():
    # the core recorded before the blowup classes were discharged by Lemma 1
    spec = ColoringSpec(kind="blowup", t=8, m=2, ell=4, N=740, seed=1)
    cert = verify_coloring(spec, census=g0_census(8))
    assert cert.verified
    core = canonical_json_bytes(certificate_core(cert.to_json_dict()))
    assert hashlib.sha256(core).hexdigest() == (
        "232d390895748fc3425004ee0c633b9206587f445fee91ad10c6ae445cf0420e"
    )


def test_t10_m1_witness_and_nodes_are_pinned():
    # the only test that searches a class at t=10, where kmin runs up to 10: class 2 holds no
    # K_10, so its search is exhaustive, and class 3 gives the witness
    spec = ColoringSpec(kind="blowup", t=10, m=1, ell=3, N=710, seed=1000)
    cert = verify_coloring(spec)
    assert cert.witness == MonoWitness(3, (68, 69, 243, 351, 387, 433, 475, 550, 620, 625))
    assert cert.witness.holds_in(regenerate(spec))
    stats = cert.search_stats
    assert (stats["nodes"], stats["searched_colors"], stats["lemma1_colors"]) == (
        39631, [2, 3], [1]
    )


def test_verify_product_certificate_core_is_pinned():
    # the core recorded while product classes were still searched whole
    factors = tuple(ColoringSpec(kind="blowup", t=6, m=1, ell=3, N=41, seed=s) for s in (2, 3))
    spec = ColoringSpec(kind="product", t=6, m=0, ell=6, N=41 * 41, seed=0, factors=factors)
    cert = verify_coloring(spec)
    assert cert.verified
    core = canonical_json_bytes(certificate_core(cert.to_json_dict()))
    assert hashlib.sha256(core).hexdigest() == (
        "253a83c66b1f021588ad9d22b64769a4e09f337c9518357a111efc31121a66a3"
    )


@pytest.mark.parametrize(
    "seeds, color, vertices, digest",
    [
        # a first-factor class: the factor clique's vertices a map to a * 41
        (
            (0, 1), 2, (328, 451, 492, 738, 1107, 1189),
            "b806abd9899e139e73e788d66743f3fe3dcac45245fba05496af8c65639383e9",
        ),
        # a second-factor class: the factor clique, in block 0
        (
            (19, 20), 6, (5, 15, 24, 28, 29, 40),
            "af1df9fd3e909baccdbbad62b0d51a3df5562c2389ff955d739fd0990a9ad78d",
        ),
    ],
    ids=["first-factor", "second-factor"],
)
def test_witnessed_product_certificate_core_is_pinned(seeds, color, vertices, digest):
    # the cores recorded while the witness was searched in the whole product class
    factors = tuple(ColoringSpec(kind="blowup", t=6, m=1, ell=3, N=41, seed=s) for s in seeds)
    spec = ColoringSpec(kind="product", t=6, m=0, ell=6, N=41 * 41, seed=0, factors=factors)
    cert = verify_coloring(spec)
    assert cert.witness == MonoWitness(color, vertices)
    core = canonical_json_bytes(certificate_core(cert.to_json_dict()))
    assert hashlib.sha256(core).hexdigest() == digest


def test_t6_m4_leftover_class_rows_are_pinned():
    # recorded while the draws ran one scalar splitmix64 key at a time, on rows numbered upward
    graphs = color_class_graphs(generate_blowup_coloring(6, 4, 651, 2), [5, 6])
    digest = hashlib.sha256()
    for c in (5, 6):
        for row in from_top(graphs[c].adj):
            digest.update(row.to_bytes(82, "little"))
    assert digest.hexdigest() == (
        "ce3ebfe23ee56bccffcec88769472f12eedb5904db40e15965d782aecaa624f5"
    )


def test_t8_m2_leftover_class_rows_are_pinned():
    # about 70k leftover pairs, many lane blocks; recorded with one coin pass per vertex, on
    # rows numbered upward
    graphs = color_class_graphs(generate_blowup_coloring(8, 2, 740, 1), [3, 4])
    digest = hashlib.sha256()
    for c in (3, 4):
        for row in from_top(graphs[c].adj):
            digest.update(row.to_bytes(93, "little"))
    assert digest.hexdigest() == (
        "f64023eb6e13f480286b4a6bd3466587513871f1650fb7720e9ba4124c09048d"
    )


def test_leftover_colors_are_balanced():
    coloring = generate_blowup_coloring(4, 1, 200, 5)
    leftover = [
        c for (_, _), c in all_pair_colors(coloring).items() if c >= 2
    ]
    assert len(leftover) >= 10_000
    freq = leftover.count(2) / len(leftover)
    assert abs(freq - 0.5) <= 3 * math.sqrt(0.25 / len(leftover))


def test_blowup_marginal_matches_edge_density(g0_4):
    # over many seeds, a fixed pair is f_1-adjacent with frequency 2|E|/|V|^2
    hits = 0
    trials = 10_000
    for seed in range(trials):
        a = rng.uniform_below(8, seed, "blowup", 1, 0)
        b = rng.uniform_below(8, seed, "blowup", 1, 1)
        if adjacent(g0_4, a, b):
            hits += 1
    p = 2 * g0_4.edge_count() / g0_4.n**2
    assert abs(hits / trials - p) <= 3 * math.sqrt(p * (1 - p) / trials)


def test_erdos_examples():
    single = generate_erdos_coloring(2, 5, 123)
    assert 1 <= single.color_of(0, 1) <= 5

    coloring = generate_erdos_coloring(100, 2, 9)
    colors = list(all_pair_colors(coloring).values())
    freq = colors.count(1) / len(colors)
    assert abs(freq - 0.5) <= 3 * math.sqrt(0.25 / len(colors))
    with pytest.raises(ValueError):
        generate_erdos_coloring(5, 1, 0)


def test_product_with_single_vertex_factor_is_identity():
    base = generate_erdos_coloring(7, 2, 55)
    unit = generate_erdos_coloring(1, 2, 0)
    prod = product_coloring(base, unit)
    assert prod.N == 7
    assert all_pair_colors(prod) == all_pair_colors(base)


def test_product_structure_on_k4():
    c1 = generate_erdos_coloring(2, 2, 8)
    c2 = generate_erdos_coloring(2, 2, 9)
    prod = product_coloring(c1, c2)
    assert prod.N == 4 and prod.ell == 4
    # vertices are (a,b) pairs in row-major order: 0=(0,0) 1=(0,1) 2=(1,0) 3=(1,1)
    assert prod.color_of(0, 2) == c1.color_of(0, 1)
    assert prod.color_of(1, 3) == c1.color_of(0, 1)
    assert prod.color_of(0, 3) == c1.color_of(0, 1)
    assert prod.color_of(0, 1) == 2 + c2.color_of(0, 1)
    assert prod.color_of(2, 3) == 2 + c2.color_of(0, 1)


def test_product_preserves_clique_freeness():
    # frozen seeds of triangle-free 2-colorings on 5 vertices
    f1 = generate_erdos_coloring(5, 2, 131, t=3)
    f2 = generate_erdos_coloring(5, 2, 138, t=3)
    assert find_mono_clique(f1, 3) is None
    assert find_mono_clique(f2, 3) is None
    prod = product_coloring(f1, f2)
    assert prod.N == 25 and prod.ell == 4
    assert find_mono_clique(prod, 3) is None


def test_find_mono_clique_on_constant_coloring():
    # erdos seed 95 colors every pair of K_4 with color 1
    coloring = generate_erdos_coloring(4, 2, 95)
    assert all(c == 1 for c in all_pair_colors(coloring).values())
    witness = find_mono_clique(coloring, 4)
    assert witness == MonoWitness(color=1, vertices=(0, 1, 2, 3))


def test_verified_certificate(census_4, tmp_path):
    cert = verify_coloring(BLOWUP_SPEC_N9, census=census_4)
    assert cert.verified and cert.exhaustive and cert.witness is None
    assert cert.expectation.expected_count == Fraction(2898, 4096)
    assert cert.certified_bound() == 10

    path = tmp_path / "cert.json"
    save_certificate(cert, path)
    loaded = Certificate.from_json_dict(json.loads(path.read_text(encoding="ascii")))
    assert certificate_core(loaded.to_json_dict()) == certificate_core(cert.to_json_dict())
    # bit-exact round trip
    save_certificate(loaded, tmp_path / "cert2.json")
    assert (tmp_path / "cert2.json").read_bytes() == path.read_bytes()


def test_failed_certificate_has_witness(census_4):
    spec = ColoringSpec(kind="blowup", t=4, m=1, ell=3, N=9, seed=0)
    cert = verify_coloring(spec, census=census_4)
    assert not cert.verified
    assert cert.witness is not None
    assert cert.witness.holds_in(regenerate(spec))


def test_retry_loop_logs_failures(census_4):
    spec = ColoringSpec(kind="blowup", t=4, m=1, ell=3, N=9, seed=0)
    cert, failures = produce_certificate(spec, max_tries=8, census=census_4)
    assert cert.verified
    assert cert.seed == 1
    assert cert.search_stats["tries"] == 2
    assert len(failures) == 1
    assert failures[0][0] == 0


def test_t6_m4_retry_loop_is_pinned():
    # the retry loop of the seeds-t6m4 benchmark workload: five seeds end on a witness in a
    # leftover class and the sixth verifies; the failures and the core its golden file records
    spec = ColoringSpec(kind="blowup", t=6, m=4, ell=6, N=651, seed=2)
    cert, failures = produce_certificate(spec, max_tries=8)
    assert [(seed, w.color, list(w.vertices)) for seed, w in failures] == [
        (2, 5, [57, 161, 404, 499, 531, 585]),
        (3, 6, [121, 299, 352, 473, 519, 608]),
        (4, 5, [52, 74, 161, 180, 478, 513]),
        (5, 5, [60, 262, 275, 305, 401, 498]),
        (6, 6, [128, 206, 288, 370, 465, 609]),
    ]
    assert cert.verified and cert.search_stats["tries"] == 6
    core = canonical_json_bytes(certificate_core(cert.to_json_dict()))
    assert hashlib.sha256(core).hexdigest() == (
        "2eb2ea3ecf56fe34e62ab654766fb44d75b23240114e8e717c603170d9e8f7d9"
    )


def test_certificates_match_ignores_timing(census_4):
    cert = verify_coloring(BLOWUP_SPEC_N9, census=census_4)
    d1 = cert.to_json_dict()
    d2 = cert.to_json_dict()
    d2["search_stats"]["wall_time_sec"] = 99.0
    # the files differ, in search_stats only, and load to certificates with equal cores
    assert canonical_json_bytes(d1) != canonical_json_bytes(d2)
    assert certificate_core(d1) == certificate_core(d2)
    loaded = Certificate.from_json_dict(d2)
    assert certificate_core(loaded.to_json_dict()) == certificate_core(d1)


def test_recheck_guards_before_drawing_the_witness_coloring(census_4):
    # a witness in range for a t=4 m=1 spec at N=2^32 must not draw its 2^32 table entries
    spec = ColoringSpec(kind="blowup", t=4, m=1, ell=3, N=9, seed=0)
    cert = verify_coloring(spec, census=census_4)
    assert cert.witness is not None
    fields = {name: getattr(cert, name) for name in Certificate._fields}
    fields["spec"] = ColoringSpec(kind="blowup", t=4, m=1, ell=3, N=1 << 32, seed=0)
    fields["witness"] = MonoWitness(cert.witness.color, (0, 1, 2, 3))
    huge = Certificate(**fields)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="exhaustive materialization guard"):
            recheck_certificate(huge.to_json_dict())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_first_difference_names_the_first_path_in_document_order():
    first_difference = coloring_module._first_difference
    stored = {"b": {"y": [1, 2], "x": 1}, "a": 0}
    assert first_difference(stored, stored, "c") is None
    # keys are walked in the replayed (second) dict's order, not sorted
    assert first_difference(stored, {"b": {"y": [1, 3], "x": 2}, "a": 1}, "c") == "c.b.y"
    assert first_difference(stored, {"a": 1, "b": {"y": [1, 3], "x": 2}}, "c") == "c.a"
    assert first_difference(stored, {"b": {"x": 2, "y": [1, 3]}, "a": 0}, "c") == "c.b.x"
    # a key only one side has is a difference, after the replayed dict's keys
    assert first_difference(stored, {"a": 0}, "c") == "c.b"
    assert first_difference({"a": 0}, stored, "c") == "c.b"
    assert first_difference({**stored, "z": None, "e": None}, stored, "c") == "c.z"
    # lists of objects compare whatever order their keys were written in
    factors = [{"kind": "blowup", "t": 4}, {"kind": "erdos", "t": 3}]
    written = [dict(sorted(f.items(), reverse=True)) for f in factors]
    assert first_difference({"f": written}, {"f": factors}, "c") is None
    assert first_difference({"f": written[::-1]}, {"f": factors}, "c") == "c.f"
    # Certificate.to_json_dict puts expected_count_exact before the decimal it renders
    expectation = verify_coloring(BLOWUP_SPEC_N9).to_json_dict()["expectation"]
    keys = list(expectation)
    assert keys.index("expected_count_exact") < keys.index("expected_count")
    altered = {**expectation, "expected_count": "0.25", "expected_count_exact": "1/4"}
    assert first_difference(altered, expectation, "e") == "e.expected_count_exact"
    # integers and booleans are distinct JSON values even where Python equates them
    assert first_difference({"a": 1}, {"a": True}, "c") == "c.a"


def test_erdos_case_certificate_at_n6():
    # E = C(6,4) * 2^(1-6) = 15/32 < 1, so a short seed search certifies
    # a two-coloring of K_6 and with it a lower bound of 7
    spec = ColoringSpec(kind="erdos", t=4, m=0, ell=2, N=6, seed=0)
    cert, _ = produce_certificate(spec, max_tries=32)
    assert cert.verified
    assert cert.expectation.expected_count == Fraction(15, 32)
    assert cert.certified_bound() == 7


def test_erdos_multicolor_certificate_has_no_expectation():
    # the exact expectation formula models two leftover colors; it does not
    # apply to a three-color uniform coloring, so none is attached
    spec = ColoringSpec(kind="erdos", t=3, m=0, ell=3, N=4, seed=2)
    cert = verify_coloring(spec)
    assert cert.expectation is None


def test_verify_rejects_n_beyond_exhaustive_guard():
    # past the guard no exhaustive search is possible, so nothing is certified
    big = ColoringSpec(kind="erdos", t=3, m=0, ell=2, N=10_001, seed=77)
    with pytest.raises(ValueError, match="exceeds the exhaustive materialization guard 10000"):
        verify_coloring(big)


def test_verify_guard_comes_before_drawing_the_coloring(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("regenerate called for a spec past the guard")

    monkeypatch.setattr(coloring_module, "regenerate", refuse)
    big = ColoringSpec(kind="blowup", t=6, m=2, ell=4, N=200_000, seed=1)
    with pytest.raises(ValueError, match="exceeds the exhaustive materialization guard 10000"):
        verify_coloring(big)


def test_verify_refuses_n_below_t_before_drawing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("regenerate called for a spec with N < t")

    monkeypatch.setattr(coloring_module, "regenerate", refuse)
    for spec in (
        ColoringSpec(kind="blowup", t=4, m=1, ell=3, N=3, seed=1),
        ColoringSpec(kind="erdos", t=5, m=0, ell=2, N=4, seed=1),
    ):
        with pytest.raises(ValueError, match=f"N={spec.N} is below the clique target t={spec.t}"):
            verify_coloring(spec)


def test_verify_guard_checks_a_products_factors_before_drawing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("regenerate called for a spec past the guard")

    monkeypatch.setattr(coloring_module, "regenerate", refuse)
    small = ColoringSpec(kind="blowup", t=4, m=1, ell=3, N=2, seed=1)
    big = ColoringSpec(kind="blowup", t=4, m=1, ell=3, N=20_000, seed=1)
    spec = ColoringSpec(kind="product", t=4, m=0, ell=6, N=40_000, seed=0, factors=(small, big))
    with pytest.raises(ValueError, match="N=20000 exceeds the exhaustive materialization guard 10000"):
        verify_coloring(spec)


def test_product_past_the_guard_verifies_on_its_factors(tmp_path, monkeypatch):
    # N = 651^2 is past the guard, but verification builds only the
    # N=651 factor classes, once for both equal factors; the certificate
    # proves r(6;12) >= 423,802
    built = count_class_builds(monkeypatch)
    factor = ColoringSpec(kind="blowup", t=6, m=4, ell=6, N=651, seed=1007)
    spec = ColoringSpec(
        kind="product", t=6, m=0, ell=12, N=651 * 651, seed=0, factors=(factor, factor)
    )
    cert = verify_coloring(spec)
    assert built == [(factor, [5, 6])]
    assert cert.search_stats["nodes"] == verify_coloring(factor).search_stats["nodes"]
    assert cert.search_stats["reused_factors"] == 1
    assert cert.verified and cert.certified_bound() == 423_802
    save_certificate(cert, tmp_path / "cert.json")
    assert recheck_certificate(json.loads((tmp_path / "cert.json").read_text())) is None
    # the core recorded while the square searched both factors
    core = canonical_json_bytes(certificate_core(cert.to_json_dict()))
    assert hashlib.sha256(core).hexdigest() == (
        "8f0c16098f4f381ae137ab505ce1159d1a760f66c0b1021a7b43b35a1071b5d0"
    )


def t6_m4_product(seed, power):
    """The power-th product power of the t=6 m=4 N=651 blowup at `seed`."""
    factor = ColoringSpec(kind="blowup", t=6, m=4, ell=6, N=651, seed=seed)
    if power == 1:
        return factor
    return ColoringSpec(
        kind="product", t=6, m=0, ell=6 * power, N=651**power, seed=0, factors=(factor,) * power
    )


# the core of the cube of t6_m4_product(1007, 1), in the flat form a certificate is written in
CUBE_DIGEST = "a8a36634a5ff04a0ef8cda13ad9dc96c438e53c508e8b3e4d47f8c45f7101ea5"


def test_witnessed_square_maps_the_factor_clique():
    # a first-factor class: factor clique w is [a * 651 for a in w]
    clique = (57, 161, 404, 499, 531, 585)
    assert find_mono_clique(regenerate(t6_m4_product(2, 1)), 6) == MonoWitness(5, clique)
    spec = t6_m4_product(2, 2)
    cert = verify_coloring(spec)
    assert not cert.verified and spec.N == 423_801
    assert cert.witness == MonoWitness(5, (37107, 104811, 263004, 324849, 345681, 380835))
    assert cert.witness.vertices == tuple(a * 651 for a in clique)
    assert cert.witness.holds_in(regenerate(spec))
    # search_stats stop at the witness's color: the second leaf is never decided
    assert cert.search_stats["searched_colors"] == [5]
    assert cert.search_stats["lemma1_colors"] == [1, 2, 3, 4]


def test_product_cube_past_the_guard_verifies_on_its_factors(tmp_path, monkeypatch):
    # N = 651^3 with 18 colors: the certificate proves r(6;18) >= 275,894,452;
    # the factor is decided once, and the square's second factor and the
    # cube's third are answered from that decision
    built = count_class_builds(monkeypatch)
    spec = t6_m4_product(1007, 3)
    assert (spec.N, spec.ell) == (275_894_451, 18)
    cert = verify_coloring(spec)
    factor = t6_m4_product(1007, 1)
    assert built == [(factor, [5, 6])]
    assert cert.search_stats["nodes"] == verify_coloring(factor).search_stats["nodes"] == 546
    assert cert.search_stats["reused_factors"] == 2
    assert cert.verified and cert.certified_bound() == 275_894_452
    save_certificate(cert, tmp_path / "cert.json")
    doc = json.loads((tmp_path / "cert.json").read_text())
    assert recheck_certificate(doc) is None
    assert hashlib.sha256(canonical_json_bytes(certificate_core(doc))).hexdigest() == CUBE_DIGEST


def test_right_nested_cube_decides_its_factor_once(monkeypatch):
    # F x (F x F) is the cube's three leaves: both leaves of the square are
    # answered from the first factor's decision
    built = count_class_builds(monkeypatch)
    factor = t6_m4_product(1007, 1)
    square = regenerate(t6_m4_product(1007, 2))
    spec = product_coloring(regenerate(factor), square).spec
    assert spec == t6_m4_product(1007, 3)
    cert = verify_coloring(spec)
    assert built == [(factor, [5, 6])]
    assert cert.verified and cert.search_stats["nodes"] == 546
    assert cert.search_stats["reused_factors"] == 2
    core = canonical_json_bytes(certificate_core(cert.to_json_dict()))
    assert hashlib.sha256(core).hexdigest() == CUBE_DIGEST


def test_product_fourth_power_is_refused_naming_n():
    with pytest.raises(ValueError, match="N must be in 1..4294967296, got 179607287601"):
        t6_m4_product(1007, 4)


def test_product_of_a_product_splices_its_leaves():
    a, b = generate_blowup_coloring(4, 1, 9, 1), generate_erdos_coloring(3, 2, 7, t=4)
    c = generate_blowup_coloring(4, 2, 5, 3)
    flat = product_coloring(a, b, c)
    assert flat.spec.factors == (a.spec, b.spec, c.spec)
    assert product_coloring(product_coloring(a, b), c).spec == flat.spec
    assert product_coloring(a, product_coloring(b, c)).spec == flat.spec


def test_product_writes_its_t_into_uniform_leaves():
    # a uniform leaf is decided at the product's t, and its t moves no color
    uniform, blowup = generate_erdos_coloring(5, 2, 1), generate_blowup_coloring(4, 1, 9, 1)
    prod = product_coloring(uniform, blowup)
    leaf = ColoringSpec(kind="erdos", t=4, m=0, ell=2, N=5, seed=1)
    assert prod.spec.t == 4 and prod.spec.factors == (leaf, blowup.spec)
    assert all_pair_colors(regenerate(leaf)) == all_pair_colors(uniform)


def test_product_past_the_vertex_capacity_is_refused_naming_n():
    # uniform colorings draw nothing until asked for a color
    factor = generate_erdos_coloring(70_000, 2, 0)
    with pytest.raises(ValueError, match="N must be in 1..4294967296, got 4900000000"):
        product_coloring(factor, factor)


def test_t30_spec_verifies_and_rechecks_without_building_g0(monkeypatch):
    # G0(30) has 2^29 rows of 2^29 bits; a coloring is only its tables,
    # so refuse G0 everywhere and a regression fails here at once instead
    # of exhausting memory
    def refuse(*args, **kwargs):
        raise AssertionError("G0 built for a coloring")

    monkeypatch.setattr(graphs_module, "build_g0", refuse)
    monkeypatch.setattr(coloring_module, "build_g0", refuse, raising=False)
    cert = verify_coloring(ColoringSpec(kind="blowup", t=30, m=1, ell=3, N=60, seed=1))
    assert cert.verified and cert.search_stats["lemma1_colors"] == [1]
    assert recheck_certificate(cert.to_json_dict()) is None


def test_product_seed_override_rejected():
    f1 = generate_erdos_coloring(5, 2, 131, t=3)
    f2 = generate_erdos_coloring(5, 2, 138, t=3)
    prod = product_coloring(f1, f2)
    with pytest.raises(ValueError, match="so seed = 0, got seed=5"):
        regenerate(prod.spec, seed=5)


def test_edge_dump(tmp_path):
    coloring = generate_blowup_coloring(4, 1, 6, 2)
    path = tmp_path / "edges.csv"
    write_edge_dump(coloring, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,y,color"
    assert len(lines) == 1 + 15
    x, y, c = lines[1].split(",")
    assert coloring.color_of(int(x), int(y)) == int(c)

    too_big = generate_erdos_coloring(2001, 2, 0)
    with pytest.raises(ValueError):
        write_edge_dump(too_big, tmp_path / "nope.csv")
