import dataclasses
import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest

from ramseycert import coloring as coloring_module
from ramseycert import rng
from ramseycert.coloring import (
    Certificate,
    ColoringSpec,
    EdgeColoring,
    MonoWitness,
    canonical_json_bytes,
    certificate_core,
    certificates_match,
    color_class_graphs,
    find_mono_clique,
    generate_blowup_coloring,
    generate_erdos_coloring,
    load_certificate,
    produce_certificate,
    product_coloring,
    recheck_certificate,
    regenerate,
    save_certificate,
    verify_coloring,
    write_edge_dump,
)
from ramseycert.graphs import g0_census, has_clique_of_order

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
    table = coloring.blowup_table(1)
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
            assert not has_clique_of_order(graphs[c], 4)


def pair_loop_classes(coloring, colors):
    """The class rows from one color_of call per pair: the reference."""
    rows = {c: [0] * coloring.N for c in colors}
    for (x, y), c in all_pair_colors(coloring).items():
        if c in rows:
            rows[c][x] |= 1 << y
            rows[c][y] |= 1 << x
    return rows


def random_coloring(rand: random.Random, depth: int = 0) -> EdgeColoring:
    """A small random blowup, uniform random or (nested) product coloring."""
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
        for colors in (None, subset):
            graphs = color_class_graphs(coloring, colors)
            wanted = list(range(1, ell + 1)) if colors is None else subset
            expected = pair_loop_classes(coloring, wanted)
            assert sorted(graphs) == wanted
            for c in wanted:
                assert graphs[c].adj == expected[c], (coloring.spec, c)
    assert kinds == {"blowup", "erdos", "product"}


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
            graphs = color_class_graphs(coloring)
            full = None
            for c in sorted(graphs):
                result = has_clique_of_order(graphs[c], t)
                if result.found:
                    full = MonoWitness(c, tuple(sorted(result.witness)))
                    break
            assert witness == full, (t, m, N, seed)
            compared += witness is not None
    assert compared >= 10


def all_class_witness(coloring, t):
    """The first witness of a search of every class in color order: the reference."""
    graphs = color_class_graphs(coloring)
    for c in sorted(graphs):
        result = has_clique_of_order(graphs[c], t)
        if result.found:
            return MonoWitness(c, tuple(sorted(result.witness)))
    return None


def random_product(rand: random.Random) -> EdgeColoring:
    """A product of two small random colorings, themselves possibly products."""
    while True:
        first, second = random_coloring(rand, 1), random_coloring(rand, 1)
        if 2 <= first.N * second.N <= 150:
            return product_coloring(first, second)


def test_product_search_on_factors_finds_the_all_class_witness():
    # deciding product classes on their factors must not change the
    # witness or the core: compare with a search of every product class
    rand = random.Random(6)
    seen = {"witness": 0, "none": 0, "nested": 0, "erdos": 0, "small_factor": 0, "below_t": 0}
    for _ in range(300):
        coloring = random_product(rand)
        spec = coloring.spec
        target = rand.randint(2, min(coloring.N, 6))
        cert = verify_coloring(spec, t=target)
        reference = all_class_witness(coloring, target)
        assert cert.witness == reference, (spec, target)
        expected = dataclasses.replace(cert, witness=reference, verified=reference is None)
        assert certificate_core(cert.to_json_dict()) == certificate_core(expected.to_json_dict())
        assert cert.search_stats["factor_colors"] == cert.search_stats["searched_colors"]
        factors = spec.factors
        seen["witness" if reference else "none"] += 1
        seen["nested"] += any(f.kind == "product" for f in factors)
        seen["erdos"] += any(f.kind == "erdos" for f in factors)
        seen["small_factor"] += any(f.N < target for f in factors)
        seen["below_t"] += target < spec.t
    assert min(seen.values()) >= 10, seen


def test_first_clique_class_on_too_few_vertices_answers_no():
    small = generate_blowup_coloring(4, 1, 3, 0)
    assert coloring_module._first_clique_class(small, [1, 2, 3], 4) == (None, None, 0)


def test_verified_product_builds_only_factor_classes(monkeypatch):
    built, searched = [], []
    real_classes = coloring_module.color_class_graphs
    real_search = coloring_module.has_clique_of_order

    def classes(coloring, colors=None):
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

    # with a witness, exactly one product class is built, for the witness search
    built.clear()
    searched.clear()
    cert = verify_coloring(spec, t=3)
    assert cert.witness is not None and cert.witness.holds_in(regenerate(spec))
    assert built.count(81) == 1
    assert cert.search_stats["nodes"] == sum(searched)


def test_target_below_spec_t_searches_blowup_classes():
    # Lemma 1 discharges only targets of at least spec.t: the order-6
    # graph has triangles, so a triangle target finds one in class 1
    spec = ColoringSpec(kind="blowup", t=6, m=2, ell=4, N=40, seed=3)
    cert = verify_coloring(spec, t=3)
    assert cert.witness is not None and cert.witness.color == 1
    assert cert.witness.holds_in(regenerate(spec))
    assert cert.search_stats["lemma1_colors"] == []
    assert cert.search_stats["searched_colors"] == [1]
    assert find_mono_clique(regenerate(spec), 3) == cert.witness


def test_search_stats_name_searched_and_discharged_colors(census_4):
    cert = verify_coloring(BLOWUP_SPEC_N9, census=census_4)
    assert cert.verified
    assert cert.search_stats["searched_colors"] == [2, 3]
    assert cert.search_stats["lemma1_colors"] == [1]
    assert cert.search_stats["factor_colors"] == []
    ok, _ = recheck_certificate(cert, census=census_4)
    assert ok

    factor = ColoringSpec(kind="blowup", t=4, m=1, ell=3, N=3, seed=5)
    prod = ColoringSpec(kind="product", t=4, m=0, ell=6, N=9, seed=0, factors=(factor, factor))
    cert = verify_coloring(prod)
    assert cert.search_stats["lemma1_colors"] == [1, 4]
    assert cert.search_stats["searched_colors"] == [2, 3, 5, 6]
    assert cert.search_stats["factor_colors"] == [2, 3, 5, 6]


def test_t8_m2_certificate_core_is_pinned():
    # the core recorded before the blowup classes were discharged by Lemma 1
    spec = ColoringSpec(kind="blowup", t=8, m=2, ell=4, N=740, seed=1)
    cert = verify_coloring(spec, census=g0_census(8))
    assert cert.verified
    core = canonical_json_bytes(certificate_core(cert.to_json_dict()))
    assert hashlib.sha256(core).hexdigest() == (
        "232d390895748fc3425004ee0c633b9206587f445fee91ad10c6ae445cf0420e"
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
        if g0_4.adjacent(a, b):
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


def test_find_mono_clique_target_too_large():
    coloring = generate_erdos_coloring(3, 2, 0)
    with pytest.raises(ValueError, match="target exceeds vertex count"):
        find_mono_clique(coloring, 4)


def test_verified_certificate(census_4, tmp_path):
    cert = verify_coloring(BLOWUP_SPEC_N9, census=census_4)
    assert cert.verified and cert.exhaustive and cert.witness is None
    assert cert.expectation.expected_count == Fraction(2898, 4096)
    assert cert.certified_bound() == 10

    path = tmp_path / "cert.json"
    save_certificate(cert, path)
    loaded = load_certificate(path)
    assert loaded == cert
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


def test_certificates_match_ignores_timing(census_4):
    cert = verify_coloring(BLOWUP_SPEC_N9, census=census_4)
    d1 = cert.to_json_dict()
    d2 = cert.to_json_dict()
    d2["search_stats"]["wall_time_sec"] = 99.0
    assert certificates_match(d1, d2)
    assert canonical_json_bytes(d1) != canonical_json_bytes(d2)


def test_recheck_accepts_good_and_rejects_tampered(census_4):
    cert = verify_coloring(BLOWUP_SPEC_N9, census=census_4)
    ok, reasons = recheck_certificate(cert, census=census_4)
    assert ok and not reasons

    tampered = Certificate(
        spec=cert.spec,
        seed=cert.seed,
        t=cert.t,
        verified=True,
        exhaustive=True,
        witness=MonoWitness(color=2, vertices=(0, 1, 2, 3)),
        expectation=cert.expectation,
        search_stats=dict(cert.search_stats),
    )
    ok, reasons = recheck_certificate(tampered, census=census_4)
    assert not ok and any("inconsistent" in r for r in reasons)

    # seed 0 does not verify, so claiming it does must fail the replay
    wrong_seed = Certificate(
        spec=cert.spec,
        seed=0,
        t=cert.t,
        verified=cert.verified,
        exhaustive=cert.exhaustive,
        witness=None,
        expectation=cert.expectation,
        search_stats=dict(cert.search_stats),
    )
    ok, reasons = recheck_certificate(wrong_seed, census=census_4)
    assert not ok and any("does not reproduce" in r for r in reasons)


def test_first_difference_names_the_first_sorted_path():
    first_difference = coloring_module._first_difference
    stored = {"b": {"y": [1, 2], "x": 1}, "a": 0}
    assert first_difference(stored, stored, "c") is None
    assert first_difference(stored, {**stored, "a": 1}, "c") == "c.a"
    assert first_difference(stored, {**stored, "b": {"y": [1, 3], "x": 2}}, "c") == "c.b.x"
    assert first_difference(stored, {**stored, "b": {"y": [1, 3], "x": 1}}, "c") == "c.b.y"
    assert first_difference(stored, {"a": 0}, "c") == "c.b"
    # the decimal expected_count is rendered from expected_count_exact, which is named
    stored = {"expectation": {"expected_count": "0.5", "expected_count_exact": "1/2"}}
    altered = {"expectation": {"expected_count": "0.25", "expected_count_exact": "1/4"}}
    assert first_difference(stored, altered, "certificate") == (
        "certificate.expectation.expected_count_exact"
    )
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


def test_product_seed_override_rejected():
    f1 = generate_erdos_coloring(5, 2, 131, t=3)
    f2 = generate_erdos_coloring(5, 2, 138, t=3)
    prod = product_coloring(f1, f2)
    with pytest.raises(ValueError):
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
