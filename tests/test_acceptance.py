"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; every
expected value here is either derived from an independent oracle computed
in place or asserted as exact rational arithmetic.
"""

import itertools
import json
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

import ramseycert as rc
from ramseycert.cli import main
from ramseycert.coloring import (
    ColoringSpec,
    certificate_core,
    color_class_graphs,
    generate_blowup_coloring,
    generate_erdos_coloring,
    produce_certificate,
    product_coloring,
)
from ramseycert.graphs import max_clique

from graph_support import adjacent, find_mono_clique


@contextmanager
def criterion(num, name, budget_sec):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_sec, f"criterion {num} took {elapsed:.1f}s, budget {budget_sec}s"
    print(f"\nACCEPTANCE {num} ({name}): PASS [{elapsed:.1f}s]")


def test_criterion_1_clique_ceiling_at_desk_scale():
    with criterion(1, "clique ceiling t in {2,4,6,8,10}", 60):
        for t in (2, 4, 6, 8, 10):
            size, witness = max_clique(rc.build_g0(t))
            assert size <= t - 1, f"t={t}: clique of size {size}"
            assert len(witness) == size
            # the search is the oracle of Lemma 1's rank proof
            assert size == rc.g0_clique_number(t)
        assert size == 9
        # brute-force oracle over all 2^8 subsets pins the t=4 value to 3
        g4 = rc.build_g0(4)
        best = 0
        for mask in range(1 << g4.n):
            verts = [v for v in range(g4.n) if (mask >> v) & 1]
            if all(adjacent(g4, a, b) for a, b in itertools.combinations(verts, 2)):
                best = max(best, len(verts))
        assert best == 3
        assert max_clique(g4)[0] == 3


def test_criterion_2_even_cliques_have_full_rank():
    with criterion(2, "even cliques linearly independent", 60):
        for t, total in ((4, 29), (6, 1585)):
            g = rc.build_g0(t)
            codes = [c for c in range(1 << t) if c.bit_count() % 2 == 0]
            # every clique, the empty one included, by ascending extension:
            # a clique is its least vertex v plus a clique among the
            # candidates above v that are adjacent to v
            cliques = even = 0
            stack = [([], (1 << g.n) - 1)]
            while stack:
                clique, cand = stack.pop()
                cliques += 1
                if len(clique) % 2 == 0:
                    even += 1
                    assert rc.gf2_rank(codes[v] for v in clique) == len(clique)
                while cand:
                    low = cand & -cand
                    cand ^= low
                    v = low.bit_length() - 1
                    stack.append((clique + [v], cand & g.adj[v]))
            assert cliques == total
            print(f"t={t}: {cliques} cliques, {even} of even order, all of full rank")


def test_criterion_3_census(census_4, census_6):
    with criterion(3, "independent-set census", 600):
        g4 = rc.build_g0(4)
        oracle = [0] * 5
        for mask in range(1, 1 << g4.n):
            verts = [v for v in range(g4.n) if (mask >> v) & 1]
            if len(verts) <= 4 and all(
                not adjacent(g4, a, b) for a, b in itertools.combinations(verts, 2)
            ):
                oracle[len(verts)] += 1
        assert tuple(oracle[1:]) == (8, 16, 12, 3)
        assert census_4.counts[1:] == (8, 16, 12, 3)
        assert census_4.total_nonempty == sum(oracle) == 39
        for census, t in ((census_4, 4), (census_6, 6)):
            assert math.log2(census.total_nonempty) <= 5 * t * t / 8 + 2 * t


def test_criterion_4_probability_chain(g0_4, census_4, census_6):
    with criterion(4, "exact probability chain", 120):
        p = rc.exact_independence_probability(census_4, 4)
        assert p == Fraction(23, 128)

        # exhaustive oracle over all 8^4 maps
        good = sum(
            1
            for tup in itertools.product(range(8), repeat=4)
            if all(
                not adjacent(g0_4, a, b)
                for a, b in itertools.combinations(set(tup), 2)
            )
        )
        assert Fraction(good, 8**4) == p

        # Monte Carlo, 10^6 samples, within 3 sigma
        adj = [[adjacent(g0_4, a, b) for b in range(8)] for a in range(8)]
        rng = random.Random(424242)
        hits = 0
        for _ in range(1_000_000):
            r = rng.getrandbits(12)
            a, b, c, d = r & 7, (r >> 3) & 7, (r >> 6) & 7, (r >> 9) & 7
            ra, rb, rcw = adj[a], adj[b], adj[c]
            if not (ra[b] or ra[c] or ra[d] or rb[c] or rb[d] or rcw[d]):
                hits += 1
        pf = float(p)
        assert abs(hits / 1e6 - pf) <= 3 * math.sqrt(pf * (1 - pf) / 1e6)

        for t, census in ((4, census_4), (6, census_6)):
            assert rc.paper_upper_bound_p_ind(t) >= rc.exact_independence_probability(census, t)


def test_criterion_5_certification_pipeline(census_4):
    with criterion(5, "certification pipeline", 60):
        best, report = rc.certify_max_N(4, 1, census_4)
        assert best == 9
        assert report.expected_count == Fraction(2898, 4096)
        assert report.expected_count < 1
        success_floor = 1 - report.expected_count
        assert success_floor > Fraction(29, 100)  # ~0.29 per-seed success

        spec = ColoringSpec(kind="blowup", t=4, m=1, ell=3, N=9, seed=1)
        cert, failures = produce_certificate(spec, max_tries=16, census=census_4)
        assert cert.verified
        assert cert.search_stats["tries"] <= 8  # expected about 1/0.29 ~ 4
        assert find_mono_clique(rc.generate_blowup_coloring(4, 1, 9, cert.seed), 4) is None

        best0, report0 = rc.certify_max_N(4, 0)
        assert best0 == 6
        assert report0.expected_count == Fraction(15, 32)


def test_criterion_6_blowup_classes_never_host_cliques():
    with criterion(6, "blowup color classes are clique-free", 300):
        for seed in range(20):
            coloring = generate_blowup_coloring(4, 2, 200, seed)
            graphs = color_class_graphs(coloring, colors=[1, 2])
            for c in (1, 2):
                assert not rc.has_clique_of_order(graphs[c], 4).found, (seed, c)


def test_criterion_7_bound_table():
    with criterion(7, "growth-rate table", 60):
        rows = {(r.ell, r.source): r for r in rc.asymptotic_bound_table(2, 12)}
        tp4 = rows[(4, "this_paper")]
        assert tp4.rate == Fraction(5, 4)
        assert tp4.base == 2.378
        assert rows[(3, "this_paper")].rate == Fraction(7, 8)
        assert rows[(2, "this_paper")].rate == Fraction(1, 2)
        for ell in range(3, 13):
            assert rc.compare_rates(rows[(ell, "this_paper")], rows[(ell, "lefmann")]) == 1
        for ell in range(4, 13):
            for source in ("erdos", "lefmann"):
                assert rc.compare_rates(rows[(ell, "this_paper")], rows[(ell, source)]) >= 0


def test_criterion_8_deterministic_certificates(tmp_path, monkeypatch, capsys):
    with criterion(8, "byte-identical certificates", 120):
        monkeypatch.chdir(tmp_path)
        spec_path = tmp_path / "spec.json"
        assert main(
            [
                "generate", "--t", "4", "--m", "1", "--N", "9",
                "--seed", "1", "--spec-out", str(spec_path),
            ]
        ) == 0
        cores = []
        for name in ("a", "b", "c", "d"):
            cert_path = tmp_path / f"cert_{name}.json"
            assert main(
                [
                    "verify", "--spec-file", str(spec_path),
                    "--certificate-out", str(cert_path),
                ]
            ) == 0
            payload = json.loads(cert_path.read_text())
            assert payload["verified"] is True
            # timing lives in the separate search_stats block, excluded here
            cores.append(
                json.dumps(certificate_core(payload), sort_keys=True, indent=2).encode()
            )
        capsys.readouterr()
        assert all(core == cores[0] for core in cores[1:])


def test_criterion_9_product_coloring_safety():
    with criterion(9, "product coloring safety", 60):
        # search random 2-colorings of K_5 for triangle-free ones (exhaustively
        # verified); 5 vertices suffice and sit inside the <= 8 requirement
        factors = []
        seed = 100
        while len(factors) < 2 and seed < 1000:
            coloring = generate_erdos_coloring(5, 2, seed, t=3)
            if find_mono_clique(coloring, 3) is None:
                factors.append(coloring)
            seed += 1
        assert len(factors) == 2, "no triangle-free 2-colorings found in seed range"
        prod = product_coloring(factors[0], factors[1])
        assert prod.N == 25 <= 64
        assert prod.ell == 4
        assert find_mono_clique(prod, 3) is None
