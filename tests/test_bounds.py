import itertools
import math
import random
from fractions import Fraction

import pytest

from ramseycert.bounds import (
    SOURCE_CONLON_FERBER,
    SOURCE_ERDOS,
    SOURCE_LEFMANN,
    SOURCE_THIS_PAPER,
    asymptotic_bound_table,
    bound_table_row,
    certify_max_N,
    compare_rates,
    exact_decimal,
    exact_independence_probability,
    expected_mono_count,
    paper_upper_bound_p_ind,
    surjection_count,
    write_bounds_csv,
)
from ramseycert.coloring import _expectation_from_json
from ramseycert.graphs import BitGraph, build_g0, count_independent_sets, g0_census

from graph_support import adjacent, complete_graph


def test_surjection_count_examples():
    for t in range(1, 7):
        assert surjection_count(t, 1) == 1
    assert surjection_count(4, 4) == 24
    assert surjection_count(4, 0) == 0
    assert surjection_count(0, 0) == 1


def test_surjection_count_matches_enumeration_oracle():
    for t, k in [(4, 2), (4, 3), (5, 2), (5, 3), (6, 4)]:
        onto = sum(
            1
            for f in itertools.product(range(k), repeat=t)
            if set(f) == set(range(k))
        )
        assert surjection_count(t, k) == onto
    assert surjection_count(4, 2) == 14


def test_surjection_count_range():
    with pytest.raises(ValueError):
        surjection_count(3, 4)
    with pytest.raises(ValueError):
        surjection_count(3, -1)


def test_p_ind_t4_exact(census_4):
    assert exact_independence_probability(census_4, 4) == Fraction(23, 128)


def test_p_ind_t4_matches_exhaustive_tuple_oracle(g0_4, census_4):
    good = 0
    for tup in itertools.product(range(g0_4.n), repeat=4):
        if all(
            not adjacent(g0_4, a, b)
            for a, b in itertools.combinations(set(tup), 2)
        ):
            good += 1
    assert Fraction(good, g0_4.n**4) == exact_independence_probability(census_4, 4)


def test_p_ind_t2_is_one():
    census = count_independent_sets(build_g0(2), 2)
    assert exact_independence_probability(census, 2) == 1


def test_p_ind_complete_graph():
    # every image must collapse to a single vertex: n * 1 / n^t
    census = count_independent_sets(complete_graph(5), 3)
    assert exact_independence_probability(census, 3) == Fraction(5, 5**3)


def test_p_ind_requires_census_cap(census_4):
    with pytest.raises(ValueError):
        exact_independence_probability(census_4, 6)
    # a census of the empty graph has the cap but no vertex to map into
    with pytest.raises(ValueError, match="nonempty graph"):
        exact_independence_probability(count_independent_sets(BitGraph([]), 2), 2)


def test_p_ind_t6_monte_carlo(g0_6, census_6):
    exact = exact_independence_probability(census_6, 6)
    rng = random.Random(31337)
    n = 200_000
    hits = 0
    for _ in range(n):
        r = rng.getrandbits(30)
        vs = [(r >> (5 * i)) & 31 for i in range(6)]
        if all(
            not adjacent(g0_6, a, b) for a, b in itertools.combinations(set(vs), 2)
        ):
            hits += 1
    p = float(exact)
    sigma = math.sqrt(p * (1 - p) / n)
    assert abs(hits / n - p) <= 3 * sigma


def test_paper_upper_bound_examples(census_4, census_6):
    assert paper_upper_bound_p_ind(4) == Fraction(39, 16)
    for t, census in ((4, census_4), (6, census_6)):
        bound = paper_upper_bound_p_ind(t)
        assert bound >= exact_independence_probability(census, t)
        assert math.log2(bound) <= -3 * t * t / 8 + 2 * t
    with pytest.raises(ValueError, match="construction requires even t"):
        paper_upper_bound_p_ind(5)


def test_expected_mono_count_examples(census_4):
    report = expected_mono_count(4, 1, 9, census_4)
    assert report.expected_count == Fraction(2898, 4096)
    assert report.per_set_mono == Fraction(23, 4096)
    assert report.display_fraction() == "2898/4096"

    erdos = expected_mono_count(4, 0, 6)
    assert erdos.expected_count == Fraction(15, 32)
    assert erdos.p_ind is None

    too_big = expected_mono_count(4, 1, 10, census_4)
    assert too_big.expected_count > 1


def test_expected_mono_count_ignores_a_census_when_m_is_0(census_4):
    # with no blowup maps p_ind is None, census or not, so an m = 0
    # certificate core does not depend on what the caller passed
    with_census = expected_mono_count(4, 0, 9, census_4)
    assert with_census == expected_mono_count(4, 0, 9)
    assert with_census.p_ind is None and with_census.census_fingerprint is None


def test_expected_mono_count_monte_carlo_over_colorings(census_4):
    from ramseycert.coloring import generate_blowup_coloring

    exact = float(expected_mono_count(4, 1, 9, census_4).expected_count)
    subsets = list(itertools.combinations(range(9), 4))
    counts = []
    for seed in range(400):
        coloring = generate_blowup_coloring(4, 1, 9, seed)
        pair_color = {
            (x, y): coloring.color_of(x, y)
            for x, y in itertools.combinations(range(9), 2)
        }
        counts.append(
            sum(
                1
                for s in subsets
                if len({pair_color[p] for p in itertools.combinations(s, 2)}) == 1
            )
        )
    mean = sum(counts) / len(counts)
    variance = sum((c - mean) ** 2 for c in counts) / (len(counts) - 1)
    sem = math.sqrt(variance / len(counts))
    assert abs(mean - exact) <= 3 * sem


def test_expected_mono_count_validations(census_4):
    with pytest.raises(ValueError):
        expected_mono_count(4, 1, 3, census_4)  # N below t
    with pytest.raises(ValueError):
        expected_mono_count(4, 1, 9)  # census required when m > 0


def test_certify_max_n(census_4):
    best, report = certify_max_N(4, 1, census_4)
    assert best == 9
    assert report.expected_count == Fraction(2898, 4096)
    assert expected_mono_count(4, 1, 10, census_4).expected_count >= 1

    best0, report0 = certify_max_N(4, 0)
    assert best0 == 6
    assert report0.expected_count == Fraction(15, 32)
    assert expected_mono_count(4, 0, 7).expected_count == Fraction(35, 32)


@pytest.mark.parametrize("t", range(4, 31, 2))
def test_certify_max_n_is_the_threshold_and_reports_it(t):
    census = g0_census(t)
    for m in range(7):
        best, report = certify_max_N(t, m, census)
        assert report == expected_mono_count(t, m, best, census)
        assert report.expected_count < 1 <= expected_mono_count(t, m, best + 1, census).expected_count


def test_certify_max_n_at_t30_m6():
    assert certify_max_N(30, 6, g0_census(30))[0] == 2114051280183694639621115


def test_certify_monotone_in_m(census_4):
    certified = [certify_max_N(4, m, census_4)[0] for m in range(4)]
    assert certified[0] == 6 and certified[1] == 9
    assert all(a <= b for a, b in zip(certified, certified[1:]))


def test_certify_none_result():
    # t=2: any pair is a monochromatic K_2, so the expectation at N=t is
    # already 1 and nothing is certifiable
    census = count_independent_sets(build_g0(2), 2)
    best, report = certify_max_N(2, 1, census)
    assert best is None
    assert report.expected_count >= 1


def test_expectation_strictly_monotone(census_4):
    values = [
        expected_mono_count(4, m, n, census_4).expected_count
        for m, n in [(1, 9), (1, 10), (1, 11)]
    ]
    assert values[0] < values[1] < values[2]
    fixed_n = [
        expected_mono_count(4, m, 9, census_4).expected_count for m in range(3)
    ]
    assert fixed_n[0] > fixed_n[1] > fixed_n[2]


def test_report_json_roundtrip(census_4):
    report = expected_mono_count(4, 2, 20, census_4)
    d = report.to_json_dict()
    assert d["p_ind_exact"] == "23/128"
    # a certificate's expectation block also carries certified_bound
    assert _expectation_from_json({**d, "certified_bound": None}, "e") == report


def test_exact_decimal():
    assert exact_decimal(Fraction(2898, 4096)) == "0.70751953125"
    assert exact_decimal(Fraction(15, 32)) == "0.46875"
    assert exact_decimal(Fraction(7, 1)) == "7"
    assert exact_decimal(Fraction(-3, 8)) == "-0.375"
    assert exact_decimal(Fraction(1, 10)) == "0.1"
    # non-terminating expansions are cut at 40 fractional digits
    assert exact_decimal(Fraction(1, 3)) == "0." + "3" * 40
    assert exact_decimal(Fraction(-2, 3)) == "-0." + "6" * 40


def test_bound_table_rates():
    rows = {(r.ell, r.source): r for r in asymptotic_bound_table(2, 6)}
    assert rows[(4, SOURCE_THIS_PAPER)].rate == Fraction(5, 4)
    assert rows[(4, SOURCE_THIS_PAPER)].base == 2.378
    assert rows[(3, SOURCE_THIS_PAPER)].rate == Fraction(7, 8)
    assert rows[(2, SOURCE_THIS_PAPER)].rate == Fraction(1, 2)
    assert rows[(2, SOURCE_THIS_PAPER)].note == "coincides with erdos"
    assert rows[(4, SOURCE_LEFMANN)].rate == Fraction(1)
    assert rows[(4, SOURCE_ERDOS)].rate == Fraction(1)  # log2(4)/2
    assert rows[(3, SOURCE_ERDOS)].rate is None
    assert rows[(3, SOURCE_ERDOS)].rate_expr == "log2(3)/2"
    assert rows[(5, SOURCE_CONLON_FERBER)].rate is None


def test_bound_table_validation():
    with pytest.raises(ValueError):
        asymptotic_bound_table(1, 4)
    with pytest.raises(ValueError):
        asymptotic_bound_table(5, 4)
    with pytest.raises(ValueError):
        bound_table_row(4, "unknown")
    # asymptotic_bound_table checks its range first; only a direct call gets here
    with pytest.raises(ValueError, match="at least two colors, got ell=1"):
        bound_table_row(1, SOURCE_ERDOS)


def test_rate_comparisons_exact():
    tp = {ell: bound_table_row(ell, SOURCE_THIS_PAPER) for ell in range(2, 13)}
    lef = {ell: bound_table_row(ell, SOURCE_LEFMANN) for ell in range(2, 13)}
    erd = {ell: bound_table_row(ell, SOURCE_ERDOS) for ell in range(2, 13)}
    cf = {ell: bound_table_row(ell, SOURCE_CONLON_FERBER) for ell in range(2, 13)}

    assert compare_rates(tp[2], lef[2]) == 0  # both 1/2 at two colors
    for ell in range(3, 13):
        assert compare_rates(tp[ell], lef[ell]) == 1
        assert compare_rates(tp[ell], erd[ell]) == 1
    assert compare_rates(tp[2], erd[2]) == 0
    assert compare_rates(tp[2], cf[2]) is None
    # the 3-color rate matches the known mixed-construction value 7/8
    assert tp[3].rate == Fraction(7, 8)


def test_bounds_csv_shape(tmp_path):
    import csv as csv_mod

    path = tmp_path / "bounds.csv"
    with open(path, "w") as fh:
        write_bounds_csv(asymptotic_bound_table(2, 4), fh)
    with open(path) as fh:
        rows = list(csv_mod.reader(fh))
    assert rows[0] == ["ell", "source", "rate_num", "rate_den", "base_2pow", "note"]
    assert len(rows) == 1 + 3 * 4
    by_key = {(r[0], r[1]): r for r in rows[1:]}
    assert by_key[("4", "this_paper")][2:5] == ["5", "4", "2.378"]
    assert by_key[("3", "erdos")][2] == ""  # irrational rate: closed form in note
    assert "log2(3)/2" in by_key[("3", "erdos")][5]
