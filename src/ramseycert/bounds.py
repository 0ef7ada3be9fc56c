"""Exact first-moment arithmetic for monochromatic-clique certification.

Everything a certificate depends on is computed in exact rational
arithmetic (fractions.Fraction over arbitrary-precision integers);
floating point appears only in display helpers. The chain is:

    p_ind        probability one uniform map of t labeled points into the
                 orthogonality graph's vertex set lands on an independent set,
                 computed exactly from the independent-set census;
    per-set      probability a fixed t-set is monochromatic:
                 2^(1-C(t,2)) * p_ind^m;
    expectation  union bound over all C(N,t) sets.

A vertex count N certifies the lower bound r(t; m+2) >= N+1 whenever the
expectation is below 1 and a seed search then exhibits a witness coloring.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Iterable, Optional, TextIO

from .graphs import IndependentSetCensus, Record, g0_census


def surjection_count(t: int, k: int) -> int:
    """Number of surjections from a t-element set onto a k-element set."""
    if not 0 <= k <= t:
        raise ValueError(f"need 0 <= k <= t, got k={k}, t={t}")
    return sum((-1) ** j * comb(k, j) * (k - j) ** t for j in range(k + 1))


def exact_independence_probability(census: IndependentSetCensus, t: int) -> Fraction:
    """Probability that a uniform map of t points into the censused graph's
    vertex set has an independent image.

    Grouped by exact image: an image of size k can be any of the counts[k]
    independent k-sets, reached by surjection_count(t, k) maps; the empty
    set never occurs as an image, so only k >= 1 contributes.
    """
    if census.t < t:
        raise ValueError(f"census cap {census.t} is below t={t}")
    if census.n < 1:
        raise ValueError("census must cover a nonempty graph")
    favorable = sum(census.counts[k] * surjection_count(t, k) for k in range(1, t + 1))
    return Fraction(favorable, census.n**t)


def paper_upper_bound_p_ind(t: int) -> Fraction:
    """Union-bound estimate of the independence probability for comparison.

    Bounds every per-image probability by (t / 2^(t-1))^t and multiplies by
    the nonempty total of the closed-form census g0_census(t), which
    refuses a t the construction does not cover; always at least the
    exact value.
    """
    return g0_census(t).total_nonempty * Fraction(t, 2 ** (t - 1)) ** t


def exact_decimal(value: Fraction) -> str:
    """Decimal string of a rational, exact whenever the expansion terminates.

    All certificate quantities have power-of-two denominators, so their
    expansion terminates and is exact; anything else is truncated to 40
    fractional digits.
    """
    sign = "-" if value < 0 else ""
    num, den = abs(value.numerator), value.denominator
    twos = fives = 0
    d = den
    while d % 2 == 0:
        d //= 2
        twos += 1
    while d % 5 == 0:
        d //= 5
        fives += 1
    digits = max(twos, fives) if d == 1 else 40
    scaled = num * 10**digits // den
    if digits == 0:
        return f"{sign}{scaled}"
    whole, frac = divmod(scaled, 10**digits)
    return f"{sign}{whole}.{str(frac).zfill(digits)}"


class ExpectationReport(Record):
    """Exact expectation arithmetic for one (t, m, N) configuration.

    p_ind is None when m = 0: no blowup maps exist, so the per-set
    probability is the bare same-color factor and no census is consulted.
    """

    t: int
    m: int
    N: int
    p_ind: Optional[Fraction]
    per_set_mono: Fraction
    expected_count: Fraction
    census_fingerprint: Optional[str]

    def display_fraction(self) -> str:
        """expected_count as C(N,t) * per_set_mono, over per_set_mono's denominator."""
        num = comb(self.N, self.t) * self.per_set_mono.numerator
        return f"{num}/{self.per_set_mono.denominator}"

    def to_json_dict(self) -> dict:
        return {
            "t": self.t,
            "m": self.m,
            "N": self.N,
            "p_ind_exact": None if self.p_ind is None else str(self.p_ind),
            "per_set_mono_exact": str(self.per_set_mono),
            "expected_count_exact": str(self.expected_count),
            # rendered, so after its source: a recheck names the source first
            "expected_count": exact_decimal(self.expected_count),
            "census_fingerprint": self.census_fingerprint,
        }


def expected_mono_count(
    t: int, m: int, N: int, census: Optional[IndependentSetCensus] = None
) -> ExpectationReport:
    """Exact expected number of monochromatic t-cliques in the blowup coloring.

    E = C(N,t) * 2^(1-C(t,2)) * p_ind^m. Only the last two colors can host
    a monochromatic set, each of the C(t,2) pairs independently takes one
    of them, and the m blowup maps must all send the set to independent
    images, independently of one another. With m = 0 no census is
    consulted, so p_ind and the fingerprint are None even when one is passed.
    """
    if N < t:
        raise ValueError(f"N={N} is below the clique target t={t}")
    if m < 0:
        raise ValueError(f"m must be non-negative, got {m}")
    if m > 0 and census is None:
        raise ValueError("a census of the orthogonality graph is required when m > 0")
    if m == 0:
        census = None
    p_ind = None if census is None else exact_independence_probability(census, t)
    same_color = Fraction(2) ** (1 - comb(t, 2))
    per_set = same_color * (p_ind**m if m > 0 else 1)
    return ExpectationReport(
        t=t,
        m=m,
        N=N,
        p_ind=p_ind,
        per_set_mono=per_set,
        expected_count=comb(N, t) * per_set,
        census_fingerprint=None if census is None else census.fingerprint(),
    )


def certify_max_N(
    t: int, m: int, census: Optional[IndependentSetCensus] = None
) -> tuple[Optional[int], ExpectationReport]:
    """Largest N with expected monochromatic-clique count below 1.

    E(n) = C(n, t) * per_set_mono is strictly increasing in n, so the
    threshold is found by doubling then bisection, on integers: E(n) < 1
    is comb(n, t) * num < den for per_set_mono = num/den. The report at
    the returned N reuses the N = t report's p_ind, per_set_mono and
    fingerprint. A verified coloring at the returned N proves
    r(t; m+2) >= N+1. Returns (None, report at N=t) if even N = t fails.
    """
    report = expected_mono_count(t, m, t, census)
    if report.expected_count >= 1:
        return None, report
    per_set = report.per_set_mono
    num, den = per_set.numerator, per_set.denominator
    lo, hi = t, 2 * t
    while comb(hi, t) * num < den:
        lo, hi = hi, 2 * hi
    # E(lo) < 1 <= E(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if comb(mid, t) * num < den:
            lo = mid
        else:
            hi = mid
    return lo, ExpectationReport(
        t, m, lo, report.p_ind, per_set, comb(lo, t) * per_set, report.census_fingerprint
    )


SOURCE_ERDOS = "erdos"
SOURCE_LEFMANN = "lefmann"
SOURCE_CONLON_FERBER = "conlon_ferber"
SOURCE_THIS_PAPER = "this_paper"

ALL_SOURCES = (SOURCE_ERDOS, SOURCE_LEFMANN, SOURCE_CONLON_FERBER, SOURCE_THIS_PAPER)


class BoundTableRow(Record):
    """One lower-bound growth rate: r(t; ell) >= 2^(rate * t), lower-order terms dropped.

    rate is the exact rational exponent when one exists. The product
    construction's rate log2(ell)/2 is irrational unless ell is a power
    of two, and the mixed-construction rate 7*ell/24 + C carries an
    unspecified constant; both keep rate=None and live in rate_expr.
    """

    ell: int
    source: str
    rate: Optional[Fraction]
    rate_expr: str
    base: Optional[float]  # 2**rate, three decimals; None when symbolic
    note: str = ""


def bound_table_row(ell: int, source: str) -> BoundTableRow:
    if ell < 2:
        raise ValueError(f"need at least two colors, got ell={ell}")
    if source == SOURCE_ERDOS:
        rate = Fraction(ell.bit_length() - 1, 2) if ell & (ell - 1) == 0 else None
        return BoundTableRow(
            ell, source, rate, f"log2({ell})/2", round(ell**0.5, 3)
        )
    if source == SOURCE_LEFMANN:
        rate = Fraction(ell, 4)
        return BoundTableRow(ell, source, rate, f"{ell}/4", round(2 ** (ell / 4), 3))
    if source == SOURCE_CONLON_FERBER:
        return BoundTableRow(
            ell,
            source,
            None,
            f"7*{ell}/24 + C",
            None,
            note="C depends only on ell mod 3; excluded from numeric comparison",
        )
    if source == SOURCE_THIS_PAPER:
        rate = Fraction(3 * ell - 2, 8)
        note = "coincides with erdos" if ell == 2 else ""
        return BoundTableRow(
            ell, source, rate, f"3*{ell}/8 - 1/4", round(2 ** float(rate), 3), note
        )
    raise ValueError(f"unknown source {source!r}")


def asymptotic_bound_table(ell_min: int, ell_max: int) -> list[BoundTableRow]:
    """Rows for every ell in [ell_min, ell_max] and every known source."""
    if not 2 <= ell_min <= ell_max:
        raise ValueError(f"need 2 <= ell_min <= ell_max, got {ell_min}..{ell_max}")
    return [
        bound_table_row(ell, source)
        for ell in range(ell_min, ell_max + 1)
        for source in ALL_SOURCES
    ]


def _exact_rate_key(row: BoundTableRow) -> Optional[tuple[int, int]]:
    """Represent a comparable rate as log2(arg)/div with integer arg, div."""
    if row.source == SOURCE_CONLON_FERBER:
        return None
    if row.source == SOURCE_ERDOS:
        return (row.ell, 2)
    assert row.rate is not None
    return (2**row.rate.numerator, row.rate.denominator)


def compare_rates(a: BoundTableRow, b: BoundTableRow) -> Optional[int]:
    """Exact three-way comparison of growth rates; None when either is symbolic.

    log2(x)/p vs log2(y)/q reduces to the integer comparison x^q vs y^p,
    which stays exact even for the irrational product-construction rates.
    """
    ka, kb = _exact_rate_key(a), _exact_rate_key(b)
    if ka is None or kb is None:
        return None
    lhs = ka[0] ** kb[1]
    rhs = kb[0] ** ka[1]
    return (lhs > rhs) - (lhs < rhs)


def write_bounds_csv(rows: Iterable[BoundTableRow], fh: TextIO) -> None:
    """CSV columns: ell, source, rate_num, rate_den, base_2pow, note.

    rate_num/rate_den are blank for the irrational and symbolic rates,
    whose closed forms appear in the note column instead.
    """
    import csv  # only bounds-table writes CSV; kept off every other command's start-up

    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["ell", "source", "rate_num", "rate_den", "base_2pow", "note"])
    for row in rows:
        num = row.rate.numerator if row.rate is not None else ""
        den = row.rate.denominator if row.rate is not None else ""
        base = f"{row.base:.3f}" if row.base is not None else ""
        note = row.note if row.rate is not None else f"rate = {row.rate_expr}; {row.note}".strip("; ")
        writer.writerow([row.ell, row.source, num, den, base, note])
