"""Certified multicolor Ramsey lower bounds from random blowups of a GF(2)
orthogonality graph: exact constructions, exhaustive verification, and
exact-arithmetic certification."""

from .bounds import (
    BoundTableRow,
    ExpectationReport,
    asymptotic_bound_table,
    certify_max_N,
    compare_rates,
    exact_independence_probability,
    expected_mono_count,
    paper_upper_bound_p_ind,
    surjection_count,
)
from .coloring import (
    Certificate,
    ColoringSpec,
    EdgeColoring,
    MonoWitness,
    generate_blowup_coloring,
    generate_erdos_coloring,
    produce_certificate,
    product_coloring,
    recheck_certificate,
    save_certificate,
    verify_coloring,
)
from .gf2 import gf2_rank
from .graphs import (
    BitGraph,
    IndependentSetCensus,
    build_g0,
    g0_census,
    g0_clique_number,
    has_clique_of_order,
)

__version__ = "0.1.0"
