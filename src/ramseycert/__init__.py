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
    find_mono_clique,
    generate_blowup_coloring,
    generate_erdos_coloring,
    load_certificate,
    produce_certificate,
    product_coloring,
    recheck_certificate,
    save_certificate,
    verify_coloring,
)
from .gf2 import (
    BitVector,
    VectorSet,
    dot,
    enumerate_even_weight,
    gf2_rank,
    hamming_weight,
)
from .graphs import (
    BitGraph,
    IndependentSetCensus,
    build_g0,
    count_independent_sets,
    g0_census,
    has_clique_of_order,
    is_independent,
    max_clique,
    maximal_cliques,
)

__version__ = "0.1.0"
