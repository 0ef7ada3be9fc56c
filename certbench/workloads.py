"""The benchmark workloads: fixed inputs, the timed operations, and their checks.

Every workload drives the library API directly, never the CLI, so no
disk cache can make a time depend on what an earlier run left behind.
Each exposes

    setup(offset)  -> inputs   untimed input preparation (the census for
                               the verify workloads, as a warm CLI cache
                               would hand it over)
    run(inputs)    -> result   the timed operations
    outputs(result)            {operation: canonical output}, compared
                               with golden.json
    broken(inputs, result)     operations whose output fails a check that
                               needs no golden value

`offset` shifts every spec seed; golden values exist for offset 0 only.
The library is reached through module attributes at call time, so a
Tracer installed after import sees every call.
"""

from __future__ import annotations

import hashlib

from ramseycert import bounds, coloring, graphs
from ramseycert.rng import MASK64


def core_sha256(cert) -> str:
    """sha256 of the canonical certificate core (everything but search_stats)."""
    core = coloring.certificate_core(cert.to_json_dict())
    return hashlib.sha256(coloring.canonical_json_bytes(core)).hexdigest()


def blowup_spec(t: int, m: int, N: int, seed: int):
    return coloring.ColoringSpec(
        kind=coloring.KIND_BLOWUP, t=t, m=m, ell=m + 2, N=N, seed=seed & MASK64
    )


def g0_census(t: int):
    return graphs.count_independent_sets(graphs.build_g0(t), t)


class CertifyT8:
    """Lemma 1, the DFS census and certify_max_N at t=8: no coloring code runs."""

    name = "certify-t8"
    t = 8
    ms = (1, 2, 3)

    def setup(self, offset: int):
        return None  # nothing random: the offset has nothing to shift

    def run(self, inputs):
        g0 = graphs.build_g0(self.t)
        omega, _ = graphs.max_clique(g0)
        census = graphs.count_independent_sets(g0, self.t)
        reports = [bounds.certify_max_N(self.t, m, census) for m in self.ms]
        return omega, census, reports

    def outputs(self, result) -> dict:
        omega, census, reports = result
        out = {"lemma1.omega": omega, "census.counts": list(census.counts)}
        for m, (n, _) in zip(self.ms, reports):
            out[f"certify.m{m}.N"] = n
        return out

    def broken(self, inputs, result) -> set:
        omega, _, reports = result
        bad = set()
        if omega > self.t - 1:
            bad.add("lemma1.omega")
        for m, (n, report) in zip(self.ms, reports):
            if n is None or report.expected_count >= 1:
                bad.add(f"certify.m{m}.N")
        return bad


class Verify:
    """One produce_certificate call, checked through its certificate core."""

    def __init__(self, name: str, make_spec, census_t, max_tries: int = 1):
        self.name = name
        self.make_spec = make_spec
        self.census_t = census_t
        self.max_tries = max_tries

    def setup(self, offset: int):
        census = None if self.census_t is None else g0_census(self.census_t)
        return self.make_spec(offset), census

    def run(self, inputs):
        spec, census = inputs
        return coloring.produce_certificate(spec, max_tries=self.max_tries, census=census)

    def outputs(self, result) -> dict:
        cert, failures = result
        out = {
            f"witness.{k}": [seed, w.color, list(w.vertices)]
            for k, (seed, w) in enumerate(failures)
        }
        out["certificate"] = core_sha256(cert)
        return out

    def broken(self, inputs, result) -> set:
        """Every search exhaustive; every witness monochromatic in its coloring."""
        spec, _ = inputs
        cert, failures = result
        bad = set()
        witness = cert.witness
        if not cert.exhaustive or (witness is not None and not _holds(spec, cert.seed, witness)):
            bad.add("certificate")
        for k, (seed, w) in enumerate(failures):
            if not _holds(spec, seed, w):
                bad.add(f"witness.{k}")
        return bad


def _holds(spec, seed: int, witness) -> bool:
    return witness.holds_in(coloring.regenerate(spec, seed=seed))


def product_spec(offset: int):
    factors = tuple(blowup_spec(6, 1, 41, seed + offset) for seed in (2, 3))
    return coloring.ColoringSpec(
        kind=coloring.KIND_PRODUCT, t=6, m=0, ell=6, N=41 * 41, seed=0, factors=factors
    )


WORKLOADS = {
    w.name: w
    for w in (
        CertifyT8(),
        Verify("verify-product", product_spec, census_t=None),
        Verify("seeds-t6m4", lambda off: blowup_spec(6, 4, 651, 2 + off), census_t=6, max_tries=8),
    )
}
