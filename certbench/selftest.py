"""Consistency checks of the tracer, the speed probe and of BENCHMARK.json against run.py.

    python3 -m pytest -q certbench/selftest.py

Kept out of the repository's own test suite on purpose: it tests the
benchmark, which later changes to the library must not edit.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
from probe import EVERY_S, SpeedProbe, sample_seconds  # noqa: E402
from ramseycert import coloring, graphs, rng  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import blowup_spec  # noqa: E402

# t=4, m=1, N=9 runs in milliseconds; from seed 0 the retry loop meets a
# witness (seed 0) and then a verified coloring (seed 1)
SPEC = blowup_spec(4, 1, 9, 0)
COUNT_KEYS = [k for k, unit in run.PER_LAYER.items() if unit == "count"]


def census4():
    return graphs.count_independent_sets(graphs.build_g0(4), 4)


def traced_certificate(spec=SPEC, max_tries=4):
    census = census4()
    with Tracer() as tracer:
        cert, failures = coloring.produce_certificate(spec, max_tries=max_tries, census=census)
    return tracer, cert, failures


def test_traced_nodes_match_search_stats():
    for seed in range(8):
        tracer, cert, _ = traced_certificate(blowup_spec(4, 1, 9, seed), max_tries=1)
        layers = tracer.metrics()
        nodes = layers["graphs.clique.blowup.nodes"] + layers["graphs.clique.leftover.nodes"]
        assert nodes == cert.search_stats["nodes"], seed
        assert (layers["graphs.clique.found.nodes"] > 0) == (not cert.verified), seed


def test_retry_loop_layers():
    tracer, cert, failures = traced_certificate()
    layers = tracer.metrics()
    assert len(failures) == 1 and cert.verified
    assert layers["coloring.tries"] == 2
    assert layers["coloring.verified_per_try"] == 0.5
    assert layers["coloring.witness_check.s"] > 0
    assert not tracer.absent


def test_spans_nest_and_self_time_fits():
    tracer, _, _ = traced_certificate()
    spans = tracer.spans
    for s, own in zip(spans, tracer.self_times()):
        assert s["start"] <= s["end"]
        assert 0 <= own <= s["end"] - s["start"] + 1e-9
        if s["parent"] is not None:
            parent = spans[s["parent"]]
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"]


def test_counts_repeat_exactly():
    first = traced_certificate()[0].metrics()
    second = traced_certificate()[0].metrics()
    assert {k: first[k] for k in COUNT_KEYS} == {k: second[k] for k in COUNT_KEYS}
    assert first["coloring.color_of.calls"] > 0 and first["rng.draws"] > 0


def test_uninstall_restores_every_name():
    def names():
        return (graphs.build_g0, coloring.has_clique_of_order, coloring.EdgeColoring.color_of,
                rng.uniform_below)

    before = names()
    with Tracer():
        assert coloring.has_clique_of_order is graphs.has_clique_of_order
        assert coloring.has_clique_of_order is not before[1]
    assert names() == before


def test_missing_name_is_reported_absent():
    layers = {
        "graphs.gone": ["ramseycert.graphs:no_such_function"],
        "gone.module": ["ramseycert.nope:f"],
    }
    with Tracer(span_layers=layers, count_layers={}) as tracer:
        graphs.build_g0(4)
    assert tracer.absent == ["graphs.gone", "gone.module"]
    assert tracer.spans == []


def test_probe_samples_through_the_run_and_accounts_its_time():
    probe = SpeedProbe()
    probe.start()
    start = time.perf_counter()
    while time.perf_counter() - start < 3.5 * EVERY_S:
        pass
    probe.stop()
    elapsed = time.perf_counter() - start
    assert 2 <= len(probe.samples) <= 4
    assert 0 < probe.spent(1) < probe.spent(0) < elapsed
    assert probe.speed() > 0
    assert sample_seconds() > 0


def test_benchmark_json_matches_run_tables():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOAD_NAMES
