"""Certification benchmark for ramseycert.

    python3 certbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 certbench/run.py --workload all --seconds S      # every workload, one table

Run from the repository root. Each repetition is a fresh interpreter
(worker.py) that imports ramseycert from src/, prepares its inputs, runs
the workload's timed operations once on one thread and checks every
output. After each untraced repetition, set-up-only interpreters (one
per second of its wall time, at least two) sample set-up time again.
Repetitions run one after another until the next one would end past
--seconds; the run reports medians over them.

--trace 0 prints the end-to-end metrics: wall_s (timed operations),
setup_s (interpreter start, imports, input preparation) and peak_rss_mb.
Both times are given at a nominal machine speed: a probe in the worker
(probe.py) samples how fast the core runs a fixed loop all through the
repetition, and each repetition's times, with the probe's own time taken
out, are multiplied by its speed factor. On a shared host the core's
speed drifts over seconds to minutes and the workloads slow with it;
the factor cancels that drift, while a change to ramseycert moves only
the repetition's time. The unscaled medians are printed too.
--trace 1 alternates untraced and traced repetitions and prints the
per-layer metrics of the traced ones, plus trace.overhead_frac; span
files go to certbench/out/. failed_frac is the `failed` / `attempted`
pair of the result line: one operation per checked output.

The workloads' spec seeds are fixed, so every --seed runs the same
inputs and times stay comparable between runs (at one (t, m, N), search
cost differs two- to threefold between spec seeds). --held-out shifts every spec seed by --seed
instead; outputs are then checked for exhaustive searches and
monochromatic witnesses, since golden values exist only for the fixed
seeds. The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import compileall
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PACKAGE = ROOT / "src" / "ramseycert"

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
UNSCALED = {"wall_s": "wall_raw_s", "setup_s": "setup_raw_s"}  # worker report keys
PER_LAYER = {
    "graphs.build_g0.s": "s",
    "graphs.lemma1.s": "s",
    "graphs.census.s": "s",
    "graphs.census.sets": "count",
    "graphs.clique.blowup.s": "s",
    "graphs.clique.blowup.nodes": "count",
    "graphs.clique.leftover.s": "s",
    "graphs.clique.leftover.nodes": "count",
    "graphs.clique.found.nodes": "count",
    "graphs.clique.max_class.s": "s",
    "coloring.generate.s": "s",
    "coloring.classes.s": "s",
    "coloring.class_edges": "count",
    "coloring.color_of.calls": "count",
    "rng.draws": "count",
    "coloring.witness_check.s": "s",
    "coloring.tries": "count",
    "coloring.verified_per_try": "ratio",
    "coloring.verify.self_s": "s",
    "bounds.s": "s",
    "trace.overhead_frac": "ratio",
}
WORKLOAD_NAMES = ("certify-t8", "verify-product", "seeds-t6m4")

HARD_STOP_S = 150  # the whole run must end within 180 s
SETUP_EVERY_S = 1.0  # one set-up-only worker per second of the repetition before


def spawn(workload: str, offset: int, trace_path, timeout: float, mode: str = "full") -> dict:
    """One worker repetition; its report, or an {"error": ...} stand-in."""
    cmd = [sys.executable, "-I", str(BENCH / "worker.py"), workload, str(offset)]
    spawned_at = time.monotonic()
    cmd += [repr(spawned_at), mode]
    if trace_path is not None:
        cmd.append(str(trace_path))
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"error": f"repetition exceeded {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool, held_out: bool) -> dict:
    offset = seed if held_out else 0
    start = time.monotonic()
    plain, traced, setups = [], [], []
    attempted = failed = 0
    longest = 0.0
    while True:
        tracing = trace and len(plain) > len(traced)
        trace_path = None
        if tracing:
            (BENCH / "out").mkdir(exist_ok=True)
            trace_path = BENCH / "out" / f"{workload}-seed{seed}-rep{len(traced)}.json"
        began = time.monotonic()
        rep = spawn(workload, offset, trace_path, HARD_STOP_S - (began - start))
        if rep.get("wall_raw_s") is None:
            print(f"{workload}: {rep['error']}", file=sys.stderr)
            attempted += 1
            failed += 1
            break
        if rep["error"]:
            print(f"{workload}: timed operations raised:\n{rep['error']}", file=sys.stderr)
        if rep["mismatches"]:
            print(f"{workload}: outputs failing their check: {rep['mismatches']}", file=sys.stderr)
        attempted += rep["attempted"]
        failed += rep["failed"]
        (traced if tracing else plain).append(rep)
        more = []
        for _ in range(0 if tracing else max(2, round(rep["wall_raw_s"] / SETUP_EVERY_S))):
            left = HARD_STOP_S - (time.monotonic() - start)
            more.append(spawn(workload, offset, None, max(left, 1), mode="setup"))
        broken = [r["error"] for r in more if r.get("setup_raw_s") is None]
        if broken:
            print(f"{workload}: set-up only: {broken[0]}", file=sys.stderr)
            attempted += 1
            failed += 1
            break
        if not tracing:
            setups += [rep] + more
        longest = max(longest, time.monotonic() - began)
        ends_at = time.monotonic() - start + longest
        if (len(traced) or not trace) and ends_at > seconds or ends_at > HARD_STOP_S:
            break
    return {
        "plain": plain,
        "traced": traced,
        "setups": setups,
        "attempted": attempted,
        "failed": failed,
    }


def scaled(rep: dict, key: str) -> float:
    """A repetition's end-to-end metric; times at the nominal machine speed."""
    if key in UNSCALED:
        return rep[UNSCALED[key]] * rep["speed"]
    return rep[key]


def summarize(reps: dict, trace: bool) -> tuple[dict, bool]:
    """(metrics, consistent): medians over repetitions, and whether counts repeated."""
    plain, traced = reps["plain"], reps["traced"]
    if not trace:
        values = {k: statistics.median(scaled(r, k) for r in plain) for k in END_TO_END}
        values["setup_s"] = statistics.median(scaled(r, "setup_s") for r in reps["setups"])
        return values, True
    values = {}
    consistent = True
    for key, unit in PER_LAYER.items():
        if key == "trace.overhead_frac":
            continue
        seen = [r["layers"][key] for r in traced]
        if unit != "count":
            values[key] = statistics.median(seen)
            continue
        if len(set(seen)) > 1:
            print(f"{key} differs between traced repetitions: {seen}", file=sys.stderr)
            consistent = False
        values[key] = seen[0]
    untraced_wall = statistics.median(r["wall_raw_s"] for r in plain)
    traced_wall = statistics.median(r["wall_raw_s"] for r in traced)
    values["trace.overhead_frac"] = traced_wall / untraced_wall - 1
    absent = sorted({layer for r in traced for layer in r["absent"]})
    if absent:
        print(f"absent layers (reported as 0): {absent}")
    return values, consistent


def result_line(workload: str, seed: int, seconds: float, trace: bool, held_out: bool) -> dict:
    reps = run_workload(workload, seed, seconds, trace, held_out)
    if not reps["plain"] or (trace and not reps["traced"]):
        raise SystemExit(f"{workload}: no repetition completed")
    values, consistent = summarize(reps, trace)
    units = PER_LAYER if trace else END_TO_END
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    counts = {k: len(reps[k]) for k in ("plain", "traced", "setups")}
    print(f"{workload}: repetitions {counts}")
    for kind, group in (("untraced", reps["plain"]), ("traced", reps["traced"])):
        if group:
            walls = ", ".join(f"{r['wall_raw_s']:.4f}" for r in group)
            print(f"  {kind} unscaled wall_s per repetition: {walls}")
    if not trace:
        speeds = ", ".join(f"{r['speed']:.4f}" for r in reps["plain"])
        print(f"  speed factor per repetition: {speeds}")
        for key, raw_key in UNSCALED.items():
            group = reps["setups"] if key == "setup_s" else reps["plain"]
            raw = statistics.median(r[raw_key] for r in group)
            print(f"  {key} unscaled median = {raw:.6g} s")
    for key, m in metrics.items():
        print(f"  {key} = {m['value']:.6g} {m['unit']}")
    print(f"  failed_frac = {reps['failed']}/{reps['attempted']} checked operations")
    return {
        "correct": reps["failed"] == 0 and consistent,
        "attempted": reps["attempted"],
        "failed": reps["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--held-out", action="store_true", help="shift every spec seed by --seed")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (PACKAGE / "__init__.py").is_file():
        print(f"no ramseycert sources at {PACKAGE}; run from a checkout", file=sys.stderr)
        return 2
    compileall.compile_dir(str(PACKAGE), quiet=1)
    compileall.compile_dir(str(BENCH), quiet=1, maxlevels=0)
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {
        name: result_line(name, args.seed, args.seconds, bool(args.trace), args.held_out)
        for name in names
    }
    print(json.dumps(results[args.workload] if args.workload != "all" else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
