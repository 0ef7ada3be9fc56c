"""One repetition of one workload in a fresh interpreter; started by run.py.

    python3 -I certbench/worker.py WORKLOAD OFFSET SPAWNED_AT full|setup [TRACE_PATH]

SPAWNED_AT is the parent's time.monotonic() just before it started this
process, so set-up time covers interpreter start, imports and input
preparation. Without TRACE_PATH a SpeedProbe samples the machine's
speed through set-up and the timed operations; both times are reported
with the probe's own time taken out (`*_raw_s`) and the rep's `speed`
factor. With TRACE_PATH no probe runs, and the set-up and the timed
operations run under a Tracer, whose spans are written there. Prints
one JSON line. In `setup` mode the worker stops after set-up and reports
only its time and speed factor, so a run can sample set-up time more
often than it runs the workload.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from probe import SpeedProbe, sample_seconds  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402  (imports ramseycert)


# set-up is mostly interpreter start, before the probe starts: sample
# the speed a few times right after it instead
SETUP_MODE_SAMPLES = 5


def main(argv: list[str]) -> int:
    name, offset, spawned_at, mode = argv[0], int(argv[1]), float(argv[2]), argv[3]
    trace_path = argv[4] if len(argv) > 4 else None
    workload = WORKLOADS[name]
    tracer = Tracer() if trace_path else None
    probe = None if tracer else SpeedProbe()
    if tracer is not None:
        tracer.install()
    else:
        probe.start()
    inputs = workload.setup(offset)
    setup_s = time.monotonic() - spawned_at
    setup_samples = len(probe.samples) if probe else 0
    if mode == "setup":
        probe.stop()
        setup_s -= probe.spent()
        probe.samples += [sample_seconds() for _ in range(SETUP_MODE_SAMPLES)]
        print(json.dumps({"setup_raw_s": setup_s, "speed": probe.speed()}))
        return 0
    error = None
    start = time.perf_counter()
    try:
        result = workload.run(inputs)
    except Exception:
        result, error = None, traceback.format_exc()
    wall_s = time.perf_counter() - start
    if probe is not None:
        probe.stop()
        setup_s -= probe.spent(0, setup_samples)
        wall_s -= probe.spent(setup_samples)
    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.metrics()
        tracer.write(trace_path, workload=name, offset=offset, wall_s=wall_s)

    expected = None
    if offset == 0:
        expected = json.loads((BENCH / "golden.json").read_text(encoding="ascii"))[name]
    if result is None:
        ops = set(expected or ("run",))
        bad = set(ops)
    else:
        got = workload.outputs(result)
        ops = set(got) | set(expected or ())
        bad = workload.broken(inputs, result)
        if expected is not None:
            bad |= {op for op in ops if got.get(op) != expected.get(op)}
    report = {
        "setup_raw_s": setup_s,
        "wall_raw_s": wall_s,
        "speed": probe.speed() if probe else 1.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(ops),
        "failed": len(bad),
        "mismatches": sorted(bad),
        "error": error,
        "layers": layers,
        "absent": [] if tracer is None else tracer.absent,
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
