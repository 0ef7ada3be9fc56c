"""Record golden.json: every workload's outputs at the fixed spec seeds.

    python3 certbench/record_golden.py

Run only on a commit whose outputs are trusted; the benchmark counts every
later difference from these values as a failed operation.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    golden = {}
    for name, workload in WORKLOADS.items():
        inputs = workload.setup(0)
        result = workload.run(inputs)
        broken = workload.broken(inputs, result)
        if broken:
            raise SystemExit(f"{name}: outputs fail their checks: {sorted(broken)}")
        golden[name] = workload.outputs(result)
        print(f"{name}: {len(golden[name])} outputs", file=sys.stderr)
    (BENCH / "golden.json").write_text(json.dumps(golden, indent=1) + "\n", encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
