"""Record the reference outputs that every benchmark run is checked against.

    python3 perfbench/make_reference.py

Runs every workload once per input instance, with the same code path as a
benchmark run, and writes its outputs (per-epoch losses and accuracies)
to reference.json from scratch. Rerun only when the program's numbers
change on purpose or a workload is redefined.
"""
from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import run as bench  # noqa: E402


def main() -> int:
    for var in bench.BLAS_ENV:
        os.environ[var] = str(bench.BLAS_THREADS)

    from perfbench import workloads

    reference = {}
    for name in workloads.WORKLOADS:
        reference[name] = {}
        for instance in range(workloads.INSTANCES):
            result = workloads.run_workload(name, instance, 0.0, False, bench.OUT_DIR, None)
            if not result["correct"]:
                print(f"{name} instance {instance}: {result['problems']}", file=sys.stderr)
                return 1
            reference[name][str(instance)] = result["outputs"]
            print(f"{name} instance {instance}: recorded", flush=True)
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
