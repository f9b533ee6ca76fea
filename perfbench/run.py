"""Run one lgrpool benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train-small --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout: the program is imported from
``src/``. Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--trace 0`` reports the end-to-end metrics, measured with
only whole-phase calls wrapped; ``--trace 1`` reports the per-layer
metrics of a run with every public function wrapped. Generated inputs,
full results and spans go under ``.perfbench_out/`` in the checkout.
The exit code is 0 only when every output check passed.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
# Every workload is single-threaded Python driving small BLAS calls; one
# BLAS thread keeps runs comparable and stays within any core count.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _git_commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=30, check=True,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return None
    return out[1] if len(out) == 2 and os.path.samefile(out[0], ROOT) else None


def _tree_sha256(path: str) -> str:
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(path):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for fname in sorted(filenames):
            full = os.path.join(dirpath, fname)
            digest.update(os.path.relpath(full, path).encode())
            with open(full, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "git_commit": _git_commit(),
        "src_sha256": _tree_sha256(SRC),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "lgrpool", "__init__.py")):
        print(f"error: no lgrpool sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [SRC, ROOT]

    from perfbench import workloads
    from perfbench.spans import SpanRecorder

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    instance = args.seed % workloads.INSTANCES
    reference = workloads.load_reference(args.workload, instance) or {}
    result = workloads.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), OUT_DIR, reference
    )
    result["environment"] = env = environment()
    result["config"] = {
        "training": workloads.CONFIG.to_dict(),
        "dataset": workloads.WORKLOADS[args.workload].spec.__dict__,
        "setup_reps": workloads.SETUP_REPS,
        "seconds": args.seconds,
    }
    recorder: SpanRecorder = result.pop("spans")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    recorder.write(os.path.join(OUT_DIR, f"spans-{tag}.json"))

    if args.trace:
        metrics = result["layer_metrics"]
    else:
        metrics = workloads.e2e_metrics(result)
    failed_frac = result["failed"] / max(result["attempted"], 1)

    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(f"workload {args.workload}, seed {args.seed} (instance {instance}), "
          f"dataset {json.dumps(result.get('dataset'), sort_keys=True)}")
    for name, samples in sorted(result["samples"].items()):
        print(f"  samples {name} (n={len(samples)}): {', '.join(f'{v:.4f}' for v in samples)}")
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6g} {unit}")
    print(f"{'failed_frac':48s} {failed_frac:14.6g} ratio "
          f"({result['failed']} of {result['attempted']} operations)")
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}")

    sample_counts = {name: len(samples) for name, samples in result["samples"].items()}
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({**result, "sample_counts": sample_counts, "metrics": metrics, "failed_frac": failed_frac},
                  fh, indent=1, default=str)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
