"""Benchmark of the ordnet CLI pipeline.

Run from the root of a checkout:

    python3 perfbench/run.py --workload joint_p100 --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 40

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0`` and the per-layer metrics of a traced pass with
``--trace 1``.  A detailed record (environment, per-level quality, pass
timings and, when traced, every span) goes to ``perfbench/results/``.
``--workload all`` runs every workload but ``smoke`` untraced and traced,
each in its own process, and prints one table.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args, names) -> int:
    """Each named workload, untraced then traced, one child process each."""
    rows, correct, attempted, failed = [], True, 0, 0
    for name in names:
        for trace in (0, 1):
            child = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True, timeout=600, check=False,
            )
            lines = child.stdout.strip().splitlines()
            if child.returncode != 0 or not lines:
                print(child.stderr, file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            correct &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            for metric, entry in result["metrics"].items():
                rows.append((name, trace, metric, entry["value"], entry["unit"]))
    for name, trace, metric, value, unit in rows:
        print(f"{name:<11} {'traced' if trace else 'timed':<6} {metric:<28} {value:>14.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {f"{n}/{m}": {"value": v, "unit": u}
                                  for n, t, m, v, u in rows}}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "ordnet" / "__init__.py").is_file():
        print(f"error: no ordnet sources under {src}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import harness
    import ordnet

    if Path(ordnet.__file__).resolve().parent != (src / "ordnet").resolve():
        print(f"error: imported ordnet from {ordnet.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, [name for name in harness.WORKLOADS if name != "smoke"])
    if args.workload not in harness.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(harness.WORKLOADS)} or 'all'", file=sys.stderr)
        return 2
    result, detail = harness.run_workload(
        harness.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
        ROOT, BENCH_DIR,
    )
    path = harness.write_detail(detail, BENCH_DIR)
    for entry in detail["failures"]:
        print(f"FAILED {entry['operation']}: {entry['detail'][:300]}")
    columns = ("level", "iterations", "converged", "elbo_final", "auc", "aupr",
               "precision", "recall", "f1", "edges_ppi05", "edges_true")
    print(" ".join(f"{c:>11}" for c in columns))
    for row in detail["quality_per_level"] or []:
        print(" ".join(f"{row[c]:>11.6g}" if isinstance(row[c], float) else f"{row[c]!s:>11}"
                       for c in columns))
    for name, metric in result["metrics"].items():
        print(f"{name:<28} {metric['value']:>14.6g} {metric['unit']}")
    print(f"detail: {path.relative_to(ROOT)}")
    # A non-finite metric is a fault of the benchmark: fail rather than print it.
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.exit(main())
