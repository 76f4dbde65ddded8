"""Benchmark of ovnsvm through its public Python API.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in a process of its own with BLAS pinned to one thread
(bench/workload.py).  With ``--trace 0`` the run prints the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced rounds and
prints the per-layer metrics and the tracing overhead.  Either way it
prints the outcome of every correctness check, and its last line is one
JSON object with the keys correct, attempted, failed and metrics.  The
result is also written to .bench_out/ at the root of the checkout.
See bench/README.md.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("linear_multilabel", "kernel_cv", "kernel_predict", "reproduce")
RUN_SECONDS = 28  # run_seconds of BENCHMARK.json
SETUP_RUNS = 5  # set-up is timed in this many fresh processes; the median counts
CHILD_TIMEOUT_S = 170


def _child(args, relay):
    """Run bench/workload.py with ``args``; return the JSON of its last line."""
    cmd = [sys.executable, str(HERE / "workload.py"), *args]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        print("\n".join(lines), file=sys.stderr)
        raise SystemExit(f"workload process failed with exit code {proc.returncode}")
    if relay:
        print("\n".join(lines[:-1]))
    return json.loads(lines[-1])


def run_workload(name, seed, seconds, trace):
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    setups = []
    if not trace:
        setups = [_child([*common, "--setup-only"], relay=False)["setup_s"]
                  for _ in range(SETUP_RUNS - 1)]
    res = _child([*common, "--trace", str(trace)], relay=True)
    if trace:
        metrics = res["layers"]
    else:
        setups.append(res["setup_s"])
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "round_s": {"value": res["round_s"], "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    for key, m in metrics.items():
        print(f"  metric {key} = {m['value']:.6g} {m['unit']}")
    print(f"  operations: {res['attempted']} attempted, {res['failed']} failed; "
          f"correct: {res['correct']}")
    result = {"correct": res["correct"], "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{name}-trace{trace}.json", "w") as fh:
        json.dump({"workload": name, "seed": seed, "seconds": seconds,
                   "phases": res["phases"], **result}, fh, indent=1)
        fh.write("\n")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=("all", *WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=RUN_SECONDS, help="measuring time per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {n: run_workload(n, args.seed, args.seconds, args.trace) for n in names}
    if len(results) == 1:
        (final,) = results.values()
    else:
        # one object for all workloads: metric names carry the workload
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))


if __name__ == "__main__":
    main()
