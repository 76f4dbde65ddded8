"""A traced benchmark run ends on a strict JSON result with every layer metric.

``bench/run.py`` reads the last line of each workload's output as its
result.  A non-finite metric makes ``json.dumps`` write ``NaN``, which is
not JSON, and a metric that drops out of ``bench/tracing.py`` leaves a
result the benchmark cannot compare.  This runs one short traced round and
fails on either.
"""

import json
import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]


def _reject(constant):
    raise ValueError(f"non-finite value {constant} in the result line")


def test_traced_run_ends_on_a_strict_result_with_every_layer_metric():
    proc = subprocess.run(
        [sys.executable, str(_ROOT / "bench" / "workload.py"), "--workload", "reproduce",
         "--seed", "0", "--seconds", "0.1", "--trace", "1"],
        cwd=_ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1], parse_constant=_reject)
    assert result["correct"] and result["failed"] == 0
    with open(_ROOT / "BENCHMARK.json") as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    missing = [name for name in names if name not in result["layers"]]
    assert not missing, f"layer metrics missing from the result: {missing}"
