"""The benchmark's trace targets still exist in the program.

``bench/tracing.py`` skips a target the program no longer has, and the
per-layer metrics built from it silently drop out of the benchmark's
results.  This test reads its target table and fails instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("_bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("home, attr", [(t[0], t[1]) for t in _targets()])
def test_every_trace_target_resolves_to_a_callable(home, attr):
    owner = importlib.import_module(home)
    for part in attr.split("."):
        owner = getattr(owner, part, None)
        assert owner is not None, f"{home}.{attr} is gone; bench/tracing.py would drop it"
    assert callable(owner), f"{home}.{attr} is not callable"

