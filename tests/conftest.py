"""Shared builders for randomized test instances."""

import importlib.util
import warnings
from pathlib import Path

import numpy as np

from ovnsvm import Dataset, MaxItersExceeded

_BENCH_INPUTS = Path(__file__).resolve().parents[1] / "bench" / "inputs.py"


def random_multilabel(rng, n, m, k) -> Dataset:
    """Random dataset where no row is empty and no class is empty."""
    X = rng.standard_normal((n, m))
    labels = (rng.uniform(size=(n, k)) < 0.4).astype(np.int64)
    for i in range(n):
        if labels[i].sum() == 0:
            labels[i, rng.integers(k)] = 1
    for c in range(k):
        if labels[:, c].sum() == 0:
            labels[rng.integers(n), c] = 1
    return Dataset(X, labels)


def random_multiclass(rng, n, m, k) -> Dataset:
    """Random dataset with exactly one label per row, every class present."""
    X = rng.standard_normal((n, m))
    y = rng.integers(k, size=n)
    y[:k] = np.arange(k)
    labels = np.zeros((n, k), dtype=np.int64)
    labels[np.arange(n), y] = 1
    return Dataset(X, labels)


def offset_linear_reference() -> Dataset:
    """The first 300 rows of the benchmark's linear reference set, moved 1e4
    from the origin: there the hw-hb Newton system is singular on its first
    step, while sw-hb fits."""
    spec = importlib.util.spec_from_file_location("bench_inputs", _BENCH_INPUTS)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    X, Y = inputs.linear_reference()
    return Dataset(X[:300] + 1e4, Y[:300])


# a grid file for offset_linear_reference: one sw-hb and one hw-hb tuple
OFFSET_GRID = dict(alphas=(1.0,), betas=(10.0,), gammas=(1.0,), modes=("sw-hb", "hw-hb"))


class quiet_max_iters(warnings.catch_warnings):
    """Context manager silencing the iteration-cap warning in bulk fits."""

    def __enter__(self):
        log = super().__enter__()
        warnings.simplefilter("ignore", MaxItersExceeded)
        return log
