"""Kernel evaluation and Gram matrix construction."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch


@dataclass(frozen=True)
class KernelSpec:
    """Which kernel to use and its parameters."""

    kind: str = "gaussian"
    sigma: float = 1.0
    degree: int = 2
    coef0: float = 1.0

    def __post_init__(self):
        if self.kind not in ("linear", "gaussian", "polynomial"):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "gaussian" and self.sigma <= 0:
            raise ValueError("sigma must be strictly positive")
        if self.kind == "polynomial" and self.degree < 1:
            raise ValueError("degree must be at least 1")


def kernel_eval(spec: KernelSpec, x, y) -> float:
    """Single kernel value k(x, y)."""
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.shape != y.shape:
        raise DimensionMismatch(f"operand lengths {x.size} and {y.size} differ")
    if spec.kind == "linear":
        return float(x @ y)
    if spec.kind == "polynomial":
        return float((x @ y + spec.coef0) ** spec.degree)
    d = x - y
    return float(np.exp(-(d @ d) / (2.0 * spec.sigma**2)))


def _pairwise(spec: KernelSpec, A, B):
    # kernel block between row sets A and B, finished in place in the buffer
    # of A @ B.T by the IEEE operations of the textbook formula, in its order
    block = A @ B.T
    if spec.kind == "linear":
        return block
    if spec.kind == "polynomial":
        block += spec.coef0
        block **= spec.degree
        return block
    block *= -2.0
    block += np.sum(A * A, axis=1)[:, None]
    block += np.sum(B * B, axis=1)[None, :]
    np.maximum(block, 0.0, out=block)  # cancellation can leave tiny negatives
    np.divide(block, -(2.0 * spec.sigma**2), out=block)
    return np.exp(block, out=block)


def gram(spec: KernelSpec, X) -> np.ndarray:
    """Gram matrix G[i, j] = k(x_i, x_j) over the rows of X, shape N x N.

    The upper triangle is computed and mirrored, so the result is exactly
    symmetric regardless of floating point evaluation order.  Nothing is
    added to the diagonal: G may be semidefinite or rank deficient, which
    the kernel fit's rank-revealing factor handles.
    """
    X = np.asarray(X, dtype=float)
    V = _pairwise(spec, X, X)
    for i in range(1, V.shape[0]):
        V[i, :i] = V[:i, i]
    return V


def gram_cross(spec: KernelSpec, X_train, X_test) -> np.ndarray:
    """Kernel block between training rows and test rows, shape N x T."""
    X_train = np.asarray(X_train, dtype=float)
    X_test = np.asarray(X_test, dtype=float)
    if X_train.shape[1] != X_test.shape[1]:
        raise DimensionMismatch(
            f"feature counts differ: {X_train.shape[1]} vs {X_test.shape[1]}"
        )
    return _pairwise(spec, X_train, X_test)
