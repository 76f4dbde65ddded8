"""Kernel evaluation and Gram matrix construction."""

from __future__ import annotations

import numbers
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
        # NaN passes the sign checks below, and the fit would fail in its solves
        for name in ("sigma", "coef0"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not isinstance(self.degree, numbers.Integral):
            raise ValueError(f"degree must be an integer, got {self.degree!r}")
        # a numpy integer would not encode in a model document
        object.__setattr__(self, "degree", int(self.degree))
        if self.kind == "gaussian" and self.sigma <= 0:
            raise ValueError("sigma must be strictly positive")
        if self.kind == "polynomial" and self.degree < 1:
            raise ValueError("degree must be at least 1")


def kernel_eval(spec: KernelSpec, x, y) -> float:
    """Single kernel value k(x, y), the 1 x 1 block of :func:`gram_cross`.

    That block is centred on x, so a gaussian value is computed from the
    difference y - x.
    """
    return float(gram_cross(spec, np.ravel(x)[None], np.ravel(y)[None])[0, 0])


def _lift(spec: KernelSpec, X, origin, left: bool):
    # the left factor (rows of X) or the right factor (columns) of the
    # kernel's inner block, left @ right.  For the gaussian, with c = x - origin
    # and h = |c|^2 / 2 sigma^2, the left rows [c / sigma^2, -h, -1] and the
    # right columns [c; 1; h] give c'c_t / sigma^2 - h - h_t = -|x - t|^2 / 2 sigma^2;
    # centring keeps these terms small when the features sit far from the origin
    if spec.kind != "gaussian":
        return X if left else X.T
    s2 = spec.sigma**2
    M = X.shape[1]
    lifted = np.empty((M + 2, len(X)))
    c = np.subtract(X.T, origin[:, None], out=lifted[:M])
    h = np.einsum("ij,ij->j", c, c) / (2.0 * s2)
    if not left:
        lifted[M], lifted[M + 1] = 1.0, h
        return lifted
    c /= s2
    lifted[M], lifted[M + 1] = -h, -1.0
    return np.ascontiguousarray(lifted.T)


def _origin(X):
    # the centre of lifted blocks: the mean of the training rows, 0 for none
    return X.sum(axis=0) / max(len(X), 1)


def _finish(spec: KernelSpec, block):
    # the kernel values from the inner block, in place
    if spec.kind == "polynomial":
        block += spec.coef0
        block **= spec.degree
    elif spec.kind == "gaussian":
        np.minimum(block, 0.0, out=block)  # cancellation can leave tiny positives
        np.exp(block, out=block)
    return block


def gram(spec: KernelSpec, X) -> np.ndarray:
    """Gram matrix G[i, j] = k(x_i, x_j) over the rows of X, shape N x N.

    The upper triangle is computed and mirrored, so the result is exactly
    symmetric regardless of floating point evaluation order.  Nothing is
    added to the diagonal: G may be semidefinite or rank deficient, which
    the kernel fit's rank-revealing factor handles.
    """
    X = np.asarray(X, dtype=float)
    origin = _origin(X)
    V = _finish(spec, _lift(spec, X, origin, True) @ _lift(spec, X, origin, False))
    lower = np.tril_indices(len(V), -1)
    V[lower] = V.T[lower]
    return V


def gram_cross(spec: KernelSpec, X_train, X_test) -> np.ndarray:
    """Kernel block between training rows and test rows, shape N x T.

    A gaussian block is centred on the mean of the training rows.
    """
    X_train = np.asarray(X_train, dtype=float)
    X_test = np.asarray(X_test, dtype=float)
    if X_train.shape[1] != X_test.shape[1]:
        raise DimensionMismatch(
            f"feature counts differ: {X_train.shape[1]} vs {X_test.shape[1]}"
        )
    origin = _origin(X_train)
    return _finish(
        spec, _lift(spec, X_train, origin, True) @ _lift(spec, X_test, origin, False)
    )
