"""Projected subgradient reference solver.

An independent brute-force minimizer of the original (un-majorized)
training objective, used only to certify the interior-point fits of the
linear and kernel solvers on desk-scale instances.  Hard constraints are enforced by exact Euclidean projection
after every step: subtracting the class mean of the weight rows enforces
the zero weight sum, subtracting the mean bias enforces the zero bias sum.

Step sizes follow an adaptive level scheme: aim at ``best - delta`` with
Polyak steps, halve delta whenever an epoch fails to make sufficient
progress.  Deterministic by construction (starts at zero, no randomness).

This module is intentionally not exported by the package root; it is test
and benchmark surface, not user API.
"""

from __future__ import annotations

import numpy as np

from .data import Dataset
from .linear import ConstraintMode, Hyperparameters, training_objective


def _value_and_subgrad(X, members, W, b, mode, hp):
    # members: N x K boolean label mask
    scores = X @ W.T + b
    gW = 2.0 * W
    gb = np.zeros(W.shape[0])
    norm2 = float(np.sum(W * W))
    val = norm2
    if mode.w_constraint == "soft":
        s = W.sum(axis=0)
        val += hp.alpha * 0.5 * (float(s @ s) - norm2)
        gW += hp.alpha * (s - W)
    if mode.b_constraint == "soft":
        bs = float(b.sum())
        val += hp.gamma * bs * bs
        gb += 2.0 * hp.gamma * bs
    margin = 1.0 - scores
    active = members & (margin > 0.0)  # zero subgradient chosen on the kink
    val += hp.beta * float(np.sum(margin[active]))
    gW -= hp.beta * (active.T @ X)
    gb -= hp.beta * active.sum(axis=0)
    return val, gW, gb


def _project(W, b, mode):
    if mode.w_constraint == "hard":
        W -= W.mean(axis=0)
    if mode.b_constraint == "hard":
        b -= b.mean()
    return W, b


def subgradient_fit(
    dataset: Dataset,
    mode: ConstraintMode,
    hp: Hyperparameters,
    steps: int = 60000,
    epoch: int = 1000,
    delta0: float | None = None,
):
    """Minimize the training objective by projected subgradient descent.

    Returns the best (W, b) pair seen.  ``steps`` bounds the total number
    of subgradient steps; ``epoch`` is the level-adjustment period.
    """
    X = dataset.features
    members = dataset.labels == 1
    K, M = dataset.n_classes, dataset.n_features

    W = np.zeros((K, M))
    b = np.zeros(K)
    _project(W, b, mode)
    f_best, _, _ = _value_and_subgrad(X, members, W, b, mode, hp)
    best = (W.copy(), b.copy())
    delta = delta0 if delta0 is not None else max(1.0, 0.05 * f_best)
    tiny = np.finfo(float).tiny

    done = 0
    while done < steps and delta > 1e-14 * max(1.0, f_best):
        f_epoch_start = f_best
        for _ in range(min(epoch, steps - done)):
            f, gW, gb = _value_and_subgrad(X, members, W, b, mode, hp)
            if f < f_best:
                f_best = f
                best = (W.copy(), b.copy())
            gnorm2 = float(np.sum(gW * gW) + np.sum(gb * gb))
            if gnorm2 <= tiny:
                return best  # exact stationary point
            step = (f - (f_best - delta)) / gnorm2
            W -= step * gW
            b -= step * gb
            _project(W, b, mode)
            done += 1
        if f_epoch_start - f_best < 0.5 * delta:
            delta *= 0.5  # level too ambitious, tighten it
    return best


def binary_svm_fit(X, y, C: float, steps: int = 60000, epoch: int = 1000):
    """Standard two-class soft-margin reference in (v, c) coordinates.

    Minimizes 0.5 ||v||^2 + C sum_i hinge(y_i (v' x_i + c)) with the same
    adaptive-level subgradient scheme as subgradient_fit, but written
    directly on the classical parameterization so it shares no code path
    with the unified model.  ``y`` holds +/-1.  Returns the best (v, c).
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    v = np.zeros(X.shape[1])
    c = 0.0

    def value_and_grad(v, c):
        margins = y * (X @ v + c)
        active = margins < 1.0
        f = 0.5 * float(v @ v) + C * float(np.sum(1.0 - margins[active]))
        gv = v - C * ((active * y) @ X)
        gc = -C * float(np.sum(y[active]))
        return f, gv, gc

    f_best, _, _ = value_and_grad(v, c)
    best = (v.copy(), c)
    delta = max(1.0, 0.05 * f_best)
    tiny = np.finfo(float).tiny

    done = 0
    while done < steps and delta > 1e-14 * max(1.0, f_best):
        f_epoch_start = f_best
        for _ in range(min(epoch, steps - done)):
            f, gv, gc = value_and_grad(v, c)
            if f < f_best:
                f_best = f
                best = (v.copy(), c)
            gnorm2 = float(gv @ gv) + gc * gc
            if gnorm2 <= tiny:
                return best
            step = (f - (f_best - delta)) / gnorm2
            v = v - step * gv
            c = c - step * gc
            done += 1
        if f_epoch_start - f_best < 0.5 * delta:
            delta *= 0.5
    return best


def compare(model_a, model_b, dataset: Dataset, mode: ConstraintMode, hp: Hyperparameters) -> dict:
    """Objective gap and maximum score deviation between two linear fits.

    Either argument may be a trained model (anything with ``W`` and ``b``)
    or a raw (W, b) pair.  The gap is measured with the shared training
    functional, relative with a floor of 1.
    """

    def weights(m):
        if hasattr(m, "W"):
            return np.asarray(m.W, dtype=float), np.asarray(m.b, dtype=float)
        W, b = m
        return np.asarray(W, dtype=float), np.asarray(b, dtype=float)

    Wa, ba = weights(model_a)
    Wb, bb = weights(model_b)
    fa = training_objective(dataset, Wa, ba, mode, hp)
    fb = training_objective(dataset, Wb, bb, mode, hp)
    Sa = dataset.features @ Wa.T + ba
    Sb = dataset.features @ Wb.T + bb
    return {
        "objective_a": fa,
        "objective_b": fb,
        "objective_gap": abs(fa - fb) / max(1.0, abs(fb)),
        "max_score_deviation": float(np.max(np.abs(Sa - Sb))) if Sa.size else 0.0,
    }
