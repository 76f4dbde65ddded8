"""Correctness checks the benchmark applies to the program's outputs.

Each check returns ``(ok, detail)``.  The checks test properties the method
guarantees or compare against values computed here in numpy, never against
a stored copy of the program's earlier output.  Objectives use the
unhalved convention the solvers minimize:

    sum_k |w_k|^2 + alpha sum_{k<l} <w_k, w_l>   (soft weight coupling)
        + gamma (sum_k b_k)^2                    (soft bias coupling)
        + beta sum_k sum_{i in C_k} max(0, 1 - w_k'x_i - b_k).
"""

from __future__ import annotations

import numpy as np

DESCENT_SLACK = 1e-10  # relative, as the descent acceptance criterion allows
HARD_SUM_TOL = 1e-8
GAP_TOL = 1e-3  # relative excess over the reference optimum

# Accuracy floors: the constant predictor that assigns every label scores
# E|Y|/K, about 0.40 on both planted rules; a fit must beat it by this much.
LINEAR_MARGIN = 0.15
RING_MARGIN = 0.30

# At the benchmark's coefficients the hw-sb optimum is W = 0, b_k = 1
# (objective gamma K^2): scores of 1 everywhere, which the decision rule
# reads as every label.  So its held-out accuracy has no floor.
NO_FLOOR_MODES = ("hw-sb",)


def _coupled_value(quad_total, pair_total, b, labels, scores, hp, mode_token):
    value = quad_total
    if mode_token.startswith("sw"):
        value += hp["alpha"] * pair_total
    if mode_token.endswith("sb"):
        value += hp["gamma"] * float(np.sum(b)) ** 2
    hinge = np.maximum(0.0, 1.0 - scores)[np.asarray(labels) == 1]
    return value + hp["beta"] * float(np.sum(hinge))


def linear_objective(X, labels, W, b, hp: dict, mode_token: str) -> float:
    """Training objective of a linear fit (W: K x M, b: K)."""
    W = np.asarray(W, dtype=float)
    b = np.asarray(b, dtype=float)
    s = W.sum(axis=0)
    quads = float(np.sum(W * W))
    pairs = 0.5 * (float(s @ s) - quads)
    scores = np.asarray(X, dtype=float) @ W.T + b
    return _coupled_value(quads, pairs, b, labels, scores, hp, mode_token)


def kernel_objective(G, labels, A, b, hp: dict, mode_token: str) -> float:
    """Training objective of a kernel fit (A: K x N coefficients on Gram G)."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    AG = A @ G
    quads = float(np.einsum("ki,ki->", AG, A))
    s = A.sum(axis=0)
    pairs = 0.5 * (float(s @ G @ s) - quads)
    return _coupled_value(quads, pairs, b, labels, AG.T + b, hp, mode_token)


def descent(trace):
    """The surrogate trace never rises by more than DESCENT_SLACK (relative)."""
    t = np.asarray(trace, dtype=float)
    if t.size < 2:
        return True, f"{t.size} iterate"
    rises = np.diff(t) - DESCENT_SLACK * np.maximum(1.0, np.abs(t[:-1]))
    n = int(np.count_nonzero(rises > 0.0))
    if n:
        return False, f"{n} rises, largest {float(np.max(np.diff(t))):.3e}"
    return True, f"{t.size} iterates"


def dominance(surrogate, objective):
    """The surrogate sits at or above the training objective at every iterate."""
    s = np.asarray(surrogate, dtype=float)
    f = np.asarray(objective, dtype=float)
    if s.shape != f.shape:
        return False, f"trace lengths differ: {s.size} vs {f.size}"
    below = f - s - DESCENT_SLACK * np.maximum(1.0, np.abs(f))
    n = int(np.count_nonzero(below > 0.0))
    if n:
        return False, f"surrogate below objective at {n} iterates"
    return True, "surrogate >= objective"


def hard_sums(weight_rows, b, mode_token: str):
    """Hard-mode constraint sums are zero within HARD_SUM_TOL."""
    worst = 0.0
    if mode_token.startswith("hw"):
        worst = max(worst, float(np.max(np.abs(np.asarray(weight_rows).sum(axis=0)))))
    if mode_token.endswith("hb"):
        worst = max(worst, abs(float(np.sum(b))))
    return worst <= HARD_SUM_TOL, f"largest hard sum {worst:.1e}"


def gap(value: float, optimum: float):
    """The fit's objective is within GAP_TOL of the reference optimum.

    The reference comes from the subgradient oracle, which returns a
    feasible point, so it bounds the optimum from above: the check is
    one-sided, and a fit below the reference passes.
    """
    rel = (value - optimum) / max(1.0, abs(optimum))
    return rel <= GAP_TOL, f"objective {value:.6f}, reference {optimum:.6f}, gap {rel:+.2e}"


def jaccard_accuracy(pred, truth) -> float:
    """Instance-averaged |P & Y| / |P | Y| of two 0/1 matrices."""
    P = np.asarray(pred) != 0
    Y = np.asarray(truth) != 0
    inter = np.sum(P & Y, axis=1)
    union = np.sum(P | Y, axis=1)
    return float(np.mean(np.where(union > 0, inter / np.maximum(union, 1), 1.0)))


def all_labels_accuracy(truth) -> float:
    """Accuracy of the constant predictor that assigns every label."""
    Y = np.asarray(truth) != 0
    return float(np.mean(Y.sum(axis=1) / Y.shape[1]))


def floor(value: float, least: float, what: str):
    return value >= least, f"{what} {value:.4f}, floor {least:.4f}"


def linear_heldout(pred, truth, mode_token: str):
    """Held-out accuracy of a linear fit meets the planted-rule floor of its mode."""
    acc = jaccard_accuracy(pred, truth)
    if mode_token in NO_FLOOR_MODES:
        return True, f"held-out accuracy {acc:.4f}, no floor in {mode_token}"
    return floor(acc, all_labels_accuracy(truth) + LINEAR_MARGIN, "held-out accuracy")


def same_scores(a, b):
    """Two score matrices are identical bit for bit."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        return False, f"shapes differ: {a.shape} vs {b.shape}"
    n = int(np.count_nonzero(a != b))
    return n == 0, f"{n} of {a.size} scores differ"
