"""Decision rules and instance-based evaluation metrics.

Scores become labels in one place, :func:`predict_labels`: winner-take-all
for multiclass, and for multilabel every class whose score reaches the
margin, with the winner as the fallback.  The two tasks share everything
before that step.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import LengthMismatch

__all__ = [
    "predict_labels",
    "predict_multilabel_matrix",
    "label_sets_to_matrix",
    "MetricsReport",
    "evaluate",
]


def predict_labels(scores, task: str) -> np.ndarray:
    """The (N, K) 0/1 label matrix of an (N, K) score matrix under ``task``.

    ``"multilabel"``: every class scoring at least 1, or the argmax when
    none does, so no row is empty.  ``"multiclass"``: the argmax alone.
    Exact ties go to the lowest index.  A 1-D input is one row.
    """
    if task == "multilabel":
        # looked up by module name at call time, so a wrapper set on
        # predict.predict_multilabel_matrix sees every multilabel call
        return predict_multilabel_matrix(scores)
    if task != "multiclass":
        raise ValueError(f"unknown task {task!r}")
    S = np.atleast_2d(np.asarray(scores, dtype=float))
    out = np.zeros(S.shape, dtype=np.int64)
    out[np.arange(len(S)), np.argmax(S, axis=1)] = 1
    return out


def predict_multilabel_matrix(scores) -> np.ndarray:
    """Row-wise multilabel rule on an (N, K) score matrix; returns 0/1 matrix."""
    S = np.atleast_2d(np.asarray(scores, dtype=float))
    out = (S >= 1.0).astype(np.int64)
    empty = np.flatnonzero(out.sum(axis=1) == 0)
    if empty.size:
        out[empty, np.argmax(S[empty], axis=1)] = 1
    return out


def label_sets_to_matrix(sets, K: int) -> np.ndarray:
    """Binary (N, K) matrix from label index collections or a binary matrix.

    Only a 2-D numpy array is taken as a binary matrix already.  Any other
    sequence is read per instance as a collection of label indices, so
    uniform set sizes cannot be mistaken for matrix rows.
    """
    if isinstance(sets, np.ndarray) and sets.ndim == 2:
        if sets.shape[1] != K:
            raise LengthMismatch(f"matrix has {sets.shape[1]} columns, expected {K}")
        return (sets != 0).astype(np.int64)
    out = np.zeros((len(sets), K), dtype=np.int64)
    for i, s in enumerate(sets):
        for k in np.atleast_1d(np.asarray(s, dtype=int)):
            if not 0 <= k < K:
                raise LengthMismatch(f"label index {k} out of range for K={K}")
            out[i, k] = 1
    return out


@dataclass(frozen=True)
class MetricsReport:
    """Instance-based multilabel metrics; hamming ideal 0, the rest ideal 1."""

    accuracy: float
    hamming_loss: float
    exact_match: float
    precision: float
    recall: float
    f1: float
    n_instances: int

    def as_dict(self) -> dict:
        return asdict(self)

    def format_text(self) -> str:
        rows = self.as_dict()
        width = max(len(k) for k in rows)
        lines = []
        for k, v in rows.items():
            if k == "n_instances":
                lines.append(f"{k:<{width}}  {v}")
            else:
                lines.append(f"{k:<{width}}  {v:.6f}")
        return "\n".join(lines)


def evaluate(predictions, truths, K: int) -> MetricsReport:
    """Instance-averaged metrics between predicted and true label sets.

    Accepts sequences of label index collections or binary matrices.
    Per-instance 0/0 cases (both sets empty for the overlap ratios) count
    as 1, so evaluating arbitrary external predictions is well defined.
    """
    if len(predictions) != len(truths):
        raise LengthMismatch(
            f"{len(predictions)} predictions vs {len(truths)} truths"
        )
    P = label_sets_to_matrix(predictions, K)
    Y = label_sets_to_matrix(truths, K)
    n = P.shape[0]
    if n == 0:
        raise LengthMismatch("cannot evaluate zero instances")

    inter = np.sum(P & Y, axis=1).astype(float)
    union = np.sum(P | Y, axis=1).astype(float)
    sym = np.sum(P ^ Y, axis=1).astype(float)
    p_size = P.sum(axis=1).astype(float)
    y_size = Y.sum(axis=1).astype(float)

    with np.errstate(invalid="ignore", divide="ignore"):
        jac = np.where(union > 0, inter / np.where(union > 0, union, 1.0), 1.0)
        prec = np.where(p_size > 0, inter / np.where(p_size > 0, p_size, 1.0), 1.0)
        rec = np.where(y_size > 0, inter / np.where(y_size > 0, y_size, 1.0), 1.0)

    precision = float(prec.mean())
    recall = float(rec.mean())
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return MetricsReport(
        accuracy=float(jac.mean()),
        hamming_loss=float(sym.sum() / (n * K)),
        exact_match=float(np.mean(sym == 0)),
        precision=precision,
        recall=recall,
        f1=float(f1),
        n_instances=int(n),
    )
