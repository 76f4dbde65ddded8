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

# the tasks of predict_labels, and so of every caller that takes a task
TASKS = ("multiclass", "multilabel")

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
    Exact ties go to the lowest index, and a NaN wins as in ``np.argmax``.
    A 1-D input is one row.  The result is the transpose of a class-major
    array, as the scores of both model kinds are.
    """
    if task == "multilabel":
        # looked up by module name at call time, so a wrapper set on
        # predict.predict_multilabel_matrix sees every multilabel call
        return predict_multilabel_matrix(scores)
    if task != "multiclass":
        raise ValueError(f"unknown task {task!r}")
    return _first_maxima(_class_major(scores)).astype(np.int64).T


def predict_multilabel_matrix(scores) -> np.ndarray:
    """Row-wise multilabel rule on an (N, K) score matrix; returns 0/1 matrix."""
    S = _class_major(scores)
    hit = S >= 1.0
    empty = ~hit.any(axis=0)
    if empty.any():
        hit |= _first_maxima(S) & empty
    return hit.astype(np.int64).T


def _class_major(scores) -> np.ndarray:
    # the (K, N) C-ordered transpose of (N, K) scores: free for the
    # transposed class-major scores of a model, one copy otherwise
    return np.ascontiguousarray(np.atleast_2d(np.asarray(scores, dtype=float)).T)


def _first_maxima(S) -> np.ndarray:
    """(K, N) bool mask of the entry ``np.argmax(S, axis=0)`` picks per column.

    Every step works on whole rows of S, which numpy does at full speed;
    a reduction across each short column of K values would not.
    """
    top = S.max(axis=0)
    hit = S == top
    nan = np.flatnonzero(np.isnan(top))
    if nan.size:
        hit[:, nan] = np.isnan(S[:, nan])
    taken = np.zeros(S.shape[1], dtype=bool)
    for row in hit:
        row &= ~taken
        taken |= row
    return hit


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
    # class-major (K, N), so the per-instance sums below add whole rows
    # when the labels are the transposed output of predict_labels
    P = label_sets_to_matrix(predictions, K).T
    Y = label_sets_to_matrix(truths, K).T
    n = P.shape[1]
    if n == 0:
        raise LengthMismatch("cannot evaluate zero instances")

    inter = np.sum(P & Y, axis=0).astype(float)
    union = np.sum(P | Y, axis=0).astype(float)
    sym = np.sum(P ^ Y, axis=0).astype(float)
    p_size = P.sum(axis=0).astype(float)
    y_size = Y.sum(axis=0).astype(float)

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
