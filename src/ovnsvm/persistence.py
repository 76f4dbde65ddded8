"""Versioned JSON serialization of trained models and CV reports.

The document is human-readable structured text.  Floats go through JSON's
repr encoding (shortest round-trip decimal, at most 17 significant
digits), so a saved model reloads with bit-identical weights and therefore
bit-identical scores.
"""

from __future__ import annotations

import json
from dataclasses import asdict

import numpy as np

from .errors import InvariantViolation, IoError, ParseError, UnsupportedVersion
from .kernel import TrainedKernelModel
from .kernels import KernelSpec
from .linear import ConstraintMode, Hyperparameters, TrainedLinearModel

FORMAT_VERSION = 1
_HARD_TOL = 1e-8


def save_model(model, path) -> None:
    """Write a trained model as a versioned JSON document."""
    if not isinstance(model, (TrainedKernelModel, TrainedLinearModel)):
        raise ValueError(f"cannot serialize {type(model).__name__}")
    doc = {
        "format_version": FORMAT_VERSION,
        "mode": asdict(model.mode),
        "hyperparameters": asdict(model.hyperparameters),
        "diagnostics": {
            "iterations_used": model.iterations_used,
            "final_objective": model.final_objective,
            "kkt_residual": model.kkt_residual,
            "converged": model.converged,
        },
        "b": model.b.tolist(),
    }
    if isinstance(model, TrainedKernelModel):
        doc["model_kind"] = "kernel"
        doc["K"] = int(model.A.shape[0])
        doc["N"] = int(model.A.shape[1])
        doc["M"] = int(model.train_features.shape[1])
        doc["kernel"] = asdict(model.kernel)
        doc["ridge"] = model.ridge
        doc["A"] = model.A.tolist()
        doc["train_features"] = model.train_features.tolist()
    else:
        doc["model_kind"] = "linear"
        doc["K"] = int(model.W.shape[0])
        doc["M"] = int(model.W.shape[1])
        doc["W"] = model.W.tolist()
    try:
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    except OSError as e:
        raise IoError(f"cannot write model file: {e}") from e


def _need(doc, key):
    if key not in doc:
        raise ParseError(f"missing field {key!r}")
    return doc[key]


def _check_hard_invariants(mode, weight_rows, b, what):
    if mode.b_constraint == "hard" and abs(float(np.sum(b))) > _HARD_TOL:
        raise InvariantViolation(
            f"stored hard-b model has |sum b| = {abs(float(np.sum(b))):.3e}"
        )
    if mode.w_constraint == "hard":
        worst = float(np.max(np.abs(weight_rows.sum(axis=0))))
        if worst > _HARD_TOL:
            raise InvariantViolation(
                f"stored hard-w model violates the zero {what} sum by {worst:.3e}"
            )


def load_model(path):
    """Read a model document back; validates version and mode invariants."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as e:
        raise IoError(f"cannot read model file: {e}") from e
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"not a valid model document: {e}") from e
    if not isinstance(doc, dict):
        raise ParseError("model document must be a JSON object")

    version = _need(doc, "format_version")
    if version != FORMAT_VERSION:
        raise UnsupportedVersion(f"format_version {version} is not supported")

    try:
        mode = ConstraintMode(**_need(doc, "mode"))
        hp = Hyperparameters(**_need(doc, "hyperparameters"))
        diag = _need(doc, "diagnostics")
        kind = _need(doc, "model_kind")
        b = np.asarray(_need(doc, "b"), dtype=float)
        if kind == "linear":
            W = np.asarray(_need(doc, "W"), dtype=float)
            if W.ndim != 2 or W.shape != (int(_need(doc, "K")), int(_need(doc, "M"))):
                raise ParseError("W has the wrong shape")
            if b.shape != (W.shape[0],):
                raise ParseError("b has the wrong shape")
            if not (np.all(np.isfinite(W)) and np.all(np.isfinite(b))):
                raise InvariantViolation("stored weights contain non-finite values")
            _check_hard_invariants(mode, W, b, "weight")
            return TrainedLinearModel(
                W=W,
                b=b,
                mode=mode,
                hyperparameters=hp,
                iterations_used=int(diag["iterations_used"]),
                final_objective=float(diag["final_objective"]),
                kkt_residual=float(diag["kkt_residual"]),
                converged=bool(diag["converged"]),
            )
        if kind == "kernel":
            A = np.asarray(_need(doc, "A"), dtype=float)
            X = np.asarray(_need(doc, "train_features"), dtype=float)
            kdoc = _need(doc, "kernel")
            spec = KernelSpec(
                kind=kdoc["kind"],
                sigma=kdoc["sigma"],
                degree=kdoc["degree"],
                coef0=kdoc["coef0"],
            )
            if A.ndim != 2 or A.shape != (int(_need(doc, "K")), int(_need(doc, "N"))):
                raise ParseError("A has the wrong shape")
            if X.ndim != 2 or X.shape != (A.shape[1], int(_need(doc, "M"))):
                raise ParseError("train_features has the wrong shape")
            if b.shape != (A.shape[0],):
                raise ParseError("b has the wrong shape")
            if not all(np.all(np.isfinite(v)) for v in (A, X, b)):
                raise InvariantViolation("stored weights contain non-finite values")
            _check_hard_invariants(mode, A, b, "coefficient")
            return TrainedKernelModel(
                A=A,
                b=b,
                kernel=spec,
                train_features=X,
                mode=mode,
                hyperparameters=hp,
                iterations_used=int(diag["iterations_used"]),
                final_objective=float(diag["final_objective"]),
                kkt_residual=float(diag["kkt_residual"]),
                ridge=float(doc.get("ridge", 0.0)),
                converged=bool(diag["converged"]),
            )
        raise ParseError(f"unknown model_kind {kind!r}")
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"malformed model document: {e}") from e


def save_cv_report(report, path) -> None:
    """Write a CVReport as JSON."""
    try:
        with open(path, "w") as fh:
            json.dump(report.as_dict(), fh, indent=1)
            fh.write("\n")
    except OSError as e:
        raise IoError(f"cannot write report file: {e}") from e
