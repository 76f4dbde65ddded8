"""Command line interface for batch experiments and scripted reruns.

Exit codes: 0 success, 1 reproduction band violated, 2 usage error,
3 data error, 4 solver error.  Every failure prints exactly one
"ErrorType: reason" line on stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from .data import (
    SYNTH_KINDS,
    SynthSpec,
    load_csv,
    load_features,
    normalize_minmax,
    read_table,
    synth_generate,
    unseen_label_test_partition,
    write_csv,
)
from .errors import (
    AllTuplesInfeasible,
    DimensionMismatch,
    EmptyLabelRow,
    HessianNotPD,
    InvariantViolation,
    IoError,
    LengthMismatch,
    MalformedCsv,
    NoLabels,
    ParseError,
    SingularSystem,
    TooFewInstances,
    UnknownKind,
    UnsupportedVersion,
)
from .kernel import fit_kernel
from .kernels import KernelSpec
from .linear import ConstraintMode, Hyperparameters, fit_linear
from .modelselect import GridSpec, grid_search_cv
from .persistence import load_model, save_cv_report, save_model, write_json
from .predict import evaluate, predict_labels
from .reproduce import TABLES, run_table

_USAGE_ERRORS = (ValueError,)
_DATA_ERRORS = (
    MalformedCsv,
    NoLabels,
    EmptyLabelRow,
    UnknownKind,
    TooFewInstances,
    IoError,
    ParseError,
    UnsupportedVersion,
    InvariantViolation,
    LengthMismatch,
    DimensionMismatch,
)
_SOLVER_ERRORS = (HessianNotPD, SingularSystem, AllTuplesInfeasible)

# the train options that set a fit, by the dataclass they fill; each
# option's default is that of the dataclass
_FIT_OPTIONS = {
    Hyperparameters: ("alpha", "beta", "gamma", "epsilon", "tol", "max_iters"),
    KernelSpec: ("sigma", "degree", "coef0"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ovnsvm",
        description="Unified one-versus-none multiclass and multilabel SVM.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset CSV")
    p.add_argument("--kind", required=True, choices=SYNTH_KINDS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--n-per-cluster", type=int, default=10)
    p.add_argument("--noise", type=float, default=None)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="fit a model and save it")
    p.add_argument("--data", required=True)
    p.add_argument("--solver", choices=("linear", "kernel"), default="linear")
    p.add_argument(
        "--mode", choices=("sw-sb", "sw-hb", "hw-sb", "hw-hb"), default="sw-hb"
    )
    p.add_argument(
        "--kernel", choices=("linear", "gaussian", "poly"), default="gaussian"
    )
    for cls, names in _FIT_OPTIONS.items():
        for name in names:
            default = getattr(cls(), name)
            p.add_argument(
                "--" + name.replace("_", "-"),
                type=type(default),
                default=default,
                help="default: %(default)s",
            )
    p.add_argument("--label-prefix", default="label:")
    p.add_argument("--multiclass-column", default=None)
    p.add_argument("--model-out", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="score a dataset with a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument(
        "--task", choices=("multiclass", "multilabel"), default="multilabel"
    )
    p.add_argument("--label-prefix", default="label:")
    p.add_argument("--multiclass-column", default=None)
    p.add_argument(
        "--dump-boundary",
        default=None,
        help="also write a grid of decision scores for boundary plotting",
    )
    p.add_argument("--boundary-steps", type=int, default=60)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("evaluate", help="compare predictions against truth")
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--label-prefix", default="label:")
    p.add_argument("--multiclass-column", default=None)
    p.add_argument("--json-out", default=None)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("cv", help="cross-validated grid search")
    p.add_argument("--data", required=True)
    p.add_argument("--grid", default=None, help="JSON grid file; defaults apply")
    p.add_argument(
        "--task", choices=("multiclass", "multilabel"), default="multilabel"
    )
    p.add_argument("--solver", choices=("linear", "kernel"), default="linear")
    p.add_argument("--seed", type=int, default=None, help="override the grid seed")
    p.add_argument("--label-prefix", default="label:")
    p.add_argument("--multiclass-column", default=None)
    p.add_argument("--normalize", action="store_true")
    p.add_argument("--json-out", default=None)
    p.set_defaults(func=_cmd_cv)

    p = sub.add_parser("reproduce", help="rerun a published table with bands")
    p.add_argument("--table", required=True, choices=TABLES)
    p.add_argument("--data-dir", default="data")
    p.add_argument("--json-out", default=None)
    p.set_defaults(func=_cmd_reproduce)

    return parser


def _cmd_synth(args) -> int:
    spec = SynthSpec(
        kind=args.kind,
        n_per_cluster=args.n_per_cluster,
        noise=args.noise,
        seed=args.seed,
    )
    data = synth_generate(spec)
    write_csv(data, args.out)
    print(f"wrote {data.n_instances} instances to {args.out}")
    if args.kind == "unseen_label_toy":
        out = Path(args.out)
        test_path = out.with_name(out.stem + ".test" + out.suffix)
        test = unseen_label_test_partition()
        write_csv(test, test_path)
        print(f"wrote {test.n_instances} held-out instances to {test_path}")
    return 0


def _load_training_csv(args):
    return load_csv(
        args.data,
        label_prefix=args.label_prefix,
        multiclass_column=args.multiclass_column,
    )


def _fit_settings(cls, args, **extra):
    return cls(**{name: getattr(args, name) for name in _FIT_OPTIONS[cls]}, **extra)


def _cmd_train(args) -> int:
    data = _load_training_csv(args)
    mode = ConstraintMode.from_token(args.mode)
    hp = _fit_settings(Hyperparameters, args)
    if args.solver == "kernel":
        kind = "polynomial" if args.kernel == "poly" else args.kernel
        spec = _fit_settings(KernelSpec, args, kind=kind)
        model = fit_kernel(data, spec, mode, hp, traces=False)
    else:
        model = fit_linear(data, mode, hp, traces=False)
    save_model(model, args.model_out)
    landmarks = ""
    if args.solver == "kernel":
        landmarks = f"landmarks={np.count_nonzero(model.A.any(axis=0))} of {model.n_train} "
    print(
        f"trained {args.solver} model: iterations={model.iterations_used} "
        f"converged={model.converged} stop_reason={model.stop_reason} "
        f"objective={model.final_objective:.6g} "
        f"kkt_residual={model.kkt_residual:.3e} {landmarks}"
        f"interior_point={model.interior_point!r}"
    )
    print(f"saved model to {args.model_out}")
    return 0


def _dump_boundary(model, X, path, steps: int) -> None:
    if X.shape[1] != 2:
        raise ValueError("boundary dump requires a dataset with exactly 2 features")
    lo = X.min(axis=0) - 0.5
    hi = X.max(axis=0) + 0.5
    gx, gy = np.meshgrid(
        np.linspace(lo[0], hi[0], steps), np.linspace(lo[1], hi[1], steps)
    )
    grid = np.column_stack([gx.ravel(), gy.ravel()])
    scores = model.decision_scores(grid)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x1", "x2"] + [f"score:c{k + 1}" for k in range(scores.shape[1])])
        for i in range(grid.shape[0]):
            w.writerow(
                [repr(float(v)) for v in grid[i]]
                + [repr(float(v)) for v in scores[i]]
            )


def _cmd_predict(args) -> int:
    model = load_model(args.model)
    try:
        X = load_csv(
            args.data,
            label_prefix=args.label_prefix,
            multiclass_column=args.multiclass_column,
        ).features
    except NoLabels:
        X, _ = load_features(args.data)
    scores = model.decision_scores(X)
    pred = predict_labels(scores, args.task)
    with open(args.out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            ["index"]
            + [f"score:c{k + 1}" for k in range(scores.shape[1])]
            + ["labels"]
        )
        for i in range(scores.shape[0]):
            w.writerow(
                [i]
                + [repr(float(v)) for v in scores[i]]
                + ["".join(str(int(v)) for v in pred[i])]
            )
    print(f"wrote predictions for {scores.shape[0]} instances to {args.out}")
    if args.dump_boundary is not None:
        _dump_boundary(model, X, args.dump_boundary, args.boundary_steps)
        print(f"wrote boundary score grid to {args.dump_boundary}")
    return 0


def _read_label_matrix(path, label_prefix: str, multiclass_column=None) -> np.ndarray:
    """Label sets from either a prediction CSV or a dataset CSV."""
    header, body = read_table(path)
    if "labels" in header:
        j = header.index("labels")
        out = []
        for i, row in enumerate(body, start=1):
            bits = row[j].strip()
            if not bits or any(ch not in "01" for ch in bits):
                raise MalformedCsv(f"row {i}: bad label bitstring {bits!r}")
            out.append([int(ch) for ch in bits])
        widths = {len(r) for r in out}
        if len(widths) > 1:
            raise MalformedCsv("label bitstrings have inconsistent lengths")
        if not out:
            raise MalformedCsv("no instances")
        return np.asarray(out, dtype=np.int64)
    return load_csv(
        path, label_prefix=label_prefix, multiclass_column=multiclass_column
    ).labels


def _cmd_evaluate(args) -> int:
    pred = _read_label_matrix(args.pred, args.label_prefix, args.multiclass_column)
    truth = _read_label_matrix(args.truth, args.label_prefix, args.multiclass_column)
    if pred.shape[1] != truth.shape[1]:
        raise LengthMismatch(
            f"prediction has {pred.shape[1]} classes, truth has {truth.shape[1]}"
        )
    report = evaluate(pred, truth, truth.shape[1])
    print(report.format_text())
    if args.json_out:
        write_json(report.as_dict(), args.json_out)
    return 0


# grid file key -> (whether it holds a list, the type of each value)
_GRID_KEYS = {
    **dict.fromkeys(("alphas", "betas", "gammas", "sigmas"), (True, float)),
    "degrees": (True, int),
    "modes": (True, str),
    "kernel_kind": (False, str),
    "coef0": (False, float),
    "seed": (False, int),
    "n_folds": (False, int),
}
# JSON values each type accepts; a JSON true or false is no number
_JSON_TYPES = {float: (int, float), int: (int,), str: (str,)}


def _grid_value(key: str, value, kind: type):
    if isinstance(value, bool) or not isinstance(value, _JSON_TYPES[kind]):
        raise ValueError(f"grid key {key!r}: expected {kind.__name__}, got {value!r}")
    return kind(value)


def _grid_from_doc(doc: dict, seed_override) -> GridSpec:
    if not isinstance(doc, dict):
        raise ParseError("grid file must hold a JSON object")
    unknown = doc.keys() - _GRID_KEYS
    if unknown:
        raise ValueError(f"unknown grid keys: {sorted(unknown)}")
    kwargs = {}
    for key, value in doc.items():
        many, kind = _GRID_KEYS[key]
        if not many:
            kwargs[key] = _grid_value(key, value, kind)
        elif isinstance(value, list):
            kwargs[key] = tuple(_grid_value(key, v, kind) for v in value)
        else:
            raise ValueError(f"grid key {key!r}: expected a list, got {value!r}")
    if "modes" in kwargs:
        kwargs["modes"] = tuple(ConstraintMode.from_token(t) for t in kwargs["modes"])
    if seed_override is not None:
        kwargs["seed"] = int(seed_override)
    return GridSpec(**kwargs)


def _cmd_cv(args) -> int:
    data = _load_training_csv(args)
    if args.normalize:
        data = normalize_minmax(data)
    doc = {}
    if args.grid is not None:
        try:
            with open(args.grid) as fh:
                doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise ParseError(f"grid file {args.grid}: {e}") from None
    grid = _grid_from_doc(doc, args.seed)
    report = grid_search_cv(data, grid, task=args.task, solver=args.solver)
    feasible = sum(1 for t in report.tuples if t.feasible)
    print(f"cv: {len(report.tuples)} tuples, {feasible} feasible, "
          f"{report.n_folds} folds, seed {report.seed}")
    print(f"best tuple: {report.best_tuple}")
    print(f"best mean accuracy: {report.best_mean_accuracy:.6f}")
    print(f"best mean hamming:  {report.best_mean_hamming:.6f}")
    if args.json_out:
        save_cv_report(report, args.json_out)
    return 0


def _cmd_reproduce(args) -> int:
    report = run_table(args.table, data_dir=args.data_dir)
    print(report.format_text())
    if args.json_out:
        write_json(report.as_dict(), args.json_out)
    return 0 if report.passed else 1


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse already printed its reason; normalize --help to success
        return 0 if not e.code else 2
    try:
        return args.func(args)
    except _SOLVER_ERRORS as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 4
    except _DATA_ERRORS as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"IoError: {e}", file=sys.stderr)
        return 3
    except _USAGE_ERRORS as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
