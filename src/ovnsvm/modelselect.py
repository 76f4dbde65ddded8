"""Cross-validated grid search and the one-vs-rest baseline."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .data import Dataset
from .errors import AllTuplesInfeasible, HessianNotPD, TooFewInstances
from .kernel import fit_kernel
from .kernels import KernelSpec
from .linear import ConstraintMode, Hyperparameters, fit_linear
from .predict import evaluate, predict_labels

DEFAULT_ALPHAS = (-0.5, 0.0, 0.5, 1.0, 1.5)
DEFAULT_BETAS = (0.1, 1.0, 10.0, 100.0)
DEFAULT_GAMMAS = (0.1, 1.0, 10.0)
DEFAULT_SIGMAS = (0.25, 0.5, 1.0, 2.0, 4.0)


def kfold_split(n: int, k: int, seed: int):
    """Shuffled split of range(n) into k disjoint folds, sizes within 1."""
    if n < k:
        raise TooFewInstances(f"cannot split {n} instances into {k} folds")
    rng = np.random.default_rng(seed)
    return list(np.array_split(rng.permutation(n), k))


def _check_folds(dataset: Dataset, folds) -> None:
    # each fold's fit needs a positive pattern of every class in its
    # training part, the rows outside the fold
    totals = dataset.labels.sum(axis=0)
    for f, fold in enumerate(folds):
        missing = np.flatnonzero(dataset.labels[fold].sum(axis=0) == totals)
        if missing.size:
            raise TooFewInstances(
                f"class {dataset.class_names[missing[0]]!r} has no positive "
                f"pattern outside fold {f + 1} of {len(folds)}, so that fold "
                "cannot be trained"
            )


@dataclass(frozen=True)
class GridSpec:
    """Hyperparameter grid; defaults are the documented search ranges."""

    alphas: tuple = DEFAULT_ALPHAS
    betas: tuple = DEFAULT_BETAS
    gammas: tuple = DEFAULT_GAMMAS
    sigmas: tuple = DEFAULT_SIGMAS
    degrees: tuple = (2,)
    modes: tuple = (ConstraintMode("soft", "hard"),)
    kernel_kind: str = "gaussian"
    coef0: float = 1.0
    seed: int = 0
    n_folds: int = 3

    def __post_init__(self):
        if self.n_folds < 2:
            raise ValueError("n_folds must be at least 2")
        for name in ("alphas", "betas", "gammas", "sigmas", "degrees", "modes"):
            if len(getattr(self, name)) == 0:
                raise ValueError(f"{name} must be non-empty")
        if any(b <= 0 for b in self.betas):
            raise ValueError("betas must be strictly positive")
        # an unknown kind or a non-integer degree fails here, not in a fit
        for degree in self.degrees:
            KernelSpec(kind=self.kernel_kind, degree=degree, coef0=self.coef0)


@dataclass
class TupleResult:
    params: dict
    fold_accuracies: list = field(default_factory=list)
    fold_hammings: list = field(default_factory=list)
    fold_iterations: list = field(default_factory=list)
    fold_stop_reasons: list = field(default_factory=list)
    mean_accuracy: float = 0.0
    mean_hamming: float = 1.0
    feasible: bool = True
    error: str = ""


@dataclass
class CVReport:
    tuples: list
    best_tuple: dict
    best_mean_accuracy: float
    best_mean_hamming: float
    n_folds: int
    seed: int

    def as_dict(self) -> dict:
        return {
            "best_tuple": self.best_tuple,
            "best_mean_accuracy": self.best_mean_accuracy,
            "best_mean_hamming": self.best_mean_hamming,
            "n_folds": self.n_folds,
            "seed": self.seed,
            "tuples": [asdict(t) for t in self.tuples],
        }


def _enumerate_tuples(grid: GridSpec, solver: str):
    # collapse the dimensions a combination does not read, so the grid has
    # no redundant refits
    for mode in grid.modes:
        alphas = grid.alphas if mode.w_constraint == "soft" else (0.0,)
        gammas = grid.gammas if mode.b_constraint == "soft" else (1.0,)
        if solver == "kernel":
            if grid.kernel_kind == "gaussian":
                kparams = [{"sigma": s} for s in grid.sigmas]
            elif grid.kernel_kind == "polynomial":
                kparams = [{"degree": int(d)} for d in grid.degrees]
            else:
                kparams = [{}]
        else:
            kparams = [{}]
        for alpha in alphas:
            for beta in grid.betas:
                for gamma in gammas:
                    for kp in kparams:
                        yield {
                            "mode": mode.token,
                            "alpha": float(alpha),
                            "beta": float(beta),
                            "gamma": float(gamma),
                            **kp,
                        }


def _fit_for_params(train: Dataset, params: dict, grid: GridSpec, solver: str):
    mode = ConstraintMode.from_token(params["mode"])
    hp = Hyperparameters(
        alpha=params["alpha"], beta=params["beta"], gamma=params["gamma"]
    )
    if solver == "kernel":
        spec = KernelSpec(
            kind=grid.kernel_kind,
            sigma=params.get("sigma", 1.0),
            degree=params.get("degree", 2),
            coef0=grid.coef0,
        )
        return fit_kernel(train, spec, mode, hp, traces=False, refit=False)
    return fit_linear(train, mode, hp, traces=False)


def _score_fold(model, test: Dataset, task: str):
    pred = predict_labels(model.decision_scores(test.features), task)
    rep = evaluate(pred, test.labels, test.n_classes)
    return rep.accuracy, rep.hamming_loss


def _evaluate_tuple(dataset, folds, params, grid, task, solver):
    result = TupleResult(params=params)
    try:
        for f in range(len(folds)):
            test_idx = folds[f]
            train_idx = np.concatenate([folds[g] for g in range(len(folds)) if g != f])
            model = _fit_for_params(dataset.subset(train_idx), params, grid, solver)
            acc, ham = _score_fold(model, dataset.subset(test_idx), task)
            result.fold_accuracies.append(float(acc))
            result.fold_hammings.append(float(ham))
            result.fold_iterations.append(model.iterations_used)
            result.fold_stop_reasons.append(model.stop_reason)
        result.mean_accuracy = float(np.mean(result.fold_accuracies))
        result.mean_hamming = float(np.mean(result.fold_hammings))
    except HessianNotPD as e:
        return TupleResult(params, feasible=False, error=f"HessianNotPD: {e}")
    return result


def grid_search_cv(
    dataset: Dataset,
    grid: GridSpec,
    task: str = "multilabel",
    solver: str = "linear",
    n_jobs: int = 1,
) -> CVReport:
    """Cross-validated grid search; selection criterion is mean fold accuracy.

    Tuples whose reduced Hessian is indefinite are recorded as infeasible
    and skipped.  A fold whose training part has no positive pattern of
    some class raises TooFewInstances before any fit.  Every fit runs in
    turn in the calling process, in enumeration order, so the report is
    deterministic for fixed (dataset, grid).  The fold fits run with
    ``traces=False``: the report reads no trace, so they run no MM solve,
    and each factors only its ``iterations_used`` Newton systems.

    ``n_jobs`` must be 1; any other value raises ``ValueError``.  It is
    kept only for callers that still pass ``n_jobs=1`` and goes in the
    next change to the benchmark harness.
    """
    if task not in ("multiclass", "multilabel"):
        raise ValueError(f"unknown task {task!r}")
    if solver not in ("linear", "kernel"):
        raise ValueError(f"unknown solver {solver!r}")
    if n_jobs != 1:
        raise ValueError(f"n_jobs must be 1, got {n_jobs!r}")
    folds = kfold_split(dataset.n_instances, grid.n_folds, grid.seed)
    _check_folds(dataset, folds)
    results = [
        _evaluate_tuple(dataset, folds, p, grid, task, solver)
        for p in _enumerate_tuples(grid, solver)
    ]
    feasible = [r for r in results if r.feasible]
    if not feasible:
        raise AllTuplesInfeasible(
            f"all {len(results)} grid tuples failed the positive definite check"
        )
    best = max(feasible, key=lambda r: r.mean_accuracy)
    return CVReport(
        tuples=results,
        best_tuple=best.params,
        best_mean_accuracy=best.mean_accuracy,
        best_mean_hamming=best.mean_hamming,
        n_folds=grid.n_folds,
        seed=grid.seed,
    )


@dataclass
class UntrainableClass:
    """Record of a class whose one-vs-rest problem has only one side."""

    class_index: int
    reason: str


@dataclass
class OvrBaseline:
    """K independent binary fits; class k versus everything else.

    An untrainable class (no positives, or no negatives, the failure mode
    this baseline is known for) scores +1 constantly, asserting membership
    for every pattern.  The multilabel rule thresholds the binary score at
    zero, so the label set may be empty, unlike the unified predictor.
    """

    models: list
    untrainable: list
    K: int

    def decision_scores(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        out = np.empty((X.shape[0], self.K))
        for k, model in enumerate(self.models):
            if model is None:
                out[:, k] = 1.0
            else:
                out[:, k] = model.decision_scores(X)[:, 0]
        return out

    def predict_multilabel_matrix(self, X) -> np.ndarray:
        return (self.decision_scores(X) >= 0.0).astype(np.int64)


def ovr_baseline_fit(
    dataset: Dataset, hp: Hyperparameters, kernel: KernelSpec | None = None
) -> OvrBaseline:
    """One-vs-rest baseline built from binary-equivalent unified fits.

    Each class is fit against its complement as a K = 2 hard-w/hard-b
    problem, which coincides with a standard soft-margin binary machine.
    Classes with an empty side are recorded as untrainable, not fatal.
    The binary fits run with ``traces=False``: the baseline reads only
    their scores, so its models carry empty traces.
    """
    mode = ConstraintMode("hard", "hard")
    models = []
    untrainable = []
    for k in range(dataset.n_classes):
        pos = dataset.labels[:, k] == 1
        if not pos.any():
            untrainable.append(UntrainableClass(k, "no positive patterns"))
            models.append(None)
            continue
        if pos.all():
            untrainable.append(UntrainableClass(k, "no negative patterns"))
            models.append(None)
            continue
        binary_labels = np.column_stack([pos, ~pos]).astype(np.int64)
        binary = Dataset(
            dataset.features,
            binary_labels,
            (dataset.class_names[k], "rest"),
            dataset.feature_names,
        )
        if kernel is None:
            models.append(fit_linear(binary, mode, hp, traces=False))
        else:
            models.append(fit_kernel(binary, kernel, mode, hp, traces=False))
    return OvrBaseline(models=models, untrainable=untrainable, K=dataset.n_classes)
