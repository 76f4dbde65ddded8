"""Scripted desk-scale reruns of the published result tables.

Each runner refits models from a pinned recipe and compares the outcome
against the published reference numbers under explicit tolerance bands:
exact equality where a frozen fixture makes the run deterministic,
intervals where the fold shuffles and search grids behind the reference
numbers are unknown.  Rows marked informational are printed for context
and never gate the outcome.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .data import (
    Dataset,
    SynthSpec,
    load_csv,
    normalize_minmax,
    synth_generate,
    unseen_label_test_partition,
)
from .errors import IoError
from .kernel import fit_kernel, support_vectors
from .kernels import KernelSpec
from .linear import ConstraintMode, Hyperparameters, fit_linear
from .modelselect import GridSpec, grid_search_cv, ovr_baseline_fit
from .predict import evaluate, predict_labels

TABLES = ("t3", "t4", "t5", "unseen")

# Pinned recipe for the unseen-label toy.  The training clusters are repo
# constants (see data.py); the fit below reproduces the six-row test table
# exactly, so these values are load-bearing and must not drift.  The fit
# stops on the interior-point certificate ("gap") after 11 steps of the
# method; the iteration budget is headroom and does not decide the table.
UNSEEN_SEED = 7
UNSEEN_N = 10
UNSEEN_MODE = "sw-hb"
UNSEEN_ALPHA = 1.0
UNSEEN_BETA = 10.0
UNSEEN_MAX_ITERS = 4000
UNSEEN_TOL = 1e-9

# Pinned toy recipes for the two-class table.  Support-vector counts carry
# a +/-3 band per class because the reference extraction rule is unstated.
# The counts compare scores against 1, so the fits run to the tight
# tolerance below rather than the fit defaults.  All three stop on the
# interior-point certificate after 11 steps of the method each, far inside
# the budget.
T3_RECIPES = {
    "hourglass": {
        "kernel": {"kind": "gaussian", "sigma": 0.6},
        "alpha": 1.0,
        "beta": 10.0,
        "n_per_cluster": 30,
        "seed": 0,
        "accuracy_ref": 1.0,
        "sv_ref": (9, 10),
        "gating": True,
    },
    "moon": {
        "kernel": {"kind": "gaussian", "sigma": 0.8},
        "alpha": 1.0,
        "beta": 10.0,
        "n_per_cluster": 25,
        "seed": 0,
        "accuracy_ref": 1.0,
        "sv_ref": (4, 6),
        "gating": True,
    },
    "random_two_class": {
        "kernel": {"kind": "linear"},
        "alpha": 1.0,
        "beta": 10.0,
        "n_per_cluster": 20,
        "seed": 0,
        "accuracy_ref": 0.95,
        "sv_ref": (6, 6),
        "gating": False,
    },
}
SV_SLACK = 3
T3_MAX_ITERS = 12000
T3_TOL = 1e-10

# Benchmark bands, one (reference, lo, hi) tuple per compared metric:
# the metric must lie in [lo, hi], or clear lo where hi is None; rows
# whose lo is None are context.  The reference value is shown beside it.
# The iris/linear floor is not reachable by this implementation: every
# mode, coefficient sweep, normalization, and fit depth tops out at 0.940
# (verified against the subgradient oracle), so that row fails by design
# rather than having its band quietly widened.
T4_BANDS = {
    "iris": {"linear": (0.987, 0.95, None), "gaussian": (0.987, 0.95, None)},
    "wine": {"linear": (0.843, None, None), "gaussian": (0.966, 0.92, None)},
    "glass": {"linear": (0.851, None, None), "gaussian": (0.869, 0.78, None)},
}
T5_BANDS = {
    "scene": {"accuracy": (0.652, 0.60, 0.70), "hamming": (0.12, 0.09, 0.16)},
    "emotions": {"accuracy": (0.50, 0.44, 0.56), "hamming": (0.255, None, None)},
}

# Cross-validated benchmark grids, pinned small enough that every table
# finishes well inside the desk-scale budget (each kernel solve factors K
# blocks of order r + 1, with r <= N the rank of the Gram factor).
T4_LINEAR_GRID = dict(
    alphas=(0.5, 1.0, 1.5),
    betas=(1.0, 10.0, 100.0),
    gammas=(1.0,),
    sigmas=(1.0,),
    seed=0,
    n_folds=3,
)
T4_GAUSSIAN_GRID = dict(
    alphas=(0.5,),
    betas=(10.0, 100.0),
    gammas=(1.0,),
    sigmas=(0.25, 0.5, 1.0, 2.0),
    kernel_kind="gaussian",
    seed=0,
    n_folds=3,
)
T5_GAUSSIAN_GRID = dict(
    alphas=(0.5,),
    betas=(10.0,),
    gammas=(1.0,),
    sigmas=(1.0, 2.0),
    kernel_kind="gaussian",
    seed=0,
    n_folds=3,
)
# Cap for the larger multilabel set: a seeded subsample keeps the cubic
# kernel solves inside the runtime budget; the band already allows for
# the variance this introduces.
T5_MAX_INSTANCES = 600


@dataclass
class BandRow:
    """One compared quantity: ours versus the reference, with a band."""

    fixture: str
    metric: str
    ours: str
    reference: str
    band: str
    ok: bool
    gating: bool = True

    @property
    def verdict(self) -> str:
        if not self.gating:
            return "info"
        return "ok" if self.ok else "FAIL"


@dataclass
class TableReport:
    """All band rows of one reproduction table plus free-form notes."""

    table: str
    title: str
    rows: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.rows if r.gating)

    def as_dict(self) -> dict:
        return {
            "table": self.table,
            "title": self.title,
            "passed": self.passed,
            "rows": [dict(asdict(r), verdict=r.verdict) for r in self.rows],
            "notes": list(self.notes),
        }

    def format_text(self) -> str:
        header = ("fixture", "metric", "ours", "reference", "band", "verdict")
        cells = [header] + [
            (r.fixture, r.metric, r.ours, r.reference, r.band, r.verdict)
            for r in self.rows
        ]
        widths = [max(len(row[j]) for row in cells) for j in range(len(header))]
        lines = [f"table {self.table}: {self.title}"]
        for row in cells:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        for note in self.notes:
            lines.append(f"note: {note}")
        lines.append(f"result: {'pass' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def _bitstring(row) -> str:
    return "[" + ",".join(str(int(v)) for v in row) + "]"


def _training_accuracy(model, dataset: Dataset) -> float:
    pred = predict_labels(model.decision_scores(dataset.features), "multiclass")
    return evaluate(pred, dataset.labels, dataset.n_classes).accuracy


def run_unseen(data_dir=None) -> TableReport:
    """Refit the unseen-label toy and compare the six-row test table."""
    report = TableReport(
        table="unseen",
        title="unseen label set toy, linear soft-w hard-b versus one-vs-rest",
    )
    train = synth_generate(
        SynthSpec("unseen_label_toy", n_per_cluster=UNSEEN_N, seed=UNSEEN_SEED)
    )
    hp = Hyperparameters(
        alpha=UNSEEN_ALPHA,
        beta=UNSEEN_BETA,
        max_iters=UNSEEN_MAX_ITERS,
        tol=UNSEEN_TOL,
    )
    model = fit_linear(train, ConstraintMode.from_token(UNSEEN_MODE), hp, traces=False)
    test = unseen_label_test_partition()
    pred = predict_labels(model.decision_scores(test.features), "multilabel")
    for i in range(test.n_instances):
        x = test.features[i]
        ours = _bitstring(pred[i])
        ref = _bitstring(test.labels[i])
        report.rows.append(
            BandRow(
                fixture=f"({x[0]:g},{x[1]:g})",
                metric="label set",
                ours=ours,
                reference=ref,
                band="exact",
                ok=ours == ref,
            )
        )

    ovr = ovr_baseline_fit(train, hp)
    seen = np.vstack([train.features, test.features])
    ovr_pred = ovr.predict_multilabel_matrix(seen)
    emitted = bool(np.any((ovr_pred[:, 0] == 0) & (ovr_pred[:, 1] == 1)))
    report.rows.append(
        BandRow(
            fixture="ovr baseline",
            metric="[0,1] emitted",
            ours="yes" if emitted else "no",
            reference="no",
            band="never",
            ok=not emitted,
        )
    )
    for rec in ovr.untrainable:
        report.notes.append(
            f"ovr class {rec.class_index + 1} untrainable ({rec.reason}); "
            "it scores +1 constantly"
        )
    report.notes.append(
        f"recipe: seed={UNSEEN_SEED} n_per_cluster={UNSEEN_N} mode={UNSEEN_MODE} "
        f"alpha={UNSEEN_ALPHA:g} beta={UNSEEN_BETA:g} "
        f"max_iters={UNSEEN_MAX_ITERS} tol={UNSEEN_TOL:g}"
    )
    return report


def run_t3(data_dir=None) -> TableReport:
    """Two-class toys: training accuracy and support-vector counts."""
    report = TableReport(
        table="t3", title="two-class toys, soft-w hard-b, pinned kernels"
    )
    for name, rec in T3_RECIPES.items():
        data = synth_generate(
            SynthSpec(name, n_per_cluster=rec["n_per_cluster"], seed=rec["seed"])
        )
        spec = KernelSpec(**rec["kernel"])
        hp = Hyperparameters(
            alpha=rec["alpha"],
            beta=rec["beta"],
            max_iters=T3_MAX_ITERS,
            tol=T3_TOL,
        )
        model = fit_kernel(
            data, spec, ConstraintMode("soft", "hard"), hp, traces=False, refit=False
        )
        acc = _training_accuracy(model, data)
        gating = rec["gating"]
        report.rows.append(
            BandRow(
                fixture=f"{name}/{spec.kind}",
                metric="train accuracy",
                ours=_fmt(acc),
                reference=_fmt(rec["accuracy_ref"]),
                band="= 1.000" if gating else "context",
                ok=acc == 1.0 if gating else True,
                gating=gating,
            )
        )
        sv = support_vectors(model, data)
        for k, ref_count in enumerate(rec["sv_ref"]):
            count = int(sv[k].size)
            lo, hi = ref_count - SV_SLACK, ref_count + SV_SLACK
            report.rows.append(
                BandRow(
                    fixture=f"{name}/{spec.kind}",
                    metric=f"sv count c{k + 1}",
                    ours=str(count),
                    reference=str(ref_count),
                    band=f"[{lo}, {hi}]" if gating else "context",
                    ok=lo <= count <= hi if gating else True,
                    gating=gating,
                )
            )
        report.notes.append(
            f"{name}: n_per_cluster={rec['n_per_cluster']} seed={rec['seed']} "
            f"kernel={rec['kernel']} alpha={rec['alpha']:g} beta={rec['beta']:g}"
        )
    return report


def _bundled_multiclass(name: str):
    try:
        from sklearn import datasets as skd
    except ImportError:  # pragma: no cover - optional dependency
        return None
    loader = {"iris": skd.load_iris, "wine": skd.load_wine}.get(name)
    if loader is None:
        return None
    raw = loader()
    labels = np.zeros((raw.target.size, len(raw.target_names)), dtype=np.int64)
    labels[np.arange(raw.target.size), raw.target] = 1
    return Dataset(
        np.asarray(raw.data, dtype=float),
        labels,
        tuple(str(c) for c in raw.target_names),
        tuple(f"f{j + 1}" for j in range(np.asarray(raw.data).shape[1])),
    )


def _load(name: str, data_dir, multiclass: bool) -> Dataset:
    """<data_dir>/<name>.csv with its features scaled to [0, 1].

    A multiclass set reads its 'class' column, and iris and wine fall back
    on the copies bundled with scikit-learn when it is installed.
    """
    path = Path(data_dir) / f"{name}.csv"
    if path.exists():
        return normalize_minmax(
            load_csv(path, multiclass_column="class" if multiclass else None)
        )
    bundled = _bundled_multiclass(name) if multiclass else None
    if bundled is not None:
        return normalize_minmax(bundled)
    labels = "a 'class' column" if multiclass else "one 'label:<name>' column per class"
    raise IoError(
        f"missing dataset file {path}; provide the {name} data as a CSV "
        f"with numeric feature columns and {labels}"
    )


def _capped(data: Dataset) -> Dataset:
    """At most T5_MAX_INSTANCES rows of data, a seeded subset in file order."""
    keep = np.random.default_rng(0).permutation(data.n_instances)[:T5_MAX_INSTANCES]
    return data.subset(np.sort(keep))


def _band_row(fixture: str, metric: str, value, band) -> BandRow:
    """Compare value, or None for a set that could not be loaded, to band."""
    ref, lo, hi = band
    gating = lo is not None
    if not gating:
        text = "context"
    elif hi is None:
        text = f">= {lo:g}"
    else:
        text = f"[{lo:g}, {hi:g}]"
    if value is None:
        # a missing benchmark cannot pass its band
        ours, ok = "no data", not gating
    else:
        ours = _fmt(value)
        ok = not gating or (value >= lo and (hi is None or value <= hi))
    return BandRow(fixture, metric, ours, _fmt(ref), text, ok, gating)


def _cv_table(report: TableReport, fixtures, data_dir, multiclass: bool) -> TableReport:
    """Cross-validate every (kernel label, solver, grid, {metric: band}) run
    of every (dataset, runs) fixture and compare its best tuple's means."""
    task = "multiclass" if multiclass else "multilabel"
    for name, runs in fixtures:
        try:
            data = _load(name, data_dir, multiclass)
        except IoError as e:
            # report the missing set as failed comparisons instead of
            # aborting the other fixtures
            for label, _, _, bands in runs:
                for metric, band in bands.items():
                    report.rows.append(
                        _band_row(f"{name}/{label}", f"cv {metric}", None, band)
                    )
            report.notes.append(str(e))
            continue
        if not multiclass and data.n_instances > T5_MAX_INSTANCES:
            data = _capped(data)
            report.notes.append(
                f"{name}: subsampled to {T5_MAX_INSTANCES} instances (seed 0) "
                "to keep the cubic kernel solves desk-scale"
            )
        for label, solver, grid, bands in runs:
            cv = grid_search_cv(data, GridSpec(**grid), task=task, solver=solver)
            for metric, band in bands.items():
                value = getattr(cv, f"best_mean_{metric}")
                report.rows.append(
                    _band_row(f"{name}/{label}", f"cv {metric}", value, band)
                )
            # a set run under one kernel only is named alone
            fixture = name if len(runs) == 1 else f"{name}/{label}"
            report.notes.append(f"{fixture} best tuple: {cv.best_tuple}")
    return report


def run_t4(data_dir="data") -> TableReport:
    """Multiclass benchmarks: 3-fold mean accuracy under pinned grids."""
    report = TableReport("t4", "multiclass benchmarks, 3-fold cross validation")
    fixtures = [
        (
            name,
            [
                ("linear", "linear", T4_LINEAR_GRID, {"accuracy": bands["linear"]}),
                ("gaussian", "kernel", T4_GAUSSIAN_GRID, {"accuracy": bands["gaussian"]}),
            ],
        )
        for name, bands in T4_BANDS.items()
    ]
    return _cv_table(report, fixtures, data_dir, multiclass=True)


def run_t5(data_dir="data") -> TableReport:
    """Multilabel benchmarks: 3-fold accuracy and hamming loss bands."""
    report = TableReport("t5", "multilabel benchmarks, gaussian kernel, 3-fold")
    fixtures = [
        (name, [("gaussian", "kernel", T5_GAUSSIAN_GRID, bands)])
        for name, bands in T5_BANDS.items()
    ]
    return _cv_table(report, fixtures, data_dir, multiclass=False)


_RUNNERS = {
    "unseen": run_unseen,
    "t3": run_t3,
    "t4": run_t4,
    "t5": run_t5,
}


def run_table(table: str, data_dir="data") -> TableReport:
    """Dispatch one reproduction table by its CLI token."""
    if table not in _RUNNERS:
        raise ValueError(f"unknown table {table!r}; choose one of {TABLES}")
    return _RUNNERS[table](data_dir=data_dir)
