"""One benchmark workload, run in a process of its own.

``bench/run.py`` starts this file once per workload.  BLAS is pinned to one
thread below, before numpy is first imported, because the thread count
changes both the speed and the results of the solvers.

    python3 bench/workload.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/workload.py --workload NAME --seed N --seconds S --setup-only

The last line of standard output is a JSON object for run.py.
"""

import os

PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_THREADS)

import time  # noqa: E402

SETUP_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import ovnsvm as ovn  # noqa: E402
import ovnsvm.reproduce  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

MODES = ("sw-sb", "sw-hb", "hw-sb", "hw-hb")

PREDICT_BATCH = 10000
TABLES = ("t3", "unseen")


def _hp_dict(hp):
    return {"alpha": hp.alpha, "beta": hp.beta, "gamma": hp.gamma}


def _reference(name, instance):
    with open(HERE / "reference" / "optima.json") as fh:
        ref = json.load(fh)[name]
    if ref["instance"] != instance:
        raise SystemExit(
            f"bench/reference/optima.json holds {name} optima for {ref['instance']}, "
            f"but the inputs are {instance}; rerun bench/make_reference.py"
        )
    return ref


class Ledger:
    """Operations attempted and failed, and the outcome of every check.

    An operation fails when it does not reach its goal (a fit whose
    objective is not within the gap of the reference optimum).  Every other
    check speaks of correctness: one miss makes the run incorrect.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.outcomes = {}  # (operation, check) -> [passes, misses, last detail]

    def op(self, name, checks_done, goal=None):
        self.attempted += 1
        self.check(name, checks_done)
        if goal is not None:
            ok, detail = goal
            self._note(name, "goal: objective gap", ok, detail)
            if not ok:
                self.failed += 1

    def check(self, name, checks_done):
        """Correctness checks of work that is not a counted operation (set-up)."""
        for check, (ok, detail) in checks_done.items():
            self._note(name, check, ok, detail)
            self.correct &= bool(ok)

    def _note(self, name, check, ok, detail):
        rec = self.outcomes.setdefault((name, check), [0, 0, ""])
        rec[0 if ok else 1] += 1
        rec[2] = detail

    def report(self):
        for (name, check), (passes, misses, detail) in self.outcomes.items():
            verdict = "ok" if not misses else ("FAIL" if not passes else "MIXED")
            print(f"  check {verdict:5} {name}: {check} ({passes} ok, {misses} missed) {detail}")


def _fit_checks(model, weight_rows, token):
    return {
        "surrogate descent": checks.descent(model.surrogate_trace),
        "surrogate >= objective": checks.dominance(model.surrogate_trace, model.hinge_trace),
        "hard sums": checks.hard_sums(weight_rows, model.b, token),
    }


class LinearMultilabel:
    """One linear fit per mode on the reference set, scored on seeded rows."""

    def __init__(self, seed, ledger):
        X, Y = inputs.linear_reference()
        self.train = ovn.Dataset(X, Y)
        instance = {"seed": inputs.REFERENCE_SEED, "rows": inputs.LINEAR_TRAIN,
                    "features": inputs.LINEAR_FEATURES, "classes": inputs.LINEAR_CLASSES}
        self.optima = _reference("linear_multilabel", instance)["optima"]
        self.heldout_X, self.heldout_Y = inputs.linear_heldout(seed)

    def round(self, ledger):
        times = {"fit_s": 0.0, "predict_s": 0.0}
        for token in MODES:
            mode = ovn.ConstraintMode.from_token(token)
            hp = ovn.Hyperparameters()
            t0 = time.perf_counter()
            model = ovn.fit_linear(self.train, mode, hp)
            times["fit_s"] += time.perf_counter() - t0
            value = checks.linear_objective(self.train.features, self.train.labels,
                                            model.W, model.b, _hp_dict(hp), token)
            ledger.op(f"fit {token}", _fit_checks(model, model.W, token),
                      goal=checks.gap(value, self.optima[token]))

            t0 = time.perf_counter()
            pred = ovn.predict_multilabel_matrix(model.decision_scores(self.heldout_X))
            times["predict_s"] += time.perf_counter() - t0
            ledger.op(f"predict held-out {token}",
                      {"accuracy": checks.linear_heldout(pred, self.heldout_Y, token)})
        return times

    def describe(self, phases):
        rows = len(MODES) * self.heldout_X.shape[0]
        return {"predict_rows_per_s": rows / phases["predict_s"]}


class KernelCV:
    """Gaussian grid search on the rings and refit of the best tuple."""

    def __init__(self, seed, ledger):
        X, Y = inputs.ring_reference()
        self.train = ovn.Dataset(X, Y)
        self.optima = _ring_optima()
        self.grid = ovn.GridSpec(
            **inputs.KERNEL_GRID, modes=(ovn.ConstraintMode.from_token(inputs.KERNEL_MODE),))
        self.cv_floor = checks.all_labels_accuracy(Y) + checks.RING_MARGIN
        self.grams = {}

    def round(self, ledger):
        times = {}
        t0 = time.perf_counter()
        cv = ovn.grid_search_cv(self.train, self.grid, task="multilabel", solver="kernel", n_jobs=1)
        times["cv_s"] = time.perf_counter() - t0
        ledger.op("cv search", {"best mean accuracy": checks.floor(
            cv.best_mean_accuracy, self.cv_floor, "cv accuracy")})

        t0 = time.perf_counter()
        model = _fit_ring(self.train, cv.best_tuple)
        times["fit_s"] = time.perf_counter() - t0
        ledger.op("refit best tuple", *_ring_fit_checks(
            model, self.train, cv.best_tuple, self.optima, self.grams))
        return times

    def describe(self, phases):
        return {}


def _ring_optima():
    instance = {"seed": inputs.REFERENCE_SEED, "rows": inputs.RING_TRAIN,
                "classes": inputs.RING_CLASSES, "ridge": inputs.RING_RIDGE}
    return _reference("kernel_cv", instance)["optima"]


def _fit_ring(train, params):
    hp = ovn.Hyperparameters(alpha=params["alpha"], beta=params["beta"], gamma=params["gamma"])
    spec = ovn.KernelSpec(kind="gaussian", sigma=params["sigma"])
    return ovn.fit_kernel(train, spec, ovn.ConstraintMode.from_token(params["mode"]), hp)


def _ring_fit_checks(model, train, params, optima, grams):
    """The checks of a ring fit and its goal: the gap to the stored optimum."""
    sigma = params["sigma"]
    if sigma not in grams:
        grams[sigma] = inputs.gaussian_gram(train.features, sigma, inputs.RING_RIDGE)
    token = params["mode"]
    value = checks.kernel_objective(grams[sigma], train.labels, model.A, model.b,
                                    _hp_dict(model.hyperparameters), token)
    optimum = next((o["optimum"] for o in optima if o["params"] == params), None)
    goal = (checks.gap(value, optimum) if optimum is not None
            else (False, f"no reference optimum for {params}"))
    return _fit_checks(model, model.A, token), goal


class KernelPredict:
    """Save, reload and batched scoring of seeded held-out rings.

    The model is fitted once, in set-up, at a pinned tuple of the grid.
    """

    def __init__(self, seed, ledger):
        X, Y = inputs.ring_reference()
        train = ovn.Dataset(X, Y)
        g = inputs.KERNEL_GRID
        params = {"mode": inputs.KERNEL_MODE, "alpha": g["alphas"][0], "beta": g["betas"][0],
                  "gamma": g["gammas"][0], "sigma": inputs.PREDICT_SIGMA}
        self.model = _fit_ring(train, params)
        fit_checks, goal = _ring_fit_checks(self.model, train, params, _ring_optima(), {})
        ledger.check("set-up fit", {**fit_checks, "objective gap": goal})
        self.train_X = X
        self.train_scores = self.model.decision_scores(X)
        self.heldout_X, self.heldout_Y = inputs.ring_heldout(seed)
        OUT.mkdir(exist_ok=True)
        self.model_path = OUT / f"kernel_predict-{os.getpid()}.model.json"

    def round(self, ledger):
        times = {}
        t0 = time.perf_counter()
        ovn.save_model(self.model, self.model_path)
        loaded = ovn.load_model(self.model_path)
        times["persist_s"] = time.perf_counter() - t0
        self.model_path.unlink()
        ledger.op("save and reload", {"training scores bit for bit": checks.same_scores(
            loaded.decision_scores(self.train_X), self.train_scores)})

        times["predict_s"] = 0.0
        for start in range(0, self.heldout_X.shape[0], PREDICT_BATCH):
            Xb = self.heldout_X[start:start + PREDICT_BATCH]
            t0 = time.perf_counter()
            pred = ovn.predict_multilabel_matrix(loaded.decision_scores(Xb))
            times["predict_s"] += time.perf_counter() - t0
            Yb = self.heldout_Y[start:start + PREDICT_BATCH]
            least = checks.all_labels_accuracy(Yb) + checks.RING_MARGIN
            ledger.op("predict batch", {"accuracy": checks.floor(
                checks.jaccard_accuracy(pred, Yb), least, "batch accuracy")})
        return times

    def describe(self, phases):
        return {"predict_rows_per_s": self.heldout_X.shape[0] / phases["predict_s"]}


class Reproduce:
    """The t3 and unseen reproduction tables; their recipes are fixed."""

    def __init__(self, seed, ledger):
        pass

    def round(self, ledger):
        times = {}
        for table in TABLES:
            t0 = time.perf_counter()
            report = ovnsvm.reproduce.run_table(table)
            times[f"{table}_s"] = time.perf_counter() - t0
            gating = [r for r in report.rows if r.gating]
            ledger.op(f"table {table}", {"published bands": (
                report.passed, f"{sum(r.ok for r in gating)} of {len(gating)} gating rows ok")})
        return times

    def describe(self, phases):
        return {}


WORKLOADS = {
    "linear_multilabel": LinearMultilabel,
    "kernel_cv": KernelCV,
    "kernel_predict": KernelPredict,
    "reproduce": Reproduce,
}


def environment() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sblas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    pinned = " ".join(f"{k}={v}" for k, v in PINNED_THREADS.items())
    return (f"{pinned}; nproc {len(os.sched_getaffinity(0))} of {os.cpu_count()}; "
            f"python {platform.python_version()}; numpy {np.__version__} "
            f"({blas.get('name')} {blas.get('version')}); scipy {scipy.__version__} "
            f"({sblas.get('name')} {sblas.get('version')})")


def _total(phases):
    return sum(phases.values())


def measure(work, ledger, seconds, trace):
    """Whole rounds until the next one would end past ``seconds``.

    With ``trace`` the rounds alternate untraced and traced, so the run
    also gives the tracing overhead.
    """
    tracer = Tracer() if trace else None
    plain, traced = [], []
    begin = time.perf_counter()
    while True:
        plain.append(work.round(ledger))
        if tracer is not None:
            with tracer:
                traced.append(work.round(ledger))
        done = len(plain) + len(traced)
        elapsed = time.perf_counter() - begin
        if elapsed + elapsed / done * (2 if trace else 1) > seconds:
            return tracer, plain, traced


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    src = Path(ovn.__file__).resolve()
    if ROOT / "src" not in src.parents:
        raise SystemExit(f"ovnsvm was imported from {src}, not from {ROOT / 'src'}")
    warnings.simplefilter("ignore", ovn.MaxItersExceeded)

    ledger = Ledger()
    work = WORKLOADS[args.workload](args.seed, ledger)
    setup_s = time.perf_counter() - SETUP_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print(f"environment: {environment()}")
    tracer, plain, traced = measure(work, ledger, args.seconds, args.trace)

    phases = {k: statistics.median(r[k] for r in plain) for k in plain[0]}
    phases.update(work.describe(phases))
    round_s = statistics.median(_total(r) for r in plain)
    print(f"  {len(plain)} untraced rounds, median round {round_s:.4f} s; "
          + ", ".join(f"{k} {v:.4g}" for k, v in phases.items()))
    ledger.report()

    result = {
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "setup_s": setup_s,
        "round_s": round_s,
        "phases": phases,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        layers = layer_metrics(tracer, len(traced))
        overhead = statistics.median(_total(r) for r in traced) - round_s
        layers["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        print(f"  {len(traced)} traced rounds, tracing overhead {overhead:+.4f} s per round")
        result["layers"] = layers
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"trace-{args.workload}.jsonl", "w") as fh:
            tracer.write_jsonl(fh)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
