"""Per-layer tracing of the ovnsvm modules, from outside the program.

A traced call is recorded as a span (name, parent span, start, end,
attributes).  Functions are wrapped where their callers look them up:
every binding of the function object in an ``ovnsvm`` module is replaced,
so ``_solve_reduced`` is traced both as ``ovnsvm.linear`` calls it and as
``ovnsvm.kernel`` imported it.  A target that a later version of the
program no longer has is skipped, and the metrics built from it drop out.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np


def _fit_attrs(model):
    return {"iterations": int(model.iterations_used), "converged": bool(model.converged)}


def _order_attrs(system):
    return {"order": int(system.H.shape[0])}


def _cv_attrs(report):
    return {"tuples": len(report.tuples)}


def _update_attrs(state):
    eps = state.epsilon
    return {"clamped": int(sum(np.count_nonzero(z <= eps) for z in state.z))}


# (home module, attribute, span name, attribute hook).  A dotted attribute
# names a method, wrapped on its class.
TARGETS = (
    ("ovnsvm.linear", "fit_linear", "linear.fit_linear", _fit_attrs),
    ("ovnsvm.linear", "assemble", "linear.assemble", _order_attrs),
    ("ovnsvm.linear", "_solve_reduced", "linear.solve", None),
    ("ovnsvm.linear", "cho_factor", "linear.cholesky", None),
    ("ovnsvm.linear", "training_objective", "linear.objective", None),
    ("ovnsvm.kernel", "fit_kernel", "kernel.fit_kernel", _fit_attrs),
    ("ovnsvm.kernel", "assemble_kernel", "kernel.assemble_kernel", _order_attrs),
    ("ovnsvm.kernel", "training_objective_kernel", "kernel.objective", None),
    ("ovnsvm.kernels", "gram", "kernels.gram", None),
    ("ovnsvm.kernels", "gram_cross", "kernels.gram_cross", None),
    ("ovnsvm.majorization", "z_update", "majorization.z_update", None),
    ("ovnsvm.majorization", "MMState.update", "majorization.update", _update_attrs),
    ("ovnsvm.modelselect", "grid_search_cv", "modelselect.grid_search_cv", _cv_attrs),
    ("ovnsvm.modelselect", "ovr_baseline_fit", "modelselect.ovr_baseline_fit", None),
    ("ovnsvm.predict", "predict_multilabel_matrix", "predict.predict_multilabel_matrix", None),
    ("ovnsvm.persistence", "save_model", "persistence.save_model", None),
    ("ovnsvm.persistence", "load_model", "persistence.load_model", None),
)

NAME, PARENT, START, END, ATTRS = range(5)


class Tracer:
    """Installs span-recording wrappers and restores the originals."""

    def __init__(self):
        self.spans = []  # [name, parent index, start, end, attrs]
        self.present = set()  # span names whose target exists
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn, attrs):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as e:
                rec[ATTRS] = {"error": type(e).__name__}
                raise
            finally:
                rec[END] = clock()
                stack.pop()
            if attrs is not None:
                rec[ATTRS] = attrs(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "ovnsvm" or n.startswith("ovnsvm."))]
        for home, attr, name, attrs in TARGETS:
            owner = sys.modules.get(home)
            cls_name, _, meth = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
            fn = getattr(owner, meth, None)
            if fn is None:
                continue
            self.present.add(name)
            wrapper = self._wrap(name, fn, attrs)
            if cls_name:
                self._patch(owner, meth, fn, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, key, fn, wrapper)

    def _patch(self, owner, key, original, wrapper):
        setattr(owner, key, wrapper)
        self._restore.append((owner, key, original))

    def uninstall(self):
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def write_jsonl(self, fh):
        for i, (name, parent, t0, t1, attrs) in enumerate(self.spans):
            rec = {"id": i, "parent": parent, "name": name, "start": t0, "end": t1}
            if attrs:
                rec.update(attrs)
            fh.write(json.dumps(rec) + "\n")


def layer_metrics(tracer: Tracer, rounds: int) -> dict:
    """Per-layer metrics from the recorded spans, per traced round.

    Counts and seconds are divided by the number of traced rounds, so they
    do not depend on how many rounds fit into a run.  Metrics of a target
    the program no longer has are left out.
    """
    spans = tracer.spans
    by_name = {}
    for rec in spans:
        by_name.setdefault(rec[NAME], []).append(rec)

    def calls(name):
        return len(by_name.get(name, ()))

    def seconds(name):
        return sum(r[END] - r[START] for r in by_name.get(name, ()))

    def ms_per_call(name):
        n = calls(name)
        return 1e3 * seconds(name) / n if n else 0.0

    out = {}

    def put(key, value, unit):
        out[key] = {"value": value, "unit": unit}

    for name in ("linear.fit_linear", "kernel.fit_kernel"):
        if name not in tracer.present:
            continue
        fits = by_name.get(name, ())
        iters = sum(r[ATTRS]["iterations"] for r in fits if r[ATTRS] and "iterations" in r[ATTRS])
        put(f"{name}.calls", calls(name) / rounds, "count")
        put(f"{name}.iterations", iters / rounds, "count")
        put(f"{name}.ms_per_iter", 1e3 * seconds(name) / iters if iters else 0.0, "ms")
        put(f"{name}.unconverged",
            sum(1 for r in fits if r[ATTRS] and r[ATTRS].get("converged") is False) / rounds,
            "count")
    for name in ("linear.assemble", "kernel.assemble_kernel"):
        if name not in tracer.present:
            continue
        orders = [r[ATTRS]["order"] for r in by_name.get(name, ()) if r[ATTRS] and "order" in r[ATTRS]]
        put(f"{name}.calls", calls(name) / rounds, "count")
        put(f"{name}.ms_per_call", ms_per_call(name), "ms")
        put(f"{name}.system_order", max(orders, default=0), "count")
    if "linear.solve" in tracer.present:
        put("linear.solve.calls", calls("linear.solve") / rounds, "count")
        put("linear.solve.ms_per_call", ms_per_call("linear.solve"), "ms")
    if "linear.cholesky" in tracer.present:
        failures = sum(1 for r in by_name.get("linear.cholesky", ())
                       if r[ATTRS] and r[ATTRS].get("error") == "LinAlgError")
        put("linear.cholesky.calls", calls("linear.cholesky") / rounds, "count")
        put("linear.cholesky.failures", failures / rounds, "count")
    for name in ("linear.objective", "kernel.objective"):
        if name in tracer.present:
            put(f"{name}.ms_per_call", ms_per_call(name), "ms")
    for name in ("kernels.gram", "kernels.gram_cross", "majorization.z_update"):
        if name in tracer.present:
            put(f"{name}.calls", calls(name) / rounds, "count")
            put(f"{name}.s", seconds(name) / rounds, "s")
    if "majorization.update" in tracer.present:
        # entries at epsilon after the last auxiliary update of each fit
        last = {}
        for rec in by_name.get("majorization.update", ()):
            if rec[ATTRS]:
                last[rec[PARENT]] = rec[ATTRS]["clamped"]
        put("majorization.z_clamped", sum(last.values()) / rounds, "count")
    if "modelselect.grid_search_cv" in tracer.present:
        cv_ids = {i for i, r in enumerate(spans) if r[NAME] == "modelselect.grid_search_cv"}
        fits = 0
        for rec in spans:
            if rec[NAME] in ("linear.fit_linear", "kernel.fit_kernel") and _under(spans, rec, cv_ids):
                fits += 1
        tuples = sum(spans[i][ATTRS]["tuples"] for i in cv_ids if spans[i][ATTRS])
        put("modelselect.fits", fits / rounds, "count")
        put("modelselect.tuples", tuples / rounds, "count")
    for name in ("modelselect.ovr_baseline_fit", "predict.predict_multilabel_matrix",
                 "persistence.save_model", "persistence.load_model"):
        if name in tracer.present:
            put(f"{name}.s", seconds(name) / rounds, "s")
    return out


def _under(spans, rec, ancestors) -> bool:
    parent = rec[PARENT]
    while parent >= 0:
        if parent in ancestors:
            return True
        parent = spans[parent][PARENT]
    return False
