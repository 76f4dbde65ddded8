"""The support-vector refit of kernel fits: fewer columns, no higher objective."""

import dataclasses
import re

import numpy as np
import pytest
from conftest import random_multilabel

import ovnsvm.kernel
import ovnsvm.linear
from ovnsvm import (
    ConstraintMode,
    Dataset,
    HessianNotPD,
    Hyperparameters,
    KernelSpec,
    SingularSystem,
    fit_kernel,
)
from ovnsvm.linear import _factor_blocks, _minimize, _mm_traces

MODES = [ConstraintMode.from_token(t) for t in ("sw-sb", "sw-hb", "hw-sb", "hw-hb")]
SPECS = [
    KernelSpec(kind="gaussian", sigma=0.5),
    KernelSpec(kind="gaussian", sigma=1.0),
    KernelSpec(kind="polynomial", degree=6, coef0=1.0),
]
HP = Hyperparameters(alpha=0.5, beta=10.0)

# fits whose refit is kept: (spec, mode token)
KEPT = [(SPECS[1], "sw-sb"), (SPECS[1], "sw-hb"), (SPECS[1], "hw-hb"),
        (SPECS[0], "hw-sb"), (SPECS[2], "hw-sb"), (SPECS[2], "hw-hb")]


def _rings(seed=0, n=60):
    # three rings of width 1 in the plane; rows within 0.15 of a ring edge
    # carry both rings
    rng = np.random.default_rng(seed)
    r, theta = rng.uniform(0.0, 3.0, n), rng.uniform(0.0, 2.0 * np.pi, n)
    edges = np.linspace(0.0, 3.0, 4)
    Y = (r[:, None] >= edges[:-1] - 0.15) & (r[:, None] < edges[1:] + 0.15)
    return Dataset(np.column_stack([r * np.cos(theta), r * np.sin(theta)]), Y.astype(np.int64))


@pytest.fixture
def runs(monkeypatch):
    """Every run of the method in a kernel fit, with the parts it ran on."""
    out = []

    def recorded(parts, hp):
        run = _minimize(parts, hp)
        out.append((parts, run))
        return run

    monkeypatch.setattr(ovnsvm.kernel, "_minimize", recorded)
    return out


def _kept(model):
    return np.flatnonzero(model.A.any(axis=0))


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.token)
@pytest.mark.parametrize("spec", SPECS, ids=repr)
def test_the_refit_never_raises_the_objective(spec, mode):
    d = _rings()
    pivot = fit_kernel(d, spec, mode, HP, traces=False, refit=False)
    model = fit_kernel(d, spec, mode, HP, traces=False)
    assert pivot.stop_reason == model.stop_reason == "gap"
    assert model.final_objective <= pivot.final_objective
    note = model.interior_point.removeprefix(f"{pivot.interior_point}; refit ")
    assert note != model.interior_point
    if note.startswith("on "):
        assert re.fullmatch(r"on (\d+) landmarks converged after \d+ steps", note)
        assert len(_kept(model)) == int(note.split()[1]) < len(_kept(pivot))
    else:
        # the pivot fit is the model, bit for bit
        assert re.fullmatch(r"skipped \(\|S\| >= r\)|discarded \(converged after \d+ steps, "
                            r"objective \S+ above \S+\)", note)
        assert np.array_equal(model.A, pivot.A) and np.array_equal(model.b, pivot.b)
        assert model.final_objective == pivot.final_objective
        assert model.kkt_residual == pivot.kkt_residual


@pytest.mark.parametrize("spec, token", KEPT, ids=repr)
def test_the_model_lives_on_the_support_vector_landmarks(spec, token, runs):
    d = _rings()
    mode = ConstraintMode.from_token(token)
    model = fit_kernel(d, spec, mode, HP, traces=False)
    (_, pivot), (parts, refit) = runs
    assert "refit on" in model.interior_point
    rows = np.concatenate(d.class_index_sets())
    landmarks = np.unique(rows[pivot.lam > 1e-5 * HP.beta])
    assert set(_kept(model)) <= set(landmarks)
    assert len(_kept(model)) == parts.metric.shape[0] - 1 < pivot.w.shape[1] - 1
    assert model.iterations_used == pivot.iterations_used + refit.iterations_used
    assert (model.stop_reason, model.kkt_residual) == ("gap", refit.kkt_residual)
    assert np.array_equal(model.b, refit.w[:, -1])
    if mode.w_constraint == "hard":
        assert np.abs(model.A.sum(axis=0)).max() <= 1e-10 * max(1.0, np.abs(model.A).max())


@pytest.mark.parametrize("spec, token", KEPT[:3], ids=repr)
def test_the_traces_descend_and_dominate_on_the_landmark_system(spec, token, runs):
    d = _rings()
    model = fit_kernel(d, spec, ConstraintMode.from_token(token), HP)
    parts, refit = runs[1]
    assert "refit on" in model.interior_point
    # one MM iteration per step of the refit but the last, as beside it
    n = refit.iterations_used - 1
    assert (model.surrogate_trace, model.hinge_trace) == _mm_traces(parts, HP, n)
    surrogate, hinge = np.array(model.surrogate_trace), np.array(model.hinge_trace)
    assert np.all(np.diff(surrogate) <= 1e-12 * np.abs(surrogate[:-1]))
    assert np.all(surrogate >= hinge - 1e-12 * np.abs(hinge))


@pytest.mark.parametrize("traces", [False, True])
def test_a_refit_fit_factors_one_system_per_step_of_both_fits(traces, runs, monkeypatch):
    # and with traces one MM system per step of the refit but the last
    calls = []

    def counted(*args):
        calls.append(1)
        return _factor_blocks(*args)

    monkeypatch.setattr(ovnsvm.linear, "_factor_blocks", counted)
    spec, token = KEPT[0]
    model = fit_kernel(_rings(), spec, ConstraintMode.from_token(token), HP, traces=traces)
    assert "refit on" in model.interior_point
    mm = runs[1][1].iterations_used - 1 if traces else 0
    assert len(calls) == model.iterations_used + mm


@pytest.mark.parametrize("spec, token", KEPT[:2], ids=repr)
def test_without_refit_the_method_runs_once_on_the_pivots(spec, token, runs):
    d = _rings()
    model = fit_kernel(d, spec, ConstraintMode.from_token(token), HP, refit=False)
    ((parts, run),) = runs
    assert model.interior_point == run.interior_point
    assert model.iterations_used == run.iterations_used
    assert len(_kept(model)) == parts.metric.shape[0] - 1
    assert np.array_equal(model.b, run.w[:, -1])


def _stalled(parts, hp):
    run = _minimize(parts, hp)
    return dataclasses.replace(run, stop_reason="stall",
                               interior_point="stopped on SingularSystem after 3 steps")


def _capped(parts, hp):
    # the refit's MaxItersExceeded warning stays inside the fit (the test
    # configuration turns it into an error)
    return _minimize(parts, dataclasses.replace(hp, max_iters=2))


def _raises(error):
    def minimize(parts, hp):
        raise error("on purpose")

    return minimize


@pytest.mark.parametrize(
    "second, note, steps",
    [
        (_raises(SingularSystem), r"discarded \(SingularSystem on its first step\)", 1),
        (_raises(HessianNotPD), r"discarded \(HessianNotPD on its first step\)", 1),
        (_stalled, r"discarded \(stopped on SingularSystem after 3 steps\)", None),
        (_capped, r"discarded \(running after 2 steps\)", 2),
    ],
    ids=["singular", "not pd", "stall", "cap"],
)
def test_a_failed_refit_keeps_the_pivot_model_and_says_so(second, note, steps, monkeypatch):
    d = _rings()
    spec, token = KEPT[0]
    mode = ConstraintMode.from_token(token)
    pivot = fit_kernel(d, spec, mode, HP, traces=False, refit=False)
    seen = []

    def minimize(parts, hp):
        seen.append(1)
        return (_minimize if len(seen) == 1 else second)(parts, hp)

    monkeypatch.setattr(ovnsvm.kernel, "_minimize", minimize)
    model = fit_kernel(d, spec, mode, HP)
    assert len(seen) == 2
    assert re.fullmatch(re.escape(f"{pivot.interior_point}; refit ") + note, model.interior_point)
    assert np.array_equal(model.A, pivot.A) and np.array_equal(model.b, pivot.b)
    for name in ("final_objective", "kkt_residual", "stop_reason", "converged"):
        assert getattr(model, name) == getattr(pivot, name)
    if steps is not None:
        assert model.iterations_used == pivot.iterations_used + steps
    assert len(model.surrogate_trace) == pivot.iterations_used - 1


def test_no_landmarks_skip_the_refit(runs):
    # every multiplier of this pivot fit is below 1e-5 beta (6.3e-5 at most),
    # so a refit would fit the biases alone
    d = _rings()
    spec = KernelSpec(kind="polynomial", degree=8, coef0=1.0)
    mode, hp = ConstraintMode.from_token("sw-sb"), Hyperparameters()
    pivot = fit_kernel(d, spec, mode, hp, traces=False, refit=False)
    model = fit_kernel(d, spec, mode, hp, traces=False)
    assert len(runs) == 2  # one run for each fit
    assert model.interior_point == f"{pivot.interior_point}; refit skipped (no landmarks)"
    assert model.iterations_used == pivot.iterations_used
    assert np.array_equal(model.A, pivot.A) and np.array_equal(model.b, pivot.b)
    assert model.final_objective == pivot.final_objective


def _steps(interior_point):
    # the steps a note names: "after n steps" per run, 1 for a first-step failure
    return (sum(int(n) for n in re.findall(r"after (\d+) steps", interior_point))
            + interior_point.count("on its first step"))


@pytest.mark.parametrize("token", ["sw-sb", "sw-hb"])
@pytest.mark.parametrize("sigma", [0.3, 1.0])
@pytest.mark.parametrize("beta", [0.1, 1.0])
def test_a_refit_runs_on_an_edge_of_the_coupling_window(token, sigma, beta):
    # alpha = 2 is the window's upper edge; these pivot fits leave hinge
    # loss, so they have landmarks and fewer of them than the factor's rank
    d = random_multilabel(np.random.default_rng(0), 40, 3, 3)
    spec = KernelSpec(kind="gaussian", sigma=sigma)
    mode, hp = ConstraintMode.from_token(token), Hyperparameters(alpha=2.0, beta=beta)
    pivot = fit_kernel(d, spec, mode, hp, traces=False, refit=False)
    model = fit_kernel(d, spec, mode, hp, traces=False)
    note = model.interior_point.removeprefix(f"{pivot.interior_point}; refit ")
    assert note != model.interior_point
    assert not note.startswith("skipped"), note
    assert model.final_objective <= pivot.final_objective
    assert _steps(model.interior_point) == model.iterations_used > pivot.iterations_used


def test_an_uncertified_pivot_fit_is_not_refit(runs):
    d = _rings()
    spec, token = KEPT[0]
    hp = dataclasses.replace(HP, max_iters=2)
    with pytest.warns(ovnsvm.MaxItersExceeded):
        model = fit_kernel(d, spec, ConstraintMode.from_token(token), hp, traces=False)
    assert len(runs) == 1
    assert model.interior_point == "running after 2 steps; refit skipped (pivot fit not certified)"
    assert model.stop_reason == "cap" and model.iterations_used == 2
