"""Independent reference fits used to certify the main solver."""

import numpy as np
import pytest

from conftest import random_multilabel
from ovnsvm import ConstraintMode, Hyperparameters, fit_linear, training_objective
from ovnsvm.oracle import _value_and_subgrad, binary_svm_fit, compare, subgradient_fit


def test_subgradient_reaches_the_solver_objective():
    rng = np.random.default_rng(0)
    d = random_multilabel(rng, 12, 2, 2)
    mode = ConstraintMode("soft", "hard")
    hp = Hyperparameters(alpha=0.5, beta=5.0, tol=1e-12, max_iters=2000)
    model = fit_linear(d, mode, hp)
    W, b = subgradient_fit(d, mode, hp, steps=30000)
    ours = training_objective(d, model.W, model.b, mode, hp)
    ref = training_objective(d, W, b, mode, hp)
    assert abs(ours - ref) / max(1.0, abs(ref)) < 1e-3


@pytest.mark.parametrize("token", ["sw-sb", "sw-hb", "hw-sb", "hw-hb"])
def test_value_and_subgradient_match_the_per_class_loop(token):
    rng = np.random.default_rng(5)
    d = random_multilabel(rng, 15, 3, 4)
    mode = ConstraintMode.from_token(token)
    hp = Hyperparameters(alpha=0.6, beta=3.0, gamma=1.5)
    W = rng.standard_normal((4, 3))
    b = rng.standard_normal(4)
    X = d.features
    val, gW, gb = _value_and_subgrad(X, d.labels == 1, W, b, mode, hp)

    # reference: one class at a time over its positive set
    ref_gW = 2.0 * W
    ref_gb = np.zeros(4)
    if mode.w_constraint == "soft":
        ref_gW += hp.alpha * (W.sum(axis=0) - W)
    if mode.b_constraint == "soft":
        ref_gb += 2.0 * hp.gamma * b.sum()
    active = 0
    for k, idx in enumerate(d.class_index_sets()):
        rows = idx[1.0 - (X[idx] @ W[k] + b[k]) > 0.0]
        ref_gW[k] -= hp.beta * X[rows].sum(axis=0)
        ref_gb[k] -= hp.beta * rows.size
        active += rows.size
    assert active > 0  # the draw exercises the hinge part
    ref_val = training_objective(d, W, b, mode, hp)
    # summation order differs from the loop: allow float64 rounding only
    assert val == pytest.approx(ref_val, rel=1e-12)
    np.testing.assert_allclose(gW, ref_gW, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(gb, ref_gb, rtol=1e-12, atol=1e-12)


def test_subgradient_respects_hard_constraints():
    rng = np.random.default_rng(1)
    d = random_multilabel(rng, 10, 3, 3)
    W, b = subgradient_fit(
        d, ConstraintMode("hard", "hard"), Hyperparameters(beta=2.0), steps=2000
    )
    assert np.max(np.abs(W.sum(axis=0))) < 1e-12
    assert abs(b.sum()) < 1e-12


def test_binary_reference_on_a_separable_pair():
    # patterns at -2 and +2: the margin-maximizing line has slope 1/2 and
    # crosses zero, putting both patterns exactly on the unit margin
    X = np.array([[-2.0], [2.0]])
    y = np.array([-1.0, 1.0])
    v, c = binary_svm_fit(X, y, C=10.0, steps=20000)
    assert v[0] == pytest.approx(0.5, abs=0.02)
    assert c == pytest.approx(0.0, abs=0.02)


def test_binary_reference_classifies_blobs():
    rng = np.random.default_rng(2)
    X = np.vstack(
        [rng.standard_normal((20, 2)) - 3.0, rng.standard_normal((20, 2)) + 3.0]
    )
    y = np.repeat([-1.0, 1.0], 20)
    v, c = binary_svm_fit(X, y, C=1.0, steps=10000)
    assert np.all(np.sign(X @ v + c) == y)


def test_compare_reports_gap_and_deviation():
    rng = np.random.default_rng(3)
    d = random_multilabel(rng, 8, 2, 2)
    mode = ConstraintMode("soft", "hard")
    hp = Hyperparameters()
    W = rng.standard_normal((2, 2))
    b = np.array([0.5, -0.5])
    same = compare((W, b), (W, b), d, mode, hp)
    assert same["objective_gap"] == 0.0
    assert same["max_score_deviation"] == 0.0
    other = compare((W, b), (W + 1.0, b), d, mode, hp)
    assert other["max_score_deviation"] > 0.0
    assert set(other) == {
        "objective_a",
        "objective_b",
        "objective_gap",
        "max_score_deviation",
    }


def test_compare_accepts_fitted_models():
    rng = np.random.default_rng(4)
    d = random_multilabel(rng, 10, 2, 2)
    mode = ConstraintMode("hard", "hard")
    hp = Hyperparameters(beta=2.0, tol=1e-10, max_iters=500)
    model = fit_linear(d, mode, hp)
    out = compare(model, (model.W, model.b), d, mode, hp)
    assert out["objective_gap"] == 0.0
