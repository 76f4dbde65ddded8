"""Kernel solver: representer consistency, fit loop, support extraction."""

import numpy as np
import pytest

from conftest import quiet_max_iters, random_multilabel
from ovnsvm import (
    ConstraintMode,
    Dataset,
    Hyperparameters,
    KernelSpec,
    MMState,
    SynthSpec,
    assemble_kernel,
    fit_kernel,
    fit_linear,
    gram,
    support_vectors,
    synth_generate,
    training_objective,
    training_objective_kernel,
)
from ovnsvm.reproduce import T3_MAX_ITERS, T3_RECIPES, T3_TOL

DEEP = Hyperparameters(alpha=0.5, beta=5.0, tol=1e-12, max_iters=3000)


def test_linear_kernel_reproduces_primal_scores():
    rng = np.random.default_rng(0)
    d = random_multilabel(rng, 14, 3, 2)
    mode = ConstraintMode("soft", "hard")
    primal = fit_linear(d, mode, DEEP)
    dual = fit_kernel(d, KernelSpec(kind="linear"), mode, DEEP)
    T = rng.standard_normal((6, 3))
    np.testing.assert_allclose(
        primal.decision_scores(T), dual.decision_scores(T), atol=1e-5
    )
    # the expanded weight rows agree too
    np.testing.assert_allclose(dual.A @ d.features, primal.W, atol=1e-5)


def test_objective_agrees_across_parameterizations():
    rng = np.random.default_rng(1)
    d = random_multilabel(rng, 10, 2, 2)
    mode = ConstraintMode("soft", "soft")
    with quiet_max_iters():
        dual = fit_kernel(
            d,
            KernelSpec(kind="linear"),
            mode,
            Hyperparameters(alpha=0.4, beta=2.0, max_iters=60),
        )
    gm = gram(KernelSpec(kind="linear"), d.features)
    kern_val = training_objective_kernel(d, gm, dual.A, dual.b, mode, dual.hyperparameters)
    lin_val = training_objective(
        d, dual.A @ d.features, dual.b, mode, dual.hyperparameters
    )
    assert kern_val == pytest.approx(lin_val, rel=1e-9)


@pytest.mark.parametrize("token", ["sw-sb", "sw-hb", "hw-sb", "hw-hb"])
def test_gaussian_fit_descends_and_satisfies_constraints(token):
    rng = np.random.default_rng(2)
    d = random_multilabel(rng, 16, 2, 3)
    mode = ConstraintMode.from_token(token)
    with quiet_max_iters():
        model = fit_kernel(
            d,
            KernelSpec(kind="gaussian", sigma=1.0),
            mode,
            Hyperparameters(alpha=0.5, beta=5.0, max_iters=80),
        )
    trace = np.asarray(model.surrogate_trace)
    assert np.all(np.diff(trace) <= 1e-10 * np.maximum(1.0, np.abs(trace[:-1])))
    if mode.w_constraint == "hard":
        assert np.max(np.abs(model.A.sum(axis=0))) <= 1e-8
    if mode.b_constraint == "hard":
        assert abs(model.b.sum()) <= 1e-8


def test_polynomial_fit_runs():
    rng = np.random.default_rng(3)
    d = random_multilabel(rng, 10, 2, 2)
    with quiet_max_iters():
        model = fit_kernel(
            d,
            KernelSpec(kind="polynomial", degree=2, coef0=1.0),
            ConstraintMode("soft", "hard"),
            Hyperparameters(max_iters=50),
        )
    assert model.decision_scores(d.features).shape == (10, 2)
    assert model.n_train == 10


def test_gaussian_kernel_separates_the_interleaved_toy():
    d = synth_generate(SynthSpec("moon", n_per_cluster=15, seed=0))
    model = fit_kernel(
        d,
        KernelSpec(kind="gaussian", sigma=0.8),
        ConstraintMode("soft", "hard"),
        Hyperparameters(alpha=1.0, beta=10.0, max_iters=2000, tol=1e-10),
    )
    scores = model.decision_scores(d.features)
    pred = np.argmax(scores, axis=1)
    truth = np.argmax(d.labels, axis=1)
    assert np.mean(pred == truth) == 1.0


@pytest.mark.parametrize(
    "name", [n for n, rec in T3_RECIPES.items() if rec["kernel"]["kind"] == "gaussian"]
)
def test_t3_gaussian_surrogate_traces_never_rise(name):
    # every surrogate is minimized exactly, so the bound argument holds at
    # any BLAS thread count; a floored or projected solve would break it
    rec = T3_RECIPES[name]
    d = synth_generate(SynthSpec(name, n_per_cluster=rec["n_per_cluster"], seed=rec["seed"]))
    hp = Hyperparameters(
        alpha=rec["alpha"], beta=rec["beta"], max_iters=T3_MAX_ITERS, tol=T3_TOL
    )
    model = fit_kernel(d, KernelSpec(**rec["kernel"]), ConstraintMode("soft", "hard"), hp)
    trace = np.asarray(model.surrogate_trace)
    assert np.all(np.diff(trace) <= 1e-10 * np.maximum(1.0, np.abs(trace[:-1])))


@pytest.mark.parametrize("token", ["sw-sb", "sw-hb", "hw-sb", "hw-hb"])
def test_rank_zero_gram_fits_the_biases(token):
    # all-zero patterns under the linear kernel at the default settings: the
    # Gram matrix is 0, its factor has no columns and only the biases are left
    # to fit
    d = Dataset(np.zeros((4, 2)), [[1, 0], [1, 0], [1, 0], [0, 1]])
    mode = ConstraintMode.from_token(token)
    model = fit_kernel(d, KernelSpec(kind="linear"), mode, Hyperparameters())
    assert model.converged
    np.testing.assert_array_equal(model.A, np.zeros((2, 4)))
    # soft-b: both biases sit on the margin; hard-b: the class with more
    # positives does
    expected = [1.0, 1.0] if mode.b_constraint == "soft" else [1.0, -1.0]
    np.testing.assert_allclose(model.b, expected, atol=1e-5)
    if mode.b_constraint == "hard":
        assert abs(model.b.sum()) <= 1e-8


def test_small_scale_linear_gram_keeps_its_rank():
    # a rank-2 linear Gram whose entries are about 1e-6: the factor stops at
    # its numerical rank relative to the trace, so A has 2 nonzero columns
    rng = np.random.default_rng(4)
    d = random_multilabel(rng, 300, 2, 3)
    d = Dataset(1e-3 * d.features, d.labels)
    with quiet_max_iters():
        model = fit_kernel(d, KernelSpec(kind="linear"), ConstraintMode("soft", "hard"),
                           Hyperparameters())
    assert np.count_nonzero(np.any(model.A != 0.0, axis=0)) <= 2


def test_assemble_kernel_block_structure():
    d = Dataset([[0.0], [1.0]], [[1, 0], [0, 1]])
    gm = gram(KernelSpec(kind="linear"), d.features)
    state = MMState.fresh([1, 1])
    sys_ = assemble_kernel(d, gm, ConstraintMode("hard", "hard"), Hyperparameters(), state)
    # the Gram matrix has rank 1, so each block holds one factor coordinate
    # and the bias
    P = 2
    assert sys_.H.shape == (2 * P, 2 * P)
    # hard-w: one zero-sum column per factor coordinate, plus the bias column
    assert sys_.constraint_matrix.shape == (2 * P, P)
    # hard mode leaves the cross-class block empty
    np.testing.assert_array_equal(sys_.H[:P, P:], np.zeros((P, P)))


class TestSupportVectors:
    class FlatModel:
        """Stub scoring every pattern with a fixed per-class table."""

        def __init__(self, table):
            self.table = np.asarray(table, dtype=float)

        def decision_scores(self, X):
            return self.table

    def test_margin_rule_is_inclusive(self):
        d = Dataset(
            [[0.0], [1.0], [2.0], [3.0]], [[1, 0], [1, 0], [1, 0], [0, 1]]
        )
        # the last pattern is not a member of the first class, so its low
        # first-class score never counts toward that class
        scores = [[0.5, 9.0], [1.0, 9.0], [1.2, 9.0], [0.1, 9.0]]
        sv = support_vectors(self.FlatModel(scores), d, tol_sv=1e-4)
        assert sv[0].tolist() == [0, 1]
        assert sv[1].tolist() == []

    def test_tolerance_widens_the_band(self):
        d = Dataset([[0.0], [1.0]], [[1], [1]])
        scores = [[1.05], [0.9]]
        assert support_vectors(self.FlatModel(scores), d, tol_sv=1e-4)[0].tolist() == [1]
        assert support_vectors(self.FlatModel(scores), d, tol_sv=0.1)[0].tolist() == [0, 1]

    def test_per_class_sets(self):
        d = Dataset([[0.0], [1.0]], [[1, 0], [0, 1]])
        scores = [[0.2, 5.0], [5.0, 0.3]]
        sv = support_vectors(self.FlatModel(scores), d)
        assert sv[0].tolist() == [0]
        assert sv[1].tolist() == [1]
