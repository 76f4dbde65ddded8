"""Linear solver: assembly, the constrained solve, and the fit loop."""

import itertools
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import solve_triangular

import ovnsvm.kernel
import ovnsvm.linear
from conftest import quiet_max_iters, random_multiclass, random_multilabel
from ovnsvm import (
    AssembledSystem,
    ConstraintMode,
    Dataset,
    DimensionMismatch,
    HessianNotPD,
    Hyperparameters,
    MaxItersExceeded,
    MMState,
    SingularSystem,
    KernelSpec,
    TooFewInstances,
    assemble,
    assemble_kernel,
    feasibility,
    fit_kernel,
    fit_linear,
    gram,
    solve_kkt,
    training_objective,
    training_objective_kernel,
)
from ovnsvm.kernel import _kernel_parts
from ovnsvm.linear import (
    _EDGE_WEIGHT,
    _factor_blocks,
    _InteriorPoint,
    _linear_parts,
    _to_boundary,
)
from ovnsvm.majorization import hinge, majorizer
from ovnsvm.oracle import subgradient_fit

MODES = [ConstraintMode.from_token(t) for t in ("sw-sb", "sw-hb", "hw-sb", "hw-hb")]


class TestModesAndCoefficients:
    def test_token_round_trip(self):
        for tok in ("sw-sb", "sw-hb", "hw-sb", "hw-hb"):
            assert ConstraintMode.from_token(tok).token == tok

    def test_unknown_token(self):
        with pytest.raises(ValueError, match="unknown mode"):
            ConstraintMode.from_token("xx-yy")

    def test_constraint_names_checked(self):
        with pytest.raises(ValueError):
            ConstraintMode("rigid", "hard")

    def test_hyperparameter_validation(self):
        with pytest.raises(ValueError):
            Hyperparameters(beta=0.0)
        with pytest.raises(ValueError):
            Hyperparameters(epsilon=0.0)
        with pytest.raises(ValueError):
            Hyperparameters(tol=0.0)
        with pytest.raises(ValueError):
            Hyperparameters(max_iters=0)

    @pytest.mark.parametrize("value", [2.5, 3.0, float("nan"), "3"])
    def test_max_iters_must_be_an_integer(self, value):
        # the fit's loop would fail inside range() instead
        with pytest.raises(ValueError, match=r"^max_iters must be an integer"):
            Hyperparameters(max_iters=value)
        assert Hyperparameters(max_iters=np.int64(3)).max_iters == 3

    @pytest.mark.parametrize("name", ["alpha", "beta", "gamma", "epsilon", "tol"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_hyperparameters_are_rejected_by_name(self, name, value):
        # NaN passes the sign checks and the coupling window, and a NaN
        # alpha or gamma would only surface inside the first solve
        with pytest.raises(ValueError, match=rf"^{name} must be finite"):
            Hyperparameters(**{name: value})


class TestAssemble:
    def test_single_class_block_by_hand(self):
        # one class, positives x = 1 and x = 2, fresh auxiliaries (all 1)
        d = Dataset([[1.0], [2.0]], [[1], [1]])
        hp = Hyperparameters(beta=8.0)
        sys_ = assemble(d, ConstraintMode("soft", "hard"), hp, MMState.fresh([2]))
        # block = diag(1, 0) + (beta/4) * sum of [x;1][x;1]'
        expected_H = np.array([[1.0, 0.0], [0.0, 0.0]]) + 2.0 * np.array(
            [[5.0, 3.0], [3.0, 2.0]]
        )
        np.testing.assert_allclose(sys_.H, expected_H)
        # rhs = (beta/2) * sum of (1 + 1/z) [x;1] with z = 1
        np.testing.assert_allclose(sys_.rhs, [8.0 * 3.0, 8.0 * 2.0])

    def test_soft_w_off_diagonal_blocks(self):
        d = Dataset([[1.0, 0.0], [0.0, 1.0]], [[1, 0], [0, 1]])
        hp = Hyperparameters(alpha=0.8, beta=4.0)
        sys_ = assemble(d, ConstraintMode("soft", "hard"), hp, MMState.fresh([1, 1]))
        P = 3
        off = sys_.H[:P, P:]
        # coupling touches only weight coordinates, never the bias slot
        np.testing.assert_allclose(off, 0.4 * np.diag([1.0, 1.0, 0.0]))

    def test_soft_b_rank_one_term(self):
        d = Dataset([[1.0]], [[1, 1]])
        hp = Hyperparameters(alpha=0.0, beta=1.0, gamma=2.5)
        soft = assemble(d, ConstraintMode("soft", "soft"), hp, MMState.fresh([1, 1]))
        hard = assemble(d, ConstraintMode("soft", "hard"), hp, MMState.fresh([1, 1]))
        diff = soft.H - hard.H
        u = np.array([0.0, 1.0, 0.0, 1.0])
        np.testing.assert_allclose(diff, 2.5 * np.outer(u, u))

    def test_constraint_column_layout(self):
        d = random_multilabel(np.random.default_rng(0), 6, 3, 2)
        state = MMState.fresh([i.size for i in d.class_index_sets()])
        hp = Hyperparameters()
        P = d.n_features + 1
        U_hw = assemble(d, ConstraintMode("hard", "soft"), hp, state).constraint_matrix
        assert U_hw.shape == (2 * P, d.n_features)
        U_hb = assemble(d, ConstraintMode("soft", "hard"), hp, state).constraint_matrix
        assert U_hb.shape == (2 * P, 1)
        # the bias column sums exactly the per-class bias coordinates
        assert U_hb[:, 0].tolist() == [0, 0, 0, 1, 0, 0, 0, 1]
        U_none = assemble(d, ConstraintMode("soft", "soft"), hp, state).constraint_matrix
        assert U_none.shape == (2 * P, 0)


class TestSolve:
    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.token)
    def test_matches_dense_block_solve(self, mode):
        rng = np.random.default_rng(7)
        d = random_multilabel(rng, 12, 3, 3)
        state = MMState.fresh([i.size for i in d.class_index_sets()])
        sys_ = assemble(d, mode, Hyperparameters(alpha=0.7, beta=3.0), state)
        w, lam = solve_kkt(sys_)

        L = sys_.H.shape[0]
        c = sys_.constraint_matrix.shape[1]
        full = np.zeros((L + c, L + c))
        full[:L, :L] = 2.0 * sys_.H
        full[:L, L:] = sys_.constraint_matrix
        full[L:, :L] = sys_.constraint_matrix.T
        ref = np.linalg.solve(full, np.concatenate([sys_.rhs, np.zeros(c)]))
        np.testing.assert_allclose(w, ref[:L], atol=1e-8)
        np.testing.assert_allclose(lam, ref[L:], atol=1e-8)
        if c:
            assert np.max(np.abs(sys_.constraint_matrix.T @ w)) < 1e-10

    def test_non_finite_entries_rejected(self):
        H = np.eye(2)
        H[0, 0] = np.nan
        sys_ = AssembledSystem(H=H, rhs=np.ones(2), constraint_matrix=np.zeros((2, 0)))
        with pytest.raises(SingularSystem):
            solve_kkt(sys_)

    def test_singular_surrogate_raises_instead_of_being_floored(self):
        # no constraint columns and a singular 2H: there is no minimizer
        sys_ = AssembledSystem(np.diag([1.0, 0.0]), np.ones(2), np.zeros((2, 0)))
        with pytest.raises(HessianNotPD):
            solve_kkt(sys_)
        # a hard constraint on the null direction of 2H: the KKT matrix is
        # regular and the constrained problem has one solution, but the
        # solve factorizes 2H on the full space, where it is singular
        U = np.array([[0.0], [0.0], [1.0]])
        sys_ = AssembledSystem(np.diag([1.0, 1.0, 0.0]), np.ones(3), U)
        with pytest.raises(HessianNotPD, match="not positive definite on the full space"):
            solve_kkt(sys_)

    def test_indefinite_coupling_raises(self):
        # the pairwise coupling exceeds the diagonal for alpha > 2 and the
        # tiny hinge weight cannot lift the negative eigenvalue back up
        d = Dataset([[1.0, 0.0], [0.0, 1.0]], [[1, 0], [0, 1]])
        hp = Hyperparameters(alpha=10.0, beta=1e-3)
        with pytest.raises(HessianNotPD):
            fit_linear(d, ConstraintMode("soft", "hard"), hp)

    @pytest.mark.parametrize("solver", ["linear", "kernel"])
    @pytest.mark.parametrize("token", ["sw-hb", "sw-sb"])
    @pytest.mark.parametrize("alpha", [2.2, 3.0, -1.2, -1.5])
    def test_coupling_outside_the_window_is_rejected_before_solving(
        self, monkeypatch, solver, token, alpha
    ):
        # K = 3, so the window is [-1, 2]; outside it the objective is
        # unbounded below along a coupling eigenvector, whatever the data
        def no_solve(*args):
            raise AssertionError("the fit reached the MM loop")

        monkeypatch.setattr(ovnsvm.linear, "_minimize", no_solve)
        monkeypatch.setattr(ovnsvm.kernel, "_minimize", no_solve)
        d = random_multilabel(np.random.default_rng(0), 40, 3, 3)
        hp = Hyperparameters(alpha=alpha, beta=100.0)
        mode = ConstraintMode.from_token(token)
        with pytest.raises(HessianNotPD, match=rf"alpha={alpha} .*\[-1, 2\].*K=3"):
            if solver == "linear":
                fit_linear(d, mode, hp)
            else:
                fit_kernel(d, KernelSpec(kind="gaussian"), mode, hp)

    @pytest.mark.parametrize("alpha", [2.0, -1.0])
    def test_coupling_on_the_window_edge_still_fits(self, alpha):
        d = random_multilabel(np.random.default_rng(0), 40, 3, 3)
        model = fit_linear(d, ConstraintMode("soft", "hard"), Hyperparameters(alpha=alpha))
        assert model.converged and np.all(np.isfinite(model.W))

    @pytest.mark.parametrize(
        "solver, K, alpha",
        [("kernel", 5, -0.5), ("kernel", 3, 2.0), ("kernel", 3, -1.0),
         ("linear", 3, 2.0), ("linear", 3, -1.0)],
    )
    @pytest.mark.parametrize("token", ["sw-hb", "sw-sb"])
    def test_coupling_on_the_window_edge_fits_where_2h_is_singular(
        self, solver, K, alpha, token
    ):
        # on an edge the coupling is singular, and the gaussian Gram factor
        # (N coordinates) or more features than patterns leave coupling null
        # directions without hinge curvature: the surrogate has no unique
        # minimizer.  Along them every class can put its positives on the
        # margin at no cost, so the minimum is 0.
        mode = ConstraintMode.from_token(token)
        hp = Hyperparameters(alpha=alpha, beta=10.0)
        if solver == "kernel":
            d = random_multiclass(np.random.default_rng(0), 40, 3, K)
            spec = KernelSpec(kind="gaussian")
            model = fit_kernel(d, spec, mode, hp)
            W, b = model.A, model.b
            value = training_objective_kernel(d, gram(spec, d.features), W, b, mode, hp)
        else:
            d = random_multiclass(np.random.default_rng(1), 8, 12, K)
            model = fit_linear(d, mode, hp)
            W, b = model.W, model.b
            value = training_objective(d, W, b, mode, hp)
        assert model.converged and np.all(np.isfinite(W))
        trace = np.asarray(model.surrogate_trace)
        assert np.all(np.diff(trace) <= 1e-10 * np.maximum(1.0, np.abs(trace[:-1])))
        assert 0.0 <= value <= 1e-6
        if mode.b_constraint == "hard":
            assert abs(b.sum()) <= 1e-8

    def test_objectives_on_the_lower_edge_read_no_cancellation_below_zero(self):
        # K = 3 and alpha = -1 put the coupling's eigenvalue on the class mean
        # at 0, so three equal weight rows cost nothing, and with every
        # positive past the margin the objective is exactly 0
        rng = np.random.default_rng(0)
        d = random_multilabel(rng, 30, 4, 3)
        G = gram(KernelSpec(kind="linear"), d.features)
        mode, hp = ConstraintMode("soft", "hard"), Hyperparameters(alpha=-1.0)
        linear, kernel = [], []
        for _ in range(200):
            W = np.tile(rng.standard_normal(4), (3, 1))
            b = np.full(3, 1.0 + np.max(np.abs(d.features @ W[0])))
            linear.append(training_objective(d, W, b, mode, hp))
            A = np.tile(rng.standard_normal(d.n_instances), (3, 1))
            b = np.full(3, 1.0 + np.max(np.abs(G @ A[0])))
            kernel.append(training_objective_kernel(d, G, A, b, mode, hp))
        assert min(linear) >= 0.0 and min(kernel) >= 0.0


def _planted_multilabel(rng, n, m=20, k=10, threshold=0.2533471031357997):
    """k halfspace rules on standard normal rows, as the benchmark's linear set.

    A row carries label j when its projection on the unit direction v_j is
    above ``threshold`` (the 0.6 quantile of N(0, 1)); a row no rule picks
    takes the label of its largest projection.
    """
    V = rng.standard_normal((k, m))
    V /= np.linalg.norm(V, axis=1, keepdims=True)
    X = rng.standard_normal((n, m))
    proj = X @ V.T
    Y = (proj > threshold).astype(np.int64)
    empty = Y.sum(axis=1) == 0
    Y[empty, np.argmax(proj[empty], axis=1)] = 1
    return Dataset(X, Y)


def _clamped_z(rng, sets, epsilon=1e-6):
    # auxiliaries of every size, about a third of them on the epsilon clamp
    z = [rng.uniform(0.01, 2.0, idx.size) for idx in sets]
    for z_k in z:
        z_k[rng.uniform(size=z_k.size) < 0.3] = epsilon
    return z


def _block_solve(parts, z, w_a):
    # the one unrefined solve that both the MM iteration and the Newton
    # directions take
    F, rhs, shared = parts.blocks(z, w_a)
    w, q = _factor_blocks(F, shared, parts.hard, parts.note)(rhs)
    return w.ravel(), q[parts.hard]


def _assert_same_solution(got, ref):
    # each part to 1e-9 of its own size; the weights of a one-class hw-hb
    # problem are 0 by the constraints, so the whole solution sets the floor
    whole = np.linalg.norm(np.concatenate(ref))
    for g, r in zip(got, ref):
        assert g.shape == r.shape
        assert np.linalg.norm(g - r) <= 1e-9 * max(np.linalg.norm(r), 1e-9 * whole)


class TestBlockSolve:
    """The fit's solve by class blocks against the dense reference solve."""

    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.token)
    @pytest.mark.parametrize(
        "K, where",
        [(K, where) for K in (1, 2, 3, 10)
         for where in ("inside", "negative", "above one", "upper edge", "lower edge")
         if K > 1 or where != "lower edge"],  # one class has no lower edge
    )
    def test_matches_the_dense_solve(self, mode, K, where):
        alpha = {
            "inside": 0.7, "negative": -1.0 / K, "above one": 1.6, "upper edge": 2.0,
            "lower edge": -2.0 / (K - 1) if K > 1 else None,
        }[where]
        rng = np.random.default_rng(K)
        d = random_multilabel(rng, 30, 4, K)
        sets = d.class_index_sets()
        hp = Hyperparameters(alpha=alpha, beta=3.0, gamma=0.7)
        z = _clamped_z(rng, sets)
        parts = _linear_parts(d.features, sets, mode, hp)
        assert (parts.flat is not None) == (mode.w_constraint == "soft" and "edge" in where)
        w_a = rng.standard_normal((K, d.n_features + 1))

        # the regularizer's dense matrix, coupling (x) metric plus gamma on the
        # bias sum, against its evaluation in the coupling's eigenspaces
        pair = alpha / 2.0 if mode.w_constraint == "soft" else 0.0
        coupling = (1.0 - pair) * np.eye(K) + pair * np.ones((K, K))
        e_bias = np.tile(np.eye(d.n_features + 1)[-1], K)
        gamma = hp.gamma if mode.b_constraint == "soft" else 0.0
        H_reg = np.kron(coupling, parts.metric) + gamma * np.outer(e_bias, e_bias)
        v = w_a.ravel()
        assert parts.regularizer(w_a) == pytest.approx(v @ H_reg @ v, rel=1e-12)
        grad = parts.regularizer_gradient(w_a).ravel()
        assert np.linalg.norm(grad - 2.0 * H_reg @ v) <= 1e-12 * np.linalg.norm(2.0 * H_reg @ v)

        dense = assemble(d, mode, hp, MMState(z))
        H, rhs = dense.H, dense.rhs
        if parts.flat is not None:
            # the proximal term that the fit adds on an edge of the window
            f0, f1 = parts.flat
            E = _EDGE_WEIGHT * np.kron(f0 * np.eye(K) + f1 * np.full((K, K), 1.0 / K), parts.metric)
            H, rhs = H + E, rhs + 2.0 * (E @ w_a.ravel())
        ref = solve_kkt(AssembledSystem(H, rhs, dense.constraint_matrix))
        _assert_same_solution(_block_solve(parts, z, w_a), ref)

    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.token)
    def test_matches_the_dense_solve_on_the_gram_factor(self, mode):
        rng = np.random.default_rng(4)
        d = random_multilabel(rng, 25, 2, 3)
        sets = d.class_index_sets()
        hp = Hyperparameters(alpha=0.5, beta=5.0)
        G = gram(KernelSpec(kind="gaussian", sigma=0.7), d.features)
        parts, _, pivots = _kernel_parts(sets, G, mode, hp)
        assert parts.metric.shape[0] == len(pivots) + 1
        z = _clamped_z(rng, sets)
        ref = solve_kkt(assemble_kernel(d, G, mode, hp, MMState(z)))
        _assert_same_solution(_block_solve(parts, z, np.zeros((3, len(pivots) + 1))), ref)

    def test_a_block_that_is_not_positive_definite_names_its_class(self):
        F = np.stack([np.eye(3), -np.eye(3), np.eye(3)])
        with pytest.raises(HessianNotPD, match="class 1 is not positive definite"):
            _factor_blocks(F, np.zeros(3), np.zeros(3, dtype=bool), "")

    def test_a_non_finite_right_side_raises_singular_system(self):
        # the check sits in the one solve, so the interior-point right sides
        # are checked as the MM ones are
        solve = _factor_blocks(
            np.stack([np.eye(3)] * 2), np.zeros(3), np.zeros(3, dtype=bool), ""
        )
        for bad in (np.nan, np.inf):
            with pytest.raises(SingularSystem, match="non-finite"):
                solve(np.array([[1.0, bad, 0.0], [0.0, 1.0, 0.0]]))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_hinge_blocks_raise_singular_system(self):
        # x x' overflows to inf in the hinge blocks of both classes
        d = Dataset([[1e200, 0.0], [0.0, 1e200]], [[1, 0], [0, 1]])
        with pytest.raises(SingularSystem, match="non-finite"):
            fit_linear(d, ConstraintMode("soft", "hard"), Hyperparameters())

    def test_fit_memory_stays_below_one_dense_system(self):
        K, M = 40, 20
        d = random_multilabel(np.random.default_rng(3), 200, M, K)
        dense = (K * (M + 1)) ** 2 * 8  # 5.6 MB of K P x K P doubles
        tracemalloc.start()
        try:
            with quiet_max_iters():
                model = fit_linear(d, ConstraintMode("soft", "hard"), Hyperparameters(max_iters=3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert model.iterations_used == 3
        assert peak < dense, f"peak {peak / 1e6:.1f} MB"


_THREAD_FIT = """
import sys, warnings
import numpy as np
from ovnsvm import ConstraintMode, Dataset, Hyperparameters, KernelSpec, fit_kernel, fit_linear

rng = np.random.default_rng(5)
X = rng.standard_normal((400, 30))
Y = (X @ rng.standard_normal((30, 6)) > 0.8).astype(int)
Y[np.arange(6), np.arange(6)] = 1
Y[Y.sum(axis=1) == 0, 0] = 1
for token in ("sw-sb", "sw-hb", "hw-sb", "hw-hb"):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = fit_linear(Dataset(X, Y), ConstraintMode.from_token(token), Hyperparameters())
    sys.stdout.write((model.W.tobytes() + model.b.tobytes()).hex() + "\\n")
# 90 rows on three overlapping rings: the class blocks are of order 89
r = rng.uniform(0.0, 3.0, 90)
theta = rng.uniform(0.0, 2.0 * np.pi, 90)
X = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
Y = (np.abs(r[:, None] - np.array([0.5, 1.5, 2.5])) < 0.65).astype(int)
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    model = fit_kernel(Dataset(X, Y), KernelSpec(kind="gaussian", sigma=0.5),
                       ConstraintMode("soft", "hard"), Hyperparameters(alpha=0.5))
sys.stdout.write(str(model.stop_reason) + (model.A.tobytes() + model.b.tobytes()).hex() + "\\n")
"""


def test_many_class_fit_is_the_same_at_any_blas_thread_count():
    # K = 6 linear fits and a gaussian fit: the weights must not depend on
    # how BLAS splits work, in the block solves' batched products too
    src = str(Path(ovnsvm.linear.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    outputs = []
    for threads in ("1", "2"):
        env = dict(
            os.environ,
            PYTHONPATH=path,
            OPENBLAS_NUM_THREADS=threads,
            OMP_NUM_THREADS=threads,
            MKL_NUM_THREADS=threads,
        )
        proc = subprocess.run(
            [sys.executable, "-c", _THREAD_FIT],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0].splitlines()[-1].startswith("gap")
    assert outputs[0] == outputs[1]


class TestFit:
    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.token)
    def test_surrogate_descends_and_constraints_hold(self, mode):
        rng = np.random.default_rng(11)
        d = random_multilabel(rng, 20, 3, 3)
        with quiet_max_iters():
            model = fit_linear(
                d, mode, Hyperparameters(alpha=0.5, beta=5.0, tol=1e-10)
            )
        trace = np.asarray(model.surrogate_trace)
        assert np.all(np.diff(trace) <= 1e-10 * np.maximum(1.0, np.abs(trace[:-1])))
        res = feasibility(model.W, model.b)
        if mode.w_constraint == "hard":
            assert res["sum_w_inf"] <= 1e-8
        if mode.b_constraint == "hard":
            assert res["sum_b_abs"] <= 1e-8

    @pytest.mark.parametrize("alpha", [-0.9, 1.9, 2.0])
    def test_final_objective_is_the_minimized_functional(self, alpha):
        # at alpha = 1.9 and -0.9 the functional at doubled coefficients is
        # indefinite, and 2.0 is the window's upper edge
        d = random_multilabel(np.random.default_rng(0), 40, 3, 3)
        mode = ConstraintMode("soft", "hard")
        hp = Hyperparameters(alpha=alpha, beta=100.0)
        with quiet_max_iters():
            model = fit_linear(d, mode, hp)
            spec = KernelSpec(kind="gaussian", sigma=1.0)
            kmodel = fit_kernel(d, spec, mode, hp)
        assert model.final_objective == training_objective(d, model.W, model.b, mode, hp)
        assert kmodel.final_objective == training_objective_kernel(
            d, gram(spec, d.features), kmodel.A, kmodel.b, mode, hp
        )
        assert model.final_objective >= 0.0 and kmodel.final_objective >= 0.0

    def test_hinge_trace_and_diagnostics(self):
        rng = np.random.default_rng(17)
        d = random_multilabel(rng, 10, 2, 2)
        model = fit_linear(d, ConstraintMode("soft", "hard"), Hyperparameters())
        assert model.converged and model.stop_reason == "gap"
        # the method steps first, and no MM solve follows its certificate
        assert len(model.surrogate_trace) == model.iterations_used - 1
        assert len(model.hinge_trace) == len(model.surrogate_trace)
        assert model.kkt_residual < 1e-10

    def test_translation_invariance_under_hard_w(self):
        # with the weight rows summing to zero, shifting every pattern by a
        # constant only moves the biases, so scores on shifted points match
        rng = np.random.default_rng(19)
        d = random_multilabel(rng, 18, 3, 3)
        shift = np.array([3.0, -2.0, 0.5])
        d2 = Dataset(d.features + shift, d.labels)
        hp = Hyperparameters(beta=4.0, tol=1e-12, max_iters=2000)
        mode = ConstraintMode("hard", "hard")
        m1 = fit_linear(d, mode, hp)
        m2 = fit_linear(d2, mode, hp)
        T = rng.standard_normal((5, 3))
        np.testing.assert_allclose(
            m1.decision_scores(T), m2.decision_scores(T + shift), atol=1e-6
        )
        np.testing.assert_allclose(m1.W, m2.W, atol=1e-6)

    def test_max_iters_warning_and_flag(self):
        rng = np.random.default_rng(23)
        d = random_multilabel(rng, 20, 3, 2)
        with pytest.warns(MaxItersExceeded):
            model = fit_linear(
                d, ConstraintMode("soft", "hard"), Hyperparameters(max_iters=2)
            )
        assert not model.converged
        assert model.iterations_used == 2 == len(model.surrogate_trace)
        assert model.stop_reason == "cap"

    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.token)
    def test_default_budget_reaches_the_optimum(self, mode):
        # plain re-anchoring at the last iterate stopped on the 500-iteration
        # cap in every mode on this instance; the fit must converge instead
        d = random_multilabel(np.random.default_rng(0), 400, 8, 5)
        hp = Hyperparameters()
        with warnings.catch_warnings():
            warnings.simplefilter("error", MaxItersExceeded)
            model = fit_linear(d, mode, hp)
        assert model.converged
        # the oracle returns a feasible point, so its objective bounds the
        # optimum from above and the comparison is one-sided
        W, b = subgradient_fit(d, mode, hp, steps=20000)
        ours = training_objective(d, model.W, model.b, mode, hp)
        ref = training_objective(d, W, b, mode, hp)
        assert (ours - ref) / max(1.0, abs(ref)) <= 1e-3

    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.token)
    def test_planted_multilabel_set_converges_at_the_defaults(self, mode):
        # hw-sb's optimum puts every pattern on the margin, where the bound's
        # steps shrink: MM alone stops on the 500-iteration cap here
        d = _planted_multilabel(np.random.default_rng(0), 600)
        with warnings.catch_warnings():
            warnings.simplefilter("error", MaxItersExceeded)
            model = fit_linear(d, mode, Hyperparameters())
        assert model.converged
        # the fit returns the interior-point iterate, which meets the held
        # sums; the MM iteration beside it, its bound clamped at epsilon, is
        # still above the certified optimum at every iterate of its trace
        hp = model.hyperparameters
        assert training_objective(d, model.W, model.b, mode, hp) < min(model.hinge_trace)
        res = feasibility(model.W, model.b)
        if mode.w_constraint == "hard":
            assert res["sum_w_inf"] <= 1e-10
        if mode.b_constraint == "hard":
            assert res["sum_b_abs"] <= 1e-10

    def test_fit_stops_on_the_interior_point_certificate(self):
        # the method converges in a few steps while MM, its bound clamped at
        # a coarse epsilon, would crawl on to the cap above the optimum
        d = random_multilabel(np.random.default_rng(3), 60, 4, 3)
        mode, hp = ConstraintMode("soft", "soft"), Hyperparameters(
            epsilon=0.01, beta=1e4, max_iters=1000
        )
        model = fit_linear(d, mode, hp)
        assert model.converged and model.stop_reason == "gap"
        assert model.iterations_used <= 10
        assert model.interior_point == f"converged after {model.iterations_used} steps"
        assert len(model.hinge_trace) == model.iterations_used - 1
        assert training_objective(d, model.W, model.b, mode, hp) <= 9.000001
        assert model.kkt_residual <= hp.tol

    def test_a_certified_fit_factors_one_system_less_than_twice_per_iteration(
        self, monkeypatch
    ):
        # one Newton system per step and one MM system per iteration but the
        # last: the step that certifies the optimum ends the fit before its
        # MM solve
        calls = []

        def counted(*args):
            calls.append(1)
            return _factor_blocks(*args)

        monkeypatch.setattr(ovnsvm.linear, "_factor_blocks", counted)
        d = random_multilabel(np.random.default_rng(17), 30, 3, 3)
        model = fit_linear(d, ConstraintMode("soft", "hard"), Hyperparameters())
        assert model.stop_reason == "gap"
        assert len(calls) == 2 * model.iterations_used - 1

    def test_a_fit_certified_on_its_first_step_returns_the_method_iterate(self):
        # at a loose tolerance the first step certifies, before any MM solve
        d = random_multilabel(np.random.default_rng(17), 30, 3, 3)
        mode, hp = ConstraintMode("soft", "hard"), Hyperparameters(tol=1.0)
        model = fit_linear(d, mode, hp)
        assert (model.stop_reason, model.iterations_used) == ("gap", 1)
        assert model.surrogate_trace == [] and model.hinge_trace == []
        parts = _linear_parts(d.features, d.class_index_sets(), mode, hp)
        ipm = _InteriorPoint(parts, hp)
        assert ipm.step()
        np.testing.assert_array_equal(np.column_stack([model.W, model.b]), ipm.w)
        assert model.kkt_residual == ipm.residual

    def test_empty_class_rejected(self):
        d = Dataset([[1.0], [2.0]], [[1, 0], [1, 0]])
        with pytest.raises(TooFewInstances, match="class 'c2' has no positive pattern"):
            fit_linear(d, ConstraintMode("soft", "hard"), Hyperparameters())

    def test_soft_b_needs_positive_gamma(self):
        d = Dataset([[1.0]], [[1]])
        with pytest.raises(ValueError, match="gamma"):
            fit_linear(d, ConstraintMode("soft", "soft"), Hyperparameters(gamma=0.0))

    def test_decision_scores_shape(self):
        rng = np.random.default_rng(29)
        d = random_multilabel(rng, 8, 2, 3)
        with quiet_max_iters():
            model = fit_linear(
                d, ConstraintMode("soft", "hard"), Hyperparameters(max_iters=20)
            )
        assert model.decision_scores(np.zeros((4, 2))).shape == (4, 3)
        assert (model.n_classes, model.n_features) == (3, 2)

    @pytest.mark.parametrize("kind", ["linear", "kernel"])
    def test_decision_scores_reject_rows_of_the_wrong_shape(self, kind):
        d = random_multilabel(np.random.default_rng(29), 8, 2, 3)
        mode, hp = ConstraintMode("soft", "hard"), Hyperparameters()
        if kind == "linear":
            model = fit_linear(d, mode, hp)
        else:
            model = fit_kernel(d, KernelSpec(kind="gaussian"), mode, hp)
        for X in (np.zeros(2), np.zeros((4, 3)), np.zeros((0, 1)), np.zeros((1, 1, 2))):
            with pytest.raises(DimensionMismatch, match="model of 2 features"):
                model.decision_scores(X)
        assert model.decision_scores(np.zeros((0, 2))).shape == (0, 3)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_decision_scores_reject_non_finite_rows(self, value):
        rng = np.random.default_rng(29)
        d = random_multilabel(rng, 8, 2, 3)
        model = fit_linear(d, ConstraintMode("soft", "hard"), Hyperparameters())
        with pytest.raises(ValueError, match=r"row 2, column 2: non-finite"):
            model.decision_scores([[0.0, 1.0], [1.0, value]])


class TestInteriorPointAnchor:
    """The interior-point method, whose iterate is the fit's model."""

    @pytest.mark.parametrize("solver", ["linear", "kernel"])
    @pytest.mark.parametrize(
        "token, alpha",
        [("sw-sb", 1.0), ("sw-hb", 1.0), ("hw-sb", 1.0), ("hw-hb", 1.0),
         ("sw-sb", 2.0), ("sw-hb", 2.0), ("sw-sb", -1.0), ("sw-hb", -1.0)],
    )
    @pytest.mark.parametrize("tol", [1e-8, 1e-14])
    def test_fits_raise_no_runtime_warning(self, solver, token, alpha, tol):
        # K = 3, so alpha = 2 and alpha = -1 are the edges of the window; the
        # tight tolerance keeps the method stepping close to the boundary
        d = random_multilabel(np.random.default_rng(0), 40, 3, 3)
        mode, hp = ConstraintMode.from_token(token), Hyperparameters(alpha=alpha, tol=tol)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            warnings.simplefilter("ignore", MaxItersExceeded)
            if solver == "linear":
                model = fit_linear(d, mode, hp)
            else:
                model = fit_kernel(d, KernelSpec(kind="gaussian"), mode, hp)
        assert np.all(np.isfinite(model.surrogate_trace))

    @pytest.mark.parametrize("alpha", [2.0, -1.0])
    @pytest.mark.parametrize("token", ["sw-hb", "sw-sb"])
    def test_edge_fits_end_on_the_certificate(self, alpha, token):
        # on an edge of the window the Gram factor leaves coupling null
        # directions without hinge curvature; without the edge term the
        # blocks (alpha = 2) or the shared system in the class sum (alpha =
        # -1) of the Newton system would be singular
        d = random_multiclass(np.random.default_rng(0), 40, 3, 3)
        spec, mode = KernelSpec(kind="gaussian"), ConstraintMode.from_token(token)
        pivot = fit_kernel(d, spec, mode, Hyperparameters(alpha=alpha), refit=False)
        assert pivot.stop_reason == "gap"
        assert pivot.interior_point == f"converged after {pivot.iterations_used} steps"
        # the pivot fit leaves no hinge loss (objective about 1e-20), so no
        # multiplier marks a support vector and the refit is skipped
        model = fit_kernel(d, spec, mode, Hyperparameters(alpha=alpha))
        assert model.interior_point == f"{pivot.interior_point}; refit skipped (no landmarks)"
        assert np.array_equal(model.A, pivot.A) and np.array_equal(model.b, pivot.b)

    @pytest.mark.parametrize("token", ["sw-hb", "sw-sb"])
    def test_a_step_that_raises_stalls_the_fit_at_its_best_iterate(self, token):
        # at the lower edge and a tolerance near rounding the shared system
        # of the Newton blocks turns singular close to the optimum, 0 here
        d = random_multiclass(np.random.default_rng(0), 40, 3, 3)
        mode, hp = ConstraintMode.from_token(token), Hyperparameters(alpha=-1.0, tol=1e-14)
        with warnings.catch_warnings():
            warnings.simplefilter("error", MaxItersExceeded)
            model = fit_kernel(d, KernelSpec(kind="gaussian"), mode, hp)
        assert model.stop_reason == "stall" and model.converged
        assert re.fullmatch(r"stopped on SingularSystem after \d+ steps; "
                            r"refit skipped \(pivot fit not certified\)", model.interior_point)
        assert model.iterations_used <= 10
        assert 0.0 <= model.final_objective <= 1e-20

    @pytest.mark.parametrize("solver", ["linear", "gaussian"])
    @pytest.mark.parametrize("K", [2, 3, 5, 10])
    def test_window_edges_end_on_the_certificate(self, solver, K):
        # both edges, both soft-w modes and three draws: the edge term keeps
        # the Newton system regular, and the method certifies every fit
        for alpha, token, seed in itertools.product(
            (2.0, -2.0 / (K - 1)), ("sw-sb", "sw-hb"), range(3)
        ):
            mode, hp = ConstraintMode.from_token(token), Hyperparameters(alpha=alpha)
            if solver == "linear":
                d = random_multiclass(np.random.default_rng(seed), 3 * K, 12, K)
                model = fit_linear(d, mode, hp)
            else:
                d = random_multiclass(np.random.default_rng(seed), 40, 3, K)
                model = fit_kernel(d, KernelSpec(kind="gaussian"), mode, hp)
            # a kernel fit's steps are those of the pivot fit and of its refit
            steps = [int(n) for n in re.findall(r"after (\d+) steps", model.interior_point)]
            assert model.stop_reason == "gap", (alpha, token, seed)
            assert sum(steps) == model.iterations_used, (alpha, token, seed)
            assert max(steps) <= 20, (alpha, token, seed)

    def test_status_reads_converged_or_running_at_the_cap(self):
        d = _planted_multilabel(np.random.default_rng(0), 300)
        mode = ConstraintMode("hard", "hard")
        model = fit_linear(d, mode, Hyperparameters())
        assert model.converged
        assert re.fullmatch(r"converged after \d+ steps", model.interior_point)
        with quiet_max_iters():
            cut = fit_linear(d, mode, Hyperparameters(max_iters=3))
        assert cut.interior_point == "running after 3 steps"

    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.token)
    def test_the_interior_point_iterate_meets_the_problem_constraints(self, mode):
        # the iterate is the model, so it must meet the held sums; its slacks
        # keep xi >= hinge(u), so reg + beta sum(xi) bounds the objective
        d = _planted_multilabel(np.random.default_rng(1), 200, m=5, k=4)
        hp = Hyperparameters()
        parts = _linear_parts(d.features, d.class_index_sets(), mode, hp)
        ipm = _InteriorPoint(parts, hp)
        for _ in range(8):
            ipm.step()
            assert ipm.outcome is None
            assert np.max(np.abs(ipm.w.sum(axis=0)[parts.hard]), initial=0.0) <= 1e-12
            assert np.min(ipm.xi - hinge(ipm.u)) >= -1e-12
            assert min(ipm.s.min(), ipm.xi.min(), ipm.lam.min(), ipm.nu.min()) > 0.0
            np.testing.assert_allclose(ipm.lam + ipm.nu, hp.beta, rtol=1e-12)
            # the kept stationarity vector is the one the iterate has
            fresh = (parts.regularizer_gradient(ipm.w) + parts.hard * ipm.q
                     - parts.transpose_project(ipm.lam))
            assert np.array_equal(ipm.r_w, fresh)


def _to_boundary_by_gathers(xs, dxs, frac):
    # the step to the boundary from the negative entries gathered out
    a = 1.0
    for x, dx in zip(xs, dxs):
        neg = dx < 0.0
        if np.any(neg):
            a = min(a, frac * float(np.min(x[neg] / -dx[neg])))
    return a


@pytest.mark.parametrize("frac", [1.0, 0.99])
def test_to_boundary_matches_the_gathered_quotients(frac):
    # the iterates are strictly positive (see the test below), some of them
    # far down on the boundary
    rng = np.random.default_rng(0)
    for _ in range(50):
        xs = [rng.uniform(0.0, 2.0, 40) for _ in range(4)]
        dxs = [rng.standard_normal(40) * rng.uniform(0.1, 10.0) for _ in range(4)]
        for x, dx in zip(xs, dxs):
            x[rng.uniform(size=40) < 0.2] = 1e-300
            dx[rng.uniform(size=40) < 0.2] = 0.0
        xs[1][0], dxs[1][0] = 1e-300, 0.0  # 0/x is no limit
        xs[3][1], dxs[3][1] = 5e-324, -1.0  # dx/x overflows to -inf
        dxs[2] = np.abs(dxs[2])  # an array with no negative entry
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = _to_boundary(xs, dxs, frac)
        assert got == _to_boundary_by_gathers(xs, dxs, frac)
    # no negative direction anywhere: the full step
    assert _to_boundary([np.ones(3)], [np.zeros(3)], frac) == 1.0


@pytest.mark.parametrize("solver", ["linear", "gaussian"])
def test_every_step_keeps_the_iterate_strictly_positive(monkeypatch, solver):
    # _to_boundary divides by the iterate, so it must never reach 0
    steps = []
    step = _InteriorPoint.step

    def checked(self):
        certified = step(self)
        steps.append(min(self.xi.min(), self.s.min(), self.lam.min(), self.nu.min()))
        return certified

    monkeypatch.setattr(_InteriorPoint, "step", checked)
    d = _planted_multilabel(np.random.default_rng(2), 200, m=5, k=4)
    mode, hp = ConstraintMode("soft", "hard"), Hyperparameters(tol=1e-12)
    if solver == "linear":
        model = fit_linear(d, mode, hp)
    else:
        model = fit_kernel(d, KernelSpec(kind="gaussian"), mode, hp)
    assert model.stop_reason == "gap"
    assert len(steps) == model.iterations_used
    assert min(steps) > 0.0


_CONTRACT_FITS = [("sw-sb", 1.0), ("sw-hb", 1.0), ("hw-sb", 1.0), ("hw-hb", 1.0),
                  ("sw-hb", 2.0), ("gaussian", 0.5)]


def _contract_fit(solver, alpha, max_iters, traces=True):
    # the fitted model and the fixed parts of its fit; a gaussian fit, on
    # the pivots without the refit, also gives the map from the weights on
    # the Gram factor to A
    d = random_multilabel(np.random.default_rng(13), 60, 4, 3)
    hp = Hyperparameters(alpha=alpha, max_iters=max_iters)
    with quiet_max_iters():
        if solver == "gaussian":
            mode, spec = ConstraintMode("soft", "hard"), KernelSpec(kind="gaussian", sigma=0.8)
            model = fit_kernel(d, spec, mode, hp, traces=traces, refit=False)
            G = gram(spec, d.features)
            parts, L, pivots = _kernel_parts(d.class_index_sets(), G, mode, hp)
            r = len(pivots)

            def weights(w):
                A = np.zeros_like(model.A)
                A[:, pivots] = solve_triangular(L, w[:, :r].T, lower=True, trans="T").T
                return A, w[:, r]

            return model, parts, hp, weights, (model.A, model.b)
        mode = ConstraintMode.from_token(solver)
        model = fit_linear(d, mode, hp, traces=traces)
        parts = _linear_parts(d.features, d.class_index_sets(), mode, hp)
        M = d.n_features
        return model, parts, hp, lambda w: (w[:, :M], w[:, M]), (model.W, model.b)


@pytest.mark.parametrize("max_iters", [500, 1], ids=["certified", "cap"])
@pytest.mark.parametrize("solver, alpha", _CONTRACT_FITS)
def test_the_model_is_the_interior_point_iterate(solver, alpha, max_iters):
    # the method stepped alone, with no MM iteration beside it, gives the
    # model bit for bit: it reads nothing of MM, and its iterate is returned
    # whatever the stop, also after one step, where the linear fits' first
    # MM iterate has the lower objective
    model, parts, hp, weights, got = _contract_fit(solver, alpha, max_iters)
    assert model.stop_reason == ("gap" if max_iters == 500 else "cap")
    ipm = _InteriorPoint(parts, hp)
    for _ in range(model.iterations_used):
        ipm.step()
    for g, want in zip(got, weights(ipm.w)):
        assert np.array_equal(g, want)
    assert model.kkt_residual == ipm.residual


def _plain_mm_traces(parts, hp, n):
    # n iterations of MM alone: solve the surrogate at z, then make z tight
    # at the new iterate, around which an edge fit's next solve is proximal
    state = MMState.fresh([A_k.shape[0] for A_k in parts.rows], hp.epsilon)
    w = np.zeros((len(parts.rows), parts.metric.shape[0]))
    surrogate, objective = [], []
    for _ in range(n):
        F, rhs, shared = parts.blocks(state.z, w)
        w, _ = _factor_blocks(F, shared, parts.hard, parts.note)(rhs)
        u = parts.project(w)
        reg = parts.regularizer(w)
        surrogate.append(reg + hp.beta * float(np.sum(majorizer(u, np.concatenate(state.z)))))
        objective.append(reg + hp.beta * float(np.sum(hinge(u))))
        state.update([u[c] for c in parts.slices])
    return surrogate, objective


@pytest.mark.parametrize("max_iters", [500, 3], ids=["certified", "cap"])
@pytest.mark.parametrize("solver, alpha", _CONTRACT_FITS)
def test_the_traces_are_those_of_plain_mm(solver, alpha, max_iters):
    # no MM solve follows the step that ends a certified fit
    model, parts, hp, _, _ = _contract_fit(solver, alpha, max_iters)
    n = model.iterations_used - (model.stop_reason != "cap")
    assert n > 0
    surrogate, objective = _plain_mm_traces(parts, hp, n)
    assert model.surrogate_trace == surrogate
    assert model.hinge_trace == objective


@pytest.mark.parametrize("max_iters", [500, 1], ids=["certified", "cap"])
@pytest.mark.parametrize("solver, alpha", _CONTRACT_FITS)
def test_a_fit_without_traces_returns_the_same_model(solver, alpha, max_iters):
    # the method reads no MM state, so leaving MM out changes nothing but
    # the traces
    full = _contract_fit(solver, alpha, max_iters)[0]
    bare = _contract_fit(solver, alpha, max_iters, traces=False)[0]
    assert full.stop_reason == ("gap" if max_iters == 500 else "cap")
    assert len(full.surrogate_trace) > 0
    weights = ("A",) if solver == "gaussian" else ("W",)
    for name in (*weights, "b"):
        assert np.array_equal(getattr(bare, name), getattr(full, name))
    for name in ("iterations_used", "stop_reason", "final_objective", "kkt_residual",
                 "interior_point", "converged"):
        assert getattr(bare, name) == getattr(full, name)
    assert bare.surrogate_trace == [] and bare.hinge_trace == []


@pytest.mark.parametrize("solver", ["linear", "gaussian"])
def test_a_certified_fit_without_traces_factors_one_system_per_iteration(
    solver, monkeypatch
):
    # one Newton system per step, and no MM system at all
    calls = []

    def counted(*args):
        calls.append(1)
        return _factor_blocks(*args)

    monkeypatch.setattr(ovnsvm.linear, "_factor_blocks", counted)
    d = random_multilabel(np.random.default_rng(17), 30, 3, 3)
    mode, hp = ConstraintMode("soft", "hard"), Hyperparameters()
    if solver == "linear":
        model = fit_linear(d, mode, hp, traces=False)
    else:
        model = fit_kernel(d, KernelSpec(kind="gaussian"), mode, hp, traces=False)
    assert model.stop_reason == "gap"
    assert len(calls) == model.iterations_used


@pytest.mark.parametrize("traces", [True, False])
@pytest.mark.parametrize("solver", ["linear", "gaussian"])
def test_the_cap_warning_points_at_the_callers_line(solver, traces):
    d = random_multilabel(np.random.default_rng(23), 20, 3, 2)
    mode, hp = ConstraintMode("soft", "hard"), Hyperparameters(max_iters=1)
    spec = KernelSpec(kind="gaussian")
    with pytest.warns(MaxItersExceeded) as record:
        if solver == "linear":
            line = sys._getframe().f_lineno + 1
            fit_linear(d, mode, hp, traces=traces)
        else:
            line = sys._getframe().f_lineno + 1
            fit_kernel(d, spec, mode, hp, traces=traces)
    assert [(w.filename, w.lineno) for w in record] == [(__file__, line)]
