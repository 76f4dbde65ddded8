"""Fold splitting, grid enumeration, CV search, and the one-vs-rest baseline."""

import numpy as np
import pytest

import ovnsvm.linear
import ovnsvm.modelselect
from conftest import random_multiclass, random_multilabel
from ovnsvm import (
    AllTuplesInfeasible,
    ConstraintMode,
    Dataset,
    GridSpec,
    Hyperparameters,
    KernelSpec,
    SynthSpec,
    TooFewInstances,
    grid_search_cv,
    kfold_split,
    ovr_baseline_fit,
    predict_labels,
    synth_generate,
)
from ovnsvm.linear import _factor_blocks
from ovnsvm.modelselect import _enumerate_tuples


class TestKfold:
    def test_partition_properties(self):
        folds = kfold_split(23, 4, seed=0)
        sizes = [len(f) for f in folds]
        assert sum(sizes) == 23
        assert max(sizes) - min(sizes) <= 1
        joined = np.sort(np.concatenate(folds))
        np.testing.assert_array_equal(joined, np.arange(23))

    def test_deterministic_and_shuffled(self):
        a = kfold_split(50, 5, seed=9)
        b = kfold_split(50, 5, seed=9)
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa, fb)
        # a shuffled split should not hand back contiguous ranges
        assert not np.array_equal(a[0], np.arange(10))

    def test_too_few_instances(self):
        with pytest.raises(TooFewInstances):
            kfold_split(2, 3, seed=0)


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="n_folds"):
            GridSpec(n_folds=1)
        with pytest.raises(ValueError, match="non-empty"):
            GridSpec(alphas=())
        with pytest.raises(ValueError, match="betas"):
            GridSpec(betas=(0.0, 1.0))

    @pytest.mark.parametrize(
        "kw, message",
        [
            ({"kernel_kind": "polynomial", "degrees": (2.5,)}, "degree must be an integer"),
            ({"degrees": (2.0,)}, "degree must be an integer"),
            ({"kernel_kind": "polynomial", "degrees": (0,)}, "degree must be at least 1"),
            ({"kernel_kind": "foo"}, "unknown kernel kind 'foo'"),
        ],
        ids=["fractional-degree", "float-degree", "zero-degree", "kind"],
    )
    def test_kernel_fields_are_checked_when_constructed(self, kw, message):
        # not first inside the fit of a tuple
        with pytest.raises(ValueError, match=message):
            GridSpec(**kw)

    def test_hard_modes_collapse_unused_axes(self):
        grid = GridSpec(
            alphas=(0.0, 1.0),
            betas=(1.0, 10.0),
            gammas=(0.1, 1.0),
            modes=(ConstraintMode("hard", "hard"),),
        )
        tuples = list(_enumerate_tuples(grid, "linear"))
        # alpha and gamma are not read by hard-w/hard-b, so only beta varies
        assert len(tuples) == 2
        assert {t["beta"] for t in tuples} == {1.0, 10.0}
        assert all(t["alpha"] == 0.0 and t["gamma"] == 1.0 for t in tuples)

    def test_kernel_axis_only_for_kernel_solver(self):
        grid = GridSpec(
            alphas=(0.5,), betas=(1.0,), gammas=(1.0,), sigmas=(0.5, 1.0)
        )
        assert all("sigma" not in t for t in _enumerate_tuples(grid, "linear"))
        ks = list(_enumerate_tuples(grid, "kernel"))
        assert sorted(t["sigma"] for t in ks) == [0.5, 1.0]

    def test_polynomial_axis_uses_degrees(self):
        grid = GridSpec(
            alphas=(0.5,),
            betas=(1.0,),
            degrees=(np.int64(2), 3),
            kernel_kind="polynomial",
        )
        ks = list(_enumerate_tuples(grid, "kernel"))
        assert sorted(t["degree"] for t in ks) == [2, 3]
        # Python ints, which save_cv_report can encode
        assert {type(t["degree"]) for t in ks} == {int}


def tiny_grid(**kw):
    base = dict(alphas=(0.5,), betas=(1.0, 10.0), gammas=(1.0,), n_folds=3, seed=0)
    base.update(kw)
    return GridSpec(**base)


class TestGridSearch:
    def test_selects_by_mean_accuracy_and_reports(self):
        rng = np.random.default_rng(0)
        d = random_multilabel(rng, 24, 3, 2)
        report = grid_search_cv(d, tiny_grid(), task="multilabel", solver="linear")
        assert len(report.tuples) == 2
        best = max(
            (t for t in report.tuples if t.feasible), key=lambda t: t.mean_accuracy
        )
        assert report.best_tuple == best.params
        assert report.best_mean_accuracy == best.mean_accuracy
        for t in report.tuples:
            assert len(t.fold_accuracies) == 3
        doc = report.as_dict()
        assert doc["n_folds"] == 3 and len(doc["tuples"]) == 2
        # how each fold's fit ended
        for t, row in zip(report.tuples, doc["tuples"]):
            assert row["fold_iterations"] == t.fold_iterations
            assert row["fold_stop_reasons"] == t.fold_stop_reasons
            assert len(t.fold_iterations) == 3 and min(t.fold_iterations) >= 1
            assert set(t.fold_stop_reasons) == {"gap"}

    def test_n_jobs_accepts_only_one(self):
        rng = np.random.default_rng(1)
        d = random_multiclass(rng, 21, 2, 3)
        grid = tiny_grid()
        default = grid_search_cv(d, grid, task="multiclass", solver="linear")
        one = grid_search_cv(d, grid, task="multiclass", solver="linear", n_jobs=1)
        assert default.as_dict() == one.as_dict()
        with pytest.raises(ValueError, match="n_jobs"):
            grid_search_cv(d, grid, task="multiclass", solver="linear", n_jobs=4)

    def test_kernel_solver_path(self):
        rng = np.random.default_rng(2)
        d = random_multilabel(rng, 18, 2, 2)
        report = grid_search_cv(
            d,
            tiny_grid(betas=(10.0,), sigmas=(1.0,), kernel_kind="gaussian"),
            solver="kernel",
        )
        assert report.best_tuple["sigma"] == 1.0

    def test_infeasible_tuples_are_recorded_not_fatal(self):
        rng = np.random.default_rng(3)
        d = random_multilabel(rng, 15, 2, 2)
        report = grid_search_cv(d, tiny_grid(alphas=(50.0, 0.5)), solver="linear")
        bad = [t for t in report.tuples if not t.feasible]
        good = [t for t in report.tuples if t.feasible]
        assert bad and good
        assert all("HessianNotPD" in t.error for t in bad)
        assert all(t.fold_iterations == t.fold_stop_reasons == [] for t in bad)
        assert report.best_tuple["alpha"] == 0.5

    def test_all_tuples_infeasible(self):
        rng = np.random.default_rng(4)
        d = random_multilabel(rng, 15, 2, 2)
        with pytest.raises(AllTuplesInfeasible):
            grid_search_cv(d, tiny_grid(alphas=(50.0,), betas=(1e-3,)))

    def test_a_fold_whose_training_part_lacks_a_class_is_a_data_error(self):
        # class c3's one positive lies in one fold, whose training part
        # then holds none
        labels = np.zeros((30, 3), dtype=np.int64)
        labels[:15, 0] = labels[15:, 1] = 1
        labels[7, 2] = 1
        d = Dataset(np.random.default_rng(6).standard_normal((30, 2)), labels)
        fold = next(f for f, idx in enumerate(kfold_split(30, 3, 0)) if 7 in idx)
        message = f"class 'c3' has no positive pattern outside fold {fold + 1} of 3"
        for solver in ("linear", "kernel"):
            with pytest.raises(TooFewInstances, match=message):
                grid_search_cv(d, tiny_grid(), solver=solver)

    @pytest.mark.parametrize("solver", ["linear", "kernel"])
    def test_fold_fits_skip_the_traces_and_nothing_else(self, solver, monkeypatch):
        # the report equals that of fold fits with traces, and each fold fit
        # factors one Newton system per iteration and no MM system
        d = random_multilabel(np.random.default_rng(8), 24, 3, 2)
        grid = tiny_grid(sigmas=(0.5, 1.0))
        calls = []

        def counted(*args):
            calls.append(1)
            return _factor_blocks(*args)

        monkeypatch.setattr(ovnsvm.linear, "_factor_blocks", counted)
        report = grid_search_cv(d, grid, solver=solver).as_dict()
        assert len(calls) == sum(sum(t["fold_iterations"]) for t in report["tuples"])
        with monkeypatch.context() as m:
            for name in ("fit_linear", "fit_kernel"):
                fit = getattr(ovnsvm.modelselect, name)
                m.setattr(ovnsvm.modelselect, name, lambda *a, traces, fit=fit, **kw: fit(*a, **kw))
            assert grid_search_cv(d, grid, solver=solver).as_dict() == report

    def test_argument_validation(self):
        d = random_multilabel(np.random.default_rng(5), 9, 2, 2)
        with pytest.raises(ValueError, match="task"):
            grid_search_cv(d, tiny_grid(), task="ranking")
        with pytest.raises(ValueError, match="solver"):
            grid_search_cv(d, tiny_grid(), solver="sgd")


class TestOvrBaseline:
    def test_all_positive_class_is_untrainable(self):
        d = synth_generate(SynthSpec("unseen_label_toy", n_per_cluster=5, seed=0))
        base = ovr_baseline_fit(d, Hyperparameters(beta=10.0))
        # every training pattern carries the first label, so that binary
        # subproblem has an empty negative side
        assert [u.class_index for u in base.untrainable] == [0]
        assert "negative" in base.untrainable[0].reason
        scores = base.decision_scores(d.features)
        np.testing.assert_array_equal(scores[:, 0], 1.0)

    def test_threshold_is_zero_and_sets_may_be_empty(self):
        d = Dataset(
            [[-2.0], [-1.5], [1.5], [2.0]],
            [[1, 0], [1, 0], [0, 1], [0, 1]],
        )
        base = ovr_baseline_fit(d, Hyperparameters(beta=10.0, max_iters=200))
        assert not base.untrainable
        pred = base.predict_multilabel_matrix(np.array([[-2.0], [2.0]]))
        assert pred[0].tolist() == [1, 0]
        assert pred[1].tolist() == [0, 1]

    def test_middle_class_can_receive_an_empty_set(self):
        # a class squeezed between two others is not linearly separable
        # from the rest, so its binary machine scores negative even on its
        # own cluster and the thresholded label set comes back empty
        rng = np.random.default_rng(6)
        centers = np.array([-4.0, 0.0, 4.0])
        X = np.concatenate([c + 0.2 * rng.standard_normal(4) for c in centers])
        y = np.repeat([0, 1, 2], 4)
        labels = np.zeros((12, 3), dtype=np.int64)
        labels[np.arange(12), y] = 1
        d = Dataset(X[:, None], labels)
        base = ovr_baseline_fit(d, Hyperparameters(beta=10.0, max_iters=400))
        assert not base.untrainable
        pred = base.predict_multilabel_matrix(np.array([[0.0]]))
        assert pred.sum() == 0

    def test_multiclass_argmax(self):
        d = Dataset(
            [[-2.0], [-1.5], [1.5], [2.0]],
            [[1, 0], [1, 0], [0, 1], [0, 1]],
        )
        base = ovr_baseline_fit(d, Hyperparameters(beta=10.0, max_iters=200))
        scores = base.decision_scores(np.array([[-2.0], [2.0]]))
        assert predict_labels(scores, "multiclass").tolist() == [[1, 0], [0, 1]]

    @pytest.mark.parametrize(
        "kernel", [None, KernelSpec(kind="gaussian", sigma=0.8)], ids=["linear", "gaussian"]
    )
    def test_binary_fits_skip_the_traces(self, kernel, monkeypatch):
        # each binary fit factors one Newton system per iteration and no MM system
        d = synth_generate(SynthSpec("moon", n_per_cluster=8, seed=1))
        calls = []

        def counted(*args):
            calls.append(1)
            return _factor_blocks(*args)

        monkeypatch.setattr(ovnsvm.linear, "_factor_blocks", counted)
        base = ovr_baseline_fit(d, Hyperparameters(beta=10.0, max_iters=300), kernel=kernel)
        assert len(base.models) == 2 and not base.untrainable
        assert len(calls) == sum(m.iterations_used for m in base.models)
        assert all(m.surrogate_trace == m.hinge_trace == [] for m in base.models)

    def test_kernel_variant(self):
        d = synth_generate(SynthSpec("moon", n_per_cluster=8, seed=1))
        base = ovr_baseline_fit(
            d,
            Hyperparameters(beta=10.0, max_iters=300),
            kernel=KernelSpec(kind="gaussian", sigma=0.8),
        )
        assert not base.untrainable
        assert base.decision_scores(d.features).shape == (16, 2)
