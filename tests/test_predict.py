"""Decision rules and the instance-averaged metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ovnsvm.predict
from ovnsvm import (
    ConstraintMode,
    Hyperparameters,
    KernelSpec,
    LengthMismatch,
    MetricsReport,
    OvrBaseline,
    TrainedKernelModel,
    TrainedLinearModel,
    evaluate,
    label_sets_to_matrix,
    predict_labels,
    predict_multilabel_matrix,
)

TASKS = ("multilabel", "multiclass")


class TestDecisionRules:
    def test_threshold_is_inclusive_at_one(self):
        S = [[1.0, 0.99], [1.0, 1.0]]
        assert predict_labels(S, "multilabel").tolist() == [[1, 0], [1, 1]]
        # winner-take-all reads no threshold: one label per row
        assert predict_labels(S, "multiclass").tolist() == [[1, 0], [1, 0]]

    @pytest.mark.parametrize("task", TASKS)
    def test_fallback_never_returns_empty(self, task):
        S = [[0.2, 0.7, 0.5], [-3.0, -1.0, -2.0]]
        assert predict_labels(S, task).tolist() == [[0, 1, 0], [0, 1, 0]]

    @pytest.mark.parametrize("task", TASKS)
    def test_a_tie_goes_to_the_lowest_index(self, task):
        S = [[0.5, 0.5, 0.2], [0.1, 0.9, 0.9]]
        assert predict_labels(S, task).tolist() == [[1, 0, 0], [0, 1, 0]]

    def test_a_tie_at_the_margin_keeps_both_labels_only_in_multilabel(self):
        S = [[1.5, 1.5]]
        assert predict_labels(S, "multilabel").tolist() == [[1, 1]]
        assert predict_labels(S, "multiclass").tolist() == [[1, 0]]

    def test_matrix_rule_rows(self):
        S = [[1.2, 0.3], [0.4, 0.2], [1.0, 1.5]]
        out = predict_labels(S, "multilabel")
        assert out.tolist() == [[1, 0], [1, 0], [1, 1]]
        assert np.all(out.sum(axis=1) >= 1)
        np.testing.assert_array_equal(predict_multilabel_matrix(S), out)
        assert predict_labels(S, "multiclass").tolist() == [[1, 0], [1, 0], [0, 1]]

    @pytest.mark.parametrize("task", TASKS)
    def test_matrix_rule_accepts_single_row(self, task):
        out = predict_labels([0.1, 0.2], task)
        assert out.tolist() == [[0, 1]]
        assert out.dtype == np.int64

    def test_unknown_task_is_rejected(self):
        with pytest.raises(ValueError, match="unknown task 'ranking'"):
            predict_labels([[2.0, 0.0]], "ranking")

    def test_multilabel_goes_through_the_module_binding(self, monkeypatch):
        # a wrapper set on predict_multilabel_matrix sees the multilabel rule
        calls = []
        rule = ovnsvm.predict.predict_multilabel_matrix

        def counted(scores):
            calls.append(1)
            return rule(scores)

        monkeypatch.setattr(ovnsvm.predict, "predict_multilabel_matrix", counted)
        predict_labels([[2.0, 0.0]], "multilabel")
        predict_labels([[2.0, 0.0]], "multiclass")
        assert len(calls) == 1


def _row_major_rule(scores, task):
    # the rule as it was written before scores went class-major: row-wise
    # sums and argmax over an (N, K) array
    S = np.atleast_2d(np.asarray(scores, dtype=float))
    if task == "multilabel":
        out = (S >= 1.0).astype(np.int64)
        empty = np.flatnonzero(out.sum(axis=1) == 0)
        if empty.size:
            out[empty, np.argmax(S[empty], axis=1)] = 1
        return out
    out = np.zeros(S.shape, dtype=np.int64)
    out[np.arange(len(S)), np.argmax(S, axis=1)] = 1
    return out


# few distinct values, so rows hold exact ties, scores of exactly 1 and
# rows that are all -inf, all NaN or mixed
_SPECIAL = np.array([-np.inf, -1.0, 0.0, 0.5, 1.0, 1.0, 2.0, np.inf, np.nan])


def _awkward_scores(N, K, seed):
    rng = np.random.default_rng(seed)
    S = rng.choice(_SPECIAL, size=(N, K))
    smooth = rng.random((N, K)) < 0.3
    S[smooth] = rng.normal(0.5, 1.0, smooth.sum())
    return S


class TestClassMajorRule:
    """The class-major rule labels exactly as the row-major rule did."""

    @pytest.mark.parametrize("task", TASKS)
    @pytest.mark.parametrize("K", [1, 2, 3, 10])
    @pytest.mark.parametrize("N", [0, 1, 10_000])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_labels_match_the_row_major_rule(self, task, K, N, order):
        S = np.asarray(_awkward_scores(N, K, seed=100 * K + N), order=order)
        got = predict_labels(S, task)
        want = _row_major_rule(S, task)
        assert got.dtype == np.int64
        assert got.shape == want.shape == (N, K)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("task", TASKS)
    @pytest.mark.parametrize("K", [1, 2, 3, 10])
    def test_one_dimensional_rows_match(self, task, K):
        for row in _awkward_scores(200, K, seed=K):
            got = predict_labels(row, task)
            assert got.dtype == np.int64
            assert np.array_equal(got, _row_major_rule(row, task)), row

    def test_nan_rows_follow_argmax(self):
        S = [[np.nan, 2.0, np.nan], [0.5, np.nan, np.inf], [np.nan] * 3, [-np.inf] * 3]
        for task in TASKS:
            assert np.array_equal(predict_labels(S, task), _row_major_rule(S, task))
        assert predict_labels(S, "multilabel").tolist() == [
            [0, 1, 0], [0, 0, 1], [1, 0, 0], [1, 0, 0]]
        assert predict_labels(S, "multiclass").tolist() == [
            [1, 0, 0], [0, 1, 0], [1, 0, 0], [1, 0, 0]]


def _linear_model(rng, K, M):
    return TrainedLinearModel(
        W=rng.standard_normal((K, M)),
        b=rng.standard_normal(K),
        mode=ConstraintMode("soft", "soft"),
        hyperparameters=Hyperparameters(),
        iterations_used=1,
        final_objective=0.0,
        kkt_residual=0.0,
    )


def _kernel_model(rng, K, M):
    N = 30
    return TrainedKernelModel(
        A=rng.standard_normal((K, N)),
        b=rng.standard_normal(K),
        kernel=KernelSpec(kind="gaussian", sigma=1.0),
        train_features=rng.standard_normal((N, M)),
        mode=ConstraintMode("soft", "hard"),
        hyperparameters=Hyperparameters(),
        iterations_used=1,
        final_objective=0.0,
        kkt_residual=0.0,
    )


@pytest.mark.parametrize("make", [_linear_model, _kernel_model], ids=["linear", "kernel"])
@pytest.mark.parametrize("T", [2, 3, 1000])
def test_scores_are_class_major_so_labelling_never_copies(make, T):
    rng = np.random.default_rng(T)
    K, M = 3, 4
    model = make(rng, K, M)
    X = rng.standard_normal((T, M))
    scores = model.decision_scores(X)
    assert scores.shape == (T, K)
    assert scores.T.flags.c_contiguous
    baseline = OvrBaseline(models=[None, make(rng, 2, M), None], untrainable=[], K=K)
    assert baseline.decision_scores(X).T.flags.c_contiguous
    assert np.shares_memory(ovnsvm.predict._class_major(scores), scores)


class TestSetMatrixConversion:
    def test_index_collections(self):
        M = label_sets_to_matrix([[0, 2], [], [1]], 3)
        assert M.tolist() == [[1, 0, 1], [0, 0, 0], [0, 1, 0]]

    def test_uniform_singletons_stay_index_collections(self):
        # three one-element collections must become three one-hot rows,
        # not be mistaken for a 3 x 1 binary matrix
        M = label_sets_to_matrix([[0], [1], [2]], 3)
        assert M.tolist() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_binary_matrix_passthrough(self):
        M = label_sets_to_matrix(np.array([[1, 0], [0, 1]]), 2)
        assert M.tolist() == [[1, 0], [0, 1]]

    def test_binary_matrix_column_count_checked(self):
        with pytest.raises(LengthMismatch):
            label_sets_to_matrix(np.ones((2, 3), dtype=int), 2)

    def test_out_of_range_index(self):
        with pytest.raises(LengthMismatch):
            label_sets_to_matrix([[3]], 3)
        with pytest.raises(LengthMismatch):
            label_sets_to_matrix([[-1]], 3)

    def test_evaluate_reads_a_matrix_as_its_label_sets(self):
        P = np.array([[1, 1, 0], [0, 0, 1], [0, 0, 0]])
        Y = np.array([[1, 0, 0], [0, 1, 1], [1, 0, 0]])
        as_sets = evaluate([[0, 1], [2], []], [[0], [1, 2], [0]], 3)
        assert evaluate(P, Y, 3) == as_sets


class TestEvaluate:
    def test_hand_worked_example(self):
        rep = evaluate([[0], [1, 2]], [[0, 1], [1]], 3)
        assert rep.accuracy == pytest.approx(0.5)
        assert rep.hamming_loss == pytest.approx(2.0 / 6.0)
        assert rep.exact_match == 0.0
        assert rep.precision == pytest.approx(0.75)
        assert rep.recall == pytest.approx(0.75)
        assert rep.f1 == pytest.approx(0.75)
        assert rep.n_instances == 2

    def test_perfect_prediction(self):
        rep = evaluate([[0], [1]], [[0], [1]], 2)
        assert rep.accuracy == 1.0
        assert rep.hamming_loss == 0.0
        assert rep.exact_match == 1.0
        assert rep.f1 == 1.0

    def test_empty_against_empty_counts_as_agreement(self):
        rep = evaluate([[]], [[]], 2)
        assert rep.accuracy == 1.0
        assert rep.precision == 1.0
        assert rep.recall == 1.0
        assert rep.hamming_loss == 0.0

    def test_empty_prediction_against_nonempty_truth(self):
        rep = evaluate([[]], [[0]], 2)
        assert rep.accuracy == 0.0
        assert rep.precision == 1.0  # no predicted labels, nothing wrong
        assert rep.recall == 0.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            evaluate([[0]], [[0], [1]], 2)

    def test_zero_instances_rejected(self):
        with pytest.raises(LengthMismatch):
            evaluate([], [], 2)

    def test_report_dict_and_text(self):
        rep = evaluate([[0]], [[0]], 1)
        d = rep.as_dict()
        assert set(d) == {
            "accuracy",
            "hamming_loss",
            "exact_match",
            "precision",
            "recall",
            "f1",
            "n_instances",
        }
        text = rep.format_text()
        assert "accuracy" in text and "1.000000" in text

    @settings(max_examples=50)
    @given(
        data=st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=20
        )
    )
    def test_single_label_identities(self, data):
        # with one label each side, overlap is all-or-nothing: accuracy
        # equals the exact match ratio and hamming is 2/K times the error
        K = 4
        pred = [[p] for p, _ in data]
        truth = [[t] for _, t in data]
        rep = evaluate(pred, truth, K)
        assert rep.accuracy == pytest.approx(rep.exact_match)
        assert rep.hamming_loss == pytest.approx(2.0 / K * (1.0 - rep.exact_match))

    @settings(max_examples=30)
    @given(
        rows=st.lists(
            st.tuples(
                st.sets(st.integers(0, 4), max_size=5),
                st.sets(st.integers(0, 4), min_size=1, max_size=5),
            ),
            min_size=1,
            max_size=12,
        ),
        seed=st.integers(0, 2**16),
    )
    def test_metrics_invariant_under_class_relabeling(self, rows, seed):
        K = 5
        perm = np.random.default_rng(seed).permutation(K)
        pred = [sorted(p) for p, _ in rows]
        truth = [sorted(t) for _, t in rows]
        a = evaluate(pred, truth, K)
        b = evaluate(
            [[int(perm[i]) for i in p] for p in pred],
            [[int(perm[i]) for i in t] for t in truth],
            K,
        )
        assert a.as_dict() == pytest.approx(b.as_dict())


def _row_major_evaluate(P, Y, K):
    # evaluate as it was written before it summed class-major rows
    P = label_sets_to_matrix(P, K)
    Y = label_sets_to_matrix(Y, K)
    n = P.shape[0]
    inter = np.sum(P & Y, axis=1).astype(float)
    union = np.sum(P | Y, axis=1).astype(float)
    sym = np.sum(P ^ Y, axis=1).astype(float)
    p_size = P.sum(axis=1).astype(float)
    y_size = Y.sum(axis=1).astype(float)
    with np.errstate(invalid="ignore", divide="ignore"):
        jac = np.where(union > 0, inter / np.where(union > 0, union, 1.0), 1.0)
        prec = np.where(p_size > 0, inter / np.where(p_size > 0, p_size, 1.0), 1.0)
        rec = np.where(y_size > 0, inter / np.where(y_size > 0, y_size, 1.0), 1.0)
    precision = float(prec.mean())
    recall = float(rec.mean())
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return MetricsReport(
        accuracy=float(jac.mean()),
        hamming_loss=float(sym.sum() / (n * K)),
        exact_match=float(np.mean(sym == 0)),
        precision=precision,
        recall=recall,
        f1=float(f1),
        n_instances=int(n),
    )


@pytest.mark.parametrize("order", ["C", "F"])
def test_evaluate_matches_the_row_major_sums_exactly(order):
    rng = np.random.default_rng(5)
    N, K = 10_000, 3
    P = np.asarray(rng.random((N, K)) < 0.4, dtype=np.int64, order=order)
    Y = np.asarray(rng.random((N, K)) < 0.4, dtype=np.int64, order=order)
    assert evaluate(P, Y, K) == _row_major_evaluate(P, Y, K)
    labels = predict_labels(rng.normal(0.5, 1.0, (N, K)), "multilabel")
    assert evaluate(labels, Y, K) == _row_major_evaluate(labels, Y, K)
