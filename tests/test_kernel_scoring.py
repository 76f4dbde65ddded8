"""Blocked scoring of kernel models: the same bits, bounded memory."""

import tracemalloc

import numpy as np
import pytest

from ovnsvm import (
    ConstraintMode,
    DimensionMismatch,
    Hyperparameters,
    KernelSpec,
    TrainedKernelModel,
    gram_cross,
)

# the shape of the benchmark's ring model: 90 training rows, 2 features,
# 3 classes; a model that keeps all 90 rows scores blocks of 320 rows
N, M, K = 90, 2, 3


def _model(spec, seed=0):
    rng = np.random.default_rng(seed)
    return TrainedKernelModel(
        A=rng.standard_normal((K, N)),
        b=rng.standard_normal(K),
        kernel=spec,
        train_features=3.0 * rng.standard_normal((N, M)),
        mode=ConstraintMode("soft", "hard"),
        hyperparameters=Hyperparameters(),
        iterations_used=1,
        final_objective=0.0,
        kkt_residual=0.0,
    )


SPECS = [
    KernelSpec(kind="gaussian", sigma=0.5),
    KernelSpec(kind="gaussian", sigma=1.7),
    KernelSpec(kind="polynomial", degree=3, coef0=0.5),
    KernelSpec(kind="linear"),
]


@pytest.mark.parametrize("spec", SPECS, ids=repr)
@pytest.mark.parametrize(
    "T",
    [0, 1, 100, 320, 641, 1000, 10_000],
    ids=["none", "one row", "part of a block", "one block", "blocks and one row",
         "blocks and a remainder", "a benchmark batch"],
)
def test_scores_equal_the_single_block_product(spec, T):
    model = _model(spec)
    X = 3.0 * np.random.default_rng(1).standard_normal((T, M))
    whole = gram_cross(spec, model.train_features, X).T @ model.A.T + model.b
    got = model.decision_scores(X)
    assert got.shape == (T, K)
    assert np.array_equal(got, whole)


def test_zero_columns_of_A_are_left_out_of_the_scores():
    spec = SPECS[0]
    model = _model(spec)
    model.A[:, ::7] = 0.0
    X = 3.0 * np.random.default_rng(3).standard_normal((1000, M))
    whole = gram_cross(spec, model.train_features, X).T @ model.A.T + model.b
    np.testing.assert_allclose(model.decision_scores(X), whole, rtol=0, atol=1e-13)
    model.A[:] = 0.0
    assert np.array_equal(model.decision_scores(X), np.broadcast_to(model.b, whole.shape))


@pytest.mark.parametrize("distance", [1e3, 1e6])
def test_rows_far_from_the_training_data_score_the_biases(distance):
    # every kernel value underflows to 0; the lifted exponent is a large
    # negative number, so nothing overflows and no inf * 0 makes a nan
    model = _model(SPECS[0])
    X = model.train_features[:50] + distance
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        scores = model.decision_scores(X)
    assert not np.isnan(scores).any()
    assert np.array_equal(scores, np.broadcast_to(model.b, scores.shape))


def test_feature_count_is_checked_for_no_rows():
    with pytest.raises(DimensionMismatch):
        _model(SPECS[0]).decision_scores(np.zeros((0, M + 1)))


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_rows_are_rejected_before_scoring(value):
    # the check runs before the first block, so the kernel never sees them
    X = np.zeros((700, M))
    X[650, 1] = value
    with np.errstate(all="raise"):
        with pytest.raises(ValueError, match=r"row 651, column 2: non-finite"):
            _model(SPECS[0]).decision_scores(X)


def test_scoring_memory_stays_far_below_one_kernel_block_of_all_rows():
    model = _model(SPECS[0])
    X = np.random.default_rng(2).standard_normal((200_000, M))
    full_block = N * X.shape[0] * 8  # 144 MB of N x T doubles
    tracemalloc.start()
    try:
        scores = model.decision_scores(X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert scores.shape == (X.shape[0], K)
    # the T x K output (4.8 MB) plus one block of a few hundred rows
    assert peak < full_block / 16, f"peak {peak / 1e6:.1f} MB"
