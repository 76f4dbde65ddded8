"""Kernel evaluation and Gram construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from ovnsvm import DimensionMismatch, KernelSpec, gram, gram_cross, kernel_eval
from ovnsvm.kernels import DEFAULT_RIDGE

LINEAR = KernelSpec(kind="linear")
GAUSS = KernelSpec(kind="gaussian", sigma=1.5)
POLY = KernelSpec(kind="polynomial", degree=3, coef0=2.0)


def test_spec_validation():
    with pytest.raises(ValueError, match="kind"):
        KernelSpec(kind="sigmoid")
    with pytest.raises(ValueError, match="sigma"):
        KernelSpec(kind="gaussian", sigma=0.0)
    with pytest.raises(ValueError, match="degree"):
        KernelSpec(kind="polynomial", degree=0)


def test_eval_hand_values():
    x = np.array([1.0, 2.0])
    y = np.array([3.0, -1.0])
    assert kernel_eval(LINEAR, x, y) == pytest.approx(1.0)
    assert kernel_eval(POLY, x, y) == pytest.approx((1.0 + 2.0) ** 3)
    # squared distance is 4 + 9 = 13
    assert kernel_eval(GAUSS, x, y) == pytest.approx(np.exp(-13.0 / (2 * 1.5**2)))


def test_eval_length_mismatch():
    with pytest.raises(DimensionMismatch):
        kernel_eval(LINEAR, [1.0], [1.0, 2.0])


@pytest.mark.parametrize("spec", [LINEAR, GAUSS, POLY], ids=lambda s: s.kind)
def test_gram_matches_entrywise_eval(spec):
    rng = np.random.default_rng(0)
    X = rng.standard_normal((6, 3))
    G = gram(spec, X, ridge=0.0).values
    for i in range(6):
        for j in range(6):
            assert G[i, j] == pytest.approx(kernel_eval(spec, X[i], X[j]), abs=1e-12)


def test_gram_is_exactly_symmetric():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((40, 5))
    G = gram(GAUSS, X, ridge=0.0).values
    assert np.array_equal(G, G.T)


def test_gram_ridge_lands_on_diagonal():
    X = np.eye(3)
    g = gram(LINEAR, X, ridge=1e-3)
    assert g.ridge == 1e-3
    np.testing.assert_allclose(np.diag(g.values), 1.0 + 1e-3)
    assert g.values[0, 1] == 0.0


def test_gaussian_diagonal_is_one():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((10, 4))
    G = gram(GAUSS, X, ridge=0.0).values
    np.testing.assert_allclose(np.diag(G), 1.0)
    assert np.all(G > 0.0) and np.all(G <= 1.0)


@settings(max_examples=40, deadline=None)
@given(
    X=arrays(
        np.float64,
        array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=8),
        elements=st.floats(min_value=-10, max_value=10),
    ),
    sigma=st.floats(min_value=0.1, max_value=5.0),
)
def test_gaussian_gram_is_positive_semidefinite(X, sigma):
    G = gram(KernelSpec(kind="gaussian", sigma=sigma), X, ridge=0.0).values
    eigmin = float(np.linalg.eigvalsh(G)[0])
    assert eigmin >= -1e-9


def test_gram_cross_matches_eval_and_shape():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((4, 2))
    B = rng.standard_normal((3, 2))
    C = gram_cross(GAUSS, A, B)
    assert C.shape == (4, 3)
    for i in range(4):
        for j in range(3):
            assert C[i, j] == pytest.approx(kernel_eval(GAUSS, A[i], B[j]))


def test_gram_cross_feature_mismatch():
    with pytest.raises(DimensionMismatch):
        gram_cross(LINEAR, np.ones((2, 3)), np.ones((2, 4)))


def test_default_ridge_is_tiny():
    assert 0.0 < DEFAULT_RIDGE <= 1e-8


def _textbook_pairwise(spec, A, B):
    # the kernel block as three fresh temporaries; the in-place block must
    # reproduce it bit for bit
    inner = A @ B.T
    if spec.kind == "linear":
        return inner
    if spec.kind == "polynomial":
        return (inner + spec.coef0) ** spec.degree
    sq = np.sum(A * A, axis=1)[:, None] - 2.0 * inner + np.sum(B * B, axis=1)[None, :]
    np.maximum(sq, 0.0, out=sq)
    return np.exp(-sq / (2.0 * spec.sigma**2))


BIT_SPECS = (
    [KernelSpec(kind="gaussian", sigma=s) for s in (0.3, 0.8, 1.7, 3.3)]
    + [KernelSpec(kind="polynomial", degree=d, coef0=c) for d in (1, 2, 3) for c in (0.5, 1.0)]
    + [LINEAR]
)


@pytest.mark.parametrize("spec", BIT_SPECS, ids=repr)
def test_blocks_are_bit_identical_to_the_textbook_formula(spec):
    rng = np.random.default_rng(7)
    for n, t, m in [(90, 1500, 2), (37, 200, 5), (1, 3, 1), (130, 0, 4)]:
        X = 2.5 * rng.standard_normal((n, m))
        Y = 2.5 * rng.standard_normal((t, m))
        V = _textbook_pairwise(spec, X, X)
        V = np.triu(V) + np.triu(V, 1).T
        V[np.diag_indices_from(V)] += DEFAULT_RIDGE
        assert np.array_equal(gram(spec, X).values, V)
        assert np.array_equal(gram_cross(spec, X, Y), _textbook_pairwise(spec, X, Y))
