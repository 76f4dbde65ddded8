"""Kernel evaluation and Gram construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from ovnsvm import DimensionMismatch, KernelSpec, gram, gram_cross, kernel_eval

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


@pytest.mark.parametrize("kind", ["linear", "gaussian", "polynomial"])
@pytest.mark.parametrize("name", ["sigma", "coef0"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_kernel_parameters_are_rejected_by_name(kind, name, value):
    # NaN passes the sign checks, and a fit would only fail in its solves
    with pytest.raises(ValueError, match=rf"^{name} must be finite"):
        KernelSpec(kind=kind, **{name: value})


@pytest.mark.parametrize("kind", ["linear", "gaussian", "polynomial"])
@pytest.mark.parametrize("degree", [2.5, 2.0, float("nan")])
def test_degree_must_be_an_integer(kind, degree):
    with pytest.raises(ValueError, match=r"^degree must be an integer"):
        KernelSpec(kind=kind, degree=degree)
    assert KernelSpec(kind=kind, degree=np.int64(3)).degree == 3


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
    G = gram(spec, X)
    for i in range(6):
        for j in range(6):
            assert G[i, j] == pytest.approx(kernel_eval(spec, X[i], X[j]), abs=1e-12)


def test_gram_is_exactly_symmetric():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((40, 5))
    G = gram(GAUSS, X)
    assert np.array_equal(G, G.T)


def test_gaussian_diagonal_is_one():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((10, 4))
    G = gram(GAUSS, X)
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
    G = gram(KernelSpec(kind="gaussian", sigma=sigma), X)
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


@pytest.mark.parametrize("spec", [LINEAR, GAUSS, POLY], ids=lambda s: s.kind)
def test_no_training_rows_give_empty_blocks(spec):
    assert gram(spec, np.zeros((0, 2))).shape == (0, 0)
    assert gram_cross(spec, np.zeros((0, 2)), np.ones((3, 2))).shape == (0, 3)


def test_gram_cross_feature_mismatch():
    with pytest.raises(DimensionMismatch):
        gram_cross(LINEAR, np.ones((2, 3)), np.ones((2, 4)))


def _textbook_pairwise(spec, A, B):
    # the linear and polynomial blocks as fresh temporaries; the in-place
    # block must reproduce them bit for bit
    inner = A @ B.T
    if spec.kind == "linear":
        return inner
    return (inner + spec.coef0) ** spec.degree


def _difference_form(spec, A, B):
    # the gaussian block from explicit differences x - t
    d = A[:, None, :] - B[None, :, :]
    return np.exp(-np.sum(d * d, axis=2) / (2.0 * spec.sigma**2))


GAUSS_SPECS = [KernelSpec(kind="gaussian", sigma=s) for s in (0.3, 0.8, 1.7, 3.3)]
BIT_SPECS = [
    KernelSpec(kind="polynomial", degree=d, coef0=c) for d in (1, 2, 3) for c in (0.5, 1.0)
] + [LINEAR]
SHAPES = [(90, 1500, 2), (37, 200, 5), (1, 3, 1), (130, 0, 4)]


@pytest.mark.parametrize("spec", BIT_SPECS, ids=repr)
def test_blocks_are_bit_identical_to_the_textbook_formula(spec):
    rng = np.random.default_rng(7)
    for n, t, m in SHAPES:
        X = 2.5 * rng.standard_normal((n, m))
        Y = 2.5 * rng.standard_normal((t, m))
        V = _textbook_pairwise(spec, X, X)
        V = np.triu(V) + np.triu(V, 1).T
        assert np.array_equal(gram(spec, X), V)
        assert np.array_equal(gram_cross(spec, X, Y), _textbook_pairwise(spec, X, Y))


@pytest.mark.parametrize("spec", GAUSS_SPECS, ids=repr)
def test_gaussian_blocks_match_the_difference_form(spec):
    # the lifted exponent is a sum of terms up to h = |x - mean|^2 / 2 sigma^2,
    # so it is good to a few ulps of the largest h (2.3e-13 at sigma 0.3 here)
    rng = np.random.default_rng(7)
    for n, t, m in SHAPES:
        X = 2.5 * rng.standard_normal((n, m))
        Y = 2.5 * rng.standard_normal((t, m))
        c = np.vstack([X, Y]) - X.mean(axis=0)
        h = np.max(np.sum(c * c, axis=1)) / (2.0 * spec.sigma**2)
        tol = 8 * np.finfo(float).eps * max(1.0, h)
        G = gram(spec, X)
        assert np.array_equal(G, G.T)
        assert np.all(np.diag(G) >= 1.0 - tol) and np.all(np.diag(G) <= 1.0)
        np.testing.assert_allclose(G, _difference_form(spec, X, X), rtol=0, atol=tol)
        np.testing.assert_allclose(
            gram_cross(spec, X, Y), _difference_form(spec, X, Y), rtol=0, atol=tol
        )


@pytest.mark.parametrize("offset", [0.0, 1e3, 1e5])
def test_gaussian_blocks_keep_their_precision_far_from_the_origin(offset):
    spec = KernelSpec(kind="gaussian", sigma=0.5)
    rng = np.random.default_rng(11)
    X = offset + rng.standard_normal((60, 3))
    Y = offset + rng.standard_normal((80, 3))
    np.testing.assert_allclose(gram(spec, X), _difference_form(spec, X, X), rtol=0, atol=1e-13)
    np.testing.assert_allclose(
        gram_cross(spec, X, Y), _difference_form(spec, X, Y), rtol=0, atol=1e-13
    )
