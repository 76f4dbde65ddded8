"""Kernel-space one-versus-none solver.

Every class weight vector is a combination of mapped training patterns,
w_k = sum_i A[k, i] phi(x_i).  A pivoted incomplete Cholesky factor
G ~ R R' of the Gram matrix (Fine & Scheinberg, JMLR 2001) gives every
training pattern r coordinates in the span of the r pivot patterns, so a
kernel fit is the linear fit on the rows of R: blocks of size r + 1 per
class, with the hard weight constraint sum_k w_k = 0 in those
coordinates.  The fitted weights map back to coefficients on the pivot
patterns; every other column of A is zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular

from .data import Dataset, finite_features
from .kernels import KernelSpec, gram, gram_cross
from .linear import (
    AssembledSystem,
    ConstraintMode,
    Hyperparameters,
    _functional,
    _linear_parts,
    _minimize,
    _validate_fit_inputs,
)
from .majorization import MMState

# the Gram factor stops once no diagonal entry of the residual G - R R' is
# above this share of the trace of G
_FACTOR_TOL = 1e-8

# kernel values per scoring block, so that one N x (this // N) block stays in
# cache.  Blocks are whole multiples of 64 rows, a multiple of the register
# tile of BLAS kernels, so only the last block has edge rows, as one call has.
_SCORE_BLOCK = 1 << 15


@dataclass
class TrainedKernelModel:
    """Fit result: coefficient rows A (K x N), biases, and kernel context.

    Retains the training features because prediction needs kernel values
    against them.  Diagnostics mirror TrainedLinearModel, ``interior_point``
    and ``stop_reason`` included; ``final_objective`` is the minimized
    functional at (A, b), :func:`training_objective_kernel`.
    """

    A: np.ndarray
    b: np.ndarray
    kernel: KernelSpec
    train_features: np.ndarray
    mode: ConstraintMode
    hyperparameters: Hyperparameters
    iterations_used: int
    final_objective: float
    kkt_residual: float
    converged: bool = True
    surrogate_trace: list = field(default_factory=list)
    hinge_trace: list = field(default_factory=list)
    interior_point: str = ""
    stop_reason: str = ""

    @property
    def n_classes(self) -> int:
        return self.A.shape[0]

    @property
    def n_train(self) -> int:
        return self.A.shape[1]

    def decision_scores(self, X) -> np.ndarray:
        """Per-class scores sum_i A[k,i] kappa(x_i, x) + b_k, shape (T, K).

        Rows are scored in blocks, so beyond the output one kernel block of
        N x (about _SCORE_BLOCK // N) values is held, however large T is.
        """
        X = finite_features(X)
        scores = np.empty((len(X), self.n_classes))
        step = 64 * max(1, _SCORE_BLOCK // (64 * self.n_train))
        # the last block takes the rest, so it is never a lone row unless X
        # is, and there is one block even for no rows, to check X's width
        bounds = [0, *range(step, len(X) - 1, step), len(X)]
        for start, stop in zip(bounds, bounds[1:]):
            cross = gram_cross(self.kernel, self.train_features, X[start:stop])
            np.matmul(cross.T, self.A.T, out=scores[start:stop])
        scores += self.b
        return scores


def _factor(G):
    """Pivoted incomplete Cholesky: G ~ R R' with R[pivots] lower triangular.

    Each step pivots on the largest residual diagonal entry and stops when
    none exceeds _FACTOR_TOL times the trace, so R has the numerical rank r
    of G as its column count (r = 0 for a zero Gram matrix).
    """
    N = G.shape[0]
    d = np.diag(G).copy()  # the diagonal of G - R R'
    stop = _FACTOR_TOL * float(d.sum())
    Rt = np.zeros((N, N))  # R transposed, so each new column is a row
    pivots = []
    for j in range(N):
        i = int(np.argmax(d))
        if d[i] <= stop:
            break
        Rt[j] = (G[i] - Rt[:j, i] @ Rt[:j]) / np.sqrt(d[i])
        Rt[j, pivots] = 0.0  # exact zeros above the diagonal of R[pivots]
        d -= Rt[j] ** 2
        d[i] = 0.0
        pivots.append(i)
    return Rt[: len(pivots)].T, np.asarray(pivots, dtype=int)


def _kernel_parts(sets, G, mode, hp):
    # the linear parts on R, with the triangular pivot rows R[pivots]
    R, pivots = _factor(G)
    parts = _linear_parts(R, sets, mode, hp, f", rank={len(pivots)}")
    return parts, R[pivots], pivots


def assemble_kernel(
    dataset: Dataset,
    G: np.ndarray,
    mode: ConstraintMode,
    hp: Hyperparameters,
    state: MMState,
) -> AssembledSystem:
    """Build the kernel surrogate system for the current auxiliaries.

    This is the dense reference of the linear system on the rows of the
    Gram factor R that ``fit_kernel`` solves by class blocks.  On an edge
    of the coupling window the fit's blocks also carry a small proximal
    term, which this system leaves out (see
    :meth:`ovnsvm.linear._FixedParts.blocks`).  ``hp.alpha`` plays the
    pairwise coupling role here.  Blocks are sized r + 1 for the
    rank r of the factor; the trailing coordinate of each block is the
    class bias.
    """
    parts, _, _ = _kernel_parts(dataset.class_index_sets(), G, mode, hp)
    return parts.system(state.z)


def training_objective_kernel(
    dataset: Dataset, G: np.ndarray, A, b, mode: ConstraintMode, hp: Hyperparameters
) -> float:
    """Kernel-space value of the functional the solver minimizes, on G from :func:`gram`."""
    # w_k = sum_i A[k, i] phi(x_i), so G is the inner product of A's rows
    A, b = np.asarray(A, dtype=float), np.asarray(b, dtype=float)
    return _functional(
        lambda a: float(np.sum((a @ G) * a)), A, b, (A @ G).T + b, dataset.labels, mode, hp
    )


def fit_kernel(
    dataset: Dataset,
    kernel: KernelSpec,
    mode: ConstraintMode,
    hp: Hyperparameters,
) -> TrainedKernelModel:
    """Fit the kernel model with the MM iteration of the linear solver.

    Parameters
    ----------
    dataset : Dataset
    kernel : KernelSpec
    mode : ConstraintMode
    hp : Hyperparameters
        ``hp.alpha`` is the coupling coefficient of soft-w modes.

    Returns
    -------
    TrainedKernelModel

    Notes
    -----
    The fit minimizes the functional of :func:`training_objective_kernel`
    on the Gram matrix of :func:`ovnsvm.kernels.gram` as it is, with no
    ridge: the factor below stops at the numerical rank of G, so a
    semidefinite or rank-deficient G needs no jitter on its diagonal.
    The fit is the linear fit (:func:`ovnsvm.linear._minimize`) on the
    rows of the pivoted Cholesky factor R of the Gram matrix, interior-point
    anchor included, so ``interior_point`` reports on the same method.  It
    stops as that fit does, on the method's certificate ("gap"), on a step
    of the method that raised ("stall") or at the cap ("cap"), as
    ``stop_reason`` says, and returns the better of the last MM and
    interior-point iterates.  On an edge of the coupling window the Gram
    factor usually leaves coupling null directions without hinge
    curvature; the edge term of the linear fit keeps both the MM and the
    Newton systems regular there.  The coefficients A are the pivot
    patterns' part of the same weights, so the model file and the scoring
    path are those of a full kernel model.
    """
    sets = dataset.class_index_sets()
    _validate_fit_inputs(sets, mode, hp)
    G = gram(kernel, dataset.features)
    parts, L, pivots = _kernel_parts(sets, G, mode, hp)
    run = _minimize(parts, hp)
    r = len(pivots)
    # w_k = L' a_k on the pivot coefficients a_k, with L = R[pivots]
    A = np.zeros((len(sets), dataset.n_instances))
    A[:, pivots] = solve_triangular(L, run.w[:, :r].T, lower=True, trans="T").T
    b = run.w[:, r].copy()
    return TrainedKernelModel(
        A=A, b=b, kernel=kernel, train_features=dataset.features.copy(), mode=mode,
        hyperparameters=hp,
        final_objective=training_objective_kernel(dataset, G, A, b, mode, hp),
        **run.diagnostics(),
    )


def support_vectors(model, dataset: Dataset, tol_sv: float = 1e-4):
    """Per-class support vector index sets.

    A positive pattern of class k is a support vector when its class-k
    score is at most 1 + tol_sv (on the margin or violating it).  Works
    for both model kinds.
    """
    scores = model.decision_scores(dataset.features)
    out = []
    for k, idx in enumerate(dataset.class_index_sets()):
        on_margin = idx[scores[idx, k] <= 1.0 + tol_sv]
        out.append(on_margin)
    return out
