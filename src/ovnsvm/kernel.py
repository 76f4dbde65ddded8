"""Kernel-space one-versus-none solver.

Every class weight vector is a combination of mapped training patterns,
w_k = sum_i A[k, i] phi(x_i).  A pivoted incomplete Cholesky factor
G ~ R R' of the Gram matrix (Fine & Scheinberg, JMLR 2001) gives every
training pattern r coordinates in the span of the r pivot patterns, so a
kernel fit is the linear fit on the rows of R: blocks of size r + 1 per
class, with the hard weight constraint sum_k w_k = 0 in those
coordinates.  The fitted weights map back to coefficients on the pivot
patterns.  A certified fit is then refit on its support vectors alone,
where the representer theorem puts the optimum (Schoelkopf, Herbrich &
Smola, COLT 2001): the same linear fit on the Nystroem rows of those
landmarks (Williams & Seeger, NIPS 2001).  Only the columns of A on the
pivots, or on the landmarks after a refit, are nonzero.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import solve_triangular

from .data import Dataset, finite_features
from .errors import DimensionMismatch, HessianNotPD, MaxItersExceeded, SingularSystem
from .kernels import KernelSpec, _finish, _lift, _origin, gram
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

# a row is a landmark of the refit when its hinge multiplier in some class is
# above this share of beta: a support vector of that class
_LANDMARK_TOL = 1e-5


@dataclass
class TrainedKernelModel:
    """Fit result: coefficient rows A (K x N), biases, and kernel context.

    Retains the training features because prediction needs kernel values
    against them, though only the rows whose column of A is nonzero (the
    pivots, or the landmarks of a refit) enter a score.  Diagnostics
    mirror TrainedLinearModel, ``interior_point`` and ``stop_reason``
    included; ``final_objective`` is the minimized functional at (A, b),
    :func:`training_objective_kernel`.
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

        Training rows whose column of A is zero are left out of the blocks.
        Rows are scored in blocks, so beyond the output one kernel block of
        n x (about _SCORE_BLOCK // n) values is held for the n kept training
        rows, however large T is.
        """
        X = finite_features(X)
        if X.shape[1:] != self.train_features.shape[1:]:
            raise DimensionMismatch(
                f"rows of shape {X.shape} for a model of {self.train_features.shape[1]} features"
            )
        keep = np.flatnonzero(self.A.any(axis=0))
        origin = _origin(self.train_features)
        left = _lift(self.kernel, self.train_features[keep], origin, True)
        A = np.take(self.A, keep, axis=1)  # row-major as A is, so it rounds alike
        scores = np.empty((len(X), self.n_classes))
        step = 64 * max(1, _SCORE_BLOCK // (64 * max(1, len(keep))))
        # the last block takes the rest, so it is never a lone row unless X is
        bounds = [0, *range(step, len(X) - 1, step), len(X)]
        for start, stop in zip(bounds, bounds[1:]):
            right = _lift(self.kernel, X[start:stop], origin, False)
            cross = _finish(self.kernel, left @ right)
            np.matmul(cross.T, A.T, out=scores[start:stop])
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


def _kernel_parts(sets, G, mode, hp, landmarks=None):
    """The linear parts of a fit on a factor of G: (parts, L, cols).

    The rows are those of the pivoted factor R of G, with L = R[cols] on
    the pivots cols.  Given ``landmarks``, they are the rows G[:, cols] L^-T
    of the Nystroem map instead, with L the factor of G on the landmarks and
    cols its pivots among them (Williams & Seeger, NIPS 2001).
    """
    S = np.arange(len(G)) if landmarks is None else landmarks
    R, pivots = _factor(G if landmarks is None else G[np.ix_(S, S)])
    L, cols = R[pivots], S[pivots]
    if landmarks is not None:
        R = solve_triangular(L, G[cols], lower=True).T
    return _linear_parts(R, sets, mode, hp, f", rank={len(cols)}"), L, cols


def _dual(dataset, G, mode, hp, run, L, cols):
    """(A, b, objective) of a fit on the rows of :func:`_kernel_parts`.

    The weights w_k = L' a_k map back to coefficients a_k on the columns cols.
    """
    r = len(cols)
    A = np.zeros((dataset.n_classes, dataset.n_instances))
    A[:, cols] = solve_triangular(L, run.w[:, :r].T, lower=True, trans="T").T
    b = run.w[:, r].copy()
    return A, b, training_objective_kernel(dataset, G, A, b, mode, hp)


def _refit(dataset, G, mode, hp, fit, traces):
    """The fit on the support-vector landmarks of a pivot fit: (parts, run, model).

    Returns the pivot ``fit`` instead when the refit is skipped or
    discarded.  Either way the run's ``interior_point`` says which, its
    ``iterations_used`` counts the steps of both fits, and with ``traces``
    its traces are those of the fit returned.
    """
    parts, run, model = fit

    def end(chosen, note, steps=0):
        c_parts, c_run, c_model = chosen
        if traces:
            c_run.add_traces(c_parts, hp)
        note, steps = f"{run.interior_point}; refit {note}", run.iterations_used + steps
        return c_parts, replace(c_run, interior_point=note, iterations_used=steps), c_model

    if run.stop_reason != "gap":
        return end(fit, "skipped (pivot fit not certified)")
    sets = dataset.class_index_sets()
    S = np.unique(np.concatenate(sets)[run.lam > _LANDMARK_TOL * hp.beta])
    if len(S) >= parts.metric.shape[0] - 1:  # r + 1 columns on a factor of rank r
        return end(fit, "skipped (|S| >= r)")
    parts2, L, cols = _kernel_parts(sets, G, mode, hp, S)
    try:
        with warnings.catch_warnings():  # a refit at the cap is discarded, not the model
            warnings.simplefilter("ignore", MaxItersExceeded)
            run2 = _minimize(parts2, hp)
    except (HessianNotPD, SingularSystem) as e:
        return end(fit, f"discarded ({type(e).__name__} on its first step)", 1)
    model2, steps = _dual(dataset, G, mode, hp, run2, L, cols), run2.iterations_used
    if run2.stop_reason != "gap":
        return end(fit, f"discarded ({run2.interior_point})", steps)
    if model2[2] > model[2]:  # the objectives on the full G
        return end(fit, f"discarded ({run2.interior_point}, objective {model2[2]!r} "
                   f"above {model[2]!r})", steps)
    return end((parts2, run2, model2), f"on {len(cols)} landmarks {run2.interior_point}", steps)


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
    *,
    traces: bool = True,
    refit: bool = True,
) -> TrainedKernelModel:
    """Fit the kernel model with the interior-point fit of the linear solver.

    Parameters
    ----------
    dataset : Dataset
    kernel : KernelSpec
    mode : ConstraintMode
    hp : Hyperparameters
        ``hp.alpha`` is the coupling coefficient of soft-w modes.
    traces : bool
        As in :func:`ovnsvm.linear.fit_linear`: False returns the same
        model with empty ``surrogate_trace`` and ``hinge_trace`` and runs
        no MM solve.
    refit : bool
        Whether a certified fit is refit on its support vectors.  False
        returns the pivot fit's model, for callers that score a few rows
        and drop it, where the second fit does not pay for itself.

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
    rows of the pivoted Cholesky factor R of the Gram matrix: the
    interior-point method, whose iterate is the model and on which
    ``interior_point`` reports.  It stops as that fit does, on the
    method's certificate ("gap"), on a step of the method that raised
    ("stall") or at the cap ("cap"), as ``stop_reason`` says.  On an edge
    of the coupling window the Gram factor usually leaves coupling null
    directions without hinge curvature; the edge term of the linear fit
    keeps both the MM and the Newton systems regular there.

    With ``refit``, a fit that ended "gap" is then refit on its landmarks,
    the rows whose multiplier is above _LANDMARK_TOL beta in some class:
    G on the landmarks is factored, every training row is mapped onto them,
    and :func:`ovnsvm.linear._minimize` runs again on those rows.  The refit
    is skipped when there are at least r landmarks, and discarded unless it
    ends "gap" at an objective no higher than the pivot fit's; the pivot
    fit is then the model.  ``interior_point`` says which of these
    happened, after the pivot fit's own status.  ``iterations_used`` counts
    the steps of both fits, so a fit without traces still factors
    ``iterations_used`` systems; ``stop_reason`` and ``kkt_residual`` are
    the model's fit's.

    With ``traces`` plain MM then runs on the rows the model was fit on,
    one iteration per step of that fit but the last (every step at the
    cap), so a refit model has one trace entry fewer than its refit's steps
    (:func:`ovnsvm.linear._mm_traces`), and an error of its solve
    propagates.  The coefficients A are the pivot or landmark patterns'
    part of the model's weights, so the model file and the scoring path
    are those of a full kernel model; ``final_objective`` is taken on the
    full G.
    """
    sets = dataset.class_index_sets()
    _validate_fit_inputs(sets, dataset.class_names, mode, hp)
    G = gram(kernel, dataset.features)
    parts, L, cols = _kernel_parts(sets, G, mode, hp)
    run = _minimize(parts, hp)
    model = _dual(dataset, G, mode, hp, run, L, cols)
    if refit:
        parts, run, model = _refit(dataset, G, mode, hp, (parts, run, model), traces)
    elif traces:
        run.add_traces(parts, hp)
    A, b, objective = model
    return TrainedKernelModel(
        A=A, b=b, kernel=kernel, train_features=dataset.features.copy(), mode=mode,
        hyperparameters=hp, final_objective=objective, **run.diagnostics(),
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
