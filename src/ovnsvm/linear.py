"""Linear one-versus-none solver.

Each class k gets a weight vector w_k and bias b_k fit against a shared
implicit origin rather than against the other classes' patterns.  The
pairwise coupling between classes is either penalized (soft) or constrained
(hard), and likewise for the bias sum, giving four constraint modes.

The fit is an interior-point method on the training QP, which ends on its
certificate of the optimum and whose iterate is the model (``_minimize``,
which the kernel solver runs too).  A fit that returns traces then runs
a plain MM iteration, a KKT solve of the quadratic surrogate problem in
the stacked augmented weights alternating with the closed-form auxiliary
update, whose only output is its descent trace (``_mm_traces``).
Classes meet only through the sum of their weight vectors, so each
Newton or surrogate system takes one small Cholesky factor per class and
one system in the shared sum (``_factor_blocks``); ``assemble`` and
``solve_kkt`` keep the dense system as the reference.

The functional the solver minimizes, which ``training_objective``
evaluates and every fit reports as ``final_objective``, is

    F = sum_k ||w_k||^2 + alpha sum_{k<l} <w_k, w_l>  [soft-w]
        + gamma (sum_k b_k)^2 [soft-b] + beta sum_k sum_{i in C_k} hinge(w_k' x_i + b_k),

whose stationarity condition is exactly the assembled system below.  Its
first two terms are sum_kl C_kl <w_k, w_l> for the coupling C = (1 - pair)
I + pair 11', pair = alpha/2 (0 in hard-w modes), whose eigenvalues
c_con = 1 - pair on class contrasts and c_mean = 1 + (K-1) pair on the
class mean give them as c_con sum_k ||w_k - wbar||^2 + c_mean K ||wbar||^2
for the mean row wbar.  The window -2/(K-1) <= alpha <= 2 keeps both
eigenvalues >= 0, and there no term of F is negative.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass, field, fields

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.lapack import dgecon, dgetrf, dgetrs, dpotrf, dtrtri

from .data import Dataset, _plain_scalars, augment_rows, finite_features
from .errors import (
    DimensionMismatch,
    HessianNotPD,
    MaxItersExceeded,
    SingularSystem,
    SolverError,
    TooFewInstances,
)
from .majorization import DEFAULT_EPSILON, MMState, hinge, majorizer

MODE_TOKENS = {
    "sw-sb": ("soft", "soft"),
    "sw-hb": ("soft", "hard"),
    "hw-sb": ("hard", "soft"),
    "hw-hb": ("hard", "hard"),
}


@dataclass(frozen=True)
class ConstraintMode:
    """Which of soft/hard applies to the weight coupling and the bias sum."""

    w_constraint: str = "soft"
    b_constraint: str = "hard"

    def __post_init__(self):
        for v in (self.w_constraint, self.b_constraint):
            if v not in ("soft", "hard"):
                raise ValueError(f"constraint must be 'soft' or 'hard', got {v!r}")

    @property
    def token(self) -> str:
        return f"{self.w_constraint[0]}w-{self.b_constraint[0]}b"

    @classmethod
    def from_token(cls, token: str) -> "ConstraintMode":
        if token not in MODE_TOKENS:
            raise ValueError(
                f"unknown mode token {token!r}; expected one of {sorted(MODE_TOKENS)}"
            )
        w, b = MODE_TOKENS[token]
        return cls(w, b)


@dataclass(frozen=True)
class Hyperparameters:
    """Training coefficients shared by both solvers.

    ``alpha`` is the pairwise coupling coefficient for soft-w modes (the
    kernel solver reads the same field as its coupling coefficient).
    ``beta`` weighs the hinge terms, ``gamma`` the squared bias sum in
    soft-b modes.
    """

    alpha: float = 1.0
    beta: float = 10.0
    gamma: float = 1.0
    epsilon: float = DEFAULT_EPSILON
    max_iters: int = 500
    tol: float = 1e-8

    def __post_init__(self):
        _plain_scalars(self)
        # NaN passes every comparison below, and inf breaks the solves
        for name in ("alpha", "beta", "gamma", "epsilon", "tol"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.beta <= 0:
            raise ValueError("beta must be strictly positive")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be strictly positive")
        if self.tol <= 0:
            raise ValueError("tol must be strictly positive")
        if not isinstance(self.max_iters, numbers.Integral):
            raise ValueError(f"max_iters must be an integer, got {self.max_iters!r}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


@dataclass
class TrainedLinearModel:
    """Fit result: per-class weight rows W, biases b, and diagnostics.

    (W, b) is the iterate of the interior-point method that fits it.
    ``surrogate_trace`` holds the surrogate objective after every weight
    solve of the plain MM iteration that a fit with ``traces=True`` runs
    once the method has stopped (non-increasing; :func:`_mm_traces`);
    ``hinge_trace`` holds the training objective at the same MM iterates.
    Both are empty for a fit with ``traces=False`` and a loaded model.
    ``kkt_residual`` is the method's relative stationarity residual at
    (W, b).  ``final_objective`` is the minimized functional at (W, b),
    :func:`training_objective`.  ``interior_point`` says how the method
    ended: "converged after n steps", "stopped on <error> after n steps"
    or "running after n steps" at the iteration cap (see
    :func:`_minimize`).  ``stop_reason`` says why the fit stopped: "gap"
    when that method certified the optimum, "stall" when its step raised,
    "cap" at ``max_iters``; ``converged`` is False only at the cap.  A
    model loaded from a file has "" for both strings.
    """

    W: np.ndarray
    b: np.ndarray
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
        return self.W.shape[0]

    @property
    def n_features(self) -> int:
        return self.W.shape[1]

    def decision_scores(self, X) -> np.ndarray:
        """Per-class scores w_k' x + b_k for every row of X, shape (T, K).

        Computed class-major as W @ X' and returned as its transpose.
        """
        X = finite_features(X)
        if X.shape[1:] != (self.n_features,):
            raise DimensionMismatch(
                f"rows of shape {X.shape} for a model of {self.n_features} features"
            )
        return (self.W @ X.T + self.b[:, None]).T


@dataclass
class AssembledSystem:
    """One surrogate quadratic problem as the dense reference system.

    Fits never build it: they solve the same problem by class blocks (see
    :func:`_factor_blocks`).  Tests and callers that want the whole matrix
    use it with :func:`solve_kkt`.

    Parameters
    ----------
    H : ndarray
        Symmetric L x L curvature matrix, L = K * (M + 1), with M the
        feature count (the rank of the Gram factor in kernel fits).
    rhs : ndarray
        Length-L right side of the first-order system.
    constraint_matrix : ndarray
        L x c matrix whose columns span the hard-constraint rows
        (c is 0, 1, M, or M + 1 depending on the mode).
    note : str
        Hyperparameter context quoted by solver error messages.
    """

    H: np.ndarray
    rhs: np.ndarray
    constraint_matrix: np.ndarray
    note: str = ""


@dataclass
class _FixedParts:
    """The parts of the surrogate system that stay fixed during one fit.

    ``rows[k]`` holds the augmented feature rows [x_i; 1] of class k's
    positives (the patterns in the primal, the rows of the Gram factor in
    kernel fits), so class k's projections are ``rows[k] @ w_k``.  Without
    the hinge blocks the curvature is coupling (x) metric + gamma uu',
    where coupling is (1 - pair) I + pair 11' (pair = alpha/2 in soft-w
    modes, 0 in hard-w modes), metric is the diagonal per-class
    regularizer D, u picks the biases and gamma is 0 in hard-b modes.
    ``hard`` marks the coordinates whose sum over the classes is held at 0.
    ``flat = (f0, f1)`` names the projector f0 I + f1 11'/K onto the null
    space of a singular coupling, on an edge of the window, and is None
    inside it; there the curvature carries the edge term _EDGE_WEIGHT
    (f0 I + f1 11'/K) (x) D.

    Every one of those cross-class terms acts through sum_k w_k, so the
    fit solves each surrogate by class blocks (:meth:`blocks`,
    :func:`_factor_blocks`); :meth:`system` assembles the same problem as
    the dense reference.
    """

    rows: list
    pair: float
    metric: np.ndarray
    gamma: float
    hard: np.ndarray
    beta: float
    note: str
    flat: tuple | None = None

    def __post_init__(self):
        self.spectrum = _coupling_spectrum(self.pair, len(self.rows))
        self.diagonal = np.diag(self.metric)
        ends = np.cumsum([0] + [A_k.shape[0] for A_k in self.rows]).tolist()
        self.slices = [slice(a, b) for a, b in zip(ends, ends[1:])]  # each class's projections

    def system(self, z) -> AssembledSystem:
        """The dense reference system at the auxiliaries ``z``, one array per class."""
        K, P = len(self.rows), self.metric.shape[0]
        coupling = np.eye(K) + self.pair * (np.ones((K, K)) - np.eye(K))
        H = np.kron(coupling, self.metric)
        H[P - 1 :: P, P - 1 :: P] += self.gamma
        rhs = np.zeros(H.shape[0])
        for k, (A_k, z_k) in enumerate(zip(self.rows, z)):
            a = 1.0 / z_k
            s = slice(k * P, (k + 1) * P)
            H[s, s] += (self.beta / 4.0) * (A_k.T * a) @ A_k
            rhs[s] = (self.beta / 2.0) * ((1.0 + a) @ A_k)
        # one column per held coordinate, summing it over the classes
        U = np.kron(np.ones((K, 1)), np.eye(P)[:, self.hard])
        return AssembledSystem(H, rhs, U, self.note)

    def blocks(self, z, w_a):
        """The surrogate at ``z`` by class blocks: (F, rhs, shared).

        2H = blockdiag(F_k) + V diag(shared) V' with V = 1_K (x) I_P, so
        F_k = 2 (c0 D + S_k) with S_k = (beta/4) A_k' diag(1/z_k) A_k and
        shared = 2 C.  The coupling gives c0 = 1 - pair and C = pair diag(D),
        the bias sum adds gamma to C.  On an edge of the window the
        proximal term delta ||w - w_a||^2 in E = (f0 I + f1 11'/K) (x) D,
        delta = _EDGE_WEIGHT, is added: delta f0 to c0 and delta f1/K diag(D)
        to C (:meth:`curvature`), and 2 delta E w_a to rhs.
        """
        F, shared = self.curvature(z)
        h = self.beta / 2.0
        rhs = np.array([h * ((1.0 + 1.0 / z_k) @ A_k) for A_k, z_k in zip(self.rows, z)])
        if self.flat is not None:
            f0, f1 = self.flat
            d = _EDGE_WEIGHT * self.diagonal
            rhs += 2.0 * d * (f0 * w_a + (f1 / len(self.rows)) * w_a.sum(axis=0))
        return F, rhs, shared

    def curvature(self, z):
        """The (F, shared) of :meth:`blocks`, with the term of an edge."""
        K, P = len(self.rows), self.metric.shape[0]
        d = self.diagonal
        c0, C = 1.0 - self.pair, self.pair * d
        C[P - 1] += self.gamma
        F = np.empty((K, P, P))
        h = self.beta / 2.0
        for k, (A_k, z_k) in enumerate(zip(self.rows, z)):
            np.matmul(A_k.T * (h * (1.0 / z_k)), A_k, out=F[k])
        if self.flat is not None:
            f0, f1 = self.flat
            c0, C = c0 + _EDGE_WEIGHT * f0, C + (_EDGE_WEIGHT * f1 / K) * d
        F.reshape(K, P * P)[:, :: P + 1] += 2.0 * c0 * d
        return F, 2.0 * C

    def regularizer(self, w) -> float:
        """w' H w without the hinge blocks, for the K x P weights w."""
        quad = _coupled_norm(self.spectrum, lambda v: float((v * v * self.diagonal).sum()), w)
        return quad + self.gamma * float(w[:, -1].sum()) ** 2

    def regularizer_gradient(self, w) -> np.ndarray:
        """The gradient 2 H w of :meth:`regularizer`, K x P."""
        c_con, c_mean = self.spectrum
        mean = w.sum(axis=0) / len(w)
        grad = 2.0 * (c_con * (w - mean) + c_mean * mean) * self.diagonal
        grad[:, -1] += 2.0 * self.gamma * float(w[:, -1].sum())
        return grad

    def project(self, w) -> np.ndarray:
        """The projections A_k w_k of every class's rows, class after class."""
        return np.concatenate([A_k @ w_k for A_k, w_k in zip(self.rows, w)])

    def transpose_project(self, v) -> np.ndarray:
        """A_k' v_k for every class, K x P, for v laid out as :meth:`project`'s."""
        return np.array([v[c] @ A_k for A_k, c in zip(self.rows, self.slices)])


# a coupling eigenvalue below this counts as zero, so that alpha = -2/(K-1),
# whose rounding leaves 1e-16 at K = 50, is still an edge of the window
_FLAT_COUPLING = 1e-8

# the weight of the edge term in the MM and the interior-point blocks, a
# primal regularization (Friedlander & Orban, Math. Prog. Comp. 2012).  On
# a sweep of edge fits, 1e-2 let some run to hundreds of iterations, and
# at 1e-4 and below more of them stopped on a singular shared system.
_EDGE_WEIGHT = 1e-3


def _linear_parts(X, sets, mode, hp, context="") -> _FixedParts:
    """The fixed parts of a fit on the feature rows X (N x M).

    ``context`` extends the hyperparameter note of solver errors.
    """
    K, M = len(sets), X.shape[1]
    Xa = augment_rows(X)
    D = np.eye(M + 1)
    D[M, M] = 0.0  # the regularizer does not touch the bias coordinate
    pair = _pair(mode, hp)
    # the coupling's eigenvalues with the projectors onto their spaces, as
    # (f0, f1) of f0 I + f1 11'/K.  At K = 1 the contrast projector is 0,
    # but its split still moves all of the coupling into the block.
    spaces = zip(_coupling_spectrum(pair, K), ((1.0, -1.0), (0.0, 1.0)))
    flat = next((f for lam, f in spaces if lam < _FLAT_COUPLING), None)
    hard = np.zeros(M + 1, dtype=bool)
    hard[:M] = mode.w_constraint == "hard"
    hard[M] = mode.b_constraint == "hard"
    gamma = hp.gamma if mode.b_constraint == "soft" else 0.0
    return _FixedParts(
        [Xa[idx] for idx in sets], pair, D, gamma, hard, hp.beta,
        f"alpha={hp.alpha}, beta={hp.beta}, mode={mode.token}{context}",
        flat,
    )


def assemble(
    dataset: Dataset, mode: ConstraintMode, hp: Hyperparameters, state: MMState
) -> AssembledSystem:
    """Build the dense reference system for the current auxiliaries.

    ``fit_linear`` solves the same surrogate by class blocks without
    forming it; this order K (M + 1) matrix is what that solve is checked
    against.

    Parameters
    ----------
    dataset : Dataset
        Training data; per-class positive sets drive the data blocks.
    mode : ConstraintMode
        Active soft/hard combination.
    hp : Hyperparameters
        Coefficients; ``hp.alpha`` only enters soft-w modes.
    state : MMState
        Current auxiliary variables, aligned with the positive sets.

    Returns
    -------
    AssembledSystem
        Curvature H, right-side vector, and hard-constraint columns.
    """
    parts = _linear_parts(dataset.features, dataset.class_index_sets(), mode, hp)
    return parts.system(state.z)


def _solve_reduced(H, rhs, U, note):
    """Solve [[2H, U], [U', 0]] [w; lam] = [rhs; 0].

    Factorizes 2H by Cholesky and, when there are constraint columns,
    eliminates them through the Schur complement U' (2H)^-1 U.  Refinement
    rounds are kept only when the true KKT residual drops: near the
    epsilon floor the system is ill-conditioned enough that a round can
    overshoot, and an accepted overshoot surfaces later as a surrogate
    rise.  Returns (w, multipliers, relative KKT residual).
    """
    H2 = 2.0 * H
    bvec = np.asarray(rhs, dtype=float)
    if not (np.all(np.isfinite(H2)) and np.all(np.isfinite(bvec))):
        raise SingularSystem("assembled system contains non-finite entries")
    denom = max(float(np.linalg.norm(bvec)), np.finfo(float).tiny)
    c = U.shape[1]
    try:
        f = cho_factor(H2, lower=True, check_finite=False)
    except np.linalg.LinAlgError:
        raise HessianNotPD(f"2H not positive definite on the full space ({note})") from None
    x = cho_solve(f, bvec, check_finite=False)
    w, lam = x, np.zeros(0)
    if c:
        Y = cho_solve(f, U, check_finite=False)
        S = U.T @ Y
        S = 0.5 * (S + S.T)
        try:
            fs = cho_factor(S, lower=True, check_finite=False)
        except np.linalg.LinAlgError:
            raise SingularSystem(f"constraint block is rank deficient ({note})") from None
        lam = cho_solve(fs, U.T @ x, check_finite=False)
        w = x - Y @ lam
    r1 = bvec - H2 @ w - U @ lam
    r2 = -(U.T @ w)
    best_r = float(np.sqrt(np.sum(r1 * r1) + np.sum(r2 * r2)))
    for _ in range(4):
        if best_r <= 1e-15 * denom:
            break
        dx = cho_solve(f, r1, check_finite=False)
        w_c, lam_c = w + dx, lam
        if c:
            dlam = cho_solve(fs, U.T @ dx - r2, check_finite=False)
            w_c, lam_c = w + dx - Y @ dlam, lam + dlam
        c1 = bvec - H2 @ w_c - U @ lam_c
        c2 = -(U.T @ w_c)
        cand_r = float(np.sqrt(np.sum(c1 * c1) + np.sum(c2 * c2)))
        if cand_r >= best_r:
            break
        w, lam, r1, r2, best_r = w_c, lam_c, c1, c2, cand_r
    return w, lam, best_r / denom


def solve_kkt(system: AssembledSystem):
    """Solve the first-order system of a dense reference problem.

    One Cholesky factor of the whole 2H, as the reference for the fit's
    solve by class blocks.

    Parameters
    ----------
    system : AssembledSystem

    Returns
    -------
    (w, multipliers)
        Stacked augmented weights of length L and the c Lagrange
        multipliers of the hard-constraint rows.

    Raises
    ------
    HessianNotPD
        If 2H fails its Cholesky factorization on the full space, even
        where the constraint columns would make the KKT matrix regular.
        Nothing is floored or projected out.
    SingularSystem
        If the assembled system contains non-finite entries or its
        constraint columns are linearly dependent.
    """
    w, lam, _ = _solve_reduced(system.H, system.rhs, system.constraint_matrix, system.note)
    return w, lam


def _factor_blocks(F, shared, hard, note):
    """Factor [[2H, U], [U', 0]] [w; lam] = [rhs; 0] by class blocks once.

    2H = blockdiag(F_k) + V diag(shared) V' and U = V[:, hard], with
    V = 1_K (x) I_P and ``shared`` zero on the held coordinates (see
    :meth:`_FixedParts.blocks`).  Every class meets the others only through
    s = sum_k w_k, so with q = shared * s + (lam on the held coordinates)
    each class solves w_k = F_k^-1 (rhs_k - q), and q solves the P x P system

        (diag(1 - hard) + diag(hard + shared) Sigma) q = (hard + shared) * xbar

    with Sigma = sum_k F_k^-1 and xbar = sum_k F_k^-1 rhs_k.  That is K
    Cholesky factors of order P, inverted, and one LU factor of order P in
    place of the Cholesky factor of order K P.  ``F`` is (K, P, P); returns
    ``solve``, which gives (w as K x P, q) for the (K, P) right side
    ``rhs``, so the multipliers are ``q[hard]``.  Newton directions and the
    MM solve take it alike, with no refinement.  Non-finite entries in the
    blocks or in a right side raise SingularSystem.
    """
    if not (np.all(np.isfinite(F)) and np.all(np.isfinite(shared))):
        raise SingularSystem("assembled system contains non-finite entries")
    K, P = F.shape[:2]
    low_inv = np.empty((K, P, P))  # the L_k^-1 of F_k = L_k L_k'
    for k in range(K):
        # the blocks are symmetric, so F[k].T is the same block in the
        # column-major layout LAPACK reads
        c, info = dpotrf(F[k].T, lower=1, clean=1)
        if info:
            raise HessianNotPD(f"the block of class {k} is not positive definite ({note})")
        low_inv[k] = dtrtri(c, lower=1)[0]
    # F_k^-1 = L_k^-T L_k^-1; dpotri would give the same, but its result
    # depends on the BLAS thread count
    inv = np.matmul(low_inv.transpose(0, 2, 1), low_inv)
    mix = hard + shared
    B = mix[:, None] * inv.sum(axis=0)
    B.flat[:: P + 1] += ~hard
    lu, piv, info = dgetrf(B)
    # singular to working precision counts as singular: its solves would
    # be rounding noise along the null space
    if info or dgecon(lu, float(np.max(np.sum(np.abs(B), axis=0))))[0] < np.finfo(float).eps:
        raise SingularSystem(f"the shared system of the class blocks is singular ({note})")

    def solve(r):
        # the shared term goes through the same inverses that Sigma sums, so
        # the held sums of w are 0 to rounding, not to the blocks' condition
        # number
        if not np.all(np.isfinite(r)):
            raise SingularSystem("assembled system contains non-finite entries")
        x = np.matmul(inv, r[:, :, None])[:, :, 0]
        q = dgetrs(lu, piv, mix * x.sum(axis=0))[0]
        return x - inv @ q, q

    return solve


def _coupling_spectrum(pair, K):
    # the eigenvalues of the coupling (1 - pair) I + pair 11': c_con on class
    # contrasts, c_mean on the class mean
    return 1.0 - pair, 1.0 + (K - 1) * pair


def _coupled_norm(spectrum, sq, V):
    # sum_kl coupling_kl <v_k, v_l> as c_con sum_k ||v_k - vbar||^2 +
    # c_mean K ||vbar||^2, with sq(X) the sum of squared row norms of X
    c_con, c_mean = spectrum
    mean = V.sum(axis=0) / len(V)
    return c_con * sq(V - mean) + c_mean * len(V) * sq(mean)


def _pair(mode, hp):
    # the coupling's off-diagonal entry: alpha/2 in soft-w modes, 0 in hard-w
    return hp.alpha / 2.0 if mode.w_constraint == "soft" else 0.0


def _functional(sq, V, b, scores, labels, mode, hp):
    # the functional F at weight rows V for the row inner product's squared
    # norm sq, with the hinge loss of the N x K scores where labels is 1
    value = _coupled_norm(_coupling_spectrum(_pair(mode, hp), len(V)), sq, V)
    if mode.b_constraint == "soft":
        value += hp.gamma * float(np.sum(b)) ** 2
    return value + hp.beta * float(np.sum(hinge(scores)[labels == 1]))


def training_objective(
    dataset: Dataset, W, b, mode: ConstraintMode, hp: Hyperparameters
) -> float:
    """The functional the solver minimizes, at the weights W and biases b.

    Hard-constraint feasibility is not folded in; see :func:`feasibility`.
    """
    W, b = np.asarray(W, dtype=float), np.asarray(b, dtype=float)
    return _functional(
        lambda v: float(np.sum(v * v)), W, b, dataset.features @ W.T + b,
        dataset.labels, mode, hp,
    )


def feasibility(W, b) -> dict:
    """Hard-constraint residuals, reported separately from the objective."""
    W = np.asarray(W, dtype=float)
    b = np.asarray(b, dtype=float)
    return {
        "sum_w_inf": float(np.max(np.abs(W.sum(axis=0)))) if W.size else 0.0,
        "sum_b_abs": float(abs(b.sum())),
    }


def _validate_fit_inputs(sets, class_names, mode, hp):
    for name, idx in zip(class_names, sets):
        if idx.size == 0:
            raise TooFewInstances(f"class {name!r} has no positive pattern")
    K = len(sets)
    # a negative eigenvalue of the coupling leaves the objective unbounded
    # below, whatever the data
    if min(_coupling_spectrum(_pair(mode, hp), K)) < 0:
        lo = -2 / (K - 1) if K > 1 else -np.inf
        raise HessianNotPD(
            f"alpha={hp.alpha} is outside [{lo:g}, 2], the definite window "
            f"-2/(K-1) <= alpha <= 2 of soft weight coupling with K={K} classes"
        )
    if mode.b_constraint == "soft" and hp.gamma <= 0:
        raise ValueError("gamma must be strictly positive in soft-b modes")


@dataclass
class _FitRun:
    w: np.ndarray  # stacked augmented weights of the interior-point iterate, K x P
    lam: np.ndarray  # the iterate's hinge multipliers, class after class as in project
    # the rest are the models' diagnostic fields, under the models' names
    iterations_used: int
    kkt_residual: float
    surrogate_trace: list
    hinge_trace: list
    interior_point: str
    stop_reason: str  # "gap", "stall" or "cap"

    def diagnostics(self) -> dict:
        """The models' diagnostic fields, ``converged`` read off ``stop_reason``."""
        out = {f.name: getattr(self, f.name) for f in fields(self)[2:]}
        return dict(out, converged=self.stop_reason != "cap")

    def add_traces(self, parts: _FixedParts, hp: Hyperparameters) -> None:
        """Fill the traces from :func:`_mm_traces`, one MM iteration per step
        of the method but the step that ended the fit (every step at the cap)."""
        n = self.iterations_used - (self.stop_reason != "cap")
        self.surrogate_trace, self.hinge_trace = _mm_traces(parts, hp, n)


def _to_boundary(xs, dxs, frac):
    """frac times the longest step that keeps every x + a dx >= 0, at most 1."""
    a = 1.0
    # every x > 0: the least dx / x (-inf on overflow) limits a if its dx < 0
    with np.errstate(over="ignore"):
        for x, dx in zip(xs, dxs):
            j = np.argmin(dx / x)
            if dx[j] < 0.0:
                a = min(a, frac * float(x[j] / -dx[j]))
    return a


class _InteriorPoint:
    """Mehrotra predictor-corrector steps on the fit's QP: the fit's model.

    The fit minimizes reg(w) + beta 1'xi subject to s = u + xi - 1 >= 0,
    xi >= 0 and the held sums, with u the projections of the weights
    (Mehrotra, SIAM J. Optim. 1992; Ferris & Munson, SIAM J. Optim. 2002).
    lam and nu are the multipliers of s and xi, with lam + nu = beta at a
    dual feasible point; nu is kept as its own array because beta - lam
    cancels as lam nears beta.  q holds the multipliers of the held sums.
    Eliminating s, xi, lam and nu from the Newton system leaves

        (2H + sum_k A_k' diag(d_k) A_k) dw + U dq = rhs,   d = 1/(s/lam + xi/nu),

    the surrogate's class blocks at z = (beta/2)(s/lam + xi/nu)
    (:meth:`_FixedParts.curvature`), so a step factors once and solves twice,
    unrefined, for the predictor and the corrector: the stop test reads true
    residuals, and inexact directions keep the method's convergence (Gondzio,
    SIAM J. Optim. 2013).  z is computed in that form, never as 1/d, and
    clamped at epsilon, where the blocks would no longer factor;
    d = (beta/2)/z then stays consistent with the matrix.  On an edge of the
    window the blocks carry the edge term, which keeps the Newton system
    regular along the coupling's null directions (primal regularization,
    Friedlander & Orban, Math. Prog. Comp. 2012).  No right side goes with
    it and the stationarity test reads the true residual, so convergence
    still certifies the fit's own problem.  The start w = 0, xi = 2, s = 1,
    lam = nu = beta/2 meets the primal equations, and the steps keep them, up
    to the clamp's shift of at most 2 epsilon/beta times the multiplier step,
    which the next step's residual takes back: xi >= hinge(u) to that
    precision.  Every step keeps the held sums, so the iterate meets them to
    rounding.

    The method stops stepping once the gap lam's + nu'xi is at most
    ``hp.tol`` max(1, |reg(w) + beta 1'xi|) and the stationarity residual
    is as small against the multipliers' term, or when its own step raises
    a solver error; :meth:`status` says which.
    """

    def __init__(self, parts: _FixedParts, hp: Hyperparameters):
        n = sum(A_k.shape[0] for A_k in parts.rows)
        self.parts, self.hp = parts, hp
        self.w, self.u = np.zeros((len(parts.rows), parts.metric.shape[0])), np.zeros(n)
        self.q = np.zeros(parts.metric.shape[0])  # 0 off the held coordinates
        self.xi, self.s = np.full(n, 2.0), np.ones(n)
        self.lam, self.nu = np.full(n, hp.beta / 2.0), np.full(n, hp.beta / 2.0)
        self.steps = 0
        self.outcome = None  # why it stopped stepping, once it has
        self._stationarity()

    def status(self) -> str:
        return self.outcome or f"running after {self.steps} steps"

    @property
    def residual(self) -> float:
        """The iterate's stationarity residual relative to max(1, ||A' lam||)."""
        return float(np.linalg.norm(self.r_w)) / max(1.0, self.dual_norm)

    def step(self) -> bool:
        """Take one predictor-corrector step.

        Returns True on the step at which the method converges.
        """
        try:
            self._step()
        except SolverError as e:
            if not self.steps:
                raise  # the fit has no iterate to fall back on
            self.outcome = f"stopped on {type(e).__name__} after {self.steps} steps"
            return False
        self.steps += 1
        gap = float(self.lam @ self.s + self.nu @ self.xi)
        value = self.parts.regularizer(self.w) + self.hp.beta * float(np.sum(self.xi))
        self._stationarity()
        stationarity = float(np.linalg.norm(self.r_w))
        converged = gap <= self.hp.tol * max(1.0, abs(value)) and (
            stationarity <= self.hp.tol * max(1.0, self.dual_norm)
        )
        if converged:
            self.outcome = f"converged after {self.steps} steps"
        return converged

    def _stationarity(self):
        # r_w = 2H w + U q - sum_k A_k' lam_k and ||sum_k A_k' lam_k||.  The
        # next step's Newton system reads r_w at the same lam, w and q, so
        # it is kept rather than built twice.
        dual = self.parts.transpose_project(self.lam)
        self.r_w = self.parts.regularizer_gradient(self.w) + self.parts.hard * self.q - dual
        self.dual_norm = float(np.linalg.norm(dual))

    def _step(self):
        parts, hp = self.parts, self.hp
        xi, s, lam, nu, r_w = self.xi, self.s, self.lam, self.nu, self.r_w
        r_xi = hp.beta - lam - nu
        r_p = self.u + xi - 1.0 - s
        z = np.maximum((hp.beta / 2.0) * (s / lam + xi / nu), hp.epsilon)
        d = (hp.beta / 2.0) / z
        F, shared = parts.curvature([z[c] for c in parts.slices])
        solve = _factor_blocks(F, shared, parts.hard, parts.note)

        def direction(r_lam, r_nu):
            # the Newton step with complementarity rows s dlam + lam ds = -r_lam
            # and xi dnu + nu dxi = -r_nu
            g = (r_nu + xi * r_xi) / nu - r_lam / lam - r_p
            dw, dq = solve(parts.transpose_project(d * g) - r_w)
            dlam = d * (g - parts.project(dw))
            dnu = r_xi - dlam
            return dw, dq, -(r_nu + xi * dnu) / nu, -(r_lam + s * dlam) / lam, dlam, dnu

        n2 = 2 * xi.size
        mu = float(lam @ s + nu @ xi) / n2
        _, _, dxi, ds, dlam, dnu = direction(lam * s, nu * xi)
        a = _to_boundary((xi, s, lam, nu), (dxi, ds, dlam, dnu), 1.0)
        mu_aff = float((lam + a * dlam) @ (s + a * ds) + (nu + a * dnu) @ (xi + a * dxi)) / n2
        centre = (mu_aff / mu) ** 3 * mu
        dw, dq, dxi, ds, dlam, dnu = direction(
            lam * s + dlam * ds - centre, nu * xi + dnu * dxi - centre
        )
        a = _to_boundary((xi, s, lam, nu), (dxi, ds, dlam, dnu), 0.99)
        self.w = self.w + a * dw
        self.q = self.q + a * (parts.hard * dq)
        self.xi, self.s = xi + a * dxi, s + a * ds
        self.lam, self.nu = lam + a * dlam, nu + a * dnu
        self.u = parts.project(self.w)


def _minimize(parts: _FixedParts, hp: Hyperparameters) -> _FitRun:
    """The fit shared by the linear and the kernel solver.

    The fit is the interior-point method on the training QP
    (:class:`_InteriorPoint`), one step per iteration, and it returns that
    method's iterate with its relative stationarity residual as
    ``kkt_residual``.  It ends on the method's certificate of the optimum
    (gap and stationarity within ``hp.tol``, ``stop_reason`` "gap"), on
    the method's step raising a solver error ("stall"; a raise on the
    first step propagates) or at ``hp.max_iters`` ("cap"),
    with a MaxItersExceeded warning.  Each step solves its Newton system
    by class blocks (:func:`_factor_blocks`), so the fit factors
    ``iterations_used`` systems.  The run also returns the iterate's hinge
    multipliers ``lam``, from which a kernel fit reads its support vectors.
    The traces come back empty; a fit that returns them fills them from
    :func:`_mm_traces` afterwards.
    """
    ipm = _InteriorPoint(parts, hp)
    stop_reason, iterations = "cap", hp.max_iters
    for t in range(1, hp.max_iters + 1):  # Hyperparameters keeps max_iters >= 1
        if ipm.step():
            stop_reason, iterations = "gap", t
            break
        if ipm.outcome is not None:  # its step raised
            stop_reason, iterations = "stall", t
            break
    if stop_reason == "cap":
        warnings.warn(
            f"fit stopped at max_iters={hp.max_iters} before the interior-point "
            "certificate held",
            MaxItersExceeded,
            stacklevel=3,
        )
    return _FitRun(ipm.w, ipm.lam, iterations, ipm.residual, [], [], ipm.status(), stop_reason)


def _mm_traces(parts: _FixedParts, hp: Hyperparameters, n: int):
    """The descent traces of ``n`` plain MM iterations: (surrogate, hinge).

    The paper's majorize-minimize iteration, which no fit reads for its
    model.  Each iteration solves the surrogate at the current auxiliaries
    for w_t by class blocks (:func:`_factor_blocks`): K Cholesky factors
    of order P and one P x P system in the class sum, K P^3 + O(P^3) flops
    against (K P)^3 / 3 for the dense factor.  It then re-anchors the bound
    at w_t, z = max(|1 - u|, epsilon), so the next surrogate value is at
    most F_t and the trace does not rise.  The solve raises as the Newton
    solves do: HessianNotPD naming a class whose block is not positive
    definite, SingularSystem on non-finite entries or a singular shared
    system.  On an edge of the coupling window the surrogate can be flat
    along coupling null directions (``parts.flat``) that the hinge terms do
    not curve.  Each solve there adds the proximal term of
    :meth:`_FixedParts.blocks` around the last MM iterate w_a, where z is
    tight (w = 0 for the initial z = 1).  The sum still majorizes the
    objective, is tight at w_a and has a positive definite 2H, so the
    bound chain holds.

    A fit with traces runs it once the method has stopped
    (:meth:`_FitRun.add_traces`), so its traces are those MM would have left
    stepping beside the method, which never read MM state.
    """
    beta = hp.beta
    state = MMState.fresh([A_k.shape[0] for A_k in parts.rows], hp.epsilon)
    hinge_trace: list = []
    w = np.zeros((len(parts.rows), parts.metric.shape[0]))  # the last MM iterate
    for _ in range(n):
        blocks, rhs, shared = parts.blocks(state.z, w)
        w, _ = _factor_blocks(blocks, shared, parts.hard, parts.note)(rhs)
        u = parts.project(w)
        reg = parts.regularizer(w)
        state.objective_trace.append(
            reg + beta * float(np.sum(majorizer(u, np.concatenate(state.z))))
        )
        hinge_trace.append(reg + beta * float(np.sum(hinge(u))))
        state.update([u[c] for c in parts.slices])
    return state.objective_trace, hinge_trace


def fit_linear(
    dataset: Dataset, mode: ConstraintMode, hp: Hyperparameters, *, traces: bool = True
) -> TrainedLinearModel:
    """Fit the linear model by the interior-point method of :func:`_minimize`.

    Parameters
    ----------
    dataset : Dataset
        Training data; every class needs at least one positive pattern.
    mode : ConstraintMode
    hp : Hyperparameters
    traces : bool
        Whether to fill ``surrogate_trace`` and ``hinge_trace`` by plain MM
        (:func:`_mm_traces`) after the method stops.  False gives the same
        model with empty traces, and factors ``iterations_used`` systems in
        place of about twice as many.

    Returns
    -------
    TrainedLinearModel

    Raises
    ------
    TooFewInstances
        If a class has no positive pattern.
    HessianNotPD
        If ``hp.alpha`` is outside -2/(K-1) <= alpha <= 2 in soft-w modes
        (checked before any factorization), or the block of a class in a
        Newton or surrogate system is not positive definite.
    SingularSystem
        If a Newton or surrogate system has non-finite entries or its
        shared system in the class sum is singular to working precision.
        An error of a surrogate (MM) solve propagates from a fit with
        traces once the method has stopped; a fit without traces runs no
        MM solve.

    Notes
    -----
    Runs the shared fit of :func:`_minimize`, which says how it ends;
    (W, b) is the interior-point iterate, and ``stop_reason`` and the
    model's ``interior_point`` record the end.  At ``hp.max_iters``
    ("cap") the model has ``converged=False`` and a MaxItersExceeded
    warning is issued.
    """
    sets = dataset.class_index_sets()
    _validate_fit_inputs(sets, dataset.class_names, mode, hp)
    parts = _linear_parts(dataset.features, sets, mode, hp)
    run = _minimize(parts, hp)
    if traces:
        run.add_traces(parts, hp)
    M = dataset.n_features
    W, b = run.w[:, :M].copy(), run.w[:, M].copy()
    return TrainedLinearModel(
        W=W, b=b, mode=mode, hyperparameters=hp,
        final_objective=training_objective(dataset, W, b, mode, hp),
        **run.diagnostics(),
    )
