"""Linear one-versus-none solver.

Each class k gets a weight vector w_k and bias b_k fit against a shared
implicit origin rather than against the other classes' patterns.  The
pairwise coupling between classes is either penalized (soft) or constrained
(hard), and likewise for the bias sum, giving four constraint modes.

Training alternates a KKT solve of the quadratic surrogate problem in the
stacked augmented weights with the closed-form auxiliary update, taken at
the doubled step when a safeguard allows (``_minimize``, which the kernel
solver runs too).  Classes meet only through the sum of their weight
vectors, so each solve takes one small Cholesky factor per class and one
system in the shared sum (``_solve_blocks``); ``assemble`` and
``solve_kkt`` keep the dense system as the reference.  The surrogate
objective value never increases.

Two objective evaluators are exposed.  ``training_objective`` is the
functional the solver actually minimizes,

    sum_k ||w_k||^2 + alpha * sum_{k<l} <w_k, w_l>   [soft-w]
        + gamma * (sum_k b_k)^2                      [soft-b]
        + beta * sum_k sum_{i in C_k} hinge(w_k' x_i + b_k),

whose stationarity condition is exactly the assembled system below.
``objective`` evaluates the same data with the halved norm convention
(1/2 ||w_k||^2), which is the reporting convention used by the public
API; the two differ only by a constant reparameterization of
(alpha, beta, gamma).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.lapack import dgetrf, dgetrs, dpotrf, dpotrs, dtrtri

from .data import Dataset, augment_rows
from .errors import HessianNotPD, MaxItersExceeded, SingularSystem
from .majorization import DEFAULT_EPSILON, MMState, hinge, majorizer, z_update

_MODE_TOKENS = {
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
        if token not in _MODE_TOKENS:
            raise ValueError(
                f"unknown mode token {token!r}; expected one of {sorted(_MODE_TOKENS)}"
            )
        w, b = _MODE_TOKENS[token]
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
        if self.beta <= 0:
            raise ValueError("beta must be strictly positive")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be strictly positive")
        if self.tol <= 0:
            raise ValueError("tol must be strictly positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


@dataclass
class TrainedLinearModel:
    """Fit result: per-class weight rows W, biases b, and diagnostics.

    ``surrogate_trace`` holds the surrogate objective after every weight
    solve (non-increasing); ``hinge_trace`` holds the training objective at
    the same iterates.  ``kkt_residual`` is the relative residual of the
    final first-order system solve.  ``final_objective`` reports the halved
    norm convention of :func:`objective`, which halves the norms but not
    the coupling; for alpha > 1 or alpha < -1/(K-1) it can lie far below
    the minimized value, which :func:`training_objective` gives.
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

    @property
    def n_classes(self) -> int:
        return self.W.shape[0]

    @property
    def n_features(self) -> int:
        return self.W.shape[1]

    def decision_scores(self, X) -> np.ndarray:
        """Per-class scores w_k' x + b_k for every row of X, shape (T, K)."""
        return np.asarray(X, dtype=float) @ self.W.T + self.b


@dataclass
class AssembledSystem:
    """One surrogate quadratic problem as the dense reference system.

    Fits never build it: they solve the same problem by class blocks (see
    :func:`_solve_blocks`).  Tests and callers that want the whole matrix
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
    inside it.

    Every one of those cross-class terms acts through sum_k w_k, so the
    fit solves each surrogate by class blocks (:meth:`blocks`,
    :func:`_solve_blocks`); :meth:`system` assembles the same problem as
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
        K = len(self.rows)
        self.coupling = np.eye(K) + self.pair * (np.ones((K, K)) - np.eye(K))

    def system(self, z) -> AssembledSystem:
        """The dense reference system at the auxiliaries ``z``, one array per class."""
        K, P = len(self.rows), self.metric.shape[0]
        H = np.kron(self.coupling, self.metric)
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
        proximal term ||w - w_a||^2 in E = (f0 I + f1 11'/K) (x) D is added:
        f0 to c0, f1/K diag(D) to C, and 2 E w_a to rhs.
        """
        K, P = len(self.rows), self.metric.shape[0]
        d = np.diag(self.metric)
        c0, C = 1.0 - self.pair, self.pair * d
        C[P - 1] += self.gamma
        F = np.empty((K, P, P))
        rhs = np.empty((K, P))
        h = self.beta / 2.0
        for k, (A_k, z_k) in enumerate(zip(self.rows, z)):
            a = 1.0 / z_k
            np.matmul(A_k.T * (h * a), A_k, out=F[k])
            rhs[k] = h * ((1.0 + a) @ A_k)
        if self.flat is not None:
            f0, f1 = self.flat
            c0, C = c0 + f0, C + (f1 / K) * d
            rhs += 2.0 * d * (f0 * w_a + (f1 / K) * w_a.sum(axis=0))
        F.reshape(K, P * P)[:, :: P + 1] += 2.0 * c0 * d
        return F, rhs, 2.0 * C

    def regularizer(self, w) -> float:
        """w' H w without the hinge blocks, for the K x P weights w."""
        quad = float(np.sum(self.coupling * (w @ self.metric @ w.T)))
        return quad + self.gamma * float(np.sum(w[:, -1])) ** 2


# a coupling eigenvalue below this counts as zero, so that alpha = -2/(K-1),
# whose rounding leaves 1e-16 at K = 50, is still an edge of the window
_FLAT_COUPLING = 1e-8


def _linear_parts(X, sets, mode, hp, context="") -> _FixedParts:
    """The fixed parts of a fit on the feature rows X (N x M).

    ``context`` extends the hyperparameter note of solver errors.
    """
    K, M = len(sets), X.shape[1]
    Xa = augment_rows(X)
    D = np.eye(M + 1)
    D[M, M] = 0.0  # the regularizer does not touch the bias coordinate
    pair, flat = 0.0, None
    if mode.w_constraint == "soft":
        pair = hp.alpha / 2.0
        # the coupling's eigenvalues on class contrasts and on the class mean
        # (see _validate_fit_inputs), with the projectors onto those spaces
        # as (f0, f1) of f0 I + f1 11'/K.  At K = 1 the contrast projector is
        # 0, but its split still moves all of the coupling into the block.
        spaces = [(1 - hp.alpha / 2, (1.0, -1.0)), (1 + (K - 1) * hp.alpha / 2, (0.0, 1.0))]
        flat = next((proj for lam, proj in spaces if lam < _FLAT_COUPLING), None)
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


def _solve_blocks(F, rhs, shared, hard, note):
    """Solve [[2H, U], [U', 0]] [w; lam] = [rhs; 0] by class blocks.

    2H = blockdiag(F_k) + V diag(shared) V' and U = V[:, hard], with
    V = 1_K (x) I_P and ``shared`` zero on the held coordinates (see
    :meth:`_FixedParts.blocks`).  Every class meets the others only through
    s = sum_k w_k, so with q = shared * s + (lam on the held coordinates)
    each class solves w_k = F_k^-1 (rhs_k - q), and q solves the P x P system

        (diag(1 - hard) + diag(hard + shared) Sigma) q = (hard + shared) * xbar

    with Sigma = sum_k F_k^-1 and xbar = sum_k F_k^-1 rhs_k.  That is K
    Cholesky factors of order P and one LU factor of order P in place of
    the Cholesky factor of order K P.  Refinement rounds on the residual of
    the full KKT system are kept only when it drops, as in
    :func:`_solve_reduced`.  ``F`` is (K, P, P) and ``rhs`` (K, P); returns
    (w as K x P, multipliers, relative KKT residual).
    """
    if not (np.all(np.isfinite(F)) and np.all(np.isfinite(rhs)) and np.all(np.isfinite(shared))):
        raise SingularSystem("assembled system contains non-finite entries")
    K, P = rhs.shape
    factors = []
    low_inv = np.empty((K, P, P))  # the L_k^-1 of F_k = L_k L_k'
    for k in range(K):
        # the blocks are symmetric, so F[k].T is the same block in the
        # column-major layout LAPACK reads
        c, info = dpotrf(F[k].T, lower=1, clean=1)
        if info:
            raise HessianNotPD(f"the block of class {k} is not positive definite ({note})")
        low_inv[k] = dtrtri(c, lower=1)[0]
        factors.append(c)
    # F_k^-1 = L_k^-T L_k^-1; dpotri would give the same, but its result
    # depends on the BLAS thread count
    inv = np.matmul(low_inv.transpose(0, 2, 1), low_inv)
    mix = hard + shared
    B = mix[:, None] * inv.sum(axis=0)
    B.flat[:: P + 1] += ~hard
    lu, piv, info = dgetrf(B)
    if info:
        raise SingularSystem(f"the shared system of the class blocks is singular ({note})")

    def solve(r, g):
        # the solution for right side r and held sums g.  The shared term
        # goes through the same inverses that Sigma sums, so the held sums
        # of w match g to rounding, not to the blocks' condition number.
        x = np.array([dpotrs(c, r_k, lower=1)[0] for c, r_k in zip(factors, r)])
        q = dgetrs(lu, piv, mix * x.sum(axis=0) - hard * g)[0]
        return x - inv @ q, q

    def residual(w, q):
        s = w.sum(axis=0)
        r1 = rhs - np.matmul(F, w[:, :, None])[:, :, 0] - shared * s - hard * q
        g = -(hard * s)
        return r1, g, float(np.sqrt(np.sum(r1 * r1) + np.sum(g * g)))

    denom = max(float(np.linalg.norm(rhs)), np.finfo(float).tiny)
    w, q = solve(rhs, np.zeros(P))
    r1, g, best_r = residual(w, q)
    for _ in range(4):
        if best_r <= 1e-15 * denom:
            break
        dw, dq = solve(r1, g)
        c1, cg, cand_r = residual(w + dw, q + dq)
        if cand_r >= best_r:
            break
        w, q, r1, g, best_r = w + dw, q + dq, c1, cg, cand_r
    return w, q[hard], best_r / denom


def _pair_inner_sum(W: np.ndarray) -> float:
    # sum over unordered pairs of <w_k, w_l>
    s = W.sum(axis=0)
    return 0.5 * (float(s @ s) - float(np.sum(W * W)))


def _regularizer_terms(W, b, mode, hp, half):
    norm = float(np.sum(np.asarray(W) ** 2))
    val = 0.5 * norm if half else norm
    if mode.w_constraint == "soft":
        val += hp.alpha * _pair_inner_sum(np.asarray(W, dtype=float))
    if mode.b_constraint == "soft":
        val += hp.gamma * float(np.sum(b)) ** 2
    return val


def _hinge_sum(dataset, W, b):
    scores = dataset.features @ np.asarray(W, dtype=float).T + np.asarray(b, dtype=float)
    return float(np.sum(hinge(scores)[dataset.labels == 1]))


def objective(dataset: Dataset, W, b, mode: ConstraintMode, hp: Hyperparameters) -> float:
    """Objective value in the halved norm convention.

    Computes ``1/2 sum_k ||w_k||^2`` plus the soft penalty terms that the
    mode activates plus ``beta`` times the total hinge loss over positive
    pairs.  Hard-constraint feasibility is not folded in; see
    :func:`feasibility`.
    """
    return _regularizer_terms(W, b, mode, hp, half=True) + hp.beta * _hinge_sum(
        dataset, W, b
    )


def training_objective(
    dataset: Dataset, W, b, mode: ConstraintMode, hp: Hyperparameters
) -> float:
    """The functional the solver minimizes (unhalved norm convention)."""
    return _regularizer_terms(W, b, mode, hp, half=False) + hp.beta * _hinge_sum(
        dataset, W, b
    )


def feasibility(W, b) -> dict:
    """Hard-constraint residuals, reported separately from the objective."""
    W = np.asarray(W, dtype=float)
    b = np.asarray(b, dtype=float)
    return {
        "sum_w_inf": float(np.max(np.abs(W.sum(axis=0)))) if W.size else 0.0,
        "sum_b_abs": float(abs(b.sum())),
    }


def _validate_fit_inputs(sets, mode, hp):
    for k, idx in enumerate(sets):
        if idx.size == 0:
            raise ValueError(f"class {k} has no positive patterns")
    K = len(sets)
    # the K x K coupling has eigenvalues 1 - alpha/2 on class contrasts and
    # 1 + (K-1) alpha/2 on the class mean; a negative one leaves the
    # objective unbounded below, whatever the data
    if mode.w_constraint == "soft" and min(1 - hp.alpha / 2, 1 + (K - 1) * hp.alpha / 2) < 0:
        lo = -2 / (K - 1) if K > 1 else -np.inf
        raise HessianNotPD(
            f"alpha={hp.alpha} is outside [{lo:g}, 2], the definite window "
            f"-2/(K-1) <= alpha <= 2 of soft weight coupling with K={K} classes"
        )
    if mode.b_constraint == "soft" and hp.gamma <= 0:
        raise ValueError("gamma must be strictly positive in soft-b modes")


@dataclass
class _MMRun:
    w: np.ndarray  # stacked augmented weights of the last solve, K x P
    kkt_residual: float
    converged: bool
    iterations: int
    surrogate_trace: list
    hinge_trace: list


def _minimize(parts: _FixedParts, hp: Hyperparameters) -> _MMRun:
    """The MM iteration shared by the linear and the kernel solver.

    Each KKT solve gives w_t, the minimizer of the surrogate at the current
    auxiliaries, by class blocks (:func:`_solve_blocks`): K Cholesky
    factors of order P and one P x P system in the class sum, K P^3 +
    O(P^3) flops against (K P)^3 / 3 for the dense factor.  A block that
    is not positive definite raises HessianNotPD naming its class;
    non-finite entries or a singular shared system raise SingularSystem.
    The bound is then re-anchored with safeguarded step
    doubling: let h(w) be the surrogate with every z tight at w,
    z = max(|1 - u|, epsilon).  For t > 1 the auxiliaries are set from the
    doubled step w_e = 2 w_t - w_{t-1} when h(w_e) <= h(w_t), and from w_t
    otherwise.  The next surrogate value is then at most
    h(anchor) <= h(w_t) <= F_t, so the trace does not rise.  w_e meets the
    hard constraints because they are linear and both iterates meet them.

    On an edge of the coupling window the surrogate can be flat along
    coupling null directions (``parts.flat``) that the hinge terms do not
    curve.  Each solve there adds ||w - w_a||^2 in flat (x) metric around
    the point w_a where z is tight (w = 0 for the initial z = 1).  The sum
    still majorizes the objective, is tight at w_a and has a positive
    definite 2H, so the bound chain above holds.

    Stops when the relative surrogate change drops below ``hp.tol``; at
    ``hp.max_iters`` the last iterate is returned with ``converged=False``
    and a MaxItersExceeded warning.
    """
    K, P = len(parts.rows), parts.metric.shape[0]
    beta, eps = hp.beta, hp.epsilon
    sizes = [A_k.shape[0] for A_k in parts.rows]
    cuts = np.cumsum(sizes)[:-1]  # class boundaries in the flat projections
    state = MMState.fresh(sizes, eps)

    def tight(reg, u):
        return reg + beta * float(np.sum(majorizer(u, z_update(u, eps))))

    hinge_trace: list = []
    prev_F = None
    prev = None  # (w, u) of the previous solve
    w_a = np.zeros((K, P))  # the point at which the auxiliaries are tight
    converged = False
    iterations = hp.max_iters
    for t in range(1, hp.max_iters + 1):  # Hyperparameters keeps max_iters >= 1
        w, _, resid = _solve_blocks(*parts.blocks(state.z, w_a), parts.hard, parts.note)
        # projections of every class's positives, class after class
        u = np.concatenate([A_k @ w_k for A_k, w_k in zip(parts.rows, w)])
        reg = parts.regularizer(w)
        F = reg + beta * float(np.sum(majorizer(u, np.concatenate(state.z))))
        state.objective_trace.append(F)
        hinge_trace.append(reg + beta * float(np.sum(hinge(u))))
        if prev_F is not None and abs(F - prev_F) <= hp.tol * max(1.0, abs(prev_F)):
            converged = True
            iterations = t
            break
        prev_F = F
        anchor, w_a = u, w
        if prev is not None:
            w_e, u_e = 2.0 * w - prev[0], 2.0 * u - prev[1]
            if tight(parts.regularizer(w_e), u_e) <= tight(reg, u):
                anchor, w_a = u_e, w_e
        prev = (w, u)
        state.update(np.split(anchor, cuts))
    if not converged:
        warnings.warn(
            f"MM loop stopped at max_iters={hp.max_iters} before reaching tol",
            MaxItersExceeded,
            stacklevel=3,
        )
    return _MMRun(
        w, resid, converged, iterations, state.objective_trace, hinge_trace
    )


def fit_linear(
    dataset: Dataset, mode: ConstraintMode, hp: Hyperparameters
) -> TrainedLinearModel:
    """Fit the linear model by alternating KKT solves and auxiliary updates.

    Parameters
    ----------
    dataset : Dataset
        Training data; every class needs at least one positive pattern.
    mode : ConstraintMode
    hp : Hyperparameters

    Returns
    -------
    TrainedLinearModel

    Raises
    ------
    HessianNotPD
        If ``hp.alpha`` is outside -2/(K-1) <= alpha <= 2 in soft-w modes
        (checked before any factorization), or the block of a class in a
        surrogate Hessian is not positive definite.
    SingularSystem
        If a surrogate system has non-finite entries or its shared system
        in the class sum is singular.

    Notes
    -----
    Runs the shared MM iteration (see :func:`_minimize`), which stops when
    the relative surrogate change drops below ``hp.tol``.  If
    ``hp.max_iters`` is reached first, the last iterate is returned with
    ``converged=False`` and a MaxItersExceeded warning.
    """
    sets = dataset.class_index_sets()
    _validate_fit_inputs(sets, mode, hp)
    run = _minimize(_linear_parts(dataset.features, sets, mode, hp), hp)
    M = dataset.n_features
    W, b = run.w[:, :M].copy(), run.w[:, M].copy()
    return TrainedLinearModel(
        W=W,
        b=b,
        mode=mode,
        hyperparameters=hp,
        iterations_used=run.iterations,
        final_objective=objective(dataset, W, b, mode, hp),
        kkt_residual=run.kkt_residual,
        converged=run.converged,
        surrogate_trace=run.surrogate_trace,
        hinge_trace=run.hinge_trace,
    )
