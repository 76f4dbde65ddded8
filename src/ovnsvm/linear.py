"""Linear one-versus-none solver.

Each class k gets a weight vector w_k and bias b_k fit against a shared
implicit origin rather than against the other classes' patterns.  The
pairwise coupling between classes is either penalized (soft) or constrained
(hard), and likewise for the bias sum, giving four constraint modes.

Training alternates a KKT solve of the quadratic surrogate problem in the
stacked augmented weights with the closed-form auxiliary update, taken at
the doubled step when a safeguard allows (``_minimize``, which the kernel
solver runs too).  The surrogate objective value never increases.

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
    """One surrogate quadratic problem, ready for the KKT solve.

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


def _constraint_columns(mode: ConstraintMode, K: int, P: int) -> np.ndarray:
    # columns of the constraint matrix; P is the per-class block size
    L = K * P
    cols = []
    if mode.w_constraint == "hard":
        for m in range(P - 1):
            c = np.zeros(L)
            c[m::P] = 1.0  # sum over classes of coordinate m
            cols.append(c)
    if mode.b_constraint == "hard":
        c = np.zeros(L)
        c[P - 1 :: P] = 1.0  # sum of biases
        cols.append(c)
    if not cols:
        return np.zeros((L, 0))
    return np.column_stack(cols)


@dataclass
class _FixedParts:
    """The parts of the surrogate system that stay fixed during one fit.

    ``rows[k]`` holds the augmented feature rows [x_i; 1] of class k's
    positives (the patterns in the primal, the rows of the Gram factor in
    kernel fits), so class k's projections are ``rows[k] @ w_k``.  Without
    the hinge blocks the curvature is coupling (x) metric + gamma uu',
    where coupling is I plus alpha/2 off the diagonal in soft-w modes,
    metric is the per-class regularizer D, u picks the biases and gamma is
    0 in hard-b modes.  It is rebuilt for every system rather than stored,
    which would keep one more matrix of the system's order alive through
    the solve.  ``flat`` projects onto the null space of a singular
    coupling, on an edge of the window, and is None inside it.
    """

    rows: list
    coupling: np.ndarray
    metric: np.ndarray
    gamma: float
    constraint_matrix: np.ndarray
    beta: float
    note: str
    flat: np.ndarray | None = None

    def system(self, z) -> AssembledSystem:
        """The surrogate system at the auxiliaries ``z``, one array per class."""
        P = self.metric.shape[0]
        H = np.kron(self.coupling, self.metric)
        H[P - 1 :: P, P - 1 :: P] += self.gamma
        rhs = np.zeros(H.shape[0])
        for k, (A_k, z_k) in enumerate(zip(self.rows, z)):
            a = 1.0 / z_k
            s = slice(k * P, (k + 1) * P)
            H[s, s] += (self.beta / 4.0) * (A_k.T * a) @ A_k
            rhs[s] = (self.beta / 2.0) * ((1.0 + a) @ A_k)
        return AssembledSystem(H, rhs, self.constraint_matrix, self.note)

    def regularizer(self, w) -> float:
        """w' H w without the hinge blocks, for stacked weights w."""
        Wb = w.reshape(len(self.rows), -1)
        quad = float(np.sum(self.coupling * (Wb @ self.metric @ Wb.T)))
        return quad + self.gamma * float(np.sum(Wb[:, -1])) ** 2


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
    coupling, flat = np.eye(K), None
    if mode.w_constraint == "soft":
        coupling += (hp.alpha / 2.0) * (np.ones((K, K)) - np.eye(K))
        # the coupling's eigenvalues on class contrasts and on the class mean
        # (see _validate_fit_inputs), with the projectors onto those spaces
        J = np.full((K, K), 1.0 / K)
        spaces = [(1 - hp.alpha / 2, np.eye(K) - J), (1 + (K - 1) * hp.alpha / 2, J)]
        null = [proj for lam, proj in spaces if lam < _FLAT_COUPLING]
        flat = sum(null) if null else None
    gamma = hp.gamma if mode.b_constraint == "soft" else 0.0
    return _FixedParts(
        [Xa[idx] for idx in sets], coupling, D, gamma,
        _constraint_columns(mode, K, M + 1), hp.beta,
        f"alpha={hp.alpha}, beta={hp.beta}, mode={mode.token}{context}",
        flat,
    )


def assemble(
    dataset: Dataset, mode: ConstraintMode, hp: Hyperparameters, state: MMState
) -> AssembledSystem:
    """Build the surrogate quadratic system for the current auxiliaries.

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
    """Solve the first-order block system of an assembled problem.

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
    auxiliaries.  The bound is then re-anchored with safeguarded step
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
    w_a = np.zeros(K * P)  # the point at which the auxiliaries are tight
    converged = False
    iterations = hp.max_iters
    for t in range(1, hp.max_iters + 1):  # Hyperparameters keeps max_iters >= 1
        system = parts.system(state.z)
        H, rhs = system.H, system.rhs
        if parts.flat is not None:
            E = np.kron(parts.flat, parts.metric)
            H, rhs = H + E, rhs + 2.0 * (E @ w_a)
        w, _, resid = _solve_reduced(H, rhs, parts.constraint_matrix, parts.note)
        # projections of every class's positives, class after class
        u = np.concatenate([A_k @ w_k for A_k, w_k in zip(parts.rows, w.reshape(K, P))])
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
        w.reshape(K, P), resid, converged, iterations, state.objective_trace, hinge_trace
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
        (checked before any factorization), or a surrogate Hessian is
        singular or indefinite.

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
