"""Kernel-space one-versus-none solver.

Every class weight vector is a combination of mapped training patterns,
w_k = sum_i A[k, i] phi(x_i), so all computation runs through the Gram
matrix.  The surrogate system mirrors the linear assembly with the
augmented Gram column [g_i; 1] in place of the augmented pattern, blocks
of size N + 1 per class, and the hard weight constraint becomes
sum_k A[k, i] = 0 for every pattern i.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .kernels import DEFAULT_RIDGE, GramMatrix, KernelSpec, gram, gram_cross
from .linear import (
    AssembledSystem,
    ConstraintMode,
    Hyperparameters,
    _fixed_parts,
    _FixedParts,
    _minimize,
    _validate_fit_inputs,
)
from .majorization import MMState, hinge


@dataclass
class TrainedKernelModel:
    """Fit result: coefficient rows A (K x N), biases, and kernel context.

    Retains the training features because prediction needs kernel values
    against them.  Diagnostics mirror TrainedLinearModel.
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
    ridge: float = DEFAULT_RIDGE
    converged: bool = True
    surrogate_trace: list = field(default_factory=list)
    hinge_trace: list = field(default_factory=list)

    @property
    def n_classes(self) -> int:
        return self.A.shape[0]

    @property
    def n_train(self) -> int:
        return self.A.shape[1]

    def decision_scores(self, X) -> np.ndarray:
        """Per-class scores sum_i A[k,i] kappa(x_i, x) + b_k, shape (T, K)."""
        cross = gram_cross(self.kernel, self.train_features, X)
        return cross.T @ self.A.T + self.b


def _kernel_parts(sets, gram_matrix: GramMatrix, mode, hp) -> _FixedParts:
    G = gram_matrix.values
    N = G.shape[0]
    G0 = np.zeros((N + 1, N + 1))
    G0[:N, :N] = G
    # rows are the augmented Gram columns [g_i; 1] of the class positives
    rows = [np.column_stack([G[:, idx].T, np.ones(idx.size)]) for idx in sets]
    note = f"theta={hp.alpha}, ridge={gram_matrix.ridge}, mode={mode.token}"
    return _fixed_parts(rows, G0, mode, hp, note)


def assemble_kernel(
    dataset: Dataset,
    gram_matrix: GramMatrix,
    mode: ConstraintMode,
    hp: Hyperparameters,
    state: MMState,
) -> AssembledSystem:
    """Build the kernel surrogate system for the current auxiliaries.

    ``hp.alpha`` plays the pairwise coupling role here.  Blocks are sized
    N + 1; the trailing coordinate of each block is the class bias.
    """
    parts = _kernel_parts(dataset.class_index_sets(), gram_matrix, mode, hp)
    return parts.system(state.z)


def _kernel_regularizer(G, A, b, mode, hp, half):
    AG = A @ G
    quads = np.einsum("ki,ki->k", AG, A)
    val = 0.5 * float(quads.sum()) if half else float(quads.sum())
    if mode.w_constraint == "soft":
        s = A.sum(axis=0)
        pair = 0.5 * (float(s @ G @ s) - float(quads.sum()))
        val += hp.alpha * pair
    if mode.b_constraint == "soft":
        val += hp.gamma * float(b.sum()) ** 2
    return val


def _kernel_hinge_sum(dataset, G, A, b):
    scores = (A @ G).T + b
    return float(np.sum(hinge(scores)[dataset.labels == 1]))


def training_objective_kernel(
    dataset: Dataset,
    gram_matrix: GramMatrix,
    A,
    b,
    mode: ConstraintMode,
    hp: Hyperparameters,
) -> float:
    """Kernel-space value of the functional the solver minimizes."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    G = gram_matrix.values
    return _kernel_regularizer(G, A, b, mode, hp, half=False) + hp.beta * (
        _kernel_hinge_sum(dataset, G, A, b)
    )


def fit_kernel(
    dataset: Dataset,
    kernel: KernelSpec,
    mode: ConstraintMode,
    hp: Hyperparameters,
    ridge: float = DEFAULT_RIDGE,
) -> TrainedKernelModel:
    """Fit the kernel model with the MM iteration of the linear solver.

    Parameters
    ----------
    dataset : Dataset
    kernel : KernelSpec
    mode : ConstraintMode
    hp : Hyperparameters
        ``hp.alpha`` is the coupling coefficient of soft-w modes.
    ridge : float
        Jitter added to the Gram diagonal so the factorization survives
        duplicate patterns.

    Returns
    -------
    TrainedKernelModel
    """
    sets = dataset.class_index_sets()
    _validate_fit_inputs(sets, mode, hp)
    parts = _kernel_parts(sets, gram(kernel, dataset.features, ridge), mode, hp)
    run = _minimize(parts, hp)
    N = dataset.n_instances
    G = parts.metric[:N, :N]  # the padded metric holds the fit's only Gram copy
    A, b = run.w[:, :N].copy(), run.w[:, N].copy()
    return TrainedKernelModel(
        A=A,
        b=b,
        kernel=kernel,
        train_features=dataset.features.copy(),
        mode=mode,
        hyperparameters=hp,
        iterations_used=run.iterations,
        final_objective=_kernel_regularizer(G, A, b, mode, hp, half=True)
        + hp.beta * _kernel_hinge_sum(dataset, G, A, b),
        kkt_residual=run.kkt_residual,
        ridge=float(ridge),
        converged=run.converged,
        surrogate_trace=run.surrogate_trace,
        hinge_trace=run.hinge_trace,
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
