"""Input generators for the benchmark workloads, in plain numpy.

The same seed gives the same arrays.  The label rules are planted, so the
benchmark can say what a sound model should achieve without consulting the
program.
"""

from __future__ import annotations

import numpy as np

# linear_multilabel: K halfspace rules on standard normal features.  A row
# carries label k when its projection on the unit direction v_k exceeds
# PLANTED_THRESHOLD, the 0.6 quantile of N(0, 1), so each label fires with
# probability 0.4 and a row carries about four of the ten labels.
LINEAR_CLASSES = 10
LINEAR_FEATURES = 20
LINEAR_TRAIN = 2000
LINEAR_HELDOUT = 20000
PLANTED_THRESHOLD = 0.2533471031357997

# The training sets that the stored oracle optima belong to do not depend
# on the run's seed (see README, "Workloads and inputs").  Held-out rows
# come from the stream (seed, 1), so they never repeat a reference set.
REFERENCE_SEED = 0

# kernel_cv: K concentric rings of equal width in the plane.  A row carries
# label j when its radius lies within RING_OVERLAP of ring j, so rows near a
# ring boundary carry two labels.  Radii are uniform, so rings are balanced.
RING_CLASSES = 3
RING_RADIUS = 3.0
RING_OVERLAP = 0.15
RING_TRAIN = 90
RING_HELDOUT = 1500000
RING_RIDGE = 1e-10  # the Gram ridge fit_kernel adds by default

# The pinned grid of the kernel_cv search: two kernel widths, one value of
# every coefficient, the soft-w hard-b mode and three folds.
KERNEL_GRID = dict(
    alphas=(0.5,), betas=(10.0,), gammas=(1.0,), sigmas=(0.5, 1.0),
    kernel_kind="gaussian", seed=0, n_folds=3,
)
KERNEL_MODE = "sw-hb"

# kernel_predict scores the held-out rings with a model fitted at this grid
# tuple, whose oracle optimum is stored with the grid's.
PREDICT_SIGMA = 0.5


def _directions(rng):
    """The LINEAR_CLASSES unit directions of a planted rule."""
    V = rng.standard_normal((LINEAR_CLASSES, LINEAR_FEATURES))
    return V / np.linalg.norm(V, axis=1, keepdims=True)


def _planted_labels(X, V):
    """Labels of the rows of X under the rule V.

    A row that no rule selects takes the label of its largest projection,
    because every training row needs a label.
    """
    proj = X @ V.T
    Y = (proj > PLANTED_THRESHOLD).astype(np.int64)
    empty = Y.sum(axis=1) == 0
    Y[empty, np.argmax(proj[empty], axis=1)] = 1
    return Y


def linear_reference():
    """The fixed linear training set (LINEAR_TRAIN rows) of the stored optima.

    The rule directions are the first draws of the stream, the rows next.
    """
    rng = np.random.default_rng(REFERENCE_SEED)
    V = _directions(rng)
    X = rng.standard_normal((LINEAR_TRAIN, LINEAR_FEATURES))
    return X, _planted_labels(X, V)


def linear_heldout(seed: int):
    """LINEAR_HELDOUT fresh rows from the run's seed, labelled by the reference rule."""
    V = _directions(np.random.default_rng(REFERENCE_SEED))
    X = np.random.default_rng((seed, 1)).standard_normal((LINEAR_HELDOUT, LINEAR_FEATURES))
    return X, _planted_labels(X, V)


def rings(rng, n: int):
    """Points (n, 2) and ring labels (n, RING_CLASSES)."""
    r = rng.uniform(0.0, RING_RADIUS, n)
    theta = rng.uniform(0.0, 2.0 * np.pi, n)
    X = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
    edges = np.linspace(0.0, RING_RADIUS, RING_CLASSES + 1)
    Y = (r[:, None] >= edges[:-1] - RING_OVERLAP) & (r[:, None] < edges[1:] + RING_OVERLAP)
    return X, Y.astype(np.int64)


def ring_reference():
    """The fixed ring training set (RING_TRAIN rows) of the stored optima."""
    return rings(np.random.default_rng(REFERENCE_SEED), RING_TRAIN)


def ring_heldout(seed: int):
    """RING_HELDOUT fresh rows drawn from the same rings."""
    return rings(np.random.default_rng((seed, 1)), RING_HELDOUT)


def gaussian_gram(X, sigma: float, ridge: float):
    """exp(-|x - y|^2 / (2 sigma^2)) over the rows of X, ridge on the diagonal."""
    X = np.asarray(X, dtype=float)
    sq = np.sum((X[:, None, :] - X[None, :, :]) ** 2, axis=-1)
    return np.exp(-sq / (2.0 * sigma**2)) + ridge * np.eye(X.shape[0])


def feature_map(G):
    """R with R R' = G, from the eigendecomposition (negative eigenvalues cut)."""
    lam, V = np.linalg.eigh(G)
    return V * np.sqrt(np.maximum(lam, 0.0))
