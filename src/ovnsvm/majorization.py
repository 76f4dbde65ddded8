"""Hinge loss, its optimal quadratic surrogate, and the auxiliary update.

Both solvers replace each hinge term [1 - u]_+ with the quadratic surrogate

    g(u, z) = (1 - u + z)^2 / (4 z),        z > 0,

which dominates the hinge everywhere and touches it at z = |1 - u|.
Alternating a weighted least-squares solve in the weights with the
closed-form update of z drives a monotone descent on the surrogate
objective, and the clamp z >= epsilon keeps the surrogate finite for
patterns sitting exactly on the margin.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NonpositiveZ

DEFAULT_EPSILON = 1e-6


def hinge(u):
    """Hinge loss max(0, 1 - u).

    Args:
        u: projection value; scalars and arrays both work.

    Returns:
        The loss, with the same shape as ``u``.
    """
    return np.maximum(0.0, 1.0 - np.asarray(u, dtype=float))


def majorizer(u, z):
    """Quadratic surrogate (1 - u + z)^2 / (4 z) of the hinge loss.

    Args:
        u: projection value.
        z: auxiliary value, strictly positive.

    Returns:
        Surrogate value, always >= hinge(u), equal when z = |1 - u| > 0.

    Raises:
        NonpositiveZ: if any z is not strictly positive.
    """
    z = np.asarray(z, dtype=float)
    if np.any(z <= 0.0):
        raise NonpositiveZ("surrogate needs z > 0")
    # (1 - u + z)^2 / (4 z) = hinge(u) + (|1 - u| - z)^2 / (4 z): adding a
    # nonnegative gap to the hinge keeps dominance exact under rounding,
    # which the expanded square loses near the touch point
    d = 1.0 - np.asarray(u, dtype=float)
    gap = np.abs(d) - z
    return np.maximum(d, 0.0) + gap * gap / (4.0 * z)


def z_update(u, epsilon: float = DEFAULT_EPSILON):
    """Optimal auxiliary value |1 - u|, clamped from below by epsilon.

    Args:
        u: projection value (scalar or array).
        epsilon: strictly positive floor keeping the surrogate finite.

    Returns:
        max(|1 - u|, epsilon), elementwise.
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be strictly positive")
    return np.maximum(np.abs(1.0 - np.asarray(u, dtype=float)), float(epsilon))


@dataclass
class MMState:
    """Auxiliary variables for one fit.

    Attributes:
        z: list of arrays, one per class, aligned with that class's
            positive-pattern index set.
        epsilon: clamp floor applied by every update.
        objective_trace: surrogate objective value after each weight solve;
            non-increasing by construction.
    """

    z: list[np.ndarray]
    epsilon: float = DEFAULT_EPSILON
    objective_trace: list[float] = field(default_factory=list)

    @classmethod
    def fresh(cls, class_sizes, epsilon: float = DEFAULT_EPSILON) -> "MMState":
        """Start state with every auxiliary value at 1."""
        if epsilon <= 0.0:
            raise ValueError("epsilon must be strictly positive")
        return cls([np.ones(int(n)) for n in class_sizes], float(epsilon))

    def update(self, projections) -> "MMState":
        """Refresh every z from the current per-class projection arrays."""
        self.z = [z_update(u, self.epsilon) for u in projections]
        return self
