"""Central finite differences: the Jacobian of root classification and Newton, and a test oracle gradient."""

from __future__ import annotations

import numpy as np


def finite_diff_gradient(f, x) -> np.ndarray:
    """Central-difference gradient of a scalar function.

    Each coordinate steps by ``h = 1e-5 * max(1, |x_i|)``.  Error is O(h^2)
    for thrice-differentiable f.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    hs = 1e-5 * np.maximum(1.0, np.abs(x))
    grad = np.empty(x.shape)
    for i in range(x.size):
        e = np.zeros(x.shape)
        e[i] = hs[i]
        grad[i] = (f(x + e) - f(x - e)) / (2.0 * hs[i])
    return grad


def finite_diff_jacobian(f, x) -> np.ndarray:
    """Central-difference Jacobian of a vector-valued function, step ``1e-6 * max(1, |x_j|)``."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    hs = 1e-6 * np.maximum(1.0, np.abs(x))
    columns = []
    for j in range(x.size):
        e = np.zeros(x.shape)
        e[j] = hs[j]
        columns.append((np.asarray(f(x + e)) - np.asarray(f(x - e))) / (2.0 * hs[j]))
    return np.column_stack(columns)
