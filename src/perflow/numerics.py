"""Central finite-difference derivatives used as test oracles and fallbacks."""

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


def finite_diff_hessian(f, x) -> np.ndarray:
    """Symmetric central-difference Hessian, step ``1e-4 * max(1, |x_i|)``."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n = x.size
    hs = 1e-4 * np.maximum(1.0, np.abs(x))
    hess = np.empty((n, n))
    f0 = f(x)
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = hs[i]
        hess[i, i] = (f(x + ei) - 2.0 * f0 + f(x - ei)) / hs[i] ** 2
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = hs[j]
            hess[i, j] = (
                f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)
            ) / (4.0 * hs[i] * hs[j])
            hess[j, i] = hess[i, j]
    return hess


def finite_diff_jacobian(f, x) -> np.ndarray:
    """Central-difference Jacobian of a vector-valued function, step ``1e-6 * max(1, |x_j|)``."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    hs = 1e-6 * np.maximum(1.0, np.abs(x))
    f0 = np.atleast_1d(np.asarray(f(x), dtype=float))
    jac = np.empty((f0.size, x.size))
    for j in range(x.size):
        e = np.zeros(x.shape)
        e[j] = hs[j]
        jac[:, j] = (np.asarray(f(x + e)) - np.asarray(f(x - e))) / (2.0 * hs[j])
    return jac
