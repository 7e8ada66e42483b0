"""Central finite differences: the Jacobian of root classification and Newton, and a test oracle gradient.

Also the two bracket refiners of scalar root finding, which know no model:
bisection of a sign change and a golden-section minimum of ``|f|``.
"""

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


# Halvings that close any bracket of doubles: from a width below 2**1025 to
# the stop width 4 * eps * max(1, |mid|) >= 2**-50 takes at most 1075.
_BISECT_HALVINGS = 1100


def _bisect(f, lo, hi, f_lo, residual_tol):
    """``(root, f(root))`` of a sign-change bracket, or None if it is still open after the halvings."""
    for _ in range(_BISECT_HALVINGS):
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if abs(f_mid) <= residual_tol or (hi - lo) <= 4.0 * np.finfo(float).eps * max(1.0, abs(mid)):
            return mid, f_mid
        if f_lo * f_mid < 0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return None


def _golden(f, lo, hi, residual_tol):
    """A golden-section minimum ``(x, f(x))`` of ``|f|`` on ``[lo, hi]``, or None if ``|f(x)| > residual_tol``."""
    x = hi - 0.5 * (np.sqrt(5.0) - 1.0) * (hi - lo)
    fx = f(x)
    # to the bracket width: 7.8e-6 from 0.5, (x - 0.5)^2 is below 1e-10 but its slope 1.6e-5 is not degenerate
    for _ in range(2 * _BISECT_HALVINGS):  # a step keeps 0.618 of the bracket, a halving 0.5
        if hi - lo <= 4.0 * np.finfo(float).eps * max(1.0, abs(x)):
            break
        u = lo + hi - x  # x mirrored in the bracket: the probes stay at its golden points
        fu = f(u)
        if abs(fu) < abs(fx):
            x, fx, u = u, fu, x
        lo, hi = (u, hi) if u < x else (lo, u)  # the minimum is on the side of u that x is
    return (x, fx) if abs(fx) <= residual_tol else None
