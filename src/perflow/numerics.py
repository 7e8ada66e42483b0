"""Central finite differences: the Jacobian of root classification and Newton, and a test oracle gradient.

Also the two bracket refiners of scalar root finding, which know no model:
bisection of a sign change and a golden-section minimum of ``|f|``.
"""

from __future__ import annotations

import numpy as np


_GRADIENT_STEP = 1e-5  # relative steps: coordinate i moves by step * max(1, |x_i|)
_JACOBIAN_STEP = 1e-6


def _central_differences(f, x, step):
    """The quotients ``(f(x + h_i e_i) - f(x - h_i e_i)) / (2 h_i)``, one per coordinate ``i`` of ``x``."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    hs = step * np.maximum(1.0, np.abs(x))
    quotients = []
    for i in range(x.size):
        e = np.zeros(x.shape)
        e[i] = hs[i]
        quotients.append((np.asarray(f(x + e)) - np.asarray(f(x - e))) / (2.0 * hs[i]))
    return quotients


def finite_diff_gradient(f, x) -> np.ndarray:
    """Central-difference gradient of a scalar function.

    Each coordinate steps by ``h = 1e-5 * max(1, |x_i|)``.  Error is O(h^2)
    for thrice-differentiable f.
    """
    return np.array(_central_differences(f, x, _GRADIENT_STEP), dtype=float).ravel()


def finite_diff_jacobian(f, x) -> np.ndarray:
    """Central-difference Jacobian of a vector-valued function, step ``1e-6 * max(1, |x_j|)``."""
    return np.column_stack(_central_differences(f, x, _JACOBIAN_STEP))


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
