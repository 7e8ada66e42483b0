"""Response-probability maps ``x -> p(x)`` that drive the distribution shift.

A shift function assigns to each scalar decision ``x`` the success probability
of the induced two-point (0/1) data distribution.  Every shift carries an
explicit derivative because both the full risk gradient and the perturbation
term need ``p'`` directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

_EDGE = 1e-12  # p is pinned to its limit value this close to the upper knee


def bump_phi(x):
    """Smooth monotone transition: exactly 0 for x <= 0 and 1 for x >= 1.

    On (0, 1) the value is ``exp(1 - 1/(x*(2-x)))``, which is continuously
    differentiable across both knees.  Inputs within 1e-12 of the upper knee
    are pinned to 1 so the reciprocal never degrades.  Accepts scalars or
    arrays; returns the matching shape.
    """
    if type(x) is float or np.ndim(x) == 0:  # np.ndim alone costs ~2 us a call
        xf = float(x)
        if xf <= 0.0:
            return 0.0
        if xf >= 1.0 - _EDGE:
            return 1.0
        # 1/t is at least 1e300 or inf once t < 1e-300, and exp gives 0.0 for both
        return math.exp(1.0 - 1.0 / (xf * (2.0 - xf)))
    x = np.asarray(x, dtype=float)
    # x <= 0 and NaN give t <= 0 or NaN, which fmax (unlike maximum) sends to
    # 1e-300, so exp returns exactly 0.0 there without a mask
    t = np.fmax(x * (2.0 - x), 1e-300)
    return np.where(x >= 1.0 - _EDGE, 1.0, np.exp(1.0 - 1.0 / t))


def bump_phi_prime(x):
    """Derivative of :func:`bump_phi`: ``phi(x) * 2(1-x) / (x*(2-x))**2`` on (0, 1), else 0.

    Where the value itself underflows to zero (x very close to 0) the
    derivative underflows even faster: it is exactly 0 wherever
    ``x*(2-x) < 1e-4``, and the reciprocal square is never taken of a smaller
    ``x*(2-x)``.
    """
    if type(x) is float or np.ndim(x) == 0:  # np.ndim alone costs ~2 us a call
        xf = float(x)
        if xf <= 0.0 or xf >= 1.0 - _EDGE:
            return 0.0
        t = xf * (2.0 - xf)
        if t < 1e-4:
            return 0.0
        return math.exp(1.0 - 1.0 / t) * 2.0 * (1.0 - xf) / (t * t)
    x = np.asarray(x, dtype=float)
    inner = (x > 0.0) & (x < 1.0 - _EDGE)
    # the formula runs on every lane; 0.5 stands in outside (0, 1) so the
    # lanes that the select discards stay finite (at -inf, 0 * inf is NaN)
    w = np.where(inner, x, 0.5)
    # below the scalar path's t < 1e-4 cut, exp(1 - 1/t) is exactly 0.0, so
    # clamping t there yields the same +0.0 without a second cut
    t = np.maximum(w * (2.0 - w), 1e-4)
    return np.where(inner, np.exp(1.0 - 1.0 / t) * 2.0 * (1.0 - w) / (t * t), 0.0)


@dataclass(frozen=True, eq=False)
class ShiftFunction:
    """A probability map with explicit derivative.

    Attributes
    ----------
    kind:
        One of ``bump``, ``logistic``, ``clamped-polynomial``, ``tabulated``.
    value, derivative:
        Vectorized callables; ``value`` stays within [0, 1].
    params:
        Constructor parameters, kept for serialization.
    breakpoints:
        Points where the derivative is one-sided (clamp knees, table knots);
        finite-difference agreement is only guaranteed away from these.
    """

    kind: str
    value: Callable
    derivative: Callable
    params: dict = field(default_factory=dict)
    breakpoints: tuple = ()


def bump_shift() -> ShiftFunction:
    """The smooth 0-to-1 bump transition with knees at 0 and 1."""
    return ShiftFunction(
        kind="bump",
        value=bump_phi,
        derivative=bump_phi_prime,
        params={},
        breakpoints=(0.0, 1.0),
    )


def logistic_shift(rate: float = 8.0, midpoint: float = 0.5) -> ShiftFunction:
    """Logistic probability map ``1 / (1 + exp(-rate * (x - midpoint)))``."""
    if rate <= 0.0:
        raise ValueError(f"logistic rate must be positive, got {rate}")

    def value(x):
        z = -rate * (np.asarray(x, dtype=float) - midpoint)
        if z.ndim == 0 and z < 700.0:  # one state that cannot overflow: errstate would double its cost
            return 1.0 / (1.0 + np.exp(z))
        # far below the midpoint exp overflows to inf, and p is exactly 0 there
        with np.errstate(over="ignore"):
            return 1.0 / (1.0 + np.exp(z))

    def derivative(x):
        p = value(x)
        return rate * p * (1.0 - p)

    return ShiftFunction(
        kind="logistic",
        value=value,
        derivative=derivative,
        params={"rate": float(rate), "midpoint": float(midpoint)},
    )


def clamped_polynomial_shift(coefficients) -> ShiftFunction:
    """Polynomial in ascending-power coefficients, clamped to [0, 1].

    The derivative is the polynomial derivative where the raw value lies
    strictly inside (0, 1) and zero on the clamped plateaus.  Clamp-crossing
    points are reported as breakpoints.
    """
    coeffs = tuple(float(c) for c in coefficients)
    if not coeffs:
        raise ValueError("need at least one polynomial coefficient")
    if not all(math.isfinite(c) for c in coeffs):
        raise ValueError("polynomial coefficients must be finite")
    poly = np.polynomial.Polynomial(coeffs)
    dpoly = poly.deriv() if len(coeffs) > 1 else np.polynomial.Polynomial([0.0])

    def value(x):
        return np.clip(poly(np.asarray(x, dtype=float)), 0.0, 1.0)

    def derivative(x):
        x = np.asarray(x, dtype=float)
        raw = poly(x)
        return np.where((raw > 0.0) & (raw < 1.0), dpoly(x), 0.0)

    breakpoints = []
    if len(coeffs) > 1:
        for level in (0.0, 1.0):
            for root in (poly - level).roots():
                if abs(root.imag) < 1e-9:
                    breakpoints.append(float(root.real))
    return ShiftFunction(
        kind="clamped-polynomial",
        value=value,
        derivative=derivative,
        params={"coefficients": list(coeffs)},
        breakpoints=tuple(sorted(breakpoints)),
    )


def constant_shift(level: float) -> ShiftFunction:
    """Decision-independent probability ``p(x) = level``."""
    if not 0.0 <= level <= 1.0:
        raise ValueError(f"constant shift level must be in [0, 1], got {level}")
    return clamped_polynomial_shift((level,))


def tabulated_shift(knots_x, knots_p) -> ShiftFunction:
    """Monotone-cubic interpolation through ``(x_i, p_i)`` knots.

    Uses a shape-preserving cubic (no overshoot between knots), so values
    stay within [0, 1] whenever the knot values do.  Outside the knot range
    the map is held constant at the end values with zero derivative.
    """
    from scipy.interpolate import PchipInterpolator

    xs = np.asarray(knots_x, dtype=float)
    ps = np.asarray(knots_p, dtype=float)
    if xs.ndim != 1 or xs.size < 2:
        raise ValueError("need at least two knots")
    if xs.size != ps.size:
        raise ValueError("knot coordinate and value arrays differ in length")
    if np.any(np.diff(xs) <= 0):
        raise ValueError("knot coordinates must be strictly increasing")
    if np.any((ps < 0.0) | (ps > 1.0)):
        raise ValueError("knot values must lie in [0, 1]")
    interp = PchipInterpolator(xs, ps, extrapolate=False)
    dinterp = interp.derivative()
    lo, hi = xs[0], xs[-1]
    p_lo, p_hi = ps[0], ps[-1]

    def value(x):
        x = np.asarray(x, dtype=float)
        # clip away evaluation roundoff: the knots are in [0, 1] and the
        # shape-preserving interpolant cannot overshoot them analytically
        out = np.clip(interp(np.clip(x, lo, hi)), 0.0, 1.0)
        return np.where(x < lo, p_lo, np.where(x > hi, p_hi, out))

    def derivative(x):
        x = np.asarray(x, dtype=float)
        # dinterp is NaN outside the knots (extrapolate=False), where the select gives 0.0
        return np.where((x >= lo) & (x <= hi), dinterp(x), 0.0)

    return ShiftFunction(
        kind="tabulated",
        value=value,
        derivative=derivative,
        params={"knots_x": [float(v) for v in xs], "knots_p": [float(v) for v in ps]},
        breakpoints=tuple(float(v) for v in xs),
    )
