"""Numerical certification of local curvature, perturbation envelopes, and bounds.

Around an isolated minimizer ``x*`` of the diagonal risk, four constants
bracket the landscape on the ball of a chosen radius ``r``:

* ``c1 |x-x*|^2 <= PR(x) - PR(x*) <= c2 |x-x*|^2``  (value bracket)
* ``c3 |x-x*|   <= |grad PR(x)|  <= c4 |x-x*|``     (gradient bracket)

The tightest constants are estimated as grid infima/suprema of the two
ratios over the ball intersected with the domain box, excluding a small ball
around ``x*`` where the ratios are 0/0 (the limits are captured by the
nearest included cells).

Validity of the gradient bracket is decided by a sign test, not by the raw
infimum: on a finite grid the infimum of ``|grad PR|/|x-x*|`` is always
positive, even when the gradient vanishes inside the ball.  A reversal of
the outward radial derivative at any grid point certifies, by continuity, an
interior zero, hence that no positive ``c3`` exists at this radius.

On top of a certificate, an affine envelope ``|g(x)| <= eps |x-x*| + delta``
on the perturbation yields transient/ultimate bounds for the shift-blind
flow: exponential decay at rate ``theta * (c3^2 - c4 eps) / (2 c2)`` with
prefactor ``sqrt(c2/c1)`` until the trajectory enters the ultimate ball of
radius ``sqrt(c2/c1) * c4 delta / ((1-theta)(c3^2 - c4 eps))``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import InvalidCertificateError, MissingConstantsError, NotAMinimizerError
from .model import (
    DecisionDependentModel, SmoothnessConstants, _check_domain, _check_state, _lattice, _record_document,
)


# ---------------------------------------------------------------------------
# grid helpers

MIN_CONSTANTS_GRID = 100  # the fewest grid points a constant or envelope estimate accepts
_EXCLUSION_CELLS = 2  # lattice steps around x_star left out, where the ratios are 0/0


def _ball_grid(model, x_star, radius, grid_n):
    """Lattice covering the ball around x_star (in the domain box) clipped to the box.

    Returns ``(x_star, points, distances, exclusion_radius)``; the exclusion
    ball is ``_EXCLUSION_CELLS`` of the widest lattice step, for certificates
    and envelopes alike.  A radius that leaves no grid point outside it, or
    whose nearest such point has a subnormal squared distance, raises
    :class:`ValueError`.
    """
    # fewer points leave nothing or next to nothing outside the exclusion ball
    if grid_n < MIN_CONSTANTS_GRID:
        raise ValueError(f"grid estimates need at least {MIN_CONSTANTS_GRID} grid points, got {grid_n}")
    if radius <= 0:
        raise ValueError("radius must be positive")
    x_star = _check_state(model, x_star, "x_star")
    lo = np.maximum(model.domain.lower, x_star - radius)
    hi = np.minimum(model.domain.upper, x_star + radius)
    pts = _lattice(lo, hi, grid_n, 5)
    # widest lattice step; infinite where x_star +- radius rounds to one point
    cell = float(max(np.min(a[a > a[0]], initial=np.inf) - a[0] for a in pts.T))
    if model.dimension > 1:  # a 1-D box lies in the ball; no filter to round endpoints away
        pts = pts[np.linalg.norm(pts - x_star, axis=-1) <= radius]
    dist = np.linalg.norm(pts - x_star, axis=-1)
    excl = _EXCLUSION_CELLS * cell
    kept = dist[dist >= excl]
    # a lattice of one point, or distances whose squares underflow to 0, leaves
    # nothing to fit; a subnormal square has lost digits, and the ratios with it
    if not kept.size or kept.min() ** 2 < np.finfo(float).tiny:
        raise ValueError(
            f"radius {radius} leaves no grid point outside the exclusion ball "
            "whose squared distance is a normal float"
        )
    return x_star, pts, dist, excl


# ---------------------------------------------------------------------------
# curvature certificates


@dataclass(frozen=True, eq=False)
class CurvatureCertificate:
    """Tightest quadratic/linear bracketing constants on a ball around x_star.

    By construction every retained grid point x with
    ``exclusion_radius <= |x - x_star| <= radius`` satisfies
    ``c1 d^2 <= PR(x) - PR(x_star) <= c2 d^2`` and
    ``c3 d <= |grad PR(x)| <= c4 d``.  ``gradient_side_valid`` is False when
    the outward radial derivative reverses sign anywhere on the grid, which
    certifies an interior gradient zero (no positive c3 exists).
    """

    x_star: np.ndarray
    radius: float
    c1: float
    c2: float
    c3: float
    c4: float
    grid_n: int
    exclusion_radius: float
    value_side_valid: bool
    gradient_side_valid: bool

    @property
    def valid(self) -> bool:
        return self.value_side_valid and self.gradient_side_valid

    def to_dict(self) -> dict:
        return {**_record_document(self), "valid": self.valid}


def estimate_curvature_constants(
    model: DecisionDependentModel,
    x_star,
    radius: float,
    grid_n: int = 4001,
) -> CurvatureCertificate:
    """Estimate the tightest bracketing constants at the given radius.

    ``x_star`` must be a local minimizer of the diagonal risk (certify it
    first); a grid point with risk below the center raises
    :class:`NotAMinimizerError`.  ``grid_n`` of a few thousand resolves the
    constants of smooth scalar models to three digits in well under a second.
    """
    x_star, pts, dist, excl = _ball_grid(model, x_star, radius, grid_n)

    center = x_star[None, :]  # a one-row batch, evaluated like the grid points
    risk_center = float(model.decoupled_risk(center, center)[0])
    keep = dist >= excl
    pts, dist = pts[keep], dist[keep]

    value_gap = model.decoupled_risk(pts, pts) - risk_center
    if np.min(value_gap) < -1e-12 * (1.0 + abs(risk_center)):
        worst = pts[np.argmin(value_gap)]
        raise NotAMinimizerError(
            f"risk at {worst.tolist()} is below the risk at x_star={x_star.tolist()}: "
            "the reference point is not a local minimizer on this ball"
        )
    grad = model.grad_x1(pts, pts) + model.grad_x2(pts, pts)
    grad_norm = np.linalg.norm(grad, axis=-1)
    radial = np.einsum("ij,ij->i", grad, pts - x_star) / dist

    value_ratio = value_gap / dist**2
    grad_ratio = grad_norm / dist
    c1, c2 = float(np.min(value_ratio)), float(np.max(value_ratio))
    c3, c4 = float(np.min(grad_ratio)), float(np.max(grad_ratio))

    finite = all(np.isfinite(v) for v in (c1, c2, c3, c4))
    return CurvatureCertificate(
        x_star=x_star,
        radius=float(radius),
        c1=c1,
        c2=c2,
        c3=c3,
        c4=c4,
        grid_n=int(grid_n),
        exclusion_radius=float(excl),
        value_side_valid=bool(finite and c1 > 0.0),
        gradient_side_valid=bool(finite and np.all(radial > 0.0)),
    )


def feasible_radius(cert: CurvatureCertificate) -> float:
    """Radius of the certified initial-condition ball: ``sqrt(c1/c2) * radius``.

    Needs only the value-side constants; the gradient side may legitimately
    be degenerate at radii where the value bracket still holds.
    """
    if not cert.value_side_valid or cert.c2 <= 0:
        raise InvalidCertificateError(
            "feasible radius needs positive, finite value-side constants"
        )
    return float(np.sqrt(cert.c1 / cert.c2) * cert.radius)


def sweep_curvature_constants(
    model: DecisionDependentModel,
    x_star,
    radii: Sequence[float],
    grid_n: int = 4001,
) -> list[CurvatureCertificate]:
    """Certificates for each radius, e.g. to trace constants as the ball grows."""
    return [estimate_curvature_constants(model, x_star, float(r), grid_n) for r in radii]


# ---------------------------------------------------------------------------
# perturbation envelopes

@dataclass(frozen=True, eq=False)
class PerturbationEnvelope:
    """Affine bound ``|g(x)| <= epsilon |x - x_star| + delta`` on the ball."""

    epsilon: float
    delta: float
    radius: float
    x_star: np.ndarray
    fit_mode: str
    grid_n: int

    def bound(self, dist):
        return self.epsilon * np.asarray(dist, dtype=float) + self.delta

    def to_dict(self) -> dict:
        return _record_document(self)


def estimate_perturbation_envelope(
    model: DecisionDependentModel,
    x_star,
    radius: float,
    grid_n: int = 4001,
    epsilon_cap: Optional[float] = None,
) -> PerturbationEnvelope:
    """Fit the affine perturbation envelope on the ball around x_star.

    Without ``epsilon_cap`` the fit is ``delta-zero``: the smallest purely
    linear envelope (delta = 0, epsilon = sup |g| / d away from the center).
    With a cap it is ``epsilon-capped``: epsilon is the cap, and the excess
    goes into ``delta = sup max(0, |g| - cap * d)`` over the whole ball.  The
    record's ``fit_mode`` names the fit.
    """
    if epsilon_cap is not None and not epsilon_cap >= 0:
        raise ValueError(f"epsilon_cap must be a nonnegative number, got {epsilon_cap}")
    x_star, pts, dist, excl = _ball_grid(model, x_star, radius, grid_n)
    g_norm = np.linalg.norm(model.grad_x2(pts, pts), axis=-1)

    if epsilon_cap is None:
        keep = dist >= excl
        epsilon = float(np.max(g_norm[keep] / dist[keep]))
        delta = 0.0
    else:
        epsilon = float(epsilon_cap)
        delta = float(np.max(np.maximum(0.0, g_norm - epsilon * dist)))
    return PerturbationEnvelope(
        epsilon=epsilon,
        delta=delta,
        radius=float(radius),
        x_star=x_star,
        fit_mode="delta-zero" if epsilon_cap is None else "epsilon-capped",
        grid_n=int(grid_n),
    )


# ---------------------------------------------------------------------------
# transient / ultimate bounds

@dataclass(frozen=True, eq=False)
class UltimateBoundReport:
    """Evaluated convergence-bound quantities for one initial condition.

    ``admissible`` requires all three hypotheses: the envelope slope beats
    ``c3^2/c4``, the initial condition sits inside the feasible ball, and the
    offset satisfies the theta condition
    ``delta <= sqrt(c1/c2) (1 - theta) r (c3^2/c4 - eps)``.  That condition
    is exactly ``ultimate_radius <= r``: the ultimate ball lies inside the
    ball where ``c1..c4`` were measured, so the argument that the trajectory
    never leaves it closes.  (The prefactor ``sqrt(c2/c1)`` in its place
    would allow ultimate balls up to ``c2/c1`` times wider.)
    """

    theta: float
    alpha: float
    mu_theta: float
    transient_rate: float
    transient_prefactor: float
    ultimate_radius: float
    t_bound: float
    epsilon_admissible: bool
    initial_condition_admissible: bool
    theta_admissible: bool
    admissible: bool
    initial_distance: float
    certificate: CurvatureCertificate
    envelope: PerturbationEnvelope

    def transient_envelope(self, times):
        """Bound ``prefactor * exp(-rate * t) * |x0 - x_star|`` at the given times."""
        t = np.asarray(times, dtype=float)
        return self.transient_prefactor * np.exp(-self.transient_rate * t) * self.initial_distance

    def to_dict(self) -> dict:
        return _record_document(self)


def ultimate_bounds(
    cert: CurvatureCertificate,
    envelope: PerturbationEnvelope,
    x0,
    theta: float,
) -> UltimateBoundReport:
    """Evaluate the transient/ultimate bound quantities for one initial state.

    All fields are computed for any finite certificate; hypothesis failures
    (including a degenerate gradient side, where ``alpha <= 0``) are reported
    through the admissibility flags rather than raised, so sweeps over
    marginal radii stay total.  Only ``theta`` outside (0, 1) and an ``x0``
    whose shape is not that of ``cert.x_star`` are errors.
    """
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must lie in (0, 1), got {theta}")
    c1, c2, c3, c4 = cert.c1, cert.c2, cert.c3, cert.c4
    eps, delta = envelope.epsilon, envelope.delta
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape != cert.x_star.shape:
        raise ValueError(f"x0 must have the shape of x_star {cert.x_star.shape}, got {x0.shape}")
    d0 = float(np.linalg.norm(x0 - cert.x_star))

    alpha = c3**2 - c4 * eps
    prefactor = float(np.sqrt(c2 / c1)) if c1 > 0 else float("inf")
    rate = theta * alpha / (2.0 * c2) if c2 > 0 else 0.0

    epsilon_admissible = c4 > 0 and eps < c3**2 / c4
    initial_condition_admissible = c2 > 0 and d0 <= np.sqrt(max(c1, 0.0) / c2) * cert.radius
    slack = cert.radius * (c3**2 / c4 - eps) if c4 > 0 else float("-inf")
    theta_admissible = c1 > 0 and c2 > 0 and delta <= np.sqrt(c1 / c2) * (1.0 - theta) * slack

    if delta == 0.0:
        mu = 0.0
        t_bound = float("inf")
    elif alpha > 0:
        mu = c4 * delta / ((1.0 - theta) * alpha)
        if mu >= prefactor * d0:
            t_bound = 0.0
        elif rate > 0:
            t_bound = float(np.log(prefactor * d0 / mu) / rate)
        else:
            t_bound = float("inf")
    else:
        mu = float("inf")
        t_bound = float("inf")

    return UltimateBoundReport(
        theta=float(theta),
        alpha=float(alpha),
        mu_theta=float(mu),
        transient_rate=float(rate),
        transient_prefactor=prefactor,
        ultimate_radius=float(prefactor * mu) if np.isfinite(mu) else float("inf"),
        t_bound=t_bound,
        epsilon_admissible=bool(epsilon_admissible),
        initial_condition_admissible=bool(initial_condition_admissible),
        theta_admissible=bool(theta_admissible),
        admissible=bool(epsilon_admissible and initial_condition_admissible and theta_admissible),
        initial_distance=d0,
        certificate=cert,
        envelope=envelope,
    )


def theta_tradeoff(
    cert: CurvatureCertificate,
    envelope: PerturbationEnvelope,
    x0,
) -> list[UltimateBoundReport]:
    """Bound reports across theta = 0.05, 0.10, ..., 0.95.

    Larger theta buys a faster transient rate at the price of a larger
    ultimate radius; the two goals are antagonistic, so no single optimum is
    singled out -- callers pick their point on the curve.
    """
    return [ultimate_bounds(cert, envelope, x0, float(t)) for t in np.round(np.arange(0.05, 0.951, 0.05), 2)]


# ---------------------------------------------------------------------------
# analytic brackets from smoothness constants

def _require(constants: SmoothnessConstants, names):
    missing = [n for n in names if getattr(constants, n) is None]
    if missing:
        raise MissingConstantsError(f"bound formula needs constants: {', '.join(missing)}")


def risk_curvature_bracket(constants: SmoothnessConstants, dist2: float):
    """Value-gap bracket from loss/shift regularity at squared distance ``dist2``.

    Returns ``((m/2 - L1*L2) * dist2, (L1*L2 + L3/2) * dist2)`` where L1 is
    the loss Lipschitz constant in the data, L2 the quadratic transport
    bound on the shift, m/L3 the convexity/smoothness moduli.
    """
    _require(
        constants,
        ("loss_lipschitz", "shift_quadratic_bound", "strong_convexity", "smoothness"),
    )
    if dist2 < 0:
        raise ValueError("squared distance must be nonnegative")
    cross = constants.loss_lipschitz * constants.shift_quadratic_bound
    lower = (constants.strong_convexity / 2.0 - cross) * dist2
    upper = (cross + constants.smoothness / 2.0) * dist2
    return lower, upper


def gradient_norm_bracket(constants: SmoothnessConstants, dist: float):
    """Gradient-norm bracket at distance ``dist`` from the minimizer.

    Returns ``(max(0, (m - eps*L4)*dist - 2*eps*L1), (L3 + eps*L4)*dist + 2*eps*L1)``
    with eps the transport sensitivity of the shift and L4 the data-Lipschitz
    constant of the decision gradient.  The lower end is clamped at zero.
    """
    _require(
        constants,
        ("loss_lipschitz", "strong_convexity", "smoothness", "grad_data_lipschitz", "sensitivity"),
    )
    if dist < 0:
        raise ValueError("distance must be nonnegative")
    eps = constants.sensitivity
    lower = max(
        0.0,
        (constants.strong_convexity - eps * constants.grad_data_lipschitz) * dist
        - 2.0 * eps * constants.loss_lipschitz,
    )
    upper = (
        constants.smoothness + eps * constants.grad_data_lipschitz
    ) * dist + 2.0 * eps * constants.loss_lipschitz
    return lower, upper


# ---------------------------------------------------------------------------
# alignment of the perturbation with descent

HOLDS_SLACK = 1e-12

@dataclass(frozen=True, eq=False)
class AlignmentReport:
    """Pointwise check of ``|g|^2 <= <-grad_x1 R, g>`` over a scalar interval.

    Where the condition holds, the perturbation cannot increase the diagonal
    risk, so the shift-blind flow descends it at least as fast as
    ``-|grad PR|^2``.  ``hold_intervals`` lists the maximal grid runs where
    the condition holds.
    """

    points: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    holds: np.ndarray
    hold_intervals: tuple

    def to_dict(self) -> dict:
        return {
            "grid_n": int(self.points.size),
            "lo": float(self.points[0]),
            "hi": float(self.points[-1]),
            "fraction_holding": float(np.mean(self.holds)),
            "hold_intervals": [[float(a), float(b)] for a, b in self.hold_intervals],
        }


def alignment_check(model: DecisionDependentModel, lo: float, hi: float, grid_n: int) -> AlignmentReport:
    """Evaluate the alignment condition on ``grid_n`` points of ``[lo, hi]`` in the domain."""
    if grid_n < 2:
        raise ValueError("grid must have at least 2 points")
    if model.dimension != 1:
        raise ValueError("the alignment check is defined for scalar models")
    if not float(lo) < float(hi):
        raise ValueError(f"the alignment interval needs lo < hi, got [{lo}, {hi}]")
    xs = np.linspace(float(lo), float(hi), int(grid_n))
    pts = _check_domain(model, xs[:, None])
    g1 = model.grad_x1(pts, pts)[:, 0]
    g = model.grad_x2(pts, pts)[:, 0]
    lhs = g * g
    rhs = -g1 * g

    holds = lhs <= rhs + HOLDS_SLACK
    intervals = []
    idx = np.nonzero(holds)[0]
    if idx.size:
        splits = np.nonzero(np.diff(idx) > 1)[0]
        for run in np.split(idx, splits + 1):
            intervals.append((float(xs[run[0]]), float(xs[run[-1]])))
    return AlignmentReport(
        points=xs,
        lhs=lhs,
        rhs=rhs,
        holds=holds,
        hold_intervals=tuple(intervals),
    )
