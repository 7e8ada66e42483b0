"""Equilibrium location, second-order classification, and basin mapping.

An equilibrium of either flow is a zero of its vector field.  Scalar models
are handled by bracketing sign changes on a grid and bisecting; higher
dimensions fall back to damped Newton iterations from lattice seeds with
finite-difference Jacobians.

Classification labels:

* ``prm-minimizer``: the total risk gradient vanishes and its
  finite-difference Hessian is positive definite.
* ``performatively-stable``: the first-argument gradient vanishes on the
  diagonal, the decision-Hessian of ``y -> R(y, x)`` is positive definite,
  and the point attracts the shift-blind flow (the Jacobian of the composed
  map ``x -> grad_x1 R(x, x)`` has positive real parts).  The attraction
  requirement matters: the basin-boundary crossing of the built-in example
  minimizes ``y -> R(y, x)`` pointwise yet repels the flow, and labeling it
  stable would contradict every simulation.
* ``unstable``: some relevant second-order object has a negative eigenvalue
  (a risk-Hessian direction of decrease, or a repelling flow direction).
* ``inconclusive``: a second-order check sits within ``hessian_tol`` of
  degenerate; nothing is guessed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .config import _step_count, normalize_flow_kind
from .errors import NotAnEquilibriumError
from .flows import CONVERGED, LEFT_DOMAIN, NUMERIC_ERROR, integrate_ensemble
from .flows import _field_function, _one_state, _rk4_step
from .model import DecisionDependentModel, _check_state, _lattice, _record_document
from .numerics import finite_diff_hessian, finite_diff_jacobian

PRM_MINIMIZER = "prm-minimizer"
PERFORMATIVELY_STABLE = "performatively-stable"
UNSTABLE = "unstable"
INCONCLUSIVE = "inconclusive"

DIVERGENT = -1  # basin label for points that match no equilibrium
MIN_ROOT_GRID = 3  # the fewest grid points find_equilibria accepts


@dataclass(frozen=True, eq=False)
class EquilibriumReport:
    """A refined root of a vector field with its second-order diagnosis.

    Eigenvalue arrays are present only for the checks that applied (None
    otherwise): the risk Hessian when the total gradient vanishes, the
    decision Hessian and composed-field Jacobian when the first-argument
    gradient vanishes on the diagonal.
    """

    location: np.ndarray
    field_kind: str
    residual: float
    labels: frozenset
    pr_hessian_eigenvalues: Optional[np.ndarray] = None
    stability_hessian_eigenvalues: Optional[np.ndarray] = None
    rgd_jacobian_eigenvalues: Optional[np.ndarray] = None

    def to_dict(self) -> dict:
        return _record_document(self)


@dataclass(frozen=True, eq=False)
class BasinMap:
    """Grid of initial conditions labeled by the equilibrium they reach.

    ``labels[i]`` indexes into ``equilibrium_locations`` or is ``-1`` for
    points whose final state matched nothing within ``match_radius`` (or
    that left the domain).
    """

    grid: np.ndarray
    labels: np.ndarray
    kind: str
    t_end: float
    match_radius: float
    equilibrium_locations: np.ndarray
    statuses: np.ndarray


def _eigvals_sym(h: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh(0.5 * (h + h.T))


def classify_equilibrium(
    model: DecisionDependentModel,
    x,
    tol: float,
    hessian_tol: float = 1e-6,
    field_kind: Optional[str] = None,
) -> EquilibriumReport:
    """Second-order classification of a point where at least one field vanishes.

    Raises :class:`NotAnEquilibriumError` when neither field residual is
    within ``tol``.  Degenerate checks (eigenvalues within ``hessian_tol`` of
    zero) yield the ``inconclusive`` label rather than a guess.
    """
    x = _check_state(model, x, "x")
    g1 = np.asarray(model.grad_x1(x, x), dtype=float)
    total = g1 + np.asarray(model.grad_x2(x, x), dtype=float)
    prm_residual = float(np.linalg.norm(total))
    rgd_residual = float(np.linalg.norm(g1))
    is_prm = prm_residual <= tol
    is_rgd = rgd_residual <= tol
    if not (is_prm or is_rgd):
        raise NotAnEquilibriumError(
            f"no field vanishes at {x.tolist()}: "
            f"|total grad| = {prm_residual:.3g}, |first-arg grad| = {rgd_residual:.3g} > tol = {tol:.3g}"
        )

    labels = set()
    pr_eigs = stab_eigs = jac_eigs = None

    if is_prm:
        pr_eigs = _eigvals_sym(
            finite_diff_hessian(lambda y: float(model.decoupled_risk(y, y)), x)
        )
        if pr_eigs.min() > hessian_tol:
            labels.add(PRM_MINIMIZER)
        elif pr_eigs.min() < -hessian_tol:
            labels.add(UNSTABLE)
        else:
            labels.add(INCONCLUSIVE)

    if is_rgd:
        stab_eigs = _eigvals_sym(
            finite_diff_hessian(lambda y: float(model.decoupled_risk(y, x)), x)
        )
        jac = finite_diff_jacobian(lambda z: np.asarray(model.grad_x1(z, z), dtype=float), x)
        jac_eigs = np.sort(np.linalg.eigvals(jac).real)
        attracting = jac_eigs.min() > hessian_tol
        repelling = jac_eigs.min() < -hessian_tol
        if attracting and stab_eigs.min() > hessian_tol:
            labels.add(PERFORMATIVELY_STABLE)
        if repelling or stab_eigs.min() < -hessian_tol:
            labels.add(UNSTABLE)
        if not attracting and not repelling:
            labels.add(INCONCLUSIVE)

    if field_kind is None:
        field_kind = "both" if (is_prm and is_rgd) else ("prm-flow" if is_prm else "rgd-flow")
        residual = min(prm_residual, rgd_residual)
    else:
        field_kind = normalize_flow_kind(field_kind)
        residual = prm_residual if field_kind == "prm-flow" else rgd_residual
    return EquilibriumReport(
        location=x.copy(),
        field_kind=field_kind,
        residual=residual,
        labels=frozenset(labels),
        pr_hessian_eigenvalues=pr_eigs,
        stability_hessian_eigenvalues=stab_eigs,
        rgd_jacobian_eigenvalues=jac_eigs,
    )


def _bisect(f, lo, hi, f_lo, f_hi, residual_tol, max_iter=200):
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if abs(f_mid) <= residual_tol or (hi - lo) <= 4.0 * np.finfo(float).eps * max(1.0, abs(mid)):
            return mid, f_mid
        if f_lo * f_mid < 0:
            hi, f_hi = mid, f_mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi), f(0.5 * (lo + hi))


def _dedup(points, residuals, min_separation):
    order = np.argsort([p[0] for p in points])
    kept_p, kept_r = [], []
    for i in order:
        p, r = points[i], residuals[i]
        for j, q in enumerate(kept_p):
            if np.linalg.norm(p - q) <= min_separation:
                if abs(r) < abs(kept_r[j]):
                    kept_p[j], kept_r[j] = p, r
                break
        else:
            kept_p.append(p)
            kept_r.append(r)
    return kept_p, kept_r


def _newton_root(field, x0, residual_tol, box, max_iter=100):
    x = x0.copy()
    fx = np.asarray(field(x), dtype=float)
    for _ in range(max_iter):
        nrm = np.linalg.norm(fx)
        if nrm <= residual_tol:
            return (x, nrm) if box.contains(x) else None
        jac = finite_diff_jacobian(lambda z: np.asarray(field(z), dtype=float), x)
        try:
            step = np.linalg.solve(jac, -fx)
        except np.linalg.LinAlgError:
            return None
        lam = 1.0
        while lam > 1e-6:
            x_try = x + lam * step
            f_try = np.asarray(field(x_try), dtype=float)
            if np.all(np.isfinite(f_try)) and np.linalg.norm(f_try) < (1.0 - 1e-4 * lam) * nrm:
                x, fx = x_try, f_try
                break
            lam *= 0.5
        else:
            return None
    return None


def find_equilibria(
    model: DecisionDependentModel,
    field_kind: str,
    grid_n: int = 2001,
    refine_tol: float = 1e-10,
    classify_tol: float = 1e-8,
) -> list[EquilibriumReport]:
    """Locate and classify all zeros of a flow's field resolvable on the grid.

    Scalar models: bracket sign changes among ``grid_n`` samples of the field
    over the domain interval, refine each bracket by bisection until the
    residual drops to ``refine_tol``.  Higher dimensions: damped Newton from
    every lattice seed.  Roots closer than ``10 * refine_tol`` are merged.
    An empty list simply means no zero was resolved.
    """
    if grid_n < MIN_ROOT_GRID:
        raise ValueError(f"grid must have at least {MIN_ROOT_GRID} points")
    kind = normalize_flow_kind(field_kind)
    field = _field_function(model, kind)
    lo, hi = model.domain.lower, model.domain.upper

    points, residuals = [], []
    if model.dimension == 1:
        xs = np.linspace(lo[0], hi[0], int(grid_n))
        fv = np.asarray(field(xs[:, None]), dtype=float)[:, 0]

        def f_scalar(v):
            return float(np.ravel(field(_one_state(model, v)))[0])

        on_grid = np.abs(fv) <= refine_tol
        for v, r in zip(xs[on_grid], fv[on_grid]):
            points.append(np.array([v]))
            residuals.append(float(r))
        sign_change = fv[:-1] * fv[1:] < 0
        for i in np.nonzero(sign_change)[0]:
            root, res = _bisect(f_scalar, xs[i], xs[i + 1], fv[i], fv[i + 1], refine_tol)
            points.append(np.array([root]))
            residuals.append(float(res))
    else:
        for seed in _lattice(lo, hi, grid_n, 3):
            hit = _newton_root(field, seed, refine_tol, model.domain)
            if hit is not None:
                points.append(hit[0])
                residuals.append(hit[1])

    points, residuals = _dedup(points, residuals, 10.0 * refine_tol)
    return [
        classify_equilibrium(model, p, tol=max(classify_tol, 10.0 * abs(r)), field_kind=kind)
        for p, r in zip(points, residuals)
    ]


# Field samples per trap check; an even count leaves out the root itself,
# where the field is zero up to the refinement residual.
_TRAP_SAMPLES = 128


def _scalar_traps(model, kind, roots, match_radius, h, eq_tol, steps):
    """The traps of a scalar basin scan: ``(owner, radii, last)``, or None.

    Trap ``j`` is ``[x* - radii[j], x* + radii[j]]``, ``x* = roots[owner[j]]``,
    and takes rows at steps ``0 .. last[j]``.  A row that stops in it gets
    the label ``owner[j]`` that running on to ``eq_tol`` would give it, at
    any horizon, as far as the samples below resolve the field.

    *Inner* traps: radius ``rho = match_radius / 2``, last step ``steps``.
    The interval lies in the domain, no other root is within ``2 * rho`` (so
    ``x*`` is the nearest root to all of it), and on ``_TRAP_SAMPLES``
    samples spanning it, ends included, the field points toward ``x*`` and
    ``h * max|f'| < 1`` by finite differences, so an RK4 step cannot
    overshoot ``x*``.  In one dimension no row leaves it.

    *Outer* traps, around roots with an inner trap: radius ``R > rho``, the
    smaller of half the distance to the nearest other root and the distance
    to the domain edges.  On ``_TRAP_SAMPLES`` distances per side spaced
    logarithmically from ``rho`` to ``R``: (1) the field points toward
    ``x*``, (2) ``h * max|f'| < 1``, (3) one RK4 step contracts toward ``x*``
    by ``q = max |step(y) - x*| / |y - x*| < 1``, (4) ``|f| > eq_tol``
    beyond ``match_radius``, so no row stops by ``eq_tol`` unmatched, and
    (5) ``n = ceil(log(rho / R) / log q) <= steps``.  By (3) a row in it
    reaches the inner trap within ``n`` steps: its last step is ``steps - n``.
    """
    lo, hi = model.domain.lower[0], model.domain.upper[0]
    rho = 0.5 * match_radius
    gaps = np.abs(roots[:, None] - roots)
    np.fill_diagonal(gaps, np.inf)
    nearest = gaps.min(axis=1, initial=np.inf)
    field = _field_function(model, kind)

    def sampled(owner, offsets):
        # field samples around roots[owner]; True where f points inward and h * max|f'| < 1
        x = (roots[owner, None] + offsets)[..., None]
        fv = np.asarray(field(x), dtype=float)
        slope = np.max(np.abs(np.diff(fv, axis=1)) / np.diff(x, axis=1), axis=1)[:, 0]
        return x, fv, np.all(fv[..., 0] * offsets < 0.0, axis=1) & (h * slope < 1.0)

    owner = np.nonzero((roots - rho >= lo) & (roots + rho <= hi) & (nearest > 2.0 * rho))[0]
    if owner.size == 0:
        return None
    owner = owner[sampled(owner, rho * np.linspace(-1.0, 1.0, _TRAP_SAMPLES))[2]]
    if owner.size == 0:
        return None
    inner = (owner, np.full(owner.size, rho), np.full(owner.size, steps))

    radii = np.minimum.reduce([0.5 * nearest[owner], roots[owner] - lo, hi - roots[owner]])
    owner, radii = owner[radii > rho], radii[radii > rho]
    if owner.size == 0:
        return inner
    side = np.geomspace(rho, radii, _TRAP_SAMPLES, axis=-1)
    offsets = np.concatenate([-side[:, ::-1], side], axis=1)
    x, fv, ok = sampled(owner, offsets)
    dist = np.abs(offsets)
    q = np.max(np.abs(_rk4_step(field, x, fv, h)[..., 0] - roots[owner, None]) / dist, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        n = np.ceil(np.log(rho / radii) / np.log(q))
    ok &= (q < 1.0) & (n <= steps)
    ok &= np.all((np.abs(fv[..., 0]) > eq_tol) | (dist <= match_radius), axis=1)
    outer = (owner[ok], radii[ok], (steps - n[ok]).astype(int))
    return tuple(np.concatenate(level) for level in zip(inner, outer))


def basin_scan(
    model: DecisionDependentModel,
    field_kind: str,
    equilibria: Sequence[EquilibriumReport],
    grid_n: int = 2001,
    t_end: float = 60.0,
    match_radius: float = 1e-3,
    h: float = 0.01,
    eq_tol: float = 1e-9,
) -> BasinMap:
    """Label a lattice of initial conditions by the equilibrium each one reaches.

    Every grid point is integrated to ``t_end`` in one vectorized ensemble.
    The final state is matched to the nearest known equilibrium within
    ``match_radius``; anything unmatched, including domain exits, gets the
    divergence label ``-1`` rather than spawning a new equilibrium.

    For a scalar model the scan first builds the trap table of
    :func:`_scalar_traps`, which describes its checks: a row that enters
    trap ``j`` stops there as ``converged-to-equilibrium``, with the state
    at which it entered as its final state, and a converged row whose final
    state lies in trap ``j`` is labelled by the trap's root ``owner[j]``.
    Models in more dimensions get no traps: a prm-flow trap from the
    curvature bracket ``c1``/``c2`` needs proven enclosures of those
    constants, and grid estimates are not a proof.
    """
    if grid_n < 2:
        raise ValueError("grid must have at least 2 points")
    kind = normalize_flow_kind(field_kind)
    if model.dimension > 2:
        raise ValueError("basin scans are supported in one and two dimensions only")
    grid = _lattice(model.domain.lower, model.domain.upper, grid_n, 2)

    eq_locs = np.array([r.location for r in equilibria], dtype=float)
    table = None
    if model.dimension == 1:
        steps = _step_count(t_end, h)
        table = _scalar_traps(model, kind, eq_locs.reshape(-1), match_radius, h, eq_tol, steps)
    traps = None if table is None else (eq_locs[table[0]], *table[1:])
    finals, statuses, _ = integrate_ensemble(model, kind, grid, t_end, h=h, eq_tol=eq_tol, traps=traps)

    labels = np.full(grid.shape[0], DIVERGENT, dtype=int)
    if eq_locs.size:
        # every final state is finite (a row leaves before a non-finite step),
        # so the match runs on all rows and the status picks the ones it labels
        ok = ~np.isin(statuses, (LEFT_DOMAIN, NUMERIC_ERROR))
        dists = np.linalg.norm(finals[:, None, :] - eq_locs[None, :, :], axis=-1)
        labels = np.where(ok & (dists.min(axis=1) <= match_radius), dists.argmin(axis=1), DIVERGENT)
    if table is not None:
        # a trapped row's final state is its entry state, possibly far from x*
        owner, radii, _ = table
        inside = np.abs(finals - eq_locs[owner, 0]) <= radii
        rows, trap = np.nonzero(inside & (statuses == CONVERGED)[:, None])
        labels[rows] = owner[trap]

    return BasinMap(
        grid=grid,
        labels=labels,
        kind=kind,
        t_end=float(t_end),
        match_radius=float(match_radius),
        equilibrium_locations=eq_locs,
        statuses=statuses,
    )


def basin_boundaries(basin_map: BasinMap) -> list[dict]:
    """Label transitions of a one-dimensional basin map.

    Returns one entry per adjacent grid pair with differing labels, with the
    cell midpoint as the boundary estimate (resolution: one grid cell).
    """
    if basin_map.grid.shape[1] != 1:
        raise ValueError("boundary extraction is defined for one-dimensional maps")
    xs = basin_map.grid[:, 0]
    lab = basin_map.labels
    return [
        {"boundary": float(0.5 * (xs[i] + xs[i + 1])),
         "left_label": int(lab[i]), "right_label": int(lab[i + 1])}
        for i in np.nonzero(lab[:-1] != lab[1:])[0]
    ]
