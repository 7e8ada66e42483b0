"""Equilibrium location, second-order classification, and basin mapping.

An equilibrium of either flow is a zero of its vector field.  Scalar models
are handled by refining each zero site of the field on a lattice, the sites
the basin scan's sign chart checks too; higher dimensions fall back to damped
Newton iterations from lattice seeds with finite-difference Jacobians.

Classification: each flow whose field vanishes at the point adds one label,
by the verdict of its second-order check.  A verdict is +1 when every
eigenvalue lies above ``_HESSIAN_TOL``, -1 when one lies below
``-_HESSIAN_TOL``, and 0 otherwise or when one is NaN::

    flow  verdict                                +1                     -1        0
    prm   the PR Hessian's                       prm-minimizer          unstable  inconclusive
    rgd   the lower of the rgd Jacobian's and    performatively-stable  unstable  inconclusive
          the decision Hessian's

The PR Hessian is that of the diagonal risk ``x -> R(x, x)``, the rgd
Jacobian that of the composed map ``x -> grad_x1 R(x, x)``, and the decision
Hessian that of ``y -> R(y, x)``.  A ``prm-minimizer`` is performatively
optimal.  ``performatively-stable`` asks for attraction as well: the
basin-boundary crossing of the built-in example minimizes ``y -> R(y, x)``
pointwise yet repels the flow, and labeling it stable would contradict every
simulation.  ``inconclusive`` means that no check decided; nothing is
guessed.

All three second-order objects are central-difference Jacobians of the
model's own gradients (the two Hessians symmetrised); no risk is
differentiated twice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .config import PRM_FLOW, RGD_FLOW, _step_count
from .errors import NotAnEquilibriumError
from .flows import CONVERGED, LEFT_DOMAIN, NUMERIC_ERROR, integrate_ensemble
from .flows import _field_function, _one_state
from .model import DecisionDependentModel, _check_state, _lattice, _record_document
from .numerics import _bisect, _golden, finite_diff_jacobian

PRM_MINIMIZER = "prm-minimizer"
PERFORMATIVELY_STABLE = "performatively-stable"
UNSTABLE = "unstable"
INCONCLUSIVE = "inconclusive"

DIVERGENT = -1  # basin label for points that match no equilibrium
MIN_ROOT_GRID = 3  # the fewest grid points find_equilibria accepts
# find_equilibria classifies with tol max(_CLASSIFY_TOL, 10 * |residual|); the other flow's
# field must be within min(tol, _CLASSIFY_TOL) for its labels
_CLASSIFY_TOL = 1e-8
_HESSIAN_TOL = 1e-6  # eigenvalues within this of zero are degenerate


@dataclass(frozen=True, eq=False)
class EquilibriumReport:
    """A refined root of a vector field with its second-order diagnosis.

    Eigenvalue arrays are present only for the checks that applied (None
    otherwise): the diagonal-risk Hessian (the Jacobian of the total
    gradient) when the total gradient vanishes, the decision Hessian (the
    Jacobian of ``y -> grad_x1 R(y, x)``) and composed-field Jacobian when
    the first-argument gradient vanishes on the diagonal.
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
    points that reach none within ``match_radius`` (or that leave the
    domain).  ``t_end`` is the horizon as passed; only an integrated scan
    runs to it.
    """

    grid: np.ndarray
    labels: np.ndarray
    kind: str
    t_end: float
    match_radius: float
    equilibrium_locations: np.ndarray
    statuses: np.ndarray


# A 1x1 matrix is its own eigenvalue, so only n > 1 calls LAPACK: a scalar run
# that never calls it peaks 0.3-0.6 MB lower.  The entry is exact; LAPACK's
# scaling moves the last bit of entries above about 1e138 or below 1e-142.
def _eigvals_sym(h: np.ndarray) -> np.ndarray:
    h = 0.5 * (h + h.T)
    return h.reshape(1) if h.shape == (1, 1) else np.linalg.eigvalsh(h)


def _eigvals(a: np.ndarray) -> np.ndarray:
    """Real parts of ``np.linalg.eigvals(a)`` in ascending order, as ``_eigvals_sym`` gives its eigenvalues.

    A non-finite entry raises :class:`numpy.linalg.LinAlgError`.  A 1x1
    matrix calls neither LAPACK nor ``np.sort``, whose first call maps about
    0.26 MB.
    """
    if a.shape != (1, 1):
        return np.sort(np.linalg.eigvals(a).real)
    if not np.isfinite(a[0, 0]):
        raise np.linalg.LinAlgError("Array must not contain infs or NaNs")
    return a.reshape(1)


def _verdict(eigs: np.ndarray) -> int:
    """+1, -1 or 0 by the rule of the module docstring."""
    low = eigs.min()  # NaN when one is NaN: neither comparison holds
    return 1 if low > _HESSIAN_TOL else -1 if low < -_HESSIAN_TOL else 0


def classify_equilibrium(
    model: DecisionDependentModel,
    x,
    tol: float,
    field_kind: str,
) -> EquilibriumReport:
    """Second-order classification of a point where at least one field vanishes.

    The report carries ``field_kind``'s flow, ``rgd`` or ``prm``, and its
    field residual.  The labels come from ``field_kind``'s field when its
    residual is within ``tol``, and from the other flow's field when its
    residual is within ``min(tol, _CLASSIFY_TOL)``.  Any other kind,
    ``discrete-rgd`` included, raises :class:`ValueError`, and
    :class:`NotAnEquilibriumError` is raised when neither field qualifies.
    Each qualifying flow adds the one label of its verdict (module docstring).
    """
    if field_kind not in (RGD_FLOW, PRM_FLOW):
        raise ValueError(f"{field_kind!r} is not a continuous flow")
    x = _check_state(model, x, "x")
    g1 = np.asarray(model.grad_x1(x, x), dtype=float)
    total = g1 + np.asarray(model.grad_x2(x, x), dtype=float)
    prm_residual = float(np.linalg.norm(total))
    rgd_residual = float(np.linalg.norm(g1))
    other_tol = min(tol, _CLASSIFY_TOL)
    is_prm = prm_residual <= (tol if field_kind == PRM_FLOW else other_tol)
    is_rgd = rgd_residual <= (tol if field_kind == RGD_FLOW else other_tol)
    if not (is_prm or is_rgd):
        raise NotAnEquilibriumError(
            f"no field vanishes at {x.tolist()}: "
            f"|total grad| = {prm_residual:.3g}, |first-arg grad| = {rgd_residual:.3g} > tol = {tol:.3g} "
            f"({field_kind}), {other_tol:.3g} (other field)"
        )

    labels = set()
    pr_eigs = stab_eigs = jac_eigs = None
    if is_prm:
        pr_eigs = _eigvals_sym(finite_diff_jacobian(lambda y: model.grad_x1(y, y) + model.grad_x2(y, y), x))
        labels.add((INCONCLUSIVE, PRM_MINIMIZER, UNSTABLE)[_verdict(pr_eigs)])  # by verdict 0, +1, -1
    if is_rgd:
        stab_eigs = _eigvals_sym(finite_diff_jacobian(lambda y: model.grad_x1(y, x), x))
        jac_eigs = _eigvals(finite_diff_jacobian(lambda z: model.grad_x1(z, z), x))
        labels.add((INCONCLUSIVE, PERFORMATIVELY_STABLE, UNSTABLE)[min(_verdict(jac_eigs), _verdict(stab_eigs))])

    return EquilibriumReport(
        location=x.copy(),
        field_kind=field_kind,
        residual=prm_residual if field_kind == PRM_FLOW else rgd_residual,
        labels=frozenset(labels),
        pr_hessian_eigenvalues=pr_eigs,
        stability_hessian_eigenvalues=stab_eigs,
        rgd_jacobian_eigenvalues=jac_eigs,
    )


def _zero_sites(fv, tol, flat=None):
    """Index spans ``(k, j)`` of the zeros the lattice field ``fv`` shows, in lattice order.

    A site is a point with ``|f| <= tol``, ``(k, k)``: each point where
    ``f`` is exactly 0, for a row stops there, and one per run of adjacent
    points with ``0 < |f| <= tol``, at its smallest ``|f|`` (a flat zero
    such as ``(x - 0.3)^5`` stays within 1e-10 over 20 points of a
    2001-point lattice, none of them exactly 0).  A run of one sign beside
    an exact zero ``z`` is that zero's, not a site of its own, when
    ``flat(z, i)`` holds for the run's point ``i`` next to it: ``-x^5`` is
    one zero, while ``-x (x - 0.001)``, at any scale, keeps the run at
    0.001, and a run with a sign change stays a site.  So at ``tol = 0``,
    where there are no runs and no ``flat`` is needed, every point with
    ``f == 0`` is a site.  A cell
    whose ends have strict opposite signs and are no such points is a site
    ``(k, k + 1)``; a dip is a site ``(k - 1, k + 1)`` clipped to the
    lattice: a lattice minimum of ``|f|`` between two cells of one strict
    sign, no larger than the field's second difference there (one-sided at
    the ends).  A double root between lattice points leaves a dip of at most
    an eighth of that difference, so rounding cannot hide it, while a
    minimum the lattice resolves from zero is no dip.
    """
    n, size = fv.size, np.abs(fv)
    point, same = size <= tol, fv[:-1] * fv[1:] > 0
    # a lattice minimum of |f| between cells of one strict sign; an end point has one cell, taken twice
    low = np.concatenate([same[:1], same & (size[1:] <= size[:-1])])
    low &= np.concatenate([same & (size[:-1] <= size[1:]), same[-1:]])
    near = point & (fv != 0)
    runs = np.flatnonzero(np.diff(np.concatenate([[0], near, [0]]))).tolist()  # starts and ends, alternating
    sites = [(k, k) for k in np.flatnonzero(fv == 0)]
    # the runs [k, m), less those of one sign that an exact zero z beside them is flat into
    spans = [(k, m) for k, m in zip(runs[::2], runs[1::2]) if abs(np.sign(fv[k:m]).sum()) < m - k
             or not any(0 <= z < n and fv[z] == 0 and flat(z, i) for z, i in ((k - 1, k), (m, m - 1)))]
    sites += [(i, i) for i in (k + int(np.argmin(size[k:m])) for k, m in spans)]
    sites += [(k, k + 1) for k in np.flatnonzero((fv[:-1] * fv[1:] < 0) & ~point[:-1] & ~point[1:])]
    for k in np.flatnonzero(low & ~point):
        i = min(max(k, 1), n - 2)  # the second difference, one-sided at the ends
        if size[k] <= abs(np.diff(fv[i - 1:i + 2], 2)[0]):
            sites.append((max(k - 1, 0), min(k + 1, n - 1)))
    return sorted(sites, key=sum)  # by k + j; no numpy sort kernel is loaded


def _dedup(hits, min_separation):
    kept, near = [], []  # near: the kept roots within min_separation below the hit in the first coordinate
    # the hits that are not None, as (point, residual), in Python's stable sort: ties
    # keep input order, and no numpy sort kernel is loaded
    for p, r in sorted(((np.atleast_1d(h[0]), h[1]) for h in hits if h is not None), key=lambda h: h[0][0]):
        # a root farther below is farther than min_separation from this hit and every later one
        near = [j for j in near if p[0] - kept[j][0][0] <= min_separation]
        for j in near:
            if np.linalg.norm(p - kept[j][0]) <= min_separation:
                if abs(r) < abs(kept[j][1]):
                    kept[j] = p, r
                break
        else:
            near.append(len(kept))
            kept.append((p, r))
    return kept


def _newton_root(field, x0, residual_tol, box):
    x = x0.copy()
    fx = np.asarray(field(x), dtype=float)
    for _ in range(100):
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
) -> list[EquilibriumReport]:
    """Locate and classify all zeros of a flow's field resolvable on the grid.

    Scalar models: refine each site of ``_zero_sites`` on ``grid_n`` samples
    of the field over the domain interval once, an exact lattice zero being
    flat into the run beside it when the field midway to the run's first
    point has that point's sign and no larger size: the field of a flat zero
    grows away from it, while a second zero one step on turns or lifts it
    mid-cell, whatever the field's scale.  A point is kept, a sign-change cell bisected until
    the residual drops to ``refine_tol``, and a dip reported if its
    golden-section minimum of ``|f|`` is within ``refine_tol``.  Higher
    dimensions: damped Newton from every lattice seed.  Roots closer than
    ``10 * refine_tol`` are merged.  An empty list simply means no zero was
    resolved.
    """
    if grid_n < MIN_ROOT_GRID:
        raise ValueError(f"grid must have at least {MIN_ROOT_GRID} points")
    field = _field_function(model, field_kind)
    lo, hi = model.domain.lower, model.domain.upper

    if model.dimension == 1:
        xs = np.linspace(lo[0], hi[0], int(grid_n))
        fv = np.asarray(field(xs[:, None]), dtype=float)[:, 0]

        def f_scalar(v):
            return float(np.ravel(field(_one_state(model, v)))[0])

        def flat(z, i):  # mid-cell from the exact zero xs[z], the field has fv[i]'s sign and no larger size
            mid = f_scalar(0.5 * xs[z] + 0.5 * xs[i])
            return np.sign(mid) == np.sign(fv[i]) and abs(mid) <= abs(fv[i])

        hits = [
            (xs[k], fv[k]) if k == j
            else _bisect(f_scalar, xs[k], xs[j], fv[k], refine_tol) if fv[k] * fv[j] < 0
            else _golden(f_scalar, xs[k], xs[j], refine_tol)
            for k, j in _zero_sites(fv, refine_tol, flat)
        ]
    else:
        hits = [_newton_root(field, seed, refine_tol, model.domain) for seed in _lattice(lo, hi, grid_n, 3)]
    return [
        classify_equilibrium(model, p, tol=max(_CLASSIFY_TOL, 10.0 * abs(r)), field_kind=field_kind)
        for p, r in _dedup(hits, 10.0 * refine_tol)
    ]


def _sign_chart(xs, fv, roots, match_radius, eq_tol):
    """Labels and statuses of a scalar scan from the sign of its field, or None.

    ``fv`` is the field on the lattice ``xs``.  A 1-D flow is monotone, so a
    start goes to the nearest root of ``roots`` lying in ``[xs[0], xs[-1]]``
    in the direction of ``sign(f)``; with none there it leaves through that
    edge (label ``-1``, ``left-domain``).  A start at rest,
    ``sqrt(f * f) <= eq_tol``, takes the nearest of those roots within
    ``match_radius``, or ``-1``.  Every start that does not leave is
    ``converged-to-equilibrium``: the labels are the flow's limits.

    The rule reads only root locations and the field's sign, so it holds only
    if the roots are all the zeros a row can stop at.  It returns None, for
    the caller to integrate instead, unless the lattice accounts for them:
    it has at least ``MIN_ROOT_GRID`` points, the field is finite on all of
    them (a row would stop where it is not), and the span of every site of
    ``_zero_sites(fv, 0.0)`` holds one of ``roots``.

    Each question is a bisection into the ascending list of those roots: a
    start with ``f > 0`` takes the first root strictly above it and one with
    ``f < 0`` the last strictly below; a start at rest takes the nearer of
    its two neighbours in the list, the lower on a tie (among equal roots,
    the first); a site ``(k, j)`` holds a root when the first root at or
    above ``xs[k]`` is at most ``xs[j]``.
    """
    n = xs.size
    if n < MIN_ROOT_GRID or not np.isfinite(fv).all():
        return None
    # Python's sorted: no numpy sort kernel is loaded
    order = sorted((i for i in range(roots.size) if xs[0] <= roots[i] <= xs[-1]), key=roots.__getitem__)
    at = roots[order]
    below, upto = np.searchsorted(at, xs, "left"), np.searchsorted(at, xs, "right")  # roots < xs[k], <= xs[k]
    if not all(below[k] < at.size and at[below[k]] <= xs[j] for k, j in _zero_sites(fv, 0.0)):
        return None

    owner = np.array(order + [DIVERGENT])  # its last entry serves the index at.size and -1: no root there
    labels = np.where(fv > 0, owner[upto], np.where(fv < 0, owner[below - 1], DIVERGENT))
    rest = np.sqrt(fv * fv) <= eq_tol  # np.linalg.norm's arithmetic
    for k in np.flatnonzero(rest).tolist():
        # the nearer neighbour, the lower on a tie, labelled by the first root at its location
        r = min(at[max(below[k] - 1, 0):below[k] + 1].tolist(), key=lambda r: abs(xs[k] - r), default=None)
        labels[k] = DIVERGENT if r is None or abs(xs[k] - r) > match_radius else order[np.searchsorted(at, r)]
    statuses = np.full(n, LEFT_DOMAIN, dtype=object)
    statuses[rest | (labels != DIVERGENT)] = CONVERGED
    return labels, statuses


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

    A scalar model gets its labels and statuses from the sign chart of its
    field, :func:`_sign_chart`: one field evaluation on the lattice and the
    locations of ``equilibria``.  They are the flow's limits, so ``t_end``
    and ``h`` do not move them.  Where the lattice does not vouch for the
    chart (a zero site without a passed root), and for two-dimensional
    models, every grid point is integrated to ``t_end`` in one vectorized
    ensemble.  The final state is matched to the nearest known equilibrium
    within ``match_radius``; anything unmatched, including domain exits,
    gets the divergence label ``-1`` rather than spawning a new equilibrium.
    """
    if grid_n < 2:
        raise ValueError("grid must have at least 2 points")
    if model.dimension > 2:
        raise ValueError("basin scans are supported in one and two dimensions only")
    _step_count(t_end, h)  # the horizon is checked whichever path runs
    grid = _lattice(model.domain.lower, model.domain.upper, grid_n, 2)
    eq_locs = np.array([r.location for r in equilibria], dtype=float)

    chart = None
    if model.dimension == 1:
        fv = np.asarray(_field_function(model, field_kind)(grid), dtype=float)[:, 0]
        chart = _sign_chart(grid[:, 0], fv, eq_locs.reshape(-1), match_radius, eq_tol)
    if chart is not None:
        labels, statuses = chart
    else:
        finals, statuses, _ = integrate_ensemble(model, field_kind, grid, t_end, h=h, eq_tol=eq_tol)
        labels = np.full(grid.shape[0], DIVERGENT, dtype=int)
        if eq_locs.size:
            # every final state is finite (a row leaves before a non-finite step),
            # so the match runs on all rows and the status picks the ones it labels
            ok = (statuses != LEFT_DOMAIN) & (statuses != NUMERIC_ERROR)
            dists = np.linalg.norm(finals[:, None, :] - eq_locs[None, :, :], axis=-1)
            labels = np.where(ok & (dists.min(axis=1) <= match_radius), dists.argmin(axis=1), DIVERGENT)

    return BasinMap(
        grid=grid,
        labels=labels,
        kind=field_kind,
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
