"""Decision-dependent risk models and the two vector fields derived from them.

A model supplies the decoupled risk ``R(x1, x2)`` -- the expected loss of
decision ``x1`` under the data distribution induced by decision ``x2`` --
together with both partial gradients.  The expectation over the induced
distribution is folded into the evaluators in closed form; nothing here
samples.  From these the package derives:

* the risk along the diagonal, ``R(x, x)``;
* the full descent field ``-grad_x1 R(x,x) - grad_x2 R(x,x)``;
* the shift-blind descent field ``-grad_x1 R(x,x)`` used by repeated
  gradient descent;
* their difference, the perturbation ``g(x) = grad_x2 R(x,x)``.

States are 1-D numpy vectors of length ``model.dimension``.  Every
evaluator also accepts stacked ``(..., n)`` batches with the coordinate on
the last axis, so grid scans evaluate the model once per batch.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, fields, is_dataclass
from typing import Callable, ClassVar, Optional

import numpy as np

from .errors import OutOfDomainError
from .shifts import ShiftFunction


@dataclass(frozen=True, eq=False)
class Box:
    """Axis-aligned box; evaluation and flows are confined to its closure."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("box bounds must be 1-D arrays of equal length")
        if not np.all(lo < hi):  # NaN bounds compare False both ways
            raise ValueError("box lower bounds must be strictly below upper bounds")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dimension(self) -> int:
        return self.lower.size

    def contains(self, x) -> bool:
        """True when every listed state lies in the closed box."""
        return bool(self.contains_each(x).all())

    def contains_each(self, states: np.ndarray) -> np.ndarray:
        """Per-row containment for a batch with the coordinate on the last axis."""
        states = np.asarray(states, dtype=float)
        return np.all((states >= self.lower) & (states <= self.upper), axis=-1)


def interval(lo: float, hi: float) -> Box:
    """One-dimensional box."""
    return Box(np.array([float(lo)]), np.array([float(hi)]))


class DecisionDependentModel(abc.ABC):
    """Interface every model implements; evaluators must be pure.

    Each evaluator takes one state ``(n,)`` or a stacked batch ``(..., n)``
    and returns one result per state: a risk of shape ``(...)``, a gradient
    of shape ``(..., n)``.
    """

    dimension: int
    domain: Box

    @abc.abstractmethod
    def decoupled_risk(self, x1, x2):
        """Expected loss of decision x1 under the distribution induced by x2."""

    @abc.abstractmethod
    def grad_x1(self, x1, x2):
        """Gradient of the decoupled risk in its first argument."""

    @abc.abstractmethod
    def grad_x2(self, x1, x2):
        """Gradient of the decoupled risk in its second argument."""


@dataclass(frozen=True, eq=False)
class BernoulliSquaredModel(DecisionDependentModel):
    """Scalar squared-error loss against a 0/1 response with probability p(x2).

    Closed forms (loss ``(z - x)^2 / 2``, response 1 w.p. ``p(x2)``):

    * ``R(x1, x2)  = (x1^2 + p(x2) * (1 - 2*x1)) / 2``
    * ``dR/dx1     = x1 - p(x2)``
    * ``dR/dx2     = (1 - 2*x1) * p'(x2) / 2``
    """

    shift: ShiftFunction
    domain: Box = None
    dimension: ClassVar[int] = 1

    def __post_init__(self):
        if self.domain is None:
            object.__setattr__(self, "domain", interval(-0.5, 1.5))
        elif not isinstance(self.domain, Box):
            lo, hi = self.domain
            object.__setattr__(self, "domain", interval(lo, hi))
        if self.domain.dimension != 1:
            raise ValueError("this model is one-dimensional")

    def decoupled_risk(self, x1, x2):
        a = np.asarray(x1, dtype=float)[..., 0]
        b = np.asarray(x2, dtype=float)[..., 0]
        p = self.shift.value(b)
        return 0.5 * (a * a + p * (1.0 - 2.0 * a))

    def grad_x1(self, x1, x2):
        # load-bearing: the slice makes one (1,) state 0-d, so bump_phi takes math.exp, as the float field does
        a = np.asarray(x1, dtype=float)[..., 0]
        b = np.asarray(x2, dtype=float)[..., 0]
        return np.asarray(a - self.shift.value(b))[..., np.newaxis]

    def grad_x2(self, x1, x2):
        a = np.asarray(x1, dtype=float)[..., 0]
        b = np.asarray(x2, dtype=float)[..., 0]
        return np.asarray(0.5 * (1.0 - 2.0 * a) * self.shift.derivative(b))[..., np.newaxis]


def _each_row(fn, x1, x2, tail):
    """Apply a per-state callable to one state, or to each row of a batch.

    A gradient (non-empty ``tail``) comes back as a float array either way.
    """
    x1, x2 = np.broadcast_arrays(np.asarray(x1, dtype=float), np.asarray(x2, dtype=float))
    if x1.ndim == 1:
        return np.asarray(fn(x1, x2), dtype=float) if tail else fn(x1, x2)
    n = x1.shape[-1]
    rows = [fn(a, b) for a, b in zip(x1.reshape(-1, n), x2.reshape(-1, n))]
    return np.array(rows, dtype=float).reshape(x1.shape[:-1] + tail)


@dataclass(frozen=True, eq=False)
class CallableModel(DecisionDependentModel):
    """Model built from plain callables: the risk and both partial gradients.

    Handy for tests and ad-hoc experiments.  ``risk(x1, x2)`` must return a
    scalar, ``grad1`` and ``grad2`` length-n vectors; all three are required.
    For a risk without closed-form gradients, pass finite differences
    explicitly, e.g. ``grad1=lambda y, x: finite_diff_gradient(lambda z: risk(z, x), y)``.
    The callables see one state at a time: batches are evaluated row by row.
    """

    dimension: int
    domain: Box
    risk: Callable
    grad1: Callable
    grad2: Callable

    def decoupled_risk(self, x1, x2):
        return _each_row(self.risk, x1, x2, ())

    def grad_x1(self, x1, x2):
        return _each_row(self.grad1, x1, x2, (self.dimension,))

    def grad_x2(self, x1, x2):
        return _each_row(self.grad2, x1, x2, (self.dimension,))


@dataclass(frozen=True)
class SmoothnessConstants:
    """Loss/shift regularity constants feeding the analytic bound formulas.

    All entries are optional nonnegative reals; each bound formula checks for
    the ones it needs.

    loss_lipschitz:        Lipschitz constant of the loss in the data argument.
    shift_quadratic_bound: transport-distance growth bound, quadratic in the
                           distance from the reference minimizer.
    strong_convexity:      strong-convexity modulus of the loss in the decision.
    smoothness:            gradient-Lipschitz constant of the loss in the decision.
    grad_data_lipschitz:   Lipschitz constant of the decision-gradient in the data.
    sensitivity:           Lipschitz bound on the distribution map in transport
                           distance (see :func:`sensitivity_estimate`).
    """

    loss_lipschitz: Optional[float] = None
    shift_quadratic_bound: Optional[float] = None
    strong_convexity: Optional[float] = None
    smoothness: Optional[float] = None
    grad_data_lipschitz: Optional[float] = None
    sensitivity: Optional[float] = None

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            v = getattr(self, name)
            if v is not None and v < 0:
                raise ValueError(f"{name} must be nonnegative, got {v}")
        if self.strong_convexity is not None and self.smoothness is not None:
            if self.strong_convexity > self.smoothness:
                raise ValueError("strong convexity cannot exceed smoothness")


def _record_document(record) -> dict:
    """JSON document of a result record: one key per dataclass field, by name.

    Arrays become lists, numpy scalars Python numbers, label frozensets
    sorted lists, and a nested record its own ``to_dict()``.
    """
    def value(v):
        if isinstance(v, (np.ndarray, np.generic)):
            return v.tolist()
        if isinstance(v, frozenset):
            return sorted(v)
        return v.to_dict() if is_dataclass(v) else v

    return {f.name: value(getattr(record, f.name)) for f in fields(record)}


def _lattice(lo, hi, grid_n: int, min_per_axis: int) -> np.ndarray:
    """Points of the box ``[lo, hi]`` as an ``(m, n)`` lattice, axes in ``ij`` order.

    One axis is exactly ``linspace(lo, hi, grid_n)``; in ``n`` dimensions each
    axis gets ``max(min_per_axis, round(grid_n ** (1 / n)))`` points.
    """
    n = len(lo)
    per_axis = int(grid_n) if n == 1 else max(min_per_axis, int(round(grid_n ** (1.0 / n))))
    axes = [np.linspace(lo[i], hi[i], per_axis) for i in range(n)]
    return np.stack(np.meshgrid(*axes, indexing="ij", copy=False), axis=-1).reshape(-1, n)


def _check_domain(model: DecisionDependentModel, x) -> np.ndarray:
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape[-1] != model.dimension:
        raise ValueError(f"expected {model.dimension}-vector states, got shape {x.shape}")
    outside = ~model.domain.contains_each(x)
    if outside.any():
        # name the first offending state, not a whole batch
        raise OutOfDomainError(x[outside][0] if x.ndim > 1 else x, model.domain)
    return x


def _check_state(model: DecisionDependentModel, x, name: str) -> np.ndarray:
    """``x`` as one state of ``model``: a float vector of shape ``(n,)`` in the domain.

    A bare number is one state when ``n = 1``.  Any other shape, a batch
    included, raises :class:`ValueError` naming the argument ``name``.
    """
    x = np.atleast_1d(np.array(x, dtype=float))
    if x.shape != (model.dimension,):
        raise ValueError(f"{name} must be one state of shape ({model.dimension},), got shape {x.shape}")
    return _check_domain(model, x)


def performative_risk(model: DecisionDependentModel, x):
    """Risk along the diagonal: the expected loss of deploying x against its own shift."""
    x = _check_domain(model, x)
    return model.decoupled_risk(x, x)


def prm_vector_field(model: DecisionDependentModel, x):
    """Full descent field: minus the total gradient of the diagonal risk."""
    x = _check_domain(model, x)
    return -model.grad_x1(x, x) - model.grad_x2(x, x)


def rgd_vector_field(model: DecisionDependentModel, x):
    """Shift-blind descent field: minus the first-argument gradient only."""
    x = _check_domain(model, x)
    return -model.grad_x1(x, x)


def performative_perturbation(model: DecisionDependentModel, x):
    """Difference between the two fields: ``g(x) = grad_x2 R(x, x)``."""
    x = _check_domain(model, x)
    return model.grad_x2(x, x)


def wasserstein1_bernoulli(p: float, q: float) -> float:
    """Exact 1-Wasserstein distance between Bernoulli(p) and Bernoulli(q) on {0, 1}.

    Mass ``|p - q|`` moves over unit distance, so the transport cost is ``|p - q|``.
    """
    if not 0.0 <= p <= 1.0 or not 0.0 <= q <= 1.0:
        raise ValueError(f"probabilities must lie in [0, 1], got ({p}, {q})")
    return abs(float(p) - float(q))


def sensitivity_estimate(shift: ShiftFunction, interval, grid_n: int) -> float:
    """Tightest transport-Lipschitz constant of a Bernoulli shift on an interval.

    For two-point distributions the transport distance between ``p(x)`` and
    ``p(y)`` is ``|p(x) - p(y)|``, so by the mean value theorem the sharp
    constant is ``sup |p'|``; this returns the grid maximum of ``|p'|``.
    """
    if grid_n < 2:
        raise ValueError(f"grid must have at least 2 points, got {grid_n}")
    lo, hi = float(interval[0]), float(interval[1])
    xs = np.linspace(lo, hi, int(grid_n))
    return float(np.max(np.abs(shift.derivative(xs))))
