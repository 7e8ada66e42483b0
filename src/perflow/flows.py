"""Continuous-flow integration and the discrete stochastic descent recursion.

Two ordinary differential equations are integrated with a fixed-step
classical Runge-Kutta scheme: the full descent flow of the diagonal risk and
the shift-blind flow that repeated gradient descent follows.  The discrete
recursion ``x_{k+1} = x_k - alpha_k * (grad_x1 R(x_k, x_k) + eta_k)`` is run
exactly as written, with the noise term drawn from a seeded, per-run
generator.

Fixed stepping keeps trajectories bit-reproducible; the fields handled here
are cheap, smooth, and low-dimensional, so adaptivity buys nothing.

The single-state runs, :func:`integrate_flow`, :func:`discrete_rgd` and
:func:`lyapunov_derivative`, take one state as ``model._check_state``
defines it: an ``(n,)`` vector in the domain, or a bare number when
``n = 1``; a batch raises :class:`ValueError`.  Every run takes its field
from ``_field_function``: for a :class:`BernoulliSquaredModel` the closed
form of its gradients, which takes a Python float and a batch alike, and
for any other model the model's gradients on arrays.  ``_one_state`` alone
decides when a run is on floats: it turns the start of a scalar
:class:`BernoulliSquaredModel` into a Python float, because numpy's cost
per call on a one-element array would be most of the loops' time.  The
float arithmetic is the array path's, operation for operation, so the
numbers are the same bit for bit.  The flow kinds and the noise and
schedule specs belong to :mod:`perflow.config`, which parses them without
numpy; this module re-exports them.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .config import DISCRETE_RGD, PRM_FLOW, RGD_FLOW, NoiseSpec, StepSchedule  # re-exported
from .config import _step_count
from .errors import NumericIntegrationError
from .model import BernoulliSquaredModel, DecisionDependentModel, _check_domain, _check_state

CONVERGED = "converged-to-equilibrium"
MAX_TIME = "max-time"
LEFT_DOMAIN = "left-domain"
NUMERIC_ERROR = "numeric-error"  # ensemble-only, recorded per point


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Time-stamped states of one flow solution or discrete run.

    ``times`` are strictly increasing (integer iteration indices for the
    discrete recursion).  All states lie in the domain box except possibly
    the final one when ``terminal_status == "left-domain"``.
    """

    kind: str
    times: np.ndarray
    states: np.ndarray
    terminal_status: str

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    @property
    def final_time(self) -> float:
        return float(self.times[-1])


def _field_function(model: DecisionDependentModel, kind: str):
    """The field of the continuous flow ``kind``: rgd ``-grad_x1``, prm ``-(grad_x1 + grad_x2)``.

    A :class:`BernoulliSquaredModel` gets the closed forms of ``grad_x1``
    and ``grad_x2`` in their order of operations: rgd ``-(x - p(x))``, prm
    ``-((x - p(x)) + 0.5 * (1 - 2x) * p'(x))``.  They take a Python float
    from ``_one_state`` or an ``(..., 1)`` batch alike, and each value
    equals the model's gradients bit for bit (for a float, those of the
    one-element state).
    """
    if kind not in (RGD_FLOW, PRM_FLOW):
        raise ValueError(f"{kind!r} is not a continuous flow")
    if isinstance(model, BernoulliSquaredModel):
        p, dp = model.shift.value, model.shift.derivative
        if kind == RGD_FLOW:
            return lambda x: -(x - p(x))
        return lambda x: -((x - p(x)) + 0.5 * (1.0 - 2.0 * x) * dp(x))
    if kind == RGD_FLOW:
        return lambda x: -model.grad_x1(x, x)
    return lambda x: -(model.grad_x1(x, x) + model.grad_x2(x, x))


def _one_state(model: DecisionDependentModel, x, name: str = "x0"):
    """``x`` as the state of a single-state run; an error names it ``name``.

    A Python float for a :class:`BernoulliSquaredModel` (always scalar):
    numpy's cost per call on a one-element array would be nearly all of the
    loops' time.  An ``(n,)`` array for any other model.
    """
    x = _check_state(model, x, name)
    return float(x[0]) if isinstance(model, BernoulliSquaredModel) else x


def _float_norm(f: float) -> float:
    """``np.linalg.norm([f])`` on a float: ``sqrt(f * f)``, not ``abs(f)``.

    The two differ only where ``f * f`` underflows or overflows, but there
    they decide convergence differently: at ``eq_tol = 0`` a field of 1e-170
    has norm 0.
    """
    return math.sqrt(f * f)


def _rk4_step(field, x, k1, h):
    """One classical Runge-Kutta step from ``x``, given ``k1 = field(x)``.

    ``x`` is a float or an array; the arithmetic is the same for both.
    """
    k2 = field(x + 0.5 * h * k1)
    k3 = field(x + 0.5 * h * k2)
    k4 = field(x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _record_stride(h: float) -> int:
    # bounds trajectory memory: one sample per ~0.1 time units
    return max(1, math.ceil(1.0 / (10.0 * h)))


def integrate_flow(
    model: DecisionDependentModel,
    kind: str,
    x0,
    t_end: float,
    h: float = 0.01,
    eq_tol: float = 1e-9,
) -> Trajectory:
    """Fixed-step fourth-order Runge-Kutta solution of the chosen flow.

    Stops early with status ``converged-to-equilibrium`` once the field norm
    drops to ``eq_tol``, or with ``left-domain`` when a step exits the domain
    box (the exiting state is kept as the final sample).  States are recorded
    every ``ceil(1/(10 h))`` steps plus always at the endpoint.

    ``x0`` is one state (``model._check_state``).  For a scalar
    :class:`BernoulliSquaredModel` the loop runs on Python floats with the
    closed-form field; any other model runs the same loop on arrays through
    ``grad_x1`` and ``grad_x2``.  Both paths do the same arithmetic in the
    same order, so they give the same trajectory bit for bit.
    """
    steps = _step_count(t_end, h)
    x = _one_state(model, x0)
    floats = isinstance(x, float)
    field = _field_function(model, kind)
    if floats:
        lo, hi = float(model.domain.lower[0]), float(model.domain.upper[0])
        finite, norm = math.isfinite, _float_norm
        inside = lambda y: lo <= y <= hi
    else:
        finite = lambda v: np.isfinite(v).all()
        norm = np.linalg.norm
        inside = model.domain.contains
    stride = _record_stride(h)

    # x is never changed in place, so a recorded state needs no copy
    times = [0.0]
    states = [x]
    status, end = MAX_TIME, steps

    for k in range(steps):
        fx = field(x)
        if not finite(fx):
            raise _numeric_error("non-finite field value at state", x)
        if norm(fx) <= eq_tol:
            status, end = CONVERGED, k
            break
        x_new = _rk4_step(field, x, fx, h)
        if not finite(x_new):
            raise _numeric_error("non-finite state after step from", x)
        x = x_new
        if not inside(x):
            status, end = LEFT_DOMAIN, k + 1
            break
        if (k + 1) % stride == 0:
            times.append((k + 1) * h)
            states.append(x)
    # the stopping state, unless its step was already recorded
    if times[-1] != end * h:
        times.append(end * h)
        states.append(x)

    return Trajectory(
        kind=kind,
        times=np.asarray(times),
        states=np.array(states, dtype=float).reshape(len(states), -1),
        terminal_status=status,
    )


def _numeric_error(what: str, x) -> NumericIntegrationError:
    state = np.array(x, dtype=float).reshape(-1)
    return NumericIntegrationError(f"{what} {state.tolist()}", state=state)


def integrate_ensemble(
    model: DecisionDependentModel,
    kind: str,
    x0s,
    t_end: float,
    h: float = 0.01,
    eq_tol: float = 1e-9,
    record: bool = False,
):
    """Integrate many initial conditions at once.

    ``x0s`` is an ``(m, n)`` batch of starts; an ``(n,)`` vector, or a bare
    number when ``n = 1``, is a batch of one.  The ensemble advances through
    vectorized Runge-Kutta steps over a batch of the rows that still move.
    A row that stops (converged, exited, or non-finite) leaves the
    batch in the step it stops, with its status and final state, so no
    later evaluation carries it.  Every row's arithmetic is elementwise, so
    its result does not depend on which other rows share the batch: it
    equals integrating that row alone.

    Returns ``(final_states, statuses, recording)`` where ``recording`` is
    ``(times, states[k, m, n])`` when requested, else None.  Per-point
    failures are recorded as status ``numeric-error``, not raised.
    """
    steps = _step_count(t_end, h)
    x = np.atleast_2d(np.asarray(x0s, dtype=float))
    if x.ndim > 2:
        raise ValueError(f"x0s must be a batch of shape (m, {model.dimension}), got shape {x.shape}")
    x = _check_domain(model, x).copy()
    field = _field_function(model, kind)
    m = x.shape[0]
    statuses = np.full(m, MAX_TIME, dtype=object)
    stride = _record_stride(h)
    rec_times, rec_states = [0.0], [x.copy()]
    rows = np.arange(m)  # rows of ``x`` in the batch ``xb``, which holds only live rows
    xb = x

    def leave(stopped, status, final, *batch):
        # batch rows ``stopped`` leave with ``status`` and their final state in ``final``
        if not stopped.any():
            return rows, *batch
        statuses[rows[stopped]] = status
        x[rows[stopped]] = final[stopped]
        stay = ~stopped
        return rows[stay], *(b[stay] for b in batch)

    for k in range(steps):
        if not rows.size:
            break
        fx = np.asarray(field(xb), dtype=float)
        rows, xb, fx = leave(~np.isfinite(fx).all(axis=-1), NUMERIC_ERROR, xb, xb, fx)
        # np.linalg.norm's arithmetic
        done = np.sqrt(np.add.reduce(fx * fx, axis=-1)) <= eq_tol
        rows, xb, fx = leave(done, CONVERGED, xb, xb, fx)
        if not rows.size:
            break
        x_new = _rk4_step(field, xb, fx, h)
        rows, x_new = leave(~np.isfinite(x_new).all(axis=-1), NUMERIC_ERROR, xb, x_new)
        # an exiting row keeps its exiting state as the final sample
        rows, xb = leave(~model.domain.contains_each(x_new), LEFT_DOMAIN, x_new, x_new)
        if record and (k + 1) % stride == 0:
            x[rows] = xb
            rec_times.append((k + 1) * h)
            rec_states.append(x.copy())

    x[rows] = xb
    if record and rec_times[-1] != steps * h:
        rec_times.append(steps * h)
        rec_states.append(x.copy())
    recording = (np.asarray(rec_times), np.stack(rec_states)) if record else None
    return x, statuses, recording


def discrete_rgd(
    model: DecisionDependentModel,
    x0,
    num_steps: int,
    schedule: StepSchedule,
    noise: NoiseSpec,
) -> Trajectory:
    """Run ``x_{k+1} = x_k - alpha_k * (grad_x1 R(x_k, x_k) + eta_k)`` exactly.

    With noise mode ``none`` and a constant step equal to ``h`` this is
    forward Euler on the shift-blind flow.  All iterates are recorded; if an
    iterate exits the domain box (or turns NaN) the trajectory is truncated
    there with status ``left-domain``.  Identical seeds give bitwise-identical
    runs.

    ``x0`` is one state (``model._check_state``).  One loop runs every
    model: on Python floats for a scalar :class:`BernoulliSquaredModel`,
    whose start ``_one_state`` makes a float, and on arrays for any other.
    It steps ``x + alpha * (f(x) - eta)`` with the rgd field ``f`` that
    :func:`integrate_flow` uses, bit for bit the recursion above because
    IEEE negation is exact.  Gaussian noise is drawn up front in one call,
    the same stream as per-step draws.  Floats and arrays differ only in the
    shape of that draw, in how a state is recorded and in the domain test.
    ``bernoulli-sample`` noise needs a float run, because it replaces
    ``p(x)`` by a sample mean of the model's 0/1 responses.
    """
    if num_steps < 0:
        raise ValueError("number of steps must be nonnegative")
    x = _one_state(model, x0)
    floats = isinstance(x, float)
    sampled = noise.mode == "bernoulli-sample"
    if sampled and not floats:
        raise ValueError("bernoulli-sample noise needs a scalar BernoulliSquaredModel")
    rng = np.random.default_rng(noise.seed) if noise.mode != "none" else None
    n = model.dimension
    field = _field_function(model, RGD_FLOW)
    # a memoryview yields the Python floats of tolist() without holding 1e5 of them
    alphas = memoryview(schedule.values(num_steps))
    if noise.mode == "gaussian":
        # one draw up front is the same stream as one draw of n per step
        eta = rng.normal(0.0, noise.sigma, size=(num_steps, n))
        eta = memoryview(eta.ravel()) if floats else eta
    else:
        eta = repeat(0.0)
    if sampled:
        value, size = model.shift.value, noise.sample_size
    # the float domain test; an array asks model.domain
    lo, hi = float(model.domain.lower[0]), float(model.domain.upper[0])
    # packed doubles: a list of 1e5 float objects would hold 3.2 MB more
    states = array("d")
    record = states.append if floats else lambda y: states.extend(y.tolist())
    record(x)
    status = MAX_TIME

    # the recursion runs for ~1e5 steps routinely, so the float domain test
    # stays inline: behind a call per step it made the float loop 5-13% slower
    for alpha, e in zip(alphas, eta):
        if sampled:
            x = x - alpha * (x - rng.binomial(size, value(x)) / size)
        else:
            # x - alpha * ((x - p) + eta) bit for bit: IEEE negation is exact
            x = x + alpha * (field(x) - e)
        record(x)
        if not (lo <= x <= hi if floats else model.domain.contains(x)):
            status = LEFT_DOMAIN
            break

    states = np.frombuffer(states, dtype=float).reshape(-1, n)
    return Trajectory(
        kind=DISCRETE_RGD,
        times=np.arange(len(states)),
        states=states,
        terminal_status=status,
    )


def lyapunov_derivative(model: DecisionDependentModel, x, kind: str) -> float:
    """Derivative of the diagonal risk along the chosen flow at ``x``.

    This is the inner product of the total risk gradient with the field,
    ``-<prm field, flow field>``; for the full descent flow it equals minus
    the squared gradient norm, hence is never positive.  ``x`` is one state.
    """
    x = _one_state(model, x, "x")
    flow = _field_function(model, kind)(x)
    return -float(np.dot(_field_function(model, PRM_FLOW)(x), flow))
