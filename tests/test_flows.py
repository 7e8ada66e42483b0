"""Integration, the discrete recursion, and their cross-consistency."""

import math
import tracemalloc
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import given, strategies as st

import perflow as pf
from perflow.flows import _field_function, _one_state


def v(x):
    return np.array([float(x)])


def outward_model():
    # field +x pushes everything out of the box; exercises left-domain
    return pf.CallableModel(
        dimension=1,
        domain=pf.interval(-1.0, 1.0),
        risk=lambda x1, x2: -0.5 * float(x1[0] ** 2),
        grad1=lambda x1, x2: np.array([-x1[0]]),
        grad2=lambda x1, x2: np.array([0.0]),
    )


class TestIntegrateFlow:
    def test_rgd_converges_to_zero_from_small_start(self, bump_model):
        traj = pf.integrate_flow(bump_model, "rgd", v(0.1), 50.0, h=0.01)
        assert traj.terminal_status == "converged-to-equilibrium"
        assert abs(traj.final_state[0]) < 1e-4

    def test_prm_converges_to_zero_below_its_crossing(self, bump_model):
        traj = pf.integrate_flow(bump_model, "prm", v(0.39), 200.0, h=0.01)
        assert abs(traj.final_state[0]) < 1e-3

    def test_rgd_converges_to_one_above_crossing(self, bump_model):
        traj = pf.integrate_flow(bump_model, "rgd", v(0.3), 50.0, h=0.01)
        assert abs(traj.final_state[0] - 1.0) < 1e-4

    def test_equilibrium_start_stays_put(self, bump_model):
        traj = pf.integrate_flow(bump_model, "rgd", v(0.0), 10.0, eq_tol=0.0)
        assert traj.terminal_status == "converged-to-equilibrium"
        assert np.all(traj.states == 0.0)

    def test_max_time_status_when_not_converged(self, bump_model):
        traj = pf.integrate_flow(bump_model, "rgd", v(0.8), 0.5, h=0.01)
        assert traj.terminal_status == "max-time"
        assert traj.final_time == pytest.approx(0.5)

    def test_left_domain_keeps_exit_state_last(self):
        traj = pf.integrate_flow(outward_model(), "rgd", v(0.5), 10.0, h=0.01)
        assert traj.terminal_status == "left-domain"
        assert abs(traj.final_state[0]) > 1.0
        assert np.all(np.abs(traj.states[:-1, 0]) <= 1.0)

    def test_nonfinite_field_raises(self):
        m = pf.CallableModel(
            dimension=1,
            domain=pf.interval(-1.0, 1.0),
            risk=lambda x1, x2: 0.0,
            grad1=lambda x1, x2: np.array([np.nan]),
            grad2=lambda x1, x2: np.array([0.0]),
        )
        with pytest.raises(pf.NumericIntegrationError):
            pf.integrate_flow(m, "rgd", v(0.1), 1.0)

    def test_times_strictly_increasing_and_decimated(self, bump_model):
        traj = pf.integrate_flow(bump_model, "rgd", v(0.8), 2.0, h=0.01, eq_tol=0.0)
        assert np.all(np.diff(traj.times) > 0)
        # stride ceil(1/(10 h)) = 10 steps -> samples 0.1 apart
        assert traj.times[1] - traj.times[0] == pytest.approx(0.1)
        assert traj.final_time == pytest.approx(2.0)

    def test_horizon_between_record_strides_is_recorded(self, bump_model):
        # 5 steps of a stride of 10: no stride sample, only the endpoint
        traj = pf.integrate_flow(bump_model, "rgd", v(0.8), 0.05, h=0.01, eq_tol=0.0)
        assert traj.terminal_status == "max-time"
        assert traj.times.tolist() == [0.0, 0.05]
        assert traj.states.shape == (2, 1)

    def test_out_of_domain_start_rejected(self, bump_model):
        with pytest.raises(pf.OutOfDomainError):
            pf.integrate_flow(bump_model, "rgd", v(1.6), 1.0)

    def test_bad_parameters_rejected(self, bump_model):
        with pytest.raises(ValueError):
            pf.integrate_flow(bump_model, "rgd", v(0.1), 1.0, h=0.0)
        with pytest.raises(ValueError):
            pf.integrate_flow(bump_model, "rgd", v(0.1), -1.0)
        with pytest.raises(ValueError):
            pf.integrate_flow(bump_model, "sideways", v(0.1), 1.0)

    def test_risk_monotone_along_full_descent_flow(self, bump_model):
        traj = pf.integrate_flow(bump_model, "prm", v(0.39), 30.0, h=0.01, eq_tol=0.0)
        risks = pf.performative_risk(bump_model, traj.states)
        tol = 1e-8 * (1.0 + np.abs(risks[:-1]))
        assert np.all(np.diff(risks) <= tol)

    def test_sublevel_component_never_escapes(self, bump_model):
        x0 = 0.3
        level = float(pf.performative_risk(bump_model, v(x0)))
        traj = pf.integrate_flow(bump_model, "prm", v(x0), 50.0, h=0.01, eq_tol=0.0)
        risks = pf.performative_risk(bump_model, traj.states)
        assert np.max(risks) <= level + 1e-6


def reference_integrate_flow(model, kind, x0, t_end, h, eq_tol):
    """The array loop that ran every model before the float path, kept as its oracle."""
    grad = (lambda x: model.grad_x1(x, x)) if kind == "rgd" else (
        lambda x: model.grad_x1(x, x) + model.grad_x2(x, x))

    def field(x):
        return -grad(x)

    steps = round(t_end / h)
    stride = max(1, math.ceil(1.0 / (10.0 * h)))
    x = np.asarray(x0, dtype=float).copy()
    times, states, last_recorded, status = [0.0], [x.copy()], 0, "max-time"
    for k in range(steps):
        fx = np.asarray(field(x), dtype=float)
        if not np.all(np.isfinite(fx)):
            raise pf.NumericIntegrationError("field", state=x.copy())
        if float(np.linalg.norm(fx)) <= eq_tol:
            status = "converged-to-equilibrium"
            if k > last_recorded:
                times.append(k * h)
                states.append(x.copy())
            break
        k2 = np.asarray(field(x + 0.5 * h * fx), dtype=float)
        k3 = np.asarray(field(x + 0.5 * h * k2), dtype=float)
        k4 = np.asarray(field(x + h * k3), dtype=float)
        x_new = x + (h / 6.0) * (fx + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(x_new)):
            raise pf.NumericIntegrationError("state", state=x.copy())
        if not model.domain.contains(x_new):
            times.append((k + 1) * h)
            states.append(x_new.copy())
            status = "left-domain"
            break
        x = x_new
        if (k + 1) % stride == 0:
            times.append((k + 1) * h)
            states.append(x.copy())
            last_recorded = k + 1
    else:
        if steps > last_recorded:
            times.append(steps * h)
            states.append(x.copy())
    return np.asarray(times), np.stack(states), status


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def nan_above(cut):
    # NaN once a state or an RK4 stage passes the cut: raises mid-trajectory
    def value(x):
        return math.nan if x > cut else pf.bump_phi(x)

    return pf.ShiftFunction(value=value, derivative=pf.bump_phi_prime)


ORACLE_SHIFTS = {
    "bump": pf.bump_shift(),
    "logistic": pf.logistic_shift(rate=8.0, midpoint=0.5),
    "clamped-polynomial": pf.clamped_polynomial_shift((-0.1, 0.4, 0.9)),
    "tabulated": pf.tabulated_shift([-0.5, 0.0, 0.4, 0.8, 1.5], [0.0, 0.05, 0.5, 0.9, 1.0]),
}


class TestClosedFormField:
    """A ``BernoulliSquaredModel``'s field is the closed form of its gradients.

    ``_field_function`` gives it on Python floats, as ``_one_state`` makes
    them, and on batches; both equal the model's gradients bit for bit.  On
    floats the reference is the ``(1,)``-array path that single-state
    callers took before: ``-grad_x1`` and ``-(grad_x1 + grad_x2)``.
    """

    # the grid, random draws and the neighbours of every breakpoint
    XS = np.concatenate([
        np.linspace(-0.5, 1.5, 2001),
        np.random.default_rng(11).uniform(-0.5, 1.5, 2000),
        [y for b in (0.0, 0.4, 0.8, 1.0, 1.0 - 1e-12) for y in (np.nextafter(b, -1.0), b, np.nextafter(b, 2.0))],
    ])

    @staticmethod
    def gradients(model, kind, x):
        if kind == "rgd":
            return -model.grad_x1(x, x)
        return -(model.grad_x1(x, x) + model.grad_x2(x, x))

    @pytest.mark.parametrize("kind", ["rgd", "prm"])
    @pytest.mark.parametrize("shift", list(ORACLE_SHIFTS))
    def test_float_field_equals_one_element_array_gradients(self, kind, shift):
        model = pf.BernoulliSquaredModel(shift=ORACLE_SHIFTS[shift])
        field = _field_function(model, kind)
        states = [_one_state(model, x) for x in self.XS]
        assert all(type(x) is float for x in states)
        got = [float(field(x)) for x in states]
        want = [float(self.gradients(model, kind, v(x))[0]) for x in self.XS]
        assert np.array_equal(bits(got), bits(want))

    @pytest.mark.parametrize("kind", ["rgd", "prm"])
    @pytest.mark.parametrize("shift", list(ORACLE_SHIFTS))
    def test_batch_field_equals_batch_gradients(self, kind, shift):
        model = pf.BernoulliSquaredModel(shift=ORACLE_SHIFTS[shift])
        batch = self.XS[:, None]
        got = _field_function(model, kind)(batch)
        assert got.shape == batch.shape
        assert np.array_equal(bits(got), bits(self.gradients(model, kind, batch)))


class TestFloatPathOracle:
    """``integrate_flow`` on Python floats against the array loop, bit for bit."""

    # (t_end, h, eq_tol): to convergence, out of time, and never converging
    RUNS = [(30.0, 0.1, 1e-6), (0.5, 0.05, 1e-9), (3.0, 0.1, 0.0)]
    # the narrow box is left by rows heading for the roots near 0 and 1
    DOMAINS = [(-0.5, 1.5), (0.1, 0.9)]

    def assert_same(self, model, kind, x0, t_end, h, eq_tol):
        times, states, status = reference_integrate_flow(model, kind, v(x0), t_end, h, eq_tol)
        traj = pf.integrate_flow(model, kind, v(x0), t_end, h=h, eq_tol=eq_tol)
        assert traj.terminal_status == status
        assert np.array_equal(bits(traj.times), bits(times))
        assert traj.states.shape == states.shape
        assert np.array_equal(bits(traj.states), bits(states))
        return status

    @pytest.mark.parametrize("kind", ["rgd", "prm"])
    @pytest.mark.parametrize("shift", list(ORACLE_SHIFTS))
    def test_bitwise_equal_to_array_loop(self, kind, shift):
        statuses = set()
        for lo, hi in self.DOMAINS:
            model = pf.BernoulliSquaredModel(shift=ORACLE_SHIFTS[shift], domain=(lo, hi))
            for x0 in np.linspace(lo, hi, 5):
                for run in self.RUNS:
                    statuses.add(self.assert_same(model, kind, x0, *run))
        assert statuses == {"converged-to-equilibrium", "max-time", "left-domain"}

    def test_underflowing_field_converges_at_zero_tolerance(self, quadratic_model):
        # field -x decays below 1.6e-162, where x * x underflows to 0: the
        # norm then reads 0 <= eq_tol = 0, while |x| never would
        status = self.assert_same(quadratic_model, "rgd", 0.1, 400.0, 0.5, 0.0)
        assert status == "converged-to-equilibrium"

    def test_state_landing_on_the_domain_edge_stays_inside(self):
        # field 1 - x rounds onto 1.0 after some steps: the closed box keeps it
        model = pf.BernoulliSquaredModel(shift=pf.constant_shift(1.0), domain=(-0.5, 1.0))
        status = self.assert_same(model, "rgd", 0.5, 60.0, 1.0, 0.0)
        assert status == "converged-to-equilibrium"

    @pytest.mark.parametrize("kind", ["rgd", "prm"])
    @pytest.mark.parametrize("x0", [0.9, 0.7])  # NaN at the start, NaN in a step
    def test_nan_raises_the_same_error(self, kind, x0):
        model = pf.BernoulliSquaredModel(shift=nan_above(0.8))
        with pytest.raises(pf.NumericIntegrationError) as want:
            reference_integrate_flow(model, kind, v(x0), 20.0, 0.05, 1e-9)
        with pytest.raises(pf.NumericIntegrationError) as got:
            pf.integrate_flow(model, kind, v(x0), 20.0, h=0.05)
        assert np.array_equal(bits(got.value.state), bits(want.value.state))
        assert got.value.state.shape == (1,)

    @pytest.mark.parametrize("eq_tol", [1e-9, 1e-3, 1.0, 1e-150, 1e-300, 5e-324, 0.0])
    def test_float_norm_agrees_with_linalg_norm(self, eq_tol):
        near = [eq_tol, *np.nextafter(eq_tol, [0.0, np.inf])]
        near += [np.nextafter(near[1], 0.0), np.nextafter(near[2], np.inf), 1e-170, 1e-320]
        for f in near:
            for signed in (f, -f):
                want = np.linalg.norm(np.array([signed]))
                assert pf.flows._float_norm(float(signed)) == want
                assert (pf.flows._float_norm(float(signed)) <= eq_tol) == (want <= eq_tol)
                if eq_tol >= 1e-150:  # where f * f does not underflow, the norm is |f|
                    assert (abs(signed) <= eq_tol) == (want <= eq_tol)


class TestEnsemble:
    def test_matches_single_trajectory_integration(self, bump_model):
        x0s = np.array([[0.1], [0.3], [0.9], [-0.4]])
        finals, statuses, _ = pf.integrate_ensemble(bump_model, "rgd", x0s, 5.0, eq_tol=0.0)
        for x0, final, status in zip(x0s, finals, statuses):
            traj = pf.integrate_flow(bump_model, "rgd", x0, 5.0, eq_tol=0.0)
            assert traj.final_state[0] == final[0]
            assert traj.terminal_status == status

    def test_recording_shape(self, bump_model):
        x0s = np.array([[0.1], [0.9]])
        _, _, rec = pf.integrate_ensemble(bump_model, "rgd", x0s, 1.0, record=True, eq_tol=0.0)
        times, states = rec
        assert states.shape == (times.size, 2, 1)
        assert times[0] == 0.0 and times[-1] == pytest.approx(1.0)

    def test_out_of_domain_start_names_first_offender(self, bump_model):
        x0s = np.linspace(-0.4, 1.4, 2001)[:, None]
        x0s[[700, 1500]] = [[2.5], [3.5]]
        with pytest.raises(pf.OutOfDomainError) as info:
            pf.integrate_ensemble(bump_model, "rgd", x0s, 1.0)
        assert isinstance(info.value.state, np.ndarray)
        assert np.array_equal(info.value.state, [2.5])
        assert str(info.value) == "state [2.5] outside domain box [[-0.5], [1.5]]"

    @pytest.mark.parametrize("x0s", [0.7, [0.7], [[0.7], [0.8]]])
    def test_one_start_or_a_batch_of_starts(self, bump_model, x0s):
        finals, statuses, _ = pf.integrate_ensemble(bump_model, "rgd", x0s, 1.0)
        assert finals.shape == (np.size(x0s), 1) and statuses.shape == (np.size(x0s),)

    def test_more_than_two_axes_rejected(self, bump_model):
        with pytest.raises(ValueError, match="x0s"):
            pf.integrate_ensemble(bump_model, "rgd", np.full((2, 1, 1), 0.7), 1.0)

    def test_nonbatch_model_falls_back_to_loop(self):
        m = outward_model()
        finals, statuses, _ = pf.integrate_ensemble(m, "rgd", np.array([[0.2], [-0.2]]), 10.0)
        assert all(s == "left-domain" for s in statuses)

    @pytest.mark.parametrize(
        "t_end, h",
        [(5.0, -0.01), (-5.0, 0.01), (5.0, 0.0), (0.0, 0.01), (float("nan"), 0.01),
         (5.0, float("nan")), (float("inf"), 0.01), (1e307, 1e-3), (0.015, 0.01), (0.001, 0.01)],
    )
    def test_bad_step_or_horizon_rejected(self, bump_model, t_end, h):
        with pytest.raises(ValueError):
            pf.integrate_ensemble(bump_model, "rgd", [[0.5]], t_end, h=h)
        with pytest.raises(ValueError):
            pf.integrate_flow(bump_model, "rgd", v(0.5), t_end, h=h)


def kinked_gradient(x1, x2):
    # NaN below -0.8 (numeric-error), attracting 0 up to 0.5, repelling
    # 0.5 above it: rows converge, leave the domain or run out of time
    x = x1[0]
    if x < -0.8:
        return np.array([np.nan])
    if x <= 0.5:
        return np.array([2.0 * x])
    return np.array([0.25 - 0.5 * x])


@dataclass(frozen=True, eq=False)
class BatchLoggingModel(pf.CallableModel):
    """Logs the row count of every batch the field is evaluated on."""

    batch_rows: list = field(default_factory=list)

    def grad_x1(self, x1, x2):
        self.batch_rows.append(np.shape(x1)[0])
        return super().grad_x1(x1, x2)


class TestEnsembleCompaction:
    T_END, H, EQ_TOL = 4.0, 0.4, 1e-3

    def integrate(self, model, x0s, record):
        return pf.integrate_ensemble(model, "rgd", x0s, self.T_END, h=self.H, eq_tol=self.EQ_TOL, record=record)

    def test_ensemble_equals_rows_integrated_alone(self):
        model = BatchLoggingModel(
            dimension=1,
            domain=pf.interval(-1.0, 1.0),
            risk=lambda x1, x2: 0.0,
            grad1=kinked_gradient,
            grad2=lambda x1, x2: np.zeros(1),
        )
        x0s = np.concatenate([
            np.linspace(-0.99, -0.81, 20),  # numeric-error at the first step
            [0.0],  # converged at the first step
            -np.geomspace(1e-4, 0.79, 240),  # converge early to late
            np.geomspace(1e-4, 0.49, 240),
            0.5 + np.geomspace(0.02, 0.5, 150),  # leave the domain or hit max-time
        ])[:, None]
        x0s = x0s[np.random.default_rng(3).permutation(len(x0s))]
        finals, statuses, (times, states) = self.integrate(model, x0s, True)
        batches = sorted(set(model.batch_rows), reverse=True)
        ensemble_rows = sum(model.batch_rows)
        unrecorded = self.integrate(model, x0s, False)
        model.batch_rows.clear()

        assert len(batches) >= 4  # rows left at three or more steps
        assert batches[0] == len(x0s)
        assert set(statuses) == {"converged-to-equilibrium", "left-domain", "numeric-error", "max-time"}
        assert times.size == round(self.T_END / self.H) + 1  # one sample per step
        for i, x0 in enumerate(x0s):
            final, status, (row_times, row_states) = self.integrate(model, x0[None], True)
            assert statuses[i] == unrecorded[1][i] == status[0]
            assert np.array_equal(finals[i], final[0])
            assert np.array_equal(unrecorded[0][i], final[0])
            # alone, a row's recording ends when it stops; in the ensemble it
            # holds its last state from then on
            last = np.searchsorted(row_times, times, side="right") - 1
            assert np.array_equal(states[:, i], row_states[last, 0])
        # the ensemble evaluates a row exactly as often as the row alone: never once stopped
        assert ensemble_rows == sum(model.batch_rows)


def bump_callable_model():
    # the bump model's gradient through the generic loop
    return pf.CallableModel(
        dimension=1,
        domain=pf.interval(-0.5, 1.5),
        risk=lambda a, b: 0.0,
        grad1=lambda a, b: a - pf.bump_phi(float(b[0])),
        grad2=lambda a, b: np.zeros(1),
    )


class TestDiscreteRecursion:
    def test_zero_start_stays_exactly_zero(self, bump_model):
        traj = pf.discrete_rgd(
            bump_model, v(0.0), 100, pf.StepSchedule.constant(0.05), pf.NoiseSpec.none()
        )
        assert np.all(traj.states == 0.0)
        assert traj.times.size == 101

    def test_converges_to_one_from_above_crossing(self, bump_model):
        traj = pf.discrete_rgd(
            bump_model, v(0.9), 5000, pf.StepSchedule.constant(0.01), pf.NoiseSpec.none()
        )
        assert abs(traj.final_state[0] - 1.0) < 1e-3

    def test_equals_forward_euler_exactly(self, bump_model):
        h = 0.01
        traj = pf.discrete_rgd(
            bump_model, v(0.8), 200, pf.StepSchedule.constant(h), pf.NoiseSpec.none()
        )
        x = v(0.8)
        for k in range(200):
            x = x - h * bump_model.grad_x1(x, x)
            assert x[0] == traj.states[k + 1, 0]

    def test_rk4_and_euler_endpoints_approach_each_other(self, bump_model):
        gaps = []
        for h in (0.1, 0.01, 0.001):
            steps = int(round(5.0 / h))
            euler = pf.discrete_rgd(
                bump_model, v(0.8), steps, pf.StepSchedule.constant(h), pf.NoiseSpec.none()
            ).final_state[0]
            rk4 = pf.integrate_flow(bump_model, "rgd", v(0.8), 5.0, h=h, eq_tol=0.0).final_state[0]
            gaps.append(abs(rk4 - euler))
        assert gaps[0] > gaps[1] > gaps[2]

    def test_times_are_integer_indices(self, bump_model):
        traj = pf.discrete_rgd(
            bump_model, v(0.6), 50, pf.StepSchedule.constant(0.01), pf.NoiseSpec.none()
        )
        assert traj.times.dtype.kind == "i" and np.array_equal(traj.times, np.arange(51))
        assert type(traj.final_time) is float and traj.final_time == 50.0

    def test_left_domain_truncates(self):
        traj = pf.discrete_rgd(
            outward_model(), v(0.5), 1000, pf.StepSchedule.constant(0.5), pf.NoiseSpec.none()
        )
        assert traj.terminal_status == "left-domain"
        assert traj.times.size < 1001
        assert abs(traj.final_state[0]) > 1.0

    @pytest.mark.parametrize(
        "noise",
        [pf.NoiseSpec.gaussian(0.1, seed=42), pf.NoiseSpec.bernoulli_sample(50, seed=42)],
    )
    def test_identical_seeds_are_bitwise_identical(self, bump_model, noise):
        a = pf.discrete_rgd(bump_model, v(0.6), 500, pf.StepSchedule.constant(0.01), noise)
        b = pf.discrete_rgd(bump_model, v(0.6), 500, pf.StepSchedule.constant(0.01), noise)
        assert np.array_equal(a.states, b.states)

    def test_different_seeds_differ(self, bump_model):
        a = pf.discrete_rgd(
            bump_model, v(0.6), 200, pf.StepSchedule.constant(0.01),
            pf.NoiseSpec.gaussian(0.1, seed=1),
        )
        b = pf.discrete_rgd(
            bump_model, v(0.6), 200, pf.StepSchedule.constant(0.01),
            pf.NoiseSpec.gaussian(0.1, seed=2),
        )
        assert not np.array_equal(a.states, b.states)

    def test_bernoulli_noise_requires_shift(self):
        with pytest.raises(ValueError):
            pf.discrete_rgd(
                outward_model(), v(0.1), 10, pf.StepSchedule.constant(0.01),
                pf.NoiseSpec.bernoulli_sample(10, seed=0),
            )

    def test_bernoulli_noise_requires_bernoulli_squared_model(self):
        # a shift attribute alone does not make the gradient x - p(x)
        @dataclass(frozen=True, eq=False)
        class ShiftedCallable(pf.CallableModel):
            shift: pf.ShiftFunction = None

        model = ShiftedCallable(
            dimension=1,
            domain=pf.interval(-0.5, 1.5),
            risk=lambda x1, x2: float(x1[0] ** 2),
            grad1=lambda x1, x2: 2.0 * x1,
            grad2=lambda x1, x2: np.zeros(1),
            shift=pf.bump_shift(),
        )
        with pytest.raises(ValueError):
            pf.discrete_rgd(
                model, v(0.1), 10, pf.StepSchedule.constant(0.01),
                pf.NoiseSpec.bernoulli_sample(10, seed=0),
            )

    @pytest.mark.parametrize(
        "noise", [pf.NoiseSpec.none(), pf.NoiseSpec.gaussian(0.1, seed=7)], ids=["none", "gaussian"]
    )
    @pytest.mark.parametrize(
        "schedule",
        [pf.StepSchedule.inverse(0.5, 10.0), pf.StepSchedule.constant(0.01)],
        ids=["inverse", "constant"],
    )
    def test_scalar_loop_matches_generic_loop_bitwise(self, bump_model, noise, schedule):
        # the same gradient as a CallableModel runs the generic array loop
        fast = pf.discrete_rgd(bump_model, v(0.8), 20_000, schedule, noise)
        slow = pf.discrete_rgd(bump_callable_model(), v(0.8), 20_000, schedule, noise)
        assert np.array_equal(fast.states, slow.states)
        assert fast.terminal_status == slow.terminal_status

    def test_float_loop_holds_its_inputs_as_arrays(self, bump_model):
        # 1e5 steps: the states, times, step sizes and noise arrays hold 0.8 MB
        # each; a list of 1e5 Python floats would hold 3.2 MB on its own
        schedule, noise = pf.StepSchedule.inverse(0.5, 10.0), pf.NoiseSpec.gaussian(0.1, seed=7)
        tracemalloc.start()
        try:
            traj = pf.discrete_rgd(bump_model, 0.8, 100_000, schedule, noise)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.times.size == 100_001
        assert peak < 4e6

    def test_nan_iterate_stops_scalar_loop(self):
        shift = pf.ShiftFunction(value=lambda x: float("nan"), derivative=lambda x: 0.0)
        model = pf.BernoulliSquaredModel(shift=shift)
        traj = pf.discrete_rgd(
            model, v(0.5), 100, pf.StepSchedule.constant(0.01), pf.NoiseSpec.none()
        )
        assert traj.terminal_status == "left-domain"
        assert traj.times.size == 2 and np.isnan(traj.final_state[0])

    def test_gaussian_noise_is_zero_mean(self):
        # empirical mean of 1e5 draws within 4 sigma / sqrt(1e5)
        rng = np.random.default_rng(7)
        sigma = 0.3
        draws = rng.normal(0.0, sigma, size=100_000)
        assert abs(draws.mean()) <= 4.0 * sigma / np.sqrt(100_000)

    def test_sampling_noise_is_zero_mean(self, bump_model):
        # realized noise is p(x) - mean of N responses; check at a fixed state
        rng = np.random.default_rng(11)
        n, p = 100, float(pf.bump_phi(0.8))
        eta = p - rng.binomial(n, p, size=100_000) / n
        assert abs(eta.mean()) <= 4.0 / np.sqrt(n * 100_000)

    def test_one_step_mean_matches_deterministic_step(self, bump_model):
        # the recursion wiring: E[x_1] = x_0 - alpha * grad at x_0
        x0, alpha, n = 0.6, 0.05, 100
        finals = [
            pf.discrete_rgd(
                bump_model, v(x0), 1, pf.StepSchedule.constant(alpha),
                pf.NoiseSpec.bernoulli_sample(n, seed=seed),
            ).final_state[0]
            for seed in range(2000)
        ]
        expected = x0 - alpha * float(bump_model.grad_x1(v(x0), v(x0))[0])
        tol = 6.0 * alpha * 0.5 / np.sqrt(n * 2000)
        assert abs(np.mean(finals) - expected) <= tol


def reference_discrete_rgd(model, x0, num_steps, schedule, noise):
    """The per-step generic recursion that ran every array model before, kept as its oracle."""
    rng = np.random.default_rng(noise.seed) if noise.mode != "none" else None
    x = np.asarray(x0, dtype=float)
    states, status = [x], "max-time"
    for alpha in schedule.values(num_steps):
        grad = np.asarray(model.grad_x1(x, x), dtype=float)
        if noise.mode == "gaussian":
            grad = grad + rng.normal(0.0, noise.sigma, size=x.size)
        x = x - alpha * grad
        states.append(x)
        if not model.domain.contains(x):
            status = "left-domain"
            break
    return np.stack(states), status


def outward_pair_model():
    # field +x in two coordinates: every start but the origin leaves the box
    return pf.CallableModel(
        dimension=2,
        domain=pf.Box(np.full(2, -1.0), np.full(2, 1.0)),
        risk=lambda x1, x2: -0.5 * float(x1 @ x1),
        grad1=lambda x1, x2: -x1,
        grad2=lambda x1, x2: np.zeros(2),
    )


class TestGenericRecursionOracle:
    """The array recursion ``x + alpha * (f(x) - eta)`` against the per-step loop, bit for bit."""

    @pytest.mark.parametrize(
        "noise", [pf.NoiseSpec.none(), pf.NoiseSpec.gaussian(0.1, seed=7)], ids=["none", "gaussian"]
    )
    @pytest.mark.parametrize("case", ["bump-1d", "bump-2d", "outward-1d", "outward-2d"])
    def test_bitwise_equal_to_per_step_loop(self, bump_pair_model, case, noise):
        model, x0 = {
            "bump-1d": (bump_callable_model(), [0.8]),
            "bump-2d": (bump_pair_model, [0.8, 0.1]),
            "outward-1d": (outward_model(), [0.5]),
            "outward-2d": (outward_pair_model(), [0.5, -0.2]),
        }[case]
        schedule = pf.StepSchedule.inverse(0.5, 10.0)
        states, status = reference_discrete_rgd(model, x0, 2000, schedule, noise)
        traj = pf.discrete_rgd(model, x0, 2000, schedule, noise)
        assert traj.terminal_status == status
        assert status == ("left-domain" if case.startswith("outward") else "max-time")
        assert np.array_equal(bits(traj.states), bits(states))

    def test_noise_that_throws_a_run_out_matches(self, bump_pair_model):
        noise = pf.NoiseSpec.gaussian(20.0, seed=3)
        schedule = pf.StepSchedule.constant(0.01)
        states, status = reference_discrete_rgd(bump_pair_model, [0.8, 0.1], 500, schedule, noise)
        traj = pf.discrete_rgd(bump_pair_model, [0.8, 0.1], 500, schedule, noise)
        assert status == traj.terminal_status == "left-domain"
        assert np.array_equal(bits(traj.states), bits(states))


class TestOneStateContract:
    """Every single-state run takes one state; a batch is a ValueError naming the argument."""

    RUNS = {
        "integrate_flow": lambda m, x: pf.integrate_flow(m, "rgd", x, 1.0),
        "discrete_rgd": lambda m, x: pf.discrete_rgd(
            m, x, 10, pf.StepSchedule.constant(0.01), pf.NoiseSpec.none()
        ),
        "lyapunov_derivative": lambda m, x: pf.lyapunov_derivative(m, x, "rgd"),
        "classify_equilibrium": lambda m, x: pf.classify_equilibrium(m, x, tol=1e-8, field_kind="rgd"),
    }
    @pytest.mark.parametrize(
        "run, name, x",
        [
            ("integrate_flow", "x0", [[0.7]]),
            ("integrate_flow", "x0", [[0.7], [0.8]]),
            ("discrete_rgd", "x0", [[0.7]]),
            ("lyapunov_derivative", "x", [[0.0], [1.0]]),
            ("classify_equilibrium", "x", [[0.0], [1.0]]),
        ],
        ids=["integrate_flow-1x1", "integrate_flow-2x1", "discrete_rgd-1x1",
             "lyapunov_derivative-2x1", "classify_equilibrium-2x1"],
    )
    def test_batch_rejected(self, bump_model, run, name, x):
        with pytest.raises(ValueError, match=rf"^{name} must be one state of shape \(1,\)"):
            self.RUNS[run](bump_model, np.array(x))

    @pytest.mark.parametrize("run", list(RUNS))
    def test_bare_number_is_one_scalar_state(self, bump_model, run):
        x = 0.0 if run == "classify_equilibrium" else 0.5  # an equilibrium to classify
        got = self.RUNS[run](bump_model, x)
        want = self.RUNS[run](bump_model, v(x))
        if run in ("integrate_flow", "discrete_rgd"):
            assert np.array_equal(got.states, want.states)
        elif run == "lyapunov_derivative":
            assert got == want
        else:
            assert got.labels == want.labels

    @pytest.mark.parametrize("run", list(RUNS))
    def test_bare_number_is_not_a_planar_state(self, bump_pair_model, run):
        with pytest.raises(ValueError, match=r"must be one state of shape \(2,\), got shape \(1,\)"):
            self.RUNS[run](bump_pair_model, 0.0)


class TestStepSchedule:
    def test_constant_values(self):
        s = pf.StepSchedule.constant(0.05)
        assert np.all(s.values(100) == 0.05)

    def test_inverse_values(self):
        s = pf.StepSchedule.inverse(0.5, 10.0)
        vals = s.values(1000)
        assert vals[0] == 0.05
        assert vals[90] == pytest.approx(0.005)
        assert np.all(np.diff(vals) < 0)

    @given(
        st.floats(min_value=1e-6, max_value=10.0, allow_nan=False),
        st.floats(min_value=1.0, max_value=100.0, allow_nan=False),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_steps_always_positive(self, a, b, k):
        assert pf.StepSchedule.inverse(a, b).values(k + 1)[k] > 0.0
        assert pf.StepSchedule.constant(a).values(k + 1)[k] > 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            pf.StepSchedule.constant(0.0)
        with pytest.raises(ValueError):
            pf.StepSchedule.inverse(0.5, 0.5)
        with pytest.raises(ValueError):
            pf.StepSchedule("geometric", 1.0)
        inf, nan = float("inf"), float("nan")
        for coefficient, offset in ((inf, 1.0), (nan, 1.0), (0.5, nan), (0.5, inf)):
            with pytest.raises(ValueError):
                pf.StepSchedule.inverse(coefficient, offset)

    def test_noise_spec_validation(self):
        with pytest.raises(ValueError):
            pf.NoiseSpec("pink")
        with pytest.raises(ValueError):
            pf.NoiseSpec.gaussian(-1.0)
        for sigma in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                pf.NoiseSpec.gaussian(sigma)
        with pytest.raises(ValueError):
            pf.NoiseSpec.bernoulli_sample(0)


class TestLyapunovDerivative:
    def test_never_positive_along_full_descent(self, bump_model, rng):
        for x in rng.uniform(-0.5, 1.5, size=100):
            assert pf.lyapunov_derivative(bump_model, v(x), "prm") <= 0.0

    def test_rgd_equals_prm_value_where_perturbation_vanishes(self, bump_model):
        # at x = 0.5 the perturbation is zero, so both derivatives coincide
        prm = pf.lyapunov_derivative(bump_model, v(0.5), "prm")
        rgd = pf.lyapunov_derivative(bump_model, v(0.5), "rgd")
        assert rgd == pytest.approx(prm, rel=1e-12)
        grad = float(bump_model.grad_x1(v(0.5), v(0.5))[0])
        assert prm == pytest.approx(-(grad**2), rel=1e-12)

    def test_rgd_value_against_closed_form(self, bump_model):
        import math

        x = 0.1
        t = x * (2.0 - x)
        phi = math.exp(1.0 - 1.0 / t)
        phi_p = phi * 2.0 * (1.0 - x) / t**2
        total_grad = (x - phi) + (0.5 - x) * phi_p
        expected = total_grad * (-(x - phi))
        assert pf.lyapunov_derivative(bump_model, v(x), "rgd") == pytest.approx(expected, rel=1e-12)
