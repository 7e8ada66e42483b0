"""Model evaluators, the derived vector fields, and the numeric utilities."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import perflow as pf


def v(x):
    return np.array([float(x)])


def phi(x):
    # independent direct evaluation of the bump transition
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    return math.exp(1.0 - 1.0 / (x * (2.0 - x)))


def phi_prime(x):
    if x <= 0.0 or x >= 1.0:
        return 0.0
    t = x * (2.0 - x)
    return math.exp(1.0 - 1.0 / t) * 2.0 * (1.0 - x) / t**2


class TestPerformativeRisk:
    def test_zero_at_origin(self, bump_model):
        assert pf.performative_risk(bump_model, v(0.0)) == 0.0

    def test_half_point_kills_shift_term(self, bump_model):
        # at x = 0.5 the coefficient (1 - 2x) vanishes, leaving x^2/2
        assert pf.performative_risk(bump_model, v(0.5)) == pytest.approx(0.125, abs=1e-15)

    def test_against_direct_formula_at_0p4(self, bump_model):
        expected = 0.5 * (0.16 + phi(0.4) * 0.2)
        assert pf.performative_risk(bump_model, v(0.4)) == pytest.approx(expected, rel=1e-15)
        assert expected == pytest.approx(0.13697828247309232, rel=1e-12)

    def test_closed_form_at_many_random_points(self, bump_model, rng):
        xs = rng.uniform(-0.5, 1.5, size=10_000)
        risks = pf.performative_risk(bump_model, xs[:, None])
        expected = 0.5 * (xs**2 + pf.bump_phi(xs) * (1.0 - 2.0 * xs))
        assert np.max(np.abs(risks - expected)) <= 1e-15

    def test_out_of_domain_rejected(self, bump_model):
        with pytest.raises(pf.OutOfDomainError):
            pf.performative_risk(bump_model, v(2.0))


class TestVectorFields:
    def test_prm_field_vanishes_at_minimizer(self, bump_model):
        assert pf.prm_vector_field(bump_model, v(0.0))[0] == 0.0

    def test_prm_field_crossing_near_0p40(self, bump_model):
        assert abs(pf.prm_vector_field(bump_model, v(0.40))[0]) < 1e-2

    def test_prm_field_against_direct_formula(self, bump_model):
        expected = -(0.2 - phi(0.2) + 0.3 * phi_prime(0.2))
        assert pf.prm_vector_field(bump_model, v(0.2))[0] == pytest.approx(expected, rel=1e-14)

    def test_rgd_field_vanishes_at_one(self, bump_model):
        assert pf.rgd_vector_field(bump_model, v(1.0))[0] == 0.0

    def test_rgd_field_crossing_near_0p23(self, bump_model):
        assert abs(pf.rgd_vector_field(bump_model, v(0.23))[0]) < 1e-2

    def test_rgd_field_left_of_support(self, bump_model):
        assert pf.rgd_vector_field(bump_model, v(-0.1))[0] == pytest.approx(0.1, abs=1e-15)

    def test_perturbation_examples(self, bump_model):
        assert pf.performative_perturbation(bump_model, v(0.5))[0] == 0.0
        assert pf.performative_perturbation(bump_model, v(-0.2))[0] == 0.0
        expected = 0.2 * phi_prime(0.3)
        got = pf.performative_perturbation(bump_model, v(0.3))[0]
        assert got == pytest.approx(expected, rel=1e-14)

    def test_perturbation_matches_finite_difference_of_second_slot(self, bump_model):
        x = 0.3
        fd = pf.finite_diff_gradient(
            lambda y: float(bump_model.decoupled_risk(v(x), y)), v(x)
        )
        got = pf.performative_perturbation(bump_model, v(x))[0]
        assert abs(fd[0] - got) <= 1e-5 * max(1.0, abs(got))

    def test_field_difference_identity_on_grid(self, bump_model):
        xs = np.linspace(-0.5, 1.5, 401)[:, None]
        rgd = pf.rgd_vector_field(bump_model, xs)
        prm = pf.prm_vector_field(bump_model, xs)
        g = pf.performative_perturbation(bump_model, xs)
        assert np.max(np.abs((rgd - prm) - g)) <= 1e-15

    def test_out_of_domain_rejected(self, bump_model):
        for op in (pf.prm_vector_field, pf.rgd_vector_field, pf.performative_perturbation):
            with pytest.raises(pf.OutOfDomainError):
                op(bump_model, v(-0.6))


class TestGradientConsistency:
    def test_closed_form_gradients_match_finite_differences(self, bump_model, rng):
        xs = rng.uniform(-0.499, 1.499, size=200)
        ys = rng.uniform(-0.499, 1.499, size=200)
        for x, y in zip(xs, ys):
            g1 = bump_model.grad_x1(v(x), v(y))[0]
            g2 = bump_model.grad_x2(v(x), v(y))[0]
            fd1 = pf.finite_diff_gradient(
                lambda z: float(bump_model.decoupled_risk(z, v(y))), v(x)
            )[0]
            fd2 = pf.finite_diff_gradient(
                lambda z: float(bump_model.decoupled_risk(v(x), z)), v(y)
            )[0]
            assert abs(g1 - fd1) <= 1e-5 * max(1.0, abs(g1), abs(fd1))
            assert abs(g2 - fd2) <= 1e-5 * max(1.0, abs(g2), abs(fd2))


class TestWasserstein:
    def test_identical_distributions(self):
        assert pf.wasserstein1_bernoulli(0.3, 0.3) == 0.0

    def test_extreme_transport(self):
        assert pf.wasserstein1_bernoulli(0.0, 1.0) == 1.0

    def test_bump_values_pair(self):
        expected = abs(phi(0.2) - phi(0.3))
        got = pf.wasserstein1_bernoulli(pf.bump_phi(0.2), pf.bump_phi(0.3))
        assert got == pytest.approx(expected, rel=1e-15)
        assert got == pytest.approx(0.2136, abs=5e-4)

    def test_range_violation(self):
        with pytest.raises(ValueError):
            pf.wasserstein1_bernoulli(1.2, 0.5)

    unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)

    @given(unit, unit, unit)
    def test_metric_axioms(self, p, q, r):
        d = pf.wasserstein1_bernoulli
        assert d(p, q) == d(q, p)
        assert d(p, p) == 0.0
        assert d(p, r) <= d(p, q) + d(q, r) + 1e-15


class TestSensitivity:
    def test_constant_shift_is_insensitive(self):
        assert pf.sensitivity_estimate(pf.constant_shift(0.5), (-1.0, 2.0), 101) == 0.0

    def test_linear_clamp_has_unit_sensitivity(self):
        s = pf.clamped_polynomial_shift((0.0, 1.0))
        assert pf.sensitivity_estimate(s, (0.1, 0.9), 101) == 1.0

    def test_bump_matches_dense_scan_of_derivative_formula(self):
        xs = np.linspace(0.0, 1.0, 10_001)
        t = np.clip(xs * (2.0 - xs), 1e-12, None)
        direct = np.where(
            (xs > 0) & (xs < 1), np.exp(1.0 - 1.0 / t) * 2.0 * (1.0 - xs) / t**2, 0.0
        )
        expected = float(np.max(np.abs(direct)))
        got = pf.sensitivity_estimate(pf.bump_shift(), (0.0, 1.0), 10_001)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_refinement_is_monotone_up_to_discretization(self):
        coarse = pf.sensitivity_estimate(pf.bump_shift(), (0.0, 1.0), 101)
        fine = pf.sensitivity_estimate(pf.bump_shift(), (0.0, 1.0), 10_001)
        assert fine >= coarse - 1e-12

    def test_rejects_degenerate_grid(self):
        with pytest.raises(ValueError):
            pf.sensitivity_estimate(pf.bump_shift(), (0.0, 1.0), 1)


class TestFiniteDifferences:
    def test_exact_for_quadratics(self):
        grad = pf.finite_diff_gradient(lambda x: float(x[0] ** 2), np.array([3.0]), h=1e-5)
        assert grad[0] == pytest.approx(6.0, abs=1e-8)

    def test_matches_closed_form_risk_gradient(self, bump_model):
        fd = pf.finite_diff_gradient(
            lambda x: float(bump_model.decoupled_risk(x, x)), v(0.2)
        )[0]
        closed = 0.2 - phi(0.2) + 0.3 * phi_prime(0.2)
        assert abs(fd - closed) <= 1e-5 * max(1.0, abs(closed))

    def test_zero_for_constants(self):
        grad = pf.finite_diff_gradient(lambda x: 7.5, np.array([0.3, -0.2]))
        assert np.array_equal(grad, np.zeros(2))

    def test_hessian_of_quadratic_form(self):
        a = np.array([[2.0, 0.5], [0.5, 1.0]])
        hess = pf.finite_diff_hessian(lambda x: float(x @ a @ x / 2.0), np.array([0.3, -0.1]))
        assert np.allclose(hess, a, atol=1e-5)

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            pf.finite_diff_gradient(lambda x: 0.0, np.array([0.0]), h=0.0)


class TestSmoothnessConstants:
    def test_convexity_cannot_exceed_smoothness(self):
        with pytest.raises(ValueError):
            pf.SmoothnessConstants(strong_convexity=2.0, smoothness=1.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            pf.SmoothnessConstants(loss_lipschitz=-1.0)

    def test_partial_specification_allowed(self):
        c = pf.SmoothnessConstants(strong_convexity=1.0)
        assert c.smoothness is None


class TestBernoulliSquaredModel:
    def test_dimension_is_fixed_at_one(self):
        model = pf.BernoulliSquaredModel(shift=pf.bump_shift())
        assert model.dimension == 1
        # the model is scalar: a dimension of 2 would make a run drop the second coordinate
        with pytest.raises(TypeError):
            pf.BernoulliSquaredModel(shift=pf.bump_shift(), dimension=2)


class TestDomainBox:
    def test_membership(self):
        box = pf.interval(-0.5, 1.5)
        assert box.contains(np.array([1.5]))
        assert not box.contains(np.array([1.5000001]))

    def test_batched_membership(self):
        box = pf.interval(0.0, 1.0)
        flags = box.contains_each(np.array([[0.5], [-0.1], [1.0]]))
        assert flags.tolist() == [True, False, True]

    def test_degenerate_bounds_rejected(self):
        with pytest.raises(ValueError):
            pf.interval(1.0, 1.0)

    @pytest.mark.parametrize("lo, hi", [(float("nan"), 1.0), (0.0, float("nan")), (float("inf"), float("inf"))])
    def test_nan_or_equal_infinite_bounds_rejected(self, lo, hi):
        # NaN compares False both ways: such a box would contain nothing
        with pytest.raises(ValueError):
            pf.interval(lo, hi)

    def test_infinite_bounds_allowed(self):
        box = pf.interval(float("-inf"), float("inf"))
        assert box.contains(np.array([1e300]))


def bump_closed_forms(explicit):
    # the built-in model's closed forms, one scalar state at a time
    s = pf.bump_shift()
    kwargs = {}
    if explicit:
        kwargs["grad1"] = lambda x1, x2: np.array([x1[0] - s.value(x2[0])])
        kwargs["grad2"] = lambda x1, x2: np.array([0.5 * (1.0 - 2.0 * x1[0]) * s.derivative(x2[0])])
    return pf.CallableModel(
        dimension=1,
        domain=pf.interval(-0.5, 1.5),
        risk=lambda x1, x2: 0.5 * (x1[0] ** 2 + s.value(x2[0]) * (1.0 - 2.0 * x1[0])),
        **kwargs,
    )


def coupled_planar(explicit):
    # R(x1, x2) = |x1|^2 / 2 + 0.3 x1.x2 + sin(x2_0) x1_1
    def risk(x1, x2):
        return 0.5 * float(x1 @ x1) + 0.3 * float(x1 @ x2) + math.sin(x2[0]) * x1[1]

    kwargs = {}
    if explicit:
        kwargs["grad1"] = lambda x1, x2: x1 + 0.3 * x2 + np.array([0.0, math.sin(x2[0])])
        kwargs["grad2"] = lambda x1, x2: 0.3 * x1 + np.array([math.cos(x2[0]) * x1[1], 0.0])
    return pf.CallableModel(
        dimension=2,
        domain=pf.Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0])),
        risk=risk,
        **kwargs,
    )


class TestCallableModelBatches:
    @pytest.mark.parametrize("explicit", [True, False], ids=["explicit", "finite-difference"])
    @pytest.mark.parametrize("make", [bump_closed_forms, coupled_planar])
    def test_batch_equals_row_by_row(self, make, explicit, rng):
        model = make(explicit)
        m, n = 7, model.dimension
        x1 = rng.uniform(model.domain.lower, model.domain.upper, size=(m, n))
        x2 = rng.uniform(model.domain.lower, model.domain.upper, size=(m, n))
        risk = model.decoupled_risk(x1, x2)
        assert risk.shape == (m,)
        assert np.array_equal(risk, [model.decoupled_risk(a, b) for a, b in zip(x1, x2)])
        for grad in (model.grad_x1, model.grad_x2):
            batch = grad(x1, x2)
            assert batch.shape == (m, n)
            assert np.array_equal(batch, np.stack([grad(a, b) for a, b in zip(x1, x2)]))

    def test_wrapped_closed_forms_match_builtin_model(self, bump_model):
        wrapped = bump_closed_forms(explicit=True)
        zero = np.zeros(1)
        for a, b in [
            (pf.estimate_curvature_constants(wrapped, zero, 0.4, grid_n=4001),
             pf.estimate_curvature_constants(bump_model, zero, 0.4, grid_n=4001)),
            (pf.estimate_perturbation_envelope(wrapped, zero, 0.4),
             pf.estimate_perturbation_envelope(bump_model, zero, 0.4)),
        ]:
            da, db = a.to_dict(), b.to_dict()
            assert da.keys() == db.keys()
            for key in da:
                assert da[key] == pytest.approx(db[key], abs=1e-12, rel=0), key

        ours = pf.alignment_check(wrapped, 0.0, 1.0, 2001)
        theirs = pf.alignment_check(bump_model, 0.0, 1.0, 2001)
        np.testing.assert_allclose(ours.lhs, theirs.lhs, rtol=0, atol=1e-12)
        np.testing.assert_allclose(ours.rhs, theirs.rhs, rtol=0, atol=1e-12)

        for kind in ("rgd", "prm"):
            ours = [r.location[0] for r in pf.find_equilibria(wrapped, kind, grid_n=2001)]
            theirs = [r.location[0] for r in pf.find_equilibria(bump_model, kind, grid_n=2001)]
            np.testing.assert_allclose(ours, theirs, rtol=0, atol=1e-12)


def _flat_model(n):
    box = pf.Box(np.zeros(n), np.ones(n))
    return pf.CallableModel(dimension=n, domain=box, risk=lambda x1, x2: 0.0)


_BUMP = pf.BernoulliSquaredModel(shift=pf.bump_shift())

REFUSALS = {
    "no-coefficients": (lambda: pf.clamped_polynomial_shift(()), "need at least one polynomial coefficient"),
    "infinite-coefficient": (
        lambda: pf.clamped_polynomial_shift((0.0, math.inf)), "polynomial coefficients must be finite"),
    "knot-lengths": (
        lambda: pf.tabulated_shift([0.0, 1.0], [0.0, 0.5, 1.0]),
        "knot coordinate and value arrays differ in length"),
    "integrate-discrete": (
        lambda: pf.integrate_flow(_BUMP, "discrete-rgd", 0.1, 1.0), "'discrete-rgd' is not a continuous flow"),
    "negative-steps": (
        lambda: pf.discrete_rgd(_BUMP, 0.1, -1, pf.StepSchedule.constant(0.01), pf.NoiseSpec.none()),
        "number of steps must be nonnegative"),
    "box-shapes": (
        lambda: pf.Box(np.zeros(2), np.ones(3)), "box bounds must be 1-D arrays of equal length"),
    "bernoulli-2d": (
        lambda: pf.BernoulliSquaredModel(shift=pf.bump_shift(), domain=pf.Box(np.zeros(2), np.ones(2))),
        "this model is one-dimensional"),
    "trailing-axis": (
        lambda: pf.performative_risk(_BUMP, [[0.1, 0.2]]), "expected 1-vector states, got shape (1, 2)"),
    "scan-grid-1": (lambda: pf.basin_scan(_BUMP, "rgd", [], grid_n=1), "grid must have at least 2 points"),
    "scan-3d": (
        lambda: pf.basin_scan(_flat_model(3), "rgd", []),
        "basin scans are supported in one and two dimensions only"),
    "fit-mode": (
        lambda: pf.estimate_perturbation_envelope(_BUMP, 0.0, 0.4, fit_mode="bogus"), "unknown fit mode 'bogus'"),
    "negative-distance": (
        lambda: pf.gradient_norm_bracket(
            pf.SmoothnessConstants(loss_lipschitz=1.0, strong_convexity=1.0, smoothness=1.0,
                                   grad_data_lipschitz=1.0, sensitivity=1.0), -1.0),
        "distance must be nonnegative"),
    "align-2d": (
        lambda: pf.alignment_check(_flat_model(2), 0.0, 1.0, 11), "the alignment check is defined for scalar models"),
}


@pytest.mark.parametrize("call, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_library_refusals_name_their_reason(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
