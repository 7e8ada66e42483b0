"""Curvature certificates, envelopes, convergence bounds, and alignment."""

import numpy as np
import pytest

import perflow as pf
from perflow.equilibria import PRM_MINIMIZER


def v(x):
    return np.array([float(x)])


@pytest.fixture(scope="module")
def bump_cert_04(bump_model):
    return pf.estimate_curvature_constants(bump_model, v(0.0), 0.4, grid_n=4001)


@pytest.fixture(scope="module")
def bump_env_04(bump_model):
    return pf.estimate_perturbation_envelope(bump_model, v(0.0), 0.4, grid_n=4001)


class TestCurvatureConstants:
    def test_pure_quadratic_is_exact(self, quadratic_model):
        # risk x^2/2: value ratio 1/2 and gradient ratio 1 at every point
        cert = pf.estimate_curvature_constants(quadratic_model, v(0.0), 0.3, grid_n=1001)
        assert cert.c1 == pytest.approx(0.5, abs=1e-12)
        assert cert.c2 == pytest.approx(0.5, abs=1e-12)
        assert cert.c3 == pytest.approx(1.0, abs=1e-12)
        assert cert.c4 == pytest.approx(1.0, abs=1e-12)
        assert cert.valid

    def test_builtin_constants_at_headline_radius(self, bump_cert_04):
        assert bump_cert_04.c1 == pytest.approx(0.50, abs=0.02)
        assert bump_cert_04.c2 == pytest.approx(1.78, abs=0.03)

    @pytest.mark.parametrize("x_star", [np.zeros(2), np.zeros((1, 1))])
    def test_x_star_that_is_not_a_point_of_the_model_rejected(self, bump_model, x_star):
        # a (2,) centre once broadcast against the 1-D grid: c1 0.25, c2 0.887 at r = 0.4
        with pytest.raises(ValueError, match="x_star"):
            pf.estimate_curvature_constants(bump_model, x_star, 0.4, grid_n=401)
        with pytest.raises(ValueError, match="x_star"):
            pf.estimate_perturbation_envelope(bump_model, x_star, 0.4, grid_n=401)

    def test_x_star_outside_the_domain_rejected(self, bump_model):
        # the ball around 5 once clipped to the reversed interval [4.6, 1.5]
        with pytest.raises(pf.OutOfDomainError):
            pf.estimate_curvature_constants(bump_model, v(5.0), 0.4, grid_n=401)
        with pytest.raises(pf.OutOfDomainError):
            pf.estimate_perturbation_envelope(bump_model, v(5.0), 0.4, grid_n=401)

    def test_gradient_side_fails_once_ball_swallows_the_crossing(self, bump_model):
        cert = pf.estimate_curvature_constants(bump_model, v(0.0), 0.5, grid_n=4001)
        assert not cert.gradient_side_valid
        assert cert.value_side_valid
        assert not cert.valid

    def test_valid_strictly_inside_the_crossing(self, bump_model):
        cert = pf.estimate_curvature_constants(bump_model, v(0.0), 0.3, grid_n=2001)
        assert cert.valid

    def test_bracket_holds_at_every_grid_point(self, bump_model, bump_cert_04):
        c = bump_cert_04
        xs = np.linspace(-0.4, 0.4, 4001)
        d = np.abs(xs)
        keep = d >= c.exclusion_radius
        xs, d = xs[keep], d[keep]
        gap = pf.performative_risk(bump_model, xs[:, None])
        grad = np.abs(
            pf.prm_vector_field(bump_model, xs[:, None])[:, 0]
        )  # |field| == |total gradient|
        assert np.all(c.c1 * d**2 <= gap + 1e-12)
        assert np.all(gap <= c.c2 * d**2 + 1e-12)
        assert np.all(c.c3 * d <= grad + 1e-12)
        assert np.all(grad <= c.c4 * d + 1e-12)

    def test_constants_monotone_as_ball_shrinks(self, bump_model):
        # each radius grids the ball afresh, so the sup/inf estimates wobble
        # by O(cell^2); allow that much slack on the exact monotonicity
        radii = [0.4, 0.3, 0.2, 0.1, 0.05]
        certs = pf.sweep_curvature_constants(bump_model, v(0.0), radii, grid_n=2001)
        for bigger, smaller in zip(certs, certs[1:]):
            assert smaller.c1 >= bigger.c1 - 1e-5
            assert smaller.c3 >= bigger.c3 - 1e-5
            assert smaller.c2 <= bigger.c2 + 1e-5
            assert smaller.c4 <= bigger.c4 + 1e-5

    def test_not_a_minimizer_detected(self, bump_model):
        with pytest.raises(pf.NotAMinimizerError):
            pf.estimate_curvature_constants(bump_model, v(0.5), 0.3, grid_n=501)

    def test_center_off_grid_minimizer_about_one(self, bump_model):
        cert = pf.estimate_curvature_constants(bump_model, v(1.0), 0.3, grid_n=2001)
        assert cert.value_side_valid
        assert cert.c1 > 0.1

    def test_parameter_validation(self, bump_model):
        with pytest.raises(ValueError):
            pf.estimate_curvature_constants(bump_model, v(0.0), -0.1)
        with pytest.raises(ValueError):
            pf.estimate_curvature_constants(bump_model, v(0.0), 0.4, grid_n=10)

    def test_two_dimensional_quadratic(self):
        # R(x1, x2) = |x1 - 0.3 x2|^2 / 2: diagonal risk 0.245 |x|^2
        s = 0.3

        def risk(x1, x2):
            d = x1 - s * x2
            return 0.5 * float(d @ d)

        m = pf.CallableModel(
            dimension=2,
            domain=pf.Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0])),
            risk=risk,
            grad1=lambda x1, x2: x1 - s * x2,
            grad2=lambda x1, x2: -s * (x1 - s * x2),
        )
        cert = pf.estimate_curvature_constants(m, np.zeros(2), 0.5, grid_n=10_000)
        assert cert.valid
        assert cert.c1 == pytest.approx(0.5 * (1 - s) ** 2, rel=1e-9)
        assert cert.c2 == pytest.approx(0.5 * (1 - s) ** 2, rel=1e-9)
        assert cert.c3 == pytest.approx((1 - s) ** 2, rel=1e-9)
        assert cert.c4 == pytest.approx((1 - s) ** 2, rel=1e-9)
        env = pf.estimate_perturbation_envelope(m, np.zeros(2), 0.5, grid_n=10_000)
        assert env.epsilon == pytest.approx(s * (1 - s), rel=1e-9)


class TestFeasibleRadius:
    def test_headline_value(self, bump_cert_04):
        assert pf.feasible_radius(bump_cert_04) == pytest.approx(0.21, abs=0.01)

    def test_equal_constants_return_radius(self, quadratic_model):
        cert = pf.estimate_curvature_constants(quadratic_model, v(0.0), 0.25, grid_n=1001)
        assert pf.feasible_radius(cert) == pytest.approx(0.25, rel=1e-9)

    def test_sweep_peaks_at_the_largest_usable_radius(self, bump_model):
        radii = np.arange(0.01, 0.401, 0.01)
        feas = [
            pf.feasible_radius(c)
            for c in pf.sweep_curvature_constants(bump_model, v(0.0), radii, grid_n=2001)
        ]
        assert radii[int(np.argmax(feas))] == pytest.approx(0.40, abs=0.01)

    def test_degenerate_value_side_rejected(self, bump_cert_04):
        broken = pf.CurvatureCertificate(
            x_star=v(0.0), radius=0.4, c1=-1.0, c2=1.0, c3=0.1, c4=1.0,
            grid_n=100, exclusion_radius=0.0,
            value_side_valid=False, gradient_side_valid=True,
        )
        with pytest.raises(pf.InvalidCertificateError):
            pf.feasible_radius(broken)


class TestPerturbationEnvelope:
    def test_linear_fit_covers_perturbation_with_zero_offset(self, bump_model, bump_env_04):
        assert bump_env_04.delta == 0.0
        assert np.isfinite(bump_env_04.epsilon)
        xs = np.linspace(-0.4, 0.4, 40_001)  # 10x finer than the fit grid
        g = np.abs(pf.performative_perturbation(bump_model, xs[:, None])[:, 0])
        assert np.all(g <= bump_env_04.bound(np.abs(xs)) + 1e-9)

    def test_vanishing_perturbation_gives_zero_envelope(self, quadratic_model):
        env = pf.estimate_perturbation_envelope(quadratic_model, v(0.0), 0.3, grid_n=1001)
        assert env.epsilon == 0.0 and env.delta == 0.0

    def test_slope_matches_independent_scan_about_one(self, bump_model):
        env = pf.estimate_perturbation_envelope(bump_model, v(1.0), 0.3, grid_n=4001)
        xs = np.linspace(0.7, 1.3, 4001)
        d = np.abs(xs - 1.0)
        keep = d >= 2.0 * (xs[1] - xs[0])  # same two-cell exclusion as the fit
        t = np.clip(xs * (2.0 - xs), 1e-12, None)
        dp = np.where((xs > 0) & (xs < 1), np.exp(1.0 - 1.0 / t) * 2.0 * (1.0 - xs) / t**2, 0.0)
        expected = np.max(np.abs((0.5 - xs[keep]) * dp[keep]) / d[keep])
        assert env.epsilon == pytest.approx(expected, rel=1e-9)

    def test_capped_fit_absorbs_excess_into_offset(self, bump_model):
        cap = 1.0
        env = pf.estimate_perturbation_envelope(
            bump_model, v(0.0), 0.4, grid_n=4001, epsilon_cap=cap
        )
        xs = np.linspace(-0.4, 0.4, 4001)
        g = np.abs(pf.performative_perturbation(bump_model, xs[:, None])[:, 0])
        expected = np.max(np.maximum(0.0, g - cap * np.abs(xs)))
        assert env.epsilon == cap
        assert env.delta == pytest.approx(expected, rel=1e-12)

    def test_capped_fit_requires_cap(self, bump_model):
        # without a cap the fit is delta-zero: no offset
        env = pf.estimate_perturbation_envelope(bump_model, v(0.0), 0.4)
        assert env.fit_mode == "delta-zero" and env.delta == 0.0

    @pytest.mark.parametrize("cap", [0.0, 1.0])
    def test_a_cap_gives_the_capped_fit(self, bump_model, cap):
        env = pf.estimate_perturbation_envelope(bump_model, v(0.0), 0.4, grid_n=401, epsilon_cap=cap)
        assert env.fit_mode == env.to_dict()["fit_mode"] == "epsilon-capped"
        assert env.epsilon == cap and env.delta > 0.0

    @pytest.mark.parametrize(
        "x_star, radius", [(0.0, 1e-170), (0.0, 1e-300), (0.3, 1e-170), (0.0, 1e-160), (0.0, 1e-155)]
    )
    def test_ball_with_nothing_outside_the_exclusion_ball_rejected(self, bump_model, x_star, radius):
        # at 0 the squared distances underflow, so every point fell inside the
        # exclusion ball (a silent zero envelope); at 0.3 the lattice is one point.
        # At 1e-160 and 1e-155 the kept squares are subnormal: 1e-160 gave a
        # "valid" c1 = 0.4, c2 = 0.514 where both are 0.5
        for estimate in (pf.estimate_curvature_constants, pf.estimate_perturbation_envelope):
            with pytest.raises(ValueError, match=f"radius {radius}"):
                estimate(bump_model, v(x_star), radius, grid_n=100)

    def test_tiny_ball_with_points_outside_the_exclusion_ball_still_certified(self, bump_model):
        # the smallest kept squared distance, (4e-152)^2, is still a normal float
        cert = pf.estimate_curvature_constants(bump_model, v(0.0), 1e-150, grid_n=100)
        assert cert.c1 == pytest.approx(0.5, rel=1e-9) and cert.valid
        assert f"{cert.c1:.2f} {cert.c2:.2f}" == "0.50 0.50"
        assert pf.estimate_perturbation_envelope(bump_model, v(0.0), 1e-150, grid_n=100).delta == 0.0

    @pytest.mark.parametrize("grid_n", [0, 1, 2])
    def test_grid_below_minimum_rejected(self, bump_model, grid_n):
        # 2 points once gave a silent zero envelope (both in the exclusion
        # ball); 0 and 1 ended in bare numpy errors
        with pytest.raises(ValueError, match="grid points"):
            pf.estimate_perturbation_envelope(bump_model, v(0.0), 0.4, grid_n=grid_n)


def bound_sweep(model, x_star):
    """Bound reports at radii 0.01-0.10 about ``x_star`` (grid 2001).

    Envelope caps none, 0, 0.01, 0.02, 0.05 and 0.1; ``x0`` at half and at
    all of the feasible radius above ``x_star``; the 19 theta of
    ``theta_tradeoff``.
    """
    for radius in np.arange(1, 11) / 100:
        cert = pf.estimate_curvature_constants(model, x_star, radius, grid_n=2001)
        feasible = pf.feasible_radius(cert)
        for cap in (None, 0.0, 0.01, 0.02, 0.05, 0.1):
            env = pf.estimate_perturbation_envelope(model, x_star, radius, grid_n=2001, epsilon_cap=cap)
            for share in (0.5, 1.0):
                yield from pf.theta_tradeoff(cert, env, x_star + share * feasible)


def stated_theta_condition(report):
    """The theta condition with the prefactor ``sqrt(c2/c1)``, which ``admissible`` does not use."""
    cert, env = report.certificate, report.envelope
    slack = cert.radius * (cert.c3**2 / cert.c4 - env.epsilon)
    return env.delta <= np.sqrt(cert.c2 / cert.c1) * (1.0 - report.theta) * slack


class TestThetaCondition:
    """An admissible report keeps its transient and its ultimate ball inside the certified ball."""

    @pytest.mark.parametrize("shift", ["bump", "logistic"])
    def test_admissible_bounds_stay_in_the_certified_ball(self, shift):
        model = pf.BernoulliSquaredModel(shift=pf.bump_shift() if shift == "bump" else pf.logistic_shift())
        # the logistic's lower PR minimiser, -0.0423
        x_star = v(0.0) if shift == "bump" else next(
            r.location for r in pf.find_equilibria(model, "prm") if PRM_MINIMIZER in r.labels)
        admissible = [r for r in bound_sweep(model, x_star) if r.admissible]
        assert len(admissible) == {"bump": 1182, "logistic": 30}[shift]
        for r in admissible:
            radius = r.certificate.radius
            assert r.ultimate_radius <= radius
            # x0 at all of the feasible radius: sqrt(c2/c1) * sqrt(c1/c2) * r rounds up to 1 ulp above r
            assert r.transient_prefactor * r.initial_distance <= radius + np.spacing(radius)

    def test_stated_prefactor_would_admit_wider_ultimate_balls(self, bump_model):
        # 24 configurations of the bump pass the condition with sqrt(c2/c1)
        # while their ultimate balls are 1.0003 to 1.11 times the certified one
        wider = [
            r for r in bound_sweep(bump_model, v(0.0))
            if r.epsilon_admissible and r.initial_condition_admissible and stated_theta_condition(r)
            and r.ultimate_radius > r.certificate.radius
        ]
        ratios = [r.ultimate_radius / r.certificate.radius for r in wider]
        assert len(wider) == 24 and 1.0003 < min(ratios) and max(ratios) < 1.111
        assert not any(r.theta_admissible or r.admissible for r in wider)


class TestUltimateBounds:
    def test_zero_offset_means_exponential_convergence(self, bump_model):
        cert = pf.estimate_curvature_constants(bump_model, v(0.0), 0.05, grid_n=2001)
        env = pf.estimate_perturbation_envelope(bump_model, v(0.0), 0.05, grid_n=2001)
        report = pf.ultimate_bounds(cert, env, v(0.03), 0.5)
        assert env.delta == 0.0
        assert report.ultimate_radius == 0.0
        assert report.t_bound == np.inf
        assert report.admissible
        assert report.alpha > 0

    @pytest.mark.parametrize("theta", [0.25, 0.5, 0.75])
    def test_admissible_envelope_contains_trajectory(self, bump_model, theta):
        # a ball small enough that the slope hypothesis genuinely holds
        cert = pf.estimate_curvature_constants(bump_model, v(0.0), 0.05, grid_n=2001)
        env = pf.estimate_perturbation_envelope(bump_model, v(0.0), 0.05, grid_n=2001)
        x0 = 0.9 * pf.feasible_radius(cert)
        report = pf.ultimate_bounds(cert, env, v(x0), theta)
        assert report.admissible
        traj = pf.integrate_flow(bump_model, "rgd", v(x0), 30.0, h=0.01)
        dist = np.abs(traj.states[:, 0])
        bound = report.transient_envelope(traj.times)
        assert np.all(dist <= bound + 1e-12)

    def test_headline_certificate_envelope_still_contains_trajectory(
        self, bump_model, bump_cert_04, bump_env_04
    ):
        # at r = 0.4 the fitted slope exceeds c3^2/c4 (the gradient bracket is
        # already degenerate there), so the hypothesis flags report failure;
        # the bound itself is then vacuous but must still hold
        report = pf.ultimate_bounds(bump_cert_04, bump_env_04, v(0.2), 0.5)
        assert not report.epsilon_admissible
        assert report.initial_condition_admissible
        traj = pf.integrate_flow(bump_model, "rgd", v(0.2), 40.0, h=0.01)
        assert np.all(np.abs(traj.states[:, 0]) <= report.transient_envelope(traj.times) + 1e-12)
        assert abs(traj.final_state[0]) < 1e-6

    def test_oversized_slope_flagged(self, bump_cert_04):
        env = pf.PerturbationEnvelope(
            epsilon=10.0, delta=0.0, radius=0.4, x_star=v(0.0), fit_mode="delta-zero", grid_n=100
        )
        report = pf.ultimate_bounds(bump_cert_04, env, v(0.1), 0.5)
        assert not report.epsilon_admissible
        assert not report.admissible

    def test_oversized_slope_with_offset_has_no_ultimate_ball(self, bump_cert_04):
        # alpha = c3^2 - c4 * epsilon <= 0 and delta > 0: no contraction
        # absorbs the offset, so the bounds are infinite
        env = pf.PerturbationEnvelope(
            epsilon=10.0, delta=0.1, radius=0.4, x_star=v(0.0), fit_mode="epsilon-capped", grid_n=100
        )
        report = pf.ultimate_bounds(bump_cert_04, env, v(0.1), 0.5)
        assert report.alpha <= 0.0
        assert report.mu_theta == report.t_bound == report.ultimate_radius == np.inf
        assert not report.admissible

    def test_rejects_theta_outside_unit_interval(self, bump_cert_04, bump_env_04):
        for theta in (0.0, 1.0, -0.3, 2.0):
            with pytest.raises(ValueError):
                pf.ultimate_bounds(bump_cert_04, bump_env_04, v(0.1), theta)

    def test_positive_offset_gives_finite_entry_time(self, quadratic_model):
        cert = pf.estimate_curvature_constants(quadratic_model, v(0.0), 0.3, grid_n=1001)
        env = pf.PerturbationEnvelope(
            epsilon=0.1, delta=0.01, radius=0.3, x_star=v(0.0), fit_mode="epsilon-capped",
            grid_n=100,
        )
        report = pf.ultimate_bounds(cert, env, v(0.25), 0.5)
        assert report.admissible
        assert 0.0 < report.t_bound < np.inf
        assert report.ultimate_radius > 0.0
        # entry time solves prefactor * exp(-rate T) * d0 = mu
        lhs = report.transient_prefactor * np.exp(-report.transient_rate * report.t_bound) * 0.25
        assert lhs == pytest.approx(report.mu_theta, rel=1e-9)

    def test_x0_of_another_shape_than_x_star_rejected(self, bump_cert_04, bump_env_04):
        # a (2,) x0 once gave initial_distance = |(0.1, 0.2)| = 0.2236
        with pytest.raises(ValueError, match="x0"):
            pf.ultimate_bounds(bump_cert_04, bump_env_04, np.array([0.1, 0.2]), 0.5)
        assert pf.ultimate_bounds(bump_cert_04, bump_env_04, 0.1, 0.5).initial_distance == 0.1

    def test_theta_tradeoff_is_antagonistic(self, quadratic_model):
        cert = pf.estimate_curvature_constants(quadratic_model, v(0.0), 0.3, grid_n=1001)
        env = pf.PerturbationEnvelope(
            epsilon=0.1, delta=0.01, radius=0.3, x_star=v(0.0), fit_mode="epsilon-capped",
            grid_n=100,
        )
        reports = pf.theta_tradeoff(cert, env, v(0.2))
        rates = [r.transient_rate for r in reports]
        radii = [r.ultimate_radius for r in reports]
        assert all(b > a for a, b in zip(rates, rates[1:]))
        assert all(b > a for a, b in zip(radii, radii[1:]))


class TestAnalyticBrackets:
    def test_value_bracket_collapses_for_pure_quadratic(self):
        c = pf.SmoothnessConstants(
            loss_lipschitz=1.0, shift_quadratic_bound=0.0, strong_convexity=1.0, smoothness=1.0
        )
        assert pf.risk_curvature_bracket(c, 0.04) == (pytest.approx(0.02), pytest.approx(0.02))

    def test_value_bracket_at_zero_distance(self):
        c = pf.SmoothnessConstants(
            loss_lipschitz=1.0, shift_quadratic_bound=2.0, strong_convexity=1.0, smoothness=1.0
        )
        assert pf.risk_curvature_bracket(c, 0.0) == (0.0, 0.0)

    def test_gradient_bracket_without_shift(self):
        c = pf.SmoothnessConstants(
            loss_lipschitz=1.0, strong_convexity=1.0, smoothness=1.0,
            grad_data_lipschitz=1.0, sensitivity=0.0,
        )
        assert pf.gradient_norm_bracket(c, 0.3) == (pytest.approx(0.3), pytest.approx(0.3))

    def test_gradient_bracket_lower_end_clamped(self):
        c = pf.SmoothnessConstants(
            loss_lipschitz=1.0, strong_convexity=1.0, smoothness=1.0,
            grad_data_lipschitz=1.0, sensitivity=2.0,
        )
        lower, upper = pf.gradient_norm_bracket(c, 0.0)
        assert lower == 0.0
        assert upper == pytest.approx(4.0)

    def test_missing_constants_reported(self):
        with pytest.raises(pf.MissingConstantsError):
            pf.risk_curvature_bracket(pf.SmoothnessConstants(strong_convexity=1.0), 0.1)
        with pytest.raises(pf.MissingConstantsError):
            pf.gradient_norm_bracket(pf.SmoothnessConstants(strong_convexity=1.0), 0.1)

    def test_negative_distance_rejected(self):
        c = pf.SmoothnessConstants(
            loss_lipschitz=1.0, shift_quadratic_bound=0.0, strong_convexity=1.0, smoothness=1.0
        )
        with pytest.raises(ValueError):
            pf.risk_curvature_bracket(c, -0.1)


class TestAlignment:
    def test_holds_with_equality_where_perturbation_vanishes(self, bump_model):
        report = pf.alignment_check(bump_model, 0.45, 0.55, 11)
        mid = np.argmin(np.abs(report.points - 0.5))
        assert report.lhs[mid] == 0.0 and report.rhs[mid] == 0.0
        assert report.holds[mid]

    def test_condition_fails_somewhere_inside_unit_interval(self, bump_model):
        report = pf.alignment_check(bump_model, 0.0, 1.0, 10_001)
        interior = (report.points > 0.0) & (report.points < 1.0)
        assert np.any(~report.holds[interior])
        assert np.any(report.holds[interior])

    def test_holding_points_descend_at_least_as_fast_as_nominal(self, bump_model):
        report = pf.alignment_check(bump_model, 0.0, 1.0, 10_001)
        for x, ok in zip(report.points, report.holds):
            if not ok:
                continue
            rgd_rate = pf.lyapunov_derivative(bump_model, v(x), "rgd")
            grad = pf.prm_vector_field(bump_model, v(x))[0]
            assert rgd_rate <= -(grad**2) + 1e-12

    def test_specialized_and_general_forms_agree(self, bump_model):
        report = pf.alignment_check(bump_model, 0.0, 1.0, 10_001)
        xs = report.points
        p = pf.bump_phi(xs)
        dp = pf.bump_phi_prime(xs)
        assert np.max(np.abs(report.lhs - (0.5 - xs) ** 2 * dp**2)) <= 1e-10
        assert np.max(np.abs(report.rhs - (p - xs) * (0.5 - xs) * dp)) <= 1e-10

    def test_interval_extraction(self, half_model):
        # constant shift: perturbation identically zero, condition holds everywhere
        report = pf.alignment_check(half_model, 0.0, 1.0, 101)
        assert report.hold_intervals == ((0.0, 1.0),)
        assert report.to_dict()["fraction_holding"] == 1.0

    @pytest.mark.parametrize("lo, hi", [(-5.0, 5.0), (0.0, 1.6), (-0.6, 1.0)])
    def test_interval_outside_the_domain_rejected(self, bump_model, lo, hi):
        with pytest.raises(pf.OutOfDomainError):
            pf.alignment_check(bump_model, lo, hi, 101)

    def test_grid_validation(self, bump_model):
        with pytest.raises(ValueError):
            pf.alignment_check(bump_model, 0.0, 1.0, 1)

    @pytest.mark.parametrize("lo, hi", [(0.9, 0.1), (0.5, 0.5), (float("nan"), 1.0)])
    def test_empty_or_reversed_interval_rejected(self, bump_model, lo, hi):
        # a reversed grid once ran and reported hold_intervals ((0.5, 0.5),)
        with pytest.raises(ValueError, match="lo < hi"):
            pf.alignment_check(bump_model, lo, hi, 5)
