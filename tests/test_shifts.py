"""The shift maps: values, derivatives, and their finite-difference agreement."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

import perflow as pf


def fd_derivative(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def scaled_error(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


class TestBump:
    @pytest.mark.parametrize("x,expected", [(0.0, 0.0), (1.0, 1.0), (-3.0, 0.0), (2.0, 1.0)])
    def test_piecewise_values(self, x, expected):
        assert pf.bump_phi(x) == expected

    def test_value_at_0p4_matches_direct_formula(self):
        # independent evaluation: exponent 1 - 1/(0.4 * 1.6)
        expected = math.exp(1.0 - 1.0 / 0.64)
        assert pf.bump_phi(0.4) == pytest.approx(expected, rel=1e-15)
        assert pf.bump_phi(0.4) == pytest.approx(0.5697828247309231, rel=1e-12)

    @pytest.mark.parametrize("x", [0.0, 1.0, -0.5, 1.5])
    def test_derivative_vanishes_outside_open_interval(self, x):
        assert pf.bump_phi_prime(x) == 0.0

    def test_derivative_matches_direct_formula(self):
        x = 0.3
        t = x * (2.0 - x)
        expected = math.exp(1.0 - 1.0 / t) * 2.0 * (1.0 - x) / t**2
        assert pf.bump_phi_prime(x) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("delta", [1e-2, 1e-4, 1e-6])
    def test_continuity_at_knees(self, delta):
        assert abs(pf.bump_phi(delta) - 0.0) < 2.0 * delta
        assert abs(pf.bump_phi(1.0 - delta) - 1.0) < 2.0 * delta

    def test_derivative_agrees_with_finite_differences(self):
        # away from the knees at 0 and 1 by at least 1e-3
        for x in np.linspace(1e-3, 1.0 - 1e-3, 211):
            fd = fd_derivative(pf.bump_phi, x)
            assert scaled_error(fd, pf.bump_phi_prime(x)) <= 1e-5

    @given(st.floats(min_value=-10.0, max_value=10.0, allow_nan=False))
    def test_value_bounded_and_derivative_nonnegative(self, x):
        assert 0.0 <= pf.bump_phi(x) <= 1.0
        assert pf.bump_phi_prime(x) >= 0.0

    def test_no_overflow_near_lower_knee(self):
        tiny = np.array([1e-320, 1e-100, 1e-10])
        assert np.all(pf.bump_phi(tiny) == 0.0)
        assert np.all(np.isfinite(pf.bump_phi_prime(tiny)))

    def test_scalar_and_array_paths_agree(self):
        # the scalar path uses math.exp, the array path np.exp; they may
        # differ in the last ulp but nothing beyond
        xs = np.linspace(-0.5, 1.5, 101)
        vals = pf.bump_phi(xs)
        ders = pf.bump_phi_prime(xs)
        for i, x in enumerate(xs):
            assert vals[i] == pytest.approx(pf.bump_phi(float(x)), rel=1e-15, abs=0.0)
            assert ders[i] == pytest.approx(pf.bump_phi_prime(float(x)), rel=1e-15, abs=0.0)


def reference_bump_phi(x):
    # the array path before it was trimmed, kept as the bitwise oracle
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape)
    out[x >= 1.0 - 1e-12] = 1.0
    inner = (x > 0.0) & (x < 1.0 - 1e-12)
    t = np.maximum(x[inner] * (2.0 - x[inner]), 1e-300)
    out[inner] = np.exp(1.0 - 1.0 / t)
    return out


def reference_bump_phi_prime(x):
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape)
    inner = (x > 0.0) & (x < 1.0 - 1e-12)
    t = np.where(inner, x * (2.0 - x), 1.0)
    good = inner & (t >= 1e-4)
    tg = t[good]
    out[good] = np.exp(1.0 - 1.0 / tg) * 2.0 * (1.0 - x[good]) / (tg * tg)
    return out


def masked_bump_phi_prime(x):
    # the mask-and-scatter form with the t clamp, which the select form replaced
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape)
    inner = (x > 0.0) & (x < 1.0 - 1e-12)
    xi = x[inner]
    t = np.maximum(xi * (2.0 - xi), 1e-4)
    out[inner] = np.exp(1.0 - 1.0 / t) * 2.0 * (1.0 - xi) / (t * t)
    return out


def guarded_bump_phi(x):
    # the float path while it still cut t < 1e-300 by hand
    if x <= 0.0:
        return 0.0
    if x >= 1.0 - 1e-12:
        return 1.0
    t = x * (2.0 - x)
    if t < 1e-300:
        return 0.0
    return math.exp(1.0 - 1.0 / t)


def masked_tabulated_derivative(knots_x, knots_p):
    from scipy.interpolate import PchipInterpolator

    dinterp = PchipInterpolator(knots_x, knots_p, extrapolate=False).derivative()
    lo, hi = knots_x[0], knots_x[-1]

    def derivative(x):
        x = np.asarray(x, dtype=float)
        inside = (x >= lo) & (x <= hi)
        out = np.zeros(x.shape)
        out[inside] = dinterp(x[inside])
        return out

    return derivative


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def neighbours(x, count=4):
    """``x`` and the ``count`` floats on each side of it."""
    below, above = [x], [x]
    for _ in range(count):
        below.append(np.nextafter(below[-1], -np.inf))
        above.append(np.nextafter(above[-1], np.inf))
    return below[1:] + above


class TestBumpArrayPaths:
    # where x * (2 - x) crosses the 1e-4 cut of bump_phi_prime
    T_CUT = 1e-4 / (1.0 + math.sqrt(1.0 - 1e-4))
    SPECIAL = [0.0, -0.0, 5e-324, 1e-310, math.nan, math.inf, -math.inf, 1.0, 2.0, 1e150, -1e150,
               *neighbours(1.0 - 1e-12), *neighbours(1.0 - 2e-12), *neighbours(T_CUT, 8)]

    @pytest.mark.parametrize(
        "fn, reference",
        [(pf.bump_phi, reference_bump_phi), (pf.bump_phi_prime, reference_bump_phi_prime),
         (pf.bump_phi_prime, masked_bump_phi_prime)],
    )
    def test_bitwise_equal_to_reference(self, fn, reference):
        rng = np.random.default_rng(7)
        draw = np.concatenate([rng.uniform(-0.5, 1.5, 900_000), rng.uniform(-1e-3, 1e-3, 50_000),
                               1.0 - rng.uniform(0.0, 1e-11, 50_000)])
        xs = np.concatenate([self.SPECIAL, draw])
        for batch in (xs, draw[::-1].reshape(-1, 5), np.array(self.SPECIAL), np.empty(0)):
            got, want = fn(batch), reference(batch)
            assert got.shape == want.shape == batch.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
        # beyond |x| ~ 1.3e154, x * (2 - x) overflows on lanes that bump_phi's select discards
        huge = np.array([1e200, -1e200, np.finfo(float).max, -np.finfo(float).max])
        with np.errstate(over="ignore"):
            assert same_bits(fn(huge), reference(huge))

    @pytest.mark.parametrize("fn", [pf.bump_phi, pf.bump_phi_prime])
    def test_scalar_input_types_agree_bitwise(self, fn):
        for x in self.SPECIAL:
            bits = {np.float64(fn(arg)).view(np.int64) for arg in (float(x), np.float64(x), np.array(x))}
            assert len(bits) == 1, x

    def test_float_path_equals_guarded_path(self):
        rng = np.random.default_rng(18)
        xs = [*self.SPECIAL, *np.geomspace(5e-324, 1e-2, 400), *rng.uniform(-0.5, 1.5, 600)]
        assert len(xs) >= 1000
        for x in map(float, xs):
            assert same_bits(pf.bump_phi(x), guarded_bump_phi(x)), x

    def test_cut_neighbourhood_straddles_the_cut(self):
        ts = [x * (2.0 - x) for x in neighbours(self.T_CUT, 8)]
        assert min(ts) < 1e-4 <= max(ts)


class TestLogistic:
    def test_values_strictly_inside_unit_interval(self):
        s = pf.logistic_shift(rate=4.0, midpoint=0.25)
        xs = np.linspace(-5.0, 5.0, 101)
        p = s.value(xs)
        assert np.all((p > 0.0) & (p < 1.0))

    def test_derivative_matches_finite_differences(self):
        s = pf.logistic_shift(rate=6.0, midpoint=0.5)
        for x in np.linspace(-1.0, 2.0, 61):
            assert scaled_error(fd_derivative(s.value, x), float(s.derivative(x))) <= 1e-5

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            pf.logistic_shift(rate=0.0)

    def test_overflowing_exp_gives_zero_without_warning(self):
        xs = np.linspace(-0.5, 1.5, 2001)
        # rate 1000 on [-0.5, 1.5]: exp's argument spans -1000..1000; midpoint 1e308:
        # the argument itself overflows to +inf on the whole domain
        for rate, midpoint in ((1000.0, 0.5), (8.0, 1e308)):
            s = pf.logistic_shift(rate=rate, midpoint=midpoint)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                p, dp = s.value(xs), s.derivative(xs)
                floats = np.array([s.value(float(x)) for x in xs])
            with np.errstate(over="ignore"):  # the unguarded formula
                want = 1.0 / (1.0 + np.exp(-rate * (xs - midpoint)))
            assert p[0] == dp[0] == 0.0
            assert np.array_equal(p.view(np.int64), want.view(np.int64))
            assert np.array_equal(floats.view(np.int64), want.view(np.int64))


class TestClampedPolynomial:
    def test_linear_clamp(self):
        s = pf.clamped_polynomial_shift((0.0, 1.0))  # p(x) = clamp(x, 0, 1)
        assert float(s.value(0.5)) == 0.5
        assert float(s.value(-2.0)) == 0.0
        assert float(s.value(3.0)) == 1.0
        assert float(s.derivative(0.5)) == 1.0
        assert float(s.derivative(-2.0)) == 0.0
        # the kinks are at the clamp levels 0 and 1: slope 1 between them, 0 outside
        assert [float(s.derivative(x)) for x in (-1e-9, 1e-9, 1 - 1e-9, 1 + 1e-9)] == [0.0, 1.0, 1.0, 0.0]

    def test_constant_shift_is_flat(self):
        s = pf.constant_shift(0.5)
        xs = np.linspace(-3.0, 3.0, 31)
        assert np.all(s.value(xs) == 0.5)
        assert np.all(s.derivative(xs) == 0.0)

    def test_constant_level_validated(self):
        with pytest.raises(ValueError):
            pf.constant_shift(1.5)

    def test_quadratic_derivative_matches_fd_off_breakpoints(self):
        s = pf.clamped_polynomial_shift((0.1, 0.2, 0.5))
        # the kinks solve 0.1 + 0.2x + 0.5x^2 = level: the discriminant 0.04 - 2 (0.1 - level)
        # is negative at level 0 and 1.84 at level 1, so the roots are -0.2 - sqrt(1.84) and -0.2 + sqrt(1.84)
        kinks = [-0.2 - math.sqrt(1.84), -0.2 + math.sqrt(1.84)]
        for x in np.linspace(-0.8, 1.0, 41):
            if min(abs(x - b) for b in kinks) < 1e-2:
                continue
            assert scaled_error(fd_derivative(s.value, x), float(s.derivative(x))) <= 1e-5


    def test_overflowing_cubic_gives_its_plateaus_without_warning(self):
        # 0.1 x^3 overflows beyond about 1e103; the sign of the overflow picks the plateau
        s = pf.clamped_polynomial_shift((0.2, 0.5, 0.0, 0.1))
        xs = np.array([-1e154, -1e120, 1e120, 1e154])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p, dp = s.value(xs), s.derivative(xs)
            floats = [(float(s.value(float(x))), float(s.derivative(float(x)))) for x in xs]
        assert p.tolist() == [0.0, 0.0, 1.0, 1.0]
        assert dp.tolist() == [0.0] * 4
        assert floats == list(zip(p.tolist(), dp.tolist()))


class TestTabulated:
    def test_interpolates_knots_and_holds_ends(self):
        s = pf.tabulated_shift([0.0, 0.5, 1.0], [0.0, 0.8, 1.0])
        assert float(s.value(0.5)) == pytest.approx(0.8, abs=1e-12)
        assert float(s.value(-1.0)) == 0.0
        assert float(s.value(2.0)) == 1.0
        assert float(s.derivative(-1.0)) == 0.0

    def test_values_stay_in_unit_interval(self):
        s = pf.tabulated_shift([0.0, 0.2, 0.6, 1.0], [0.0, 0.9, 0.1, 1.0])
        xs = np.linspace(-0.5, 1.5, 401)
        p = s.value(xs)
        assert np.all((p >= 0.0) & (p <= 1.0))

    def test_derivative_matches_fd_between_knots(self):
        knots = [0.0, 0.25, 0.5, 0.75, 1.0]
        s = pf.tabulated_shift(knots, [0.0, 0.2, 0.6, 0.9, 1.0])
        for x in np.linspace(0.05, 0.95, 37):
            if min(abs(x - b) for b in knots) < 2e-2:
                continue
            assert scaled_error(fd_derivative(s.value, x), float(s.derivative(x))) <= 1e-5

    def test_derivative_equals_masked_kernel(self):
        xs, ps = [0.0, 0.25, 0.5, 0.75, 1.0], [0.0, 0.2, 0.6, 0.9, 1.0]
        s, masked = pf.tabulated_shift(xs, ps), masked_tabulated_derivative(xs, ps)
        special = [*xs, -0.0, math.nan, math.inf, -math.inf, 5e-324, *neighbours(1.0), 1e300, -1e300]
        draw = np.random.default_rng(18).uniform(-0.5, 1.5, 1_000_000)
        for batch in (np.concatenate([special, draw]), draw.reshape(-1, 4), np.empty(0)):
            assert same_bits(s.derivative(batch), masked(batch))
        for x in special:
            assert same_bits(s.derivative(x), masked(x)), x

    @pytest.mark.parametrize(
        "xs,ps",
        [([0.0], [0.0]), ([0.0, 0.0], [0.0, 1.0]), ([0.0, 1.0], [0.0, 1.2]), ([-1e150, 1e150], [0.0, 1.0]),
         ([0.0, np.inf], [0.0, 1.0]), ([0.0, 1.0], [0.0, np.nan])],
    )
    def test_rejects_bad_knots(self, xs, ps):
        with pytest.raises(ValueError):
            pf.tabulated_shift(xs, ps)

    def test_every_built_shift_keeps_the_pchip_shape_between_knots(self):
        # knots spread log-uniformly over the whole float range: about a third build,
        # and every one that does must read as PCHIP does analytically inside each span
        rng = np.random.default_rng(32)
        fractions = np.array([0.1, 0.5, 0.9])
        built = 0
        for _ in range(3000):
            k = int(rng.integers(2, 5))
            magnitudes = 10.0 ** rng.uniform(-320, 308, k)
            xs = np.sort(np.where(rng.random(k) < 0.1, 0.0, rng.choice([-1.0, 1.0], k) * magnitudes))
            ps = np.round(rng.random(k), 2)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    s = pf.tabulated_shift(xs.tolist(), ps.tolist())
                except ValueError:
                    continue
            built += 1
            for a, b, pa, pb in zip(xs, xs[1:], ps, ps[1:]):
                # fractions of the span (a convex mix cannot overflow) and the points just inside both ends
                inner = np.concatenate([a * (1.0 - fractions) + b * fractions,
                                        [np.nextafter(a, np.inf), np.nextafter(b, -np.inf)]])
                p, dp = s.value(inner), s.derivative(inner)
                # the cubic's evaluation roundoff is a few ulps of its knot values (7.8e-16 at most seen)
                assert np.all((p >= min(pa, pb) - 1e-12) & (p <= max(pa, pb) + 1e-12)), (xs, ps, inner, p)
                assert np.all(np.isfinite(dp)), (xs, ps, inner, dp)
        assert built > 500


def test_a_shift_is_its_two_functions():
    assert [f.name for f in dataclasses.fields(pf.ShiftFunction)] == ["value", "derivative"]
    shifts = (pf.bump_shift(), pf.logistic_shift(), pf.clamped_polynomial_shift((0.1, 0.5)),
              pf.tabulated_shift([0.0, 1.0], [0.0, 1.0]))
    for shift in shifts:
        assert set(vars(shift)) == {"value", "derivative"}
