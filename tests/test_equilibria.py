"""Root finding, stability classification, and basin mapping."""

import json
import math

import numpy as np
import pytest

import perflow as pf
import perflow.cli as cli
import perflow.equilibria as eq_mod
import perflow.numerics as numerics_mod
from perflow.config import ExperimentConfig
from perflow.equilibria import INCONCLUSIVE, PERFORMATIVELY_STABLE, PRM_MINIMIZER, UNSTABLE
from perflow.flows import CONVERGED
from perflow.numerics import finite_diff_jacobian


def v(x):
    return np.array([float(x)])


def locations(reports):
    return sorted(float(r.location[0]) for r in reports)


@pytest.fixture(scope="module")
def rgd_roots(bump_model):
    return pf.find_equilibria(bump_model, "rgd", grid_n=2001)


@pytest.fixture(scope="module")
def prm_roots(bump_model):
    return pf.find_equilibria(bump_model, "prm", grid_n=2001)


def planar_model(slope=0.3):
    # two-dimensional: R(x1, x2) = |x1 - slope * x2|^2 / 2
    def risk(x1, x2):
        d = x1 - slope * x2
        return 0.5 * float(d @ d)

    return pf.CallableModel(
        dimension=2,
        domain=pf.Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0])),
        risk=risk,
        grad1=lambda x1, x2: x1 - slope * x2,
        grad2=lambda x1, x2: -slope * (x1 - slope * x2),
    )


def triple_root_model(c, k):
    # R(y, x) = (y - q(x))^2 / 2 + k + c (y - x) x with q(z) = (1 + c) z - (z - 0.3)^3,
    # so grad_x1 R(x, x) = (x - 0.3)^3 and the decision Hessian is 1
    def q(z):
        return (1.0 + c) * z - (z - 0.3) ** 3

    def dq(z):
        return 1.0 + c - 3.0 * (z - 0.3) ** 2

    return pf.CallableModel(
        dimension=1,
        domain=pf.interval(-0.5, 1.5),
        risk=lambda y, x: 0.5 * (y[0] - q(x[0])) ** 2 + k + c * (y[0] - x[0]) * x[0],
        grad1=lambda y, x: np.array([y[0] - q(x[0]) + c * x[0]]),
        grad2=lambda y, x: np.array([(q(x[0]) - y[0]) * dq(x[0]) + c * (y[0] - 2.0 * x[0])]),
    )


def line_model(grad1):
    # rgd field -grad1(x) on [-1, 1]
    return pf.CallableModel(
        dimension=1, domain=pf.interval(-1.0, 1.0), risk=lambda x1, x2: 0.0,
        grad1=grad1, grad2=lambda x1, x2: np.zeros(1),
    )


def flat_zero_model():
    # rgd field (x - 0.3)^5 on [-1, 1]: within 1e-10 of 0 on the 20 points 0.290 to 0.309 of a 2001-point lattice
    return line_model(lambda x1, x2: -(x1 - 0.3) ** 5)


def plateau_model():
    # p(x) = x clamped to [0, 1]: the rgd field is exactly 0 on [0, 1]
    return pf.BernoulliSquaredModel(shift=pf.clamped_polynomial_shift([0.0, 1.0]), domain=(-0.5, 1.5))


def exact_basin_labels(model, kind, reports, xs, eq_tol, match_radius):
    """Basin labels of a scalar autonomous flow, from its roots alone.

    A 1-D flow is monotone: a start between two consecutive roots moves to
    the one its field points at.  So an attracting root owns the open
    interval up to its neighbouring repelling roots or domain edges (an edge
    itself included), and a start toward an edge reaches no root (-1).  A
    start where the field is already within ``eq_tol`` stays where it is.
    """
    attracting = PERFORMATIVELY_STABLE if kind == "rgd" else PRM_MINIMIZER
    field = pf.rgd_vector_field if kind == "rgd" else pf.prm_vector_field
    roots = np.array([r.location[0] for r in reports])
    order = np.argsort(roots)
    edges = np.concatenate([[model.domain.lower[0]], roots[order], [model.domain.upper[0]]])
    labels = np.full(xs.size, -1)
    for pos, i in enumerate(order):
        if attracting not in reports[i].labels:
            continue
        neighbours = order[max(pos - 1, 0):pos + 2]
        assert all(UNSTABLE in reports[j].labels for j in neighbours if j != i)
        left, right = edges[pos], edges[pos + 2]
        above_left = xs >= left if pos == 0 else xs > left
        below_right = xs <= right if pos == order.size - 1 else xs < right
        labels[above_left & below_right] = i
    at_rest = np.abs(field(model, xs[:, None])[:, 0]) <= eq_tol
    nearest = np.argmin(np.abs(xs[:, None] - roots[None, :]), axis=1)
    near = np.abs(xs - roots[nearest]) <= match_radius
    labels[at_rest] = np.where(near, nearest, -1)[at_rest]
    return labels


class TestFindEquilibria:
    def test_rgd_roots_of_builtin(self, rgd_roots):
        locs = locations(rgd_roots)
        assert len(locs) == 3
        assert locs[0] == pytest.approx(0.0, abs=1e-6)
        assert locs[1] == pytest.approx(0.23, abs=0.005)
        assert locs[2] == pytest.approx(1.0, abs=1e-6)

    def test_prm_roots_of_builtin(self, prm_roots):
        locs = locations(prm_roots)
        assert len(locs) == 3
        assert locs[0] == pytest.approx(0.0, abs=1e-6)
        assert locs[1] == pytest.approx(0.40, abs=0.005)
        assert locs[2] == pytest.approx(1.0, abs=1e-6)

    def test_contracting_model_has_single_root(self, half_model):
        reports = pf.find_equilibria(half_model, "rgd", grid_n=501)
        assert locations(reports) == [pytest.approx(0.5, abs=1e-10)]
        assert PERFORMATIVELY_STABLE in reports[0].labels

    def test_residuals_within_refine_tol(self, bump_model):
        tol = 1e-10
        for kind in ("rgd", "prm"):
            for r in pf.find_equilibria(bump_model, kind, grid_n=2001, refine_tol=tol):
                assert r.residual <= tol

    def test_empty_result_when_no_roots(self):
        m = pf.CallableModel(
            dimension=1,
            domain=pf.interval(0.0, 1.0),
            risk=lambda x1, x2: float(x1[0]),
            grad1=lambda x1, x2: np.array([1.0]),
            grad2=lambda x1, x2: np.array([0.0]),
        )
        assert pf.find_equilibria(m, "rgd", grid_n=101) == []

    @pytest.mark.parametrize("kind,root", [("rgd", 0.97875), ("prm", -0.0423)])
    def test_wide_domain_bisects_to_a_root(self, kind, root):
        # one grid cell of width 1e97 brackets every root; 1e97 needs ~380 halvings
        m = pf.BernoulliSquaredModel(shift=pf.logistic_shift(), domain=(-1e100, 1e100))
        reports = pf.find_equilibria(m, kind, grid_n=2001)
        assert locations(reports) == pytest.approx([root], abs=1e-4)
        assert reports[0].residual <= 1e-10

    def test_bracket_left_open_is_dropped(self, monkeypatch):
        # 200 halvings shrink the wide cell only to ~1e37: no root, rather than a point classified there
        monkeypatch.setattr(numerics_mod, "_BISECT_HALVINGS", 200)
        m = pf.BernoulliSquaredModel(shift=pf.logistic_shift(), domain=(-1e100, 1e100))
        assert pf.find_equilibria(m, "rgd", grid_n=2001) == []

    # -(x - 0.3)^3: rounding leaves +1.1e-16 on the lattice point 0.3 and a sign
    # change on the cell after it, one zero.  (x - 0.0004)(x - 0.0016): two
    # zeros in two cells that share the point 0.001.  (x - 0.3)^5: a run of 20
    # lattice points within refine_tol, none exactly 0, one site at its
    # smallest |f|.  -x(x - 0.001): exactly 0 at the point 0 and -1.1e-19 at the
    # next one, two zeros, and so at 1e-4 times that, where the slope at 0 is
    # 1e-7.  -x^5: exactly 0 at the point 0, within refine_tol on the 9 points
    # each side, and flat there, one zero.  1e-3 x^3 (x - 0.0045): within
    # refine_tol from 0.001 to 0.019, across the simple zero 0.0045, so that
    # run stays a site, at its smallest |f|.  The plateau: exactly 0 at each
    # of its 1001 points
    @pytest.mark.parametrize("model, roots", [
        (triple_root_model(1.7, 1.0), [0.3]),
        (flat_zero_model(), [0.3]),
        (line_model(lambda x1, x2: -(x1 - 0.0004) * (x1 - 0.0016)), [0.0004, 0.0016]),
        (line_model(lambda x1, x2: -x1 * (x1 - 0.001)), [0.0, 0.001]),
        (line_model(lambda x1, x2: 1e-4 * x1 * (x1 - 0.001)), [0.0, 0.001]),
        (line_model(lambda x1, x2: x1 ** 5), [0.0]),
        (line_model(lambda x1, x2: -1e-3 * x1 ** 3 * (x1 - 0.0045)), [0.0, 0.001]),
        (plateau_model(), np.linspace(-0.5, 1.5, 2001)[500:1501].tolist()),
    ], ids=["triple", "flat", "adjacent-cells", "adjacent-points", "adjacent-points-small",
            "flat-on-a-point", "sign-change-in-a-run", "plateau"])
    def test_each_zero_is_reported_once(self, model, roots):
        assert locations(pf.find_equilibria(model, "rgd", grid_n=2001)) == pytest.approx(roots, abs=1e-7)

    def test_dedup_compares_a_hit_only_with_roots_just_below_it(self, monkeypatch):
        # the plateau's 1001 lattice roots: each hit meets at most the root
        # kept before it, where comparing with every kept root made 502,502 calls
        calls, norm = [], np.linalg.norm
        monkeypatch.setattr(np.linalg, "norm", lambda *a, **k: calls.append(1) or norm(*a, **k))
        hits = [(x, 0.0) for x in np.linspace(-0.5, 1.5, 2001)[500:1501][::-1]]
        kept = eq_mod._dedup(hits, 1e-9)
        assert len(kept) == 1001 and len(calls) <= 2 * len(hits)

    def test_dedup_keeps_input_order_of_equal_first_coordinates(self):
        a, b, c = np.array([0.5, 1.0]), np.array([0.5, -1.0]), np.array([0.25, 3.0])
        kept = eq_mod._dedup([(a, 1e-12), (b, 2e-12), None, (c, 3e-12)], 1e-9)
        assert [p.tolist() for p, _ in kept] == [c.tolist(), a.tolist(), b.tolist()]
        assert [r for _, r in kept] == [3e-12, 1e-12, 2e-12]
        kept = eq_mod._dedup([(b, 2e-12), (a, 1e-12)], 1e-9)
        assert [p.tolist() for p, _ in kept] == [b.tolist(), a.tolist()]

    def test_grid_too_small_rejected(self, bump_model):
        with pytest.raises(ValueError):
            pf.find_equilibria(bump_model, "rgd", grid_n=2)

    def test_newton_locates_origin_in_two_dimensions(self):
        reports = pf.find_equilibria(planar_model(), "rgd", grid_n=81, refine_tol=1e-12)
        assert len(reports) == 1
        assert np.linalg.norm(reports[0].location) < 1e-10
        assert {PRM_MINIMIZER, PERFORMATIVELY_STABLE} <= reports[0].labels


class TestClassification:
    @pytest.mark.parametrize("x", [0.0, 1.0])
    def test_minimizers_get_both_stable_labels(self, bump_model, x):
        report = pf.classify_equilibrium(bump_model, v(x), tol=1e-8, field_kind="rgd")
        assert report.labels == {PRM_MINIMIZER, PERFORMATIVELY_STABLE}
        assert report.pr_hessian_eigenvalues.min() > 0
        assert report.stability_hessian_eigenvalues.min() > 0
        assert report.rgd_jacobian_eigenvalues.min() > 0

    def test_rgd_crossing_is_unstable(self, rgd_roots):
        middle = [r for r in rgd_roots if 0.1 < r.location[0] < 0.4][0]
        assert middle.labels == {UNSTABLE}
        # repelling: the composed-field Jacobian has a negative direction
        assert middle.rgd_jacobian_eigenvalues.min() < 0
        # yet the frozen-shift decision Hessian is positive: stability in the
        # static sense does not survive the induced drift
        assert middle.stability_hessian_eigenvalues.min() > 0

    def test_prm_crossing_is_unstable(self, prm_roots):
        middle = [r for r in prm_roots if 0.2 < r.location[0] < 0.6][0]
        assert UNSTABLE in middle.labels
        assert middle.pr_hessian_eigenvalues.min() < 0

    def test_crossing_repels_simulated_trajectories(self, bump_model, rgd_roots):
        root = [r for r in rgd_roots if 0.1 < r.location[0] < 0.4][0].location[0]
        below = pf.integrate_flow(bump_model, "rgd", v(root - 0.01), 60.0).final_state[0]
        above = pf.integrate_flow(bump_model, "rgd", v(root + 0.01), 60.0).final_state[0]
        assert abs(below) < 1e-6
        assert abs(above - 1.0) < 1e-6

    def test_not_an_equilibrium(self, bump_model):
        with pytest.raises(pf.NotAnEquilibriumError):
            pf.classify_equilibrium(bump_model, v(0.1), tol=1e-8, field_kind="rgd")

    def test_degenerate_point_is_inconclusive(self):
        # risk x^4/4: gradient x^3, curvature vanishes at the minimizer
        m = pf.CallableModel(
            dimension=1,
            domain=pf.interval(-1.0, 1.0),
            risk=lambda x1, x2: 0.25 * float(x1[0] ** 4),
            grad1=lambda x1, x2: np.array([x1[0] ** 3]),
            grad2=lambda x1, x2: np.array([0.0]),
        )
        report = pf.classify_equilibrium(m, v(0.0), tol=1e-8, field_kind="rgd")
        assert INCONCLUSIVE in report.labels

    @pytest.mark.parametrize("s", [1, 0, -1])
    @pytest.mark.parametrize("j", [1, 0, -1])
    def test_rgd_label_is_the_lower_verdict(self, j, s):
        # at the root 0 the rgd Jacobian is j and the decision Hessian is s
        m = pf.CallableModel(
            dimension=1,
            domain=pf.interval(-1.0, 1.0),
            risk=lambda x1, x2: 0.0,
            grad1=lambda x1, x2: s * (x1 - x2) + j * x2,
            grad2=lambda x1, x2: np.array([1.0]),
        )
        report = pf.classify_equilibrium(m, v(0.0), tol=1e-8, field_kind="rgd")
        assert report.labels == {PERFORMATIVELY_STABLE if j == s == 1 else UNSTABLE if -1 in (j, s) else INCONCLUSIVE}

    @pytest.mark.parametrize("c", [1.7, 37.0])
    @pytest.mark.parametrize("k", [1.0, 123.456])
    def test_triple_rgd_root_is_inconclusive(self, c, k):
        # the rgd field -(x - 0.3)^3 has a zero Jacobian at 0.3: differencing
        # the risk twice (finite-difference gradients) reads 1.1e-5 to -7.1e-4 there, a guess
        report = pf.classify_equilibrium(triple_root_model(c, k), v(0.3), tol=1e-8, field_kind="rgd")
        assert report.labels == {INCONCLUSIVE}
        assert report.rgd_jacobian_eigenvalues.tolist() == [0.0]
        assert abs(report.stability_hessian_eigenvalues[0] - 1.0) <= 1e-9

    @pytest.mark.parametrize("rate", [1.0, 1.5, 3.0, 8.0])
    def test_pr_hessian_of_logistic_at_its_midpoint(self, rate):
        # PR''(0.5) = 1 - rate / 2 in closed form
        model = pf.BernoulliSquaredModel(shift=pf.logistic_shift(rate, 0.5))
        report = pf.classify_equilibrium(model, v(0.5), tol=1e-8, field_kind="prm")
        assert abs(report.pr_hessian_eigenvalues[0] - (1.0 - rate / 2.0)) <= 1e-9

    @pytest.mark.parametrize(
        "shift, kind",
        [(pf.bump_shift(), "rgd"), (pf.bump_shift(), "prm"), (pf.logistic_shift(8.0, 0.5), "rgd")],
        ids=["bump-rgd", "bump-prm", "logistic-rgd"],
    )
    def test_decision_hessian_of_squared_loss_is_one(self, shift, kind):
        # y -> R(y, x) is (y^2 + p(x) (1 - 2 y)) / 2, whose second derivative is exactly 1
        reports = pf.find_equilibria(pf.BernoulliSquaredModel(shift=shift), kind)
        hessians = [r.stability_hessian_eigenvalues for r in reports if r.stability_hessian_eigenvalues is not None]
        assert len(hessians) >= 2
        assert np.all(np.abs(np.concatenate(hessians) - 1.0) <= 1e-10)

    def test_other_flow_labels_need_its_field_to_vanish(self):
        # the clamped cubic's prm field jumps at the kinks -0.38829 and 1.22886,
        # where bisection stops with residuals 0.096 and 0.229; x - p(x) is
        # -0.388 and 0.229 there, so the rgd field lends them no label
        model = pf.BernoulliSquaredModel(shift=pf.clamped_polynomial_shift((0.2, 0.5, 0.0, 0.1)))
        kinks = [r for r in pf.find_equilibria(model, "prm") if r.residual > 1e-3]
        assert [round(float(r.location[0]), 5) for r in kinks] == [-0.38829, 1.22886]
        for report in kinks:
            assert report.labels == {PRM_MINIMIZER}
            assert report.stability_hessian_eigenvalues is None and report.rgd_jacobian_eigenvalues is None

    def test_report_serialization(self, rgd_roots):
        d = rgd_roots[0].to_dict()
        assert d["labels"] == sorted(rgd_roots[0].labels)
        assert isinstance(d["location"][0], float)


def no_lapack(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK called")

    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)


class TestScalarEigenvalues:
    """A 1x1 matrix is its own eigenvalue: scalar roots are classified without LAPACK."""

    @pytest.mark.parametrize("kind", ["rgd", "prm"])
    def test_scalar_reports_need_no_lapack(self, monkeypatch, bump_model, kind):
        expected = [r.to_dict() for r in pf.find_equilibria(bump_model, kind, grid_n=2001)]
        no_lapack(monkeypatch)
        assert [r.to_dict() for r in pf.find_equilibria(bump_model, kind, grid_n=2001)] == expected

    def test_two_dimensional_roots_still_run_lapack(self, monkeypatch, bump_pair_model):
        no_lapack(monkeypatch)
        with pytest.raises(AssertionError, match="LAPACK called"):
            pf.classify_equilibrium(bump_pair_model, [0.0, 0.0], tol=1e-8, field_kind="rgd")

    @pytest.mark.parametrize("kind", ["rgd", "prm"])
    def test_bump_root_eigenvalues_equal_lapack_bit_for_bit(self, bump_model, kind):
        for report in pf.find_equilibria(bump_model, kind, grid_n=2001):
            x = report.location

            def sym(f):
                h = finite_diff_jacobian(f, x)
                return np.linalg.eigvalsh(0.5 * (h + h.T))

            lapack = {
                "pr_hessian_eigenvalues": lambda: sym(lambda y: bump_model.grad_x1(y, y) + bump_model.grad_x2(y, y)),
                "stability_hessian_eigenvalues": lambda: sym(lambda y: bump_model.grad_x1(y, x)),
                "rgd_jacobian_eigenvalues": lambda: np.sort(np.linalg.eigvals(
                    finite_diff_jacobian(lambda z: bump_model.grad_x1(z, z), x)).real),
            }
            checked = 0
            for name, oracle in lapack.items():
                got = getattr(report, name)
                if got is not None:
                    assert got.dtype == np.float64 and got.tobytes() == oracle().tobytes(), name
                    checked += 1
            assert checked >= 1

    @pytest.mark.parametrize("entry", [0.3, -2.5e-7, -0.0, 1.7e308, -1.7e308, np.inf, np.nan])
    def test_symmetric_1x1_is_lapack_bit_for_bit(self, entry):
        h = np.array([[entry]])
        with np.errstate(over="ignore"):  # 1.7e308 + 1.7e308 overflows to inf, as with LAPACK
            assert eq_mod._eigvals_sym(h).tobytes() == np.linalg.eigvalsh(0.5 * (h + h.T)).tobytes()

    @pytest.mark.parametrize("entry", [np.inf, -np.inf, np.nan])
    def test_non_finite_1x1_jacobian_raises_lapack_error(self, entry):
        # field 0 at the root, +-entry on either side: the difference quotient is not finite
        m = pf.CallableModel(
            dimension=1,
            domain=pf.interval(-1.0, 1.0),
            risk=lambda x1, x2: 0.5 * float(x1[0] ** 2),
            grad1=lambda x1, x2: np.array([0.0 if x1[0] == 0.0 else math.copysign(entry, x1[0])]),
            grad2=lambda x1, x2: np.array([0.0]),
        )
        with pytest.raises(np.linalg.LinAlgError, match="infs or NaNs"):
            pf.classify_equilibrium(m, v(0.0), tol=1e-8, field_kind="rgd")


class TestBasinScan:
    def test_rgd_boundary_matches_unstable_root(self, bump_model, rgd_roots):
        root = [r for r in rgd_roots if UNSTABLE in r.labels][0].location[0]
        basin = pf.basin_scan(bump_model, "rgd", rgd_roots, grid_n=401, t_end=60.0)
        cell = 2.0 / 400
        transitions = pf.basin_boundaries(basin)
        zero_to_one = [b for b in transitions if b["left_label"] != b["right_label"]]
        assert any(abs(b["boundary"] - root) <= cell for b in zero_to_one)

    def test_prm_boundary_matches_unstable_root(self, bump_model, prm_roots):
        root = [r for r in prm_roots if UNSTABLE in r.labels][0].location[0]
        basin = pf.basin_scan(bump_model, "prm", prm_roots, grid_n=401, t_end=80.0)
        cell = 2.0 / 400
        assert any(abs(b["boundary"] - root) <= cell for b in pf.basin_boundaries(basin))

    def test_contracting_model_has_single_basin(self, half_model):
        reports = pf.find_equilibria(half_model, "rgd", grid_n=301)
        basin = pf.basin_scan(half_model, "rgd", reports, grid_n=301, t_end=30.0)
        assert np.all(basin.labels == 0)

    def test_labels_reference_known_equilibria(self, bump_model, rgd_roots):
        basin = pf.basin_scan(bump_model, "rgd", rgd_roots, grid_n=201, t_end=60.0)
        assert set(np.unique(basin.labels)) <= set(range(len(rgd_roots))) | {-1}

    def test_labels_stable_under_doubled_horizon(self, bump_model, rgd_roots):
        a = pf.basin_scan(bump_model, "rgd", rgd_roots, grid_n=401, t_end=60.0)
        b = pf.basin_scan(bump_model, "rgd", rgd_roots, grid_n=401, t_end=120.0)
        assert np.array_equal(a.labels, b.labels)

    def test_refining_grid_moves_boundary_less_than_coarse_cell(self, bump_model, rgd_roots):
        coarse = pf.basin_scan(bump_model, "rgd", rgd_roots, grid_n=101, t_end=60.0)
        fine = pf.basin_scan(bump_model, "rgd", rgd_roots, grid_n=1001, t_end=60.0)
        b_coarse = pf.basin_boundaries(coarse)[0]["boundary"]
        b_fine = pf.basin_boundaries(fine)[0]["boundary"]
        assert abs(b_coarse - b_fine) <= 2.0 / 100

    def test_unmatched_points_marked_divergent(self):
        m = pf.CallableModel(
            dimension=1,
            domain=pf.interval(-1.0, 1.0),
            risk=lambda x1, x2: -0.5 * float(x1[0] ** 2),
            grad1=lambda x1, x2: np.array([-x1[0]]),
            grad2=lambda x1, x2: np.array([0.0]),
        )
        basin = pf.basin_scan(m, "rgd", [], grid_n=21, t_end=20.0)
        assert np.all(basin.labels == -1)

    def test_exit_state_near_a_root_stays_divergent(self):
        # p(x) = 2x - 0.5995 puts an unstable rgd root 0.0005 inside the edge at 0.6,
        # so the start at 0.6 leaves in one step to a state within match_radius of it
        shift = pf.clamped_polynomial_shift((-0.5995, 2.0))
        m = pf.BernoulliSquaredModel(shift=shift, domain=(0.3, 0.6))
        reports = pf.find_equilibria(m, "rgd", grid_n=301)
        basin = pf.basin_scan(m, "rgd", reports, grid_n=301, t_end=5.0)
        assert locations(reports) == pytest.approx([0.5995], abs=1e-9)
        finals, statuses, _ = pf.integrate_ensemble(m, "rgd", [0.6], 5.0)
        assert statuses[0] == basin.statuses[-1] == "left-domain"
        assert abs(finals[0, 0] - 0.5995) <= 1e-3
        assert basin.labels[-1] == -1

    def test_two_dimensional_scan(self):
        m = planar_model()
        reports = pf.find_equilibria(m, "rgd", grid_n=49)
        basin = pf.basin_scan(m, "rgd", reports, grid_n=64, t_end=30.0, h=0.05)
        assert basin.grid.shape == (64, 2)
        assert np.all(basin.labels == 0)

    def test_boundaries_requires_one_dimension(self):
        m = planar_model()
        reports = pf.find_equilibria(m, "rgd", grid_n=25)
        basin = pf.basin_scan(m, "rgd", reports, grid_n=16, t_end=10.0, h=0.05)
        with pytest.raises(ValueError):
            pf.basin_boundaries(basin)


def ensemble_labels(model, kind, reports, xs, cfg):
    """The ensemble's labels and statuses of the starts ``xs`` at ``cfg``'s horizon.

    This is how ``basin_scan`` labels the starts it integrates: each final
    state takes the nearest root within ``match_radius``, unless its row
    left the domain or hit a non-finite value.
    """
    finals, statuses, _ = pf.integrate_ensemble(model, kind, xs[:, None], cfg.t_end, h=cfg.h, eq_tol=cfg.eq_tol)
    dists = np.abs(finals - np.array([r.location[0] for r in reports]))
    ok = (statuses != "left-domain") & (statuses != "numeric-error")
    return np.where(ok & (dists.min(axis=1) <= cfg.match_radius), dists.argmin(axis=1), -1), statuses


def chart_scan(monkeypatch, model, kind, reports, grid_n, cfg):
    # a scalar scan that must not integrate: the sign chart alone labels it.
    # Only basin_scan's reference is patched; pf.integrate_ensemble still runs
    def refuse(*args, **kwargs):
        raise AssertionError("basin_scan integrated a scalar scan")

    monkeypatch.setattr(eq_mod, "integrate_ensemble", refuse)
    return pf.basin_scan(
        model, kind, reports, grid_n=grid_n, t_end=cfg.t_end,
        match_radius=cfg.match_radius, h=cfg.h, eq_tol=cfg.eq_tol,
    )


TABULATED_KNOTS = ([-0.5, 0.1, 0.6, 1.5], [0.0, 0.0, 0.9, 1.0])
SHIFTS = {
    "bump": pf.bump_shift(),
    "logistic": pf.logistic_shift(8.0, 0.5),
    "tabulated": pf.tabulated_shift(*TABULATED_KNOTS),
    "logistic-rate-4": pf.logistic_shift(4.0, 0.5),
    "cubic": pf.clamped_polynomial_shift((0.2, 0.5, 0.0, 0.1)),
}


class TestExactBasinOracle:
    @pytest.mark.parametrize(
        "shift, kind",
        [
            (pf.bump_shift(), "rgd"),
            (pf.bump_shift(), "prm"),
            (pf.logistic_shift(8.0, 0.5), "rgd"),
        ],
        ids=["bump-rgd", "bump-prm", "logistic-rgd"],
    )
    def test_scan_labels_equal_monotone_oracle(self, shift, kind):
        model = pf.BernoulliSquaredModel(shift=shift)
        cfg = ExperimentConfig()  # the command-line defaults, t_end included
        reports = pf.find_equilibria(model, kind, grid_n=cfg.grid_n)
        basin = pf.basin_scan(
            model, kind, reports, grid_n=cfg.grid_n, t_end=cfg.t_end,
            match_radius=cfg.match_radius, h=cfg.h, eq_tol=cfg.eq_tol,
        )
        xs = basin.grid[:, 0]
        expected = exact_basin_labels(model, kind, reports, xs, cfg.eq_tol, cfg.match_radius)
        converged = basin.statuses == CONVERGED
        assert converged.mean() > 0.99
        assert len(set(expected[converged])) >= 2
        assert np.array_equal(basin.labels[converged], expected[converged])


class TestSignChartOracles:
    """The scalar scan's sign chart against the ensemble and against the classification labels."""

    @pytest.mark.parametrize("grid_n", [2001, 501])
    @pytest.mark.parametrize("kind", ["rgd", "prm"])
    @pytest.mark.parametrize("shift", ["bump", "logistic", "tabulated"])
    def test_chart_equals_ensemble_and_monotone_oracle(self, monkeypatch, shift, kind, grid_n):
        model = pf.BernoulliSquaredModel(shift=SHIFTS[shift])
        cfg = ExperimentConfig()  # the command-line defaults, t_end included
        reports = pf.find_equilibria(model, kind, grid_n=grid_n)
        basin = chart_scan(monkeypatch, model, kind, reports, grid_n, cfg)
        xs = basin.grid[:, 0]
        labels, statuses = ensemble_labels(model, kind, reports, xs, cfg)
        converged = statuses == CONVERGED
        assert converged.mean() > 0.99
        assert len(set(labels[converged].tolist())) >= 2
        assert np.array_equal(basin.labels[converged], labels[converged])
        assert np.array_equal(basin.labels, exact_basin_labels(model, kind, reports, xs, cfg.eq_tol, cfg.match_radius))
        assert set(basin.statuses.tolist()) == {CONVERGED}

    # logistic rate 4: the root 0.5 is degenerate (rgd Jacobian 0), so at the
    # horizon the ensemble is still on its way and matches nothing.  The
    # cubic's prm field jumps at the kinks -0.38829 and 1.22886 and points
    # into them from both sides: RK4 chatters across the jump while the flow
    # slides into the kink
    @pytest.mark.parametrize("shift, kind, differing", [("logistic-rate-4", "rgd", 1998), ("cubic", "prm", 749)])
    def test_chart_gives_the_limit_the_ensemble_has_not_reached(self, monkeypatch, shift, kind, differing):
        model = pf.BernoulliSquaredModel(shift=SHIFTS[shift])
        cfg = ExperimentConfig()
        reports = pf.find_equilibria(model, kind, grid_n=cfg.grid_n)
        basin = chart_scan(monkeypatch, model, kind, reports, cfg.grid_n, cfg)
        xs = basin.grid[:, 0]
        labels, statuses = ensemble_labels(model, kind, reports, xs, cfg)
        differ = basin.labels != labels
        assert differ.sum() == differing
        assert set(statuses[differ].tolist()) == {"max-time"}
        assert set(basin.statuses.tolist()) == {CONVERGED} and np.all(basin.labels >= 0)
        if shift == "cubic":
            # the sliding basins: each kink owns the starts up to the unstable root 0.661
            assert np.array_equal(basin.labels, exact_basin_labels(model, kind, reports, xs, cfg.eq_tol, cfg.match_radius))
        else:
            assert locations(reports) == pytest.approx([0.5], abs=1e-9) and np.all(basin.labels == 0)


class TestSignChartGuard:
    """The chart runs only when the passed roots account for the lattice."""

    def test_tangent_root_missed_by_bracketing_is_not_jumped(self, monkeypatch, tmp_path):
        # rgd field (x - 0.5)^2 up to x = 0.866, then 1 - x: a double root at
        # 0.5 that no 400- or 2000-point lattice brackets, and a simple root at
        # 1.  Its dip is refined to a root, so the chart labels every start
        calls = []
        monkeypatch.setattr(eq_mod, "integrate_ensemble", lambda *a, **k: calls.append(1))
        for grid in (400, 2000):
            out = tmp_path / str(grid)
            argv = ["basins", "--flow", "rgd", "--grid", str(grid), "--out", str(out),
                    "--shift", '{"kind": "clamped-polynomial", "params": {"coefficients": [0.25, 0.0, 1.0]}}']
            assert cli.main(argv) == 0
            found = json.loads((out / "equilibria.json").read_text())["equilibria"]
            roots = [e["location"][0] for e in found]
            assert roots == [pytest.approx(0.5, abs=1e-5), pytest.approx(1.0, abs=1e-9)]
            # as the lattice point 0.5 of an odd grid reads: the rgd Jacobian 2 (x - 0.5) is degenerate
            assert INCONCLUSIVE in found[0]["labels"]
            rows = np.loadtxt(out / "basins.csv", delimiter=",", skiprows=1)
            left = rows[:, 0] < 0.5
            assert left.sum() == grid // 2 and np.all(rows[left, 1] == 0)
        assert calls == []  # the chart labelled both scans

    def test_flat_zero_is_charted(self, monkeypatch):
        # at tolerance 0 the flat zero is one sign-change cell, and the one reported root lies in it
        model = flat_zero_model()
        reports = pf.find_equilibria(model, "rgd", grid_n=2001)
        calls = []
        monkeypatch.setattr(eq_mod, "integrate_ensemble", lambda *a, **k: calls.append(1))
        basin = pf.basin_scan(model, "rgd", reports, grid_n=2001)
        assert calls == []
        # the field points away from 0.3: only the starts at rest within match_radius of it stay
        assert set(basin.grid[basin.labels == 0, 0].round(3).tolist()) <= {0.299, 0.3, 0.301}

    def test_flat_zero_on_a_lattice_point_takes_every_moving_start(self, monkeypatch):
        # -x^5: one root, 0.0, where three once sent 986 starts to -0.001
        model = line_model(lambda x1, x2: x1 ** 5)
        reports = pf.find_equilibria(model, "rgd", grid_n=2001)
        basin = chart_scan(monkeypatch, model, "rgd", reports, 2001, ExperimentConfig())
        moving = np.abs(basin.grid[:, 0] ** 5) > ExperimentConfig().eq_tol
        assert locations(reports) == [0.0] and moving.sum() == 1970
        assert np.all(basin.labels[moving] == 0)

    def test_small_simple_zero_beside_an_attractor_keeps_its_basin(self, monkeypatch):
        # rgd field -1e-4 x (x - 0.001): 0 repels and 0.001, one lattice step
        # on, attracts every start above 0, though the slope at 0 is only 1e-7
        # (both inconclusive to the classifier, so no oracle by labels)
        model = line_model(lambda x1, x2: 1e-4 * x1 * (x1 - 0.001))
        reports = pf.find_equilibria(model, "rgd", grid_n=2001)
        basin = chart_scan(monkeypatch, model, "rgd", reports, 2001, ExperimentConfig())
        xs = basin.grid[:, 0]
        moving = np.abs(1e-4 * xs * (xs - 0.001)) > ExperimentConfig().eq_tol
        assert locations(reports) == pytest.approx([0.0, 0.001], abs=1e-12)
        assert np.all(basin.labels[moving & (xs > 0)] == 1) and np.all(basin.labels[moving & (xs < 0)] == -1)
        assert np.all(basin.labels[xs > 0.0011] != 0)

    def test_plateau_starts_stop_where_they_reach_it(self):
        # every lattice point of [0, 1] is a root: a start above 1 stops at 1, one inside stays put
        model = plateau_model()
        basin = pf.basin_scan(model, "rgd", pf.find_equilibria(model, "rgd", grid_n=2001), grid_n=2001)
        xs = basin.grid[:, 0]
        assert np.all(basin.labels >= 0) and np.all(basin.statuses == CONVERGED)
        assert basin.equilibrium_locations[basin.labels, 0] == pytest.approx(np.clip(xs, 0.0, 1.0), abs=1e-12)

    def test_sign_change_without_a_passed_root_falls_back(self, monkeypatch, bump_model, rgd_roots):
        calls, real = [], eq_mod.integrate_ensemble
        monkeypatch.setattr(eq_mod, "integrate_ensemble", lambda *a, **k: calls.append(1) or real(*a, **k))
        charted = pf.basin_scan(bump_model, "rgd", rgd_roots, grid_n=401)
        assert calls == []
        stable = [r for r in rgd_roots if UNSTABLE not in r.labels]
        integrated = pf.basin_scan(bump_model, "rgd", stable, grid_n=401)
        assert calls == [1]
        # the same basins, indexed into the two stable roots
        assert np.array_equal(integrated.labels, np.where(charted.labels == 2, 1, charted.labels))

    def test_non_finite_field_falls_back(self, monkeypatch):
        # rgd field -x, not a number beyond 0.95: the edge start stops at once
        # with a numeric error, which only the ensemble reports
        def grad1(x1, x2):
            return np.array([np.nan if x1[0] > 0.95 else x1[0]])

        model = pf.CallableModel(
            dimension=1, domain=pf.interval(-1.0, 1.0), risk=lambda x1, x2: 0.0,
            grad1=grad1, grad2=lambda x1, x2: np.zeros(1),
        )
        reports = [pf.classify_equilibrium(model, v(0.0), tol=1e-8, field_kind="rgd")]
        calls, real = [], eq_mod.integrate_ensemble
        monkeypatch.setattr(eq_mod, "integrate_ensemble", lambda *a, **k: calls.append(1) or real(*a, **k))
        basin = pf.basin_scan(model, "rgd", reports, grid_n=21, t_end=30.0)
        assert calls == [1]
        nan_rows = basin.grid[:, 0] > 0.95
        assert nan_rows.sum() == 1
        assert set(basin.statuses[nan_rows].tolist()) == {"numeric-error"}
        assert np.all(basin.labels[nan_rows] == -1) and np.all(basin.labels[~nan_rows] == 0)

    def test_lattice_below_the_root_grid_falls_back(self, monkeypatch, bump_model, rgd_roots):
        # two points cannot show a tangent dip: the edges -0.5 and 1.5 are integrated
        calls, real = [], eq_mod.integrate_ensemble
        monkeypatch.setattr(eq_mod, "integrate_ensemble", lambda *a, **k: calls.append(1) or real(*a, **k))
        basin = pf.basin_scan(bump_model, "rgd", rgd_roots, grid_n=eq_mod.MIN_ROOT_GRID - 1)
        assert calls == [1]
        owners = [locations(rgd_roots).index(float(rgd_roots[i].location[0])) for i in basin.labels]
        assert basin.grid[:, 0].tolist() == [-0.5, 1.5] and owners == [0, 2]

    def test_two_dimensional_scan_integrates(self, monkeypatch):
        m = planar_model()
        reports = pf.find_equilibria(m, "rgd", grid_n=25)
        calls, real = [], eq_mod.integrate_ensemble
        monkeypatch.setattr(eq_mod, "integrate_ensemble", lambda *a, **k: calls.append(1) or real(*a, **k))
        basin = pf.basin_scan(m, "rgd", reports, grid_n=16, t_end=30.0, h=0.05)
        assert calls == [1]
        assert np.all(basin.labels == 0)


def three_root_model(a, rate=10.0):
    # rgd field -rate * s(x) with s a sawtooth: roots 0 and 2a attract, a
    # repels
    def grad1(x1, x2):
        x = x1[0]
        if x <= 0.5 * a:
            return np.array([rate * x])
        if x <= 1.5 * a:
            return np.array([rate * (a - x)])
        return np.array([rate * (x - 2.0 * a)])

    return pf.CallableModel(
        dimension=1,
        domain=pf.interval(-5.0 * a, 5.0 * a),
        risk=lambda x1, x2: 0.0,
        grad1=grad1,
        grad2=lambda x1, x2: np.zeros(1),
    )


class CountedLattice(np.ndarray):
    """An array, and each of its slices, that appends every ufunc call it takes part in to ``counts``."""

    counts: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        self.counts.append(ufunc.__name__)
        plain = [np.asarray(a) if isinstance(a, CountedLattice) else a for a in inputs]
        return getattr(ufunc, method)(*plain, **kwargs)


class TestSignChartRule:
    """What the chart gives where nearest-root or horizon rules would differ."""

    def test_many_roots_equal_the_monotone_oracle(self, monkeypatch):
        # rgd field sin(20 pi x): 41 roots k / 20, attracting and repelling in turn
        model = line_model(lambda x1, x2: -np.sin(20.0 * np.pi * x1))
        cfg = ExperimentConfig()
        reports = pf.find_equilibria(model, "rgd", grid_n=cfg.grid_n)
        assert locations(reports) == pytest.approx(np.arange(-20, 21) / 20, abs=1e-12)
        basin = chart_scan(monkeypatch, model, "rgd", reports, cfg.grid_n, cfg)
        xs = basin.grid[:, 0]
        expected = exact_basin_labels(model, "rgd", reports, xs, cfg.eq_tol, cfg.match_radius)
        assert len(set(expected.tolist())) == 41 and np.array_equal(basin.labels, expected)

    def test_plateau_chart_makes_no_pass_over_the_lattice_per_root(self, monkeypatch):
        # 1001 roots: one pass per root took about 5000 ufunc calls on the lattice
        model = plateau_model()
        xs = np.linspace(-0.5, 1.5, 2001)
        fv = pf.rgd_vector_field(model, xs[:, None])[:, 0]
        roots = np.array(locations(pf.find_equilibria(model, "rgd", grid_n=2001)))
        counts = []
        monkeypatch.setattr(CountedLattice, "counts", counts)
        labels, _ = eq_mod._sign_chart(xs.view(CountedLattice), fv.view(CountedLattice), roots, 1e-3, 1e-9)
        assert roots[labels] == pytest.approx(np.clip(xs, 0.0, 1.0), abs=1e-12)
        assert len(counts) <= 20, len(counts)

    # a = 2e-4 and 7e-4: all three roots lie within one match_radius (1e-3),
    # so a start is labelled by the side of the repelling root it starts on,
    # not by the root nearest to it
    @pytest.mark.parametrize("a", [2e-4, 7e-4])
    def test_roots_closer_than_match_radius_are_told_apart_by_direction(self, monkeypatch, a):
        model = three_root_model(a)
        cfg = ExperimentConfig()
        reports = pf.find_equilibria(model, "rgd", grid_n=2001)
        assert np.allclose(locations(reports), [0.0, a, 2.0 * a], atol=1e-12)
        basin = chart_scan(monkeypatch, model, "rgd", reports, 81, cfg)
        xs = basin.grid[:, 0]
        # lattice step a / 8: the start 48 sits on the repelling root and stays
        assert xs[48] == pytest.approx(a, abs=1e-12)
        assert basin.labels.tolist() == [0] * 48 + [1] + [2] * 32
        labels, statuses = ensemble_labels(model, "rgd", reports, xs, cfg)
        assert set(statuses.tolist()) == set(basin.statuses.tolist()) == {CONVERGED}
        assert np.array_equal(basin.labels, labels)

    @pytest.mark.parametrize("t_end, h", [(0.05, 0.01), (2.0, 0.5), (500.0, 0.001)])
    def test_horizon_and_step_do_not_move_scalar_labels(self, monkeypatch, bump_model, prm_roots, t_end, h):
        # the labels are the limits: a horizon too short to arrive, a step
        # too coarse to resolve the flow and a long fine run all read them
        cfg = ExperimentConfig()
        default = chart_scan(monkeypatch, bump_model, "prm", prm_roots, 401, cfg)
        other = pf.basin_scan(bump_model, "prm", prm_roots, grid_n=401, t_end=t_end, h=h)
        assert other.t_end == t_end
        assert np.array_equal(other.labels, default.labels)
        assert np.array_equal(other.statuses, default.statuses)

    def test_repelling_root_sends_every_other_start_out(self, monkeypatch):
        # rgd field +x: the root 0 repels, so only the start on it stays
        model = pf.CallableModel(
            dimension=1, domain=pf.interval(-1.0, 1.0), risk=lambda x1, x2: 0.0,
            grad1=lambda x1, x2: -x1, grad2=lambda x1, x2: np.zeros(1),
        )
        cfg = ExperimentConfig()
        reports = pf.find_equilibria(model, "rgd", grid_n=101)
        assert locations(reports) == [0.0] and UNSTABLE in reports[0].labels
        basin = chart_scan(monkeypatch, model, "rgd", reports, 21, cfg)
        centre = basin.grid[:, 0] == 0.0
        assert basin.labels.tolist() == np.where(centre, 0, -1).tolist()
        assert basin.statuses.tolist() == np.where(centre, CONVERGED, "left-domain").tolist()
        labels, statuses = ensemble_labels(model, "rgd", reports, basin.grid[:, 0], cfg)
        assert np.array_equal(basin.labels, labels) and np.array_equal(basin.statuses, statuses)

    def test_start_at_rest_away_from_every_root_is_divergent(self, monkeypatch, quadratic_model):
        # field -x with eq_tol 0.35: the starts within 0.35 of the root 0 are
        # already at rest, and only the one within match_radius of it matches
        cfg = ExperimentConfig(eq_tol=0.35)
        reports = pf.find_equilibria(quadratic_model, "rgd", grid_n=101)
        assert locations(reports) == [0.0]
        basin = chart_scan(monkeypatch, quadratic_model, "rgd", reports, 21, cfg)
        xs = basin.grid[:, 0]
        rest = np.abs(xs) <= 0.35
        assert rest.sum() == 7
        assert basin.labels.tolist() == np.where(rest & (xs != 0.0), -1, 0).tolist()
        assert set(basin.statuses.tolist()) == {CONVERGED}
        # the ensemble stops the resting starts where they are, as the chart
        # does; the others it stops on entering the band, short of the root
        labels, statuses = ensemble_labels(quadratic_model, "rgd", reports, xs, cfg)
        assert np.array_equal(basin.labels[rest], labels[rest])
        assert np.array_equal(basin.statuses, statuses)


class TestSeparableOracle:
    """The planar bump pair: its roots, runs and basins are products of the scalar ones."""

    @pytest.mark.parametrize("kind", ["rgd", "prm"])
    def test_roots_and_labels_are_products(self, bump_model, bump_pair_model, kind):
        scalar = pf.find_equilibria(bump_model, kind, grid_n=2001)
        planar = pf.find_equilibria(bump_pair_model, kind, grid_n=100)
        roots = np.array(locations(scalar))
        assert len(planar) == roots.size ** 2 == 9
        # each planar root's coordinates are scalar roots; together all 9 pairs
        gaps = np.abs(np.array([r.location for r in planar])[:, :, None] - roots)
        assert np.max(gaps.min(axis=2)) <= 1e-9
        pairs = [tuple(p) for p in gaps.argmin(axis=2).tolist()]
        assert set(pairs) == {(i, j) for i in range(3) for j in range(3)}
        corners = {PRM_MINIMIZER, PERFORMATIVELY_STABLE}
        for report, (i, j) in zip(planar, pairs):
            # the corners of {0, 1}^2 attract; a coordinate at the middle root repels
            assert report.labels == (corners if 1 not in (i, j) else {UNSTABLE})

    def test_runs_are_the_scalar_runs_coordinate_by_coordinate(self, bump_model, bump_pair_model):
        starts = [-0.4, 0.1, 0.3, 0.6, 1.3]
        schedule, noise = pf.StepSchedule.constant(0.01), pf.NoiseSpec.none()
        for a, b in zip(starts, starts[::-1]):
            for kind in ("rgd", "prm"):
                pair = pf.integrate_flow(bump_pair_model, kind, [a, b], 8.0, eq_tol=0.0)
                for axis, x in enumerate((a, b)):
                    one = pf.integrate_flow(bump_model, kind, x, 8.0, eq_tol=0.0)
                    assert np.array_equal(pair.times, one.times)
                    assert np.array_equal(pair.states[:, axis], one.states[:, 0])
            pair = pf.discrete_rgd(bump_pair_model, [a, b], 3000, schedule, noise)
            for axis, x in enumerate((a, b)):
                one = pf.discrete_rgd(bump_model, x, 3000, schedule, noise)
                assert np.array_equal(pair.states[:, axis], one.states[:, 0])

    def test_basin_scan_is_the_product_of_scalar_scans(self, bump_model, bump_pair_model):
        scalar_roots = pf.find_equilibria(bump_model, "rgd", grid_n=2001)
        planar_roots = pf.find_equilibria(bump_pair_model, "rgd", grid_n=100)
        scalar = pf.basin_scan(bump_model, "rgd", scalar_roots, grid_n=5, t_end=10.0)
        planar = pf.basin_scan(bump_pair_model, "rgd", planar_roots, grid_n=25, t_end=10.0)

        def product(a):
            return np.stack(np.meshgrid(a, a, indexing="ij"), axis=-1).reshape(-1, 2)

        assert np.array_equal(planar.grid, product(scalar.grid[:, 0]))
        assert np.all(planar.labels >= 0) and np.all(scalar.labels >= 0)
        assert len(set(scalar.labels.tolist())) == 2  # both attracting roots own starts
        # each planar root as the pair of scalar roots (label indices) it is made of
        roots = scalar.equilibrium_locations[:, 0]
        owner = np.abs(planar.equilibrium_locations[:, :, None] - roots).argmin(axis=2)
        assert np.array_equal(owner[planar.labels], product(scalar.labels))
