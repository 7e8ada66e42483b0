"""Root finding, stability classification, and basin mapping."""

import numpy as np
import pytest

import perflow as pf
import perflow.equilibria as eq_mod
from perflow.config import ExperimentConfig
from perflow.equilibria import INCONCLUSIVE, PERFORMATIVELY_STABLE, PRM_MINIMIZER, UNSTABLE
from perflow.flows import CONVERGED, _rk4_step


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
        report = pf.classify_equilibrium(bump_model, v(x), tol=1e-8)
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
            pf.classify_equilibrium(bump_model, v(0.1), tol=1e-8)

    def test_degenerate_point_is_inconclusive(self):
        # risk x^4/4: gradient x^3, curvature vanishes at the minimizer
        m = pf.CallableModel(
            dimension=1,
            domain=pf.interval(-1.0, 1.0),
            risk=lambda x1, x2: 0.25 * float(x1[0] ** 4),
            grad1=lambda x1, x2: np.array([x1[0] ** 3]),
            grad2=lambda x1, x2: np.array([0.0]),
        )
        report = pf.classify_equilibrium(m, v(0.0), tol=1e-8)
        assert INCONCLUSIVE in report.labels

    def test_report_serialization(self, rgd_roots):
        d = rgd_roots[0].to_dict()
        assert d["labels"] == sorted(rgd_roots[0].labels)
        assert isinstance(d["location"][0], float)


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


def trap_table(model, kind, reports, h, match_radius=1e-3, eq_tol=1e-9, steps=6000):
    # the traps basin_scan builds for these reports: (owner, radii, last)
    roots = np.array([r.location[0] for r in reports])
    return eq_mod._scalar_traps(model, kind, roots, match_radius, h, eq_tol, steps)


class TestBasinTraps:
    def scan(self, model, reports, monkeypatch=None, traps=None):
        if monkeypatch is not None:
            monkeypatch.setattr(eq_mod, "_scalar_traps", lambda *args: traps)
        return pf.basin_scan(model, "rgd", reports, grid_n=81)

    # a = 2e-4: all three roots lie inside one trap of radius 5e-4 and the
    # field test refuses it; a = 7e-4: the field points toward 0 on the whole
    # trap, but part of it is nearer the root a, which would label it a
    @pytest.mark.parametrize("a", [2e-4, 7e-4])
    def test_trap_near_a_second_root_is_refused(self, monkeypatch, a):
        model = three_root_model(a)
        reports = pf.find_equilibria(model, "rgd", grid_n=2001)
        roots = np.array(locations(reports))
        assert np.allclose(roots, [0.0, a, 2.0 * a], atol=1e-12)
        assert trap_table(model, "rgd", reports, 0.01) is None

        scanned = self.scan(model, reports).labels
        untrapped = self.scan(model, reports, monkeypatch, None).labels
        assert len(set(scanned)) >= 2
        assert np.array_equal(scanned, untrapped)
        # the refusal matters: trapping every root would relabel starts
        # between the roots by the root nearest to them
        every_root = (np.arange(3), np.full(3, 5e-4), np.full(3, 6000))
        assert not np.array_equal(scanned, self.scan(model, reports, monkeypatch, every_root).labels)

    @pytest.mark.parametrize("kind, unstable", [("rgd", 0.227360), ("prm", 0.398966)])
    def test_only_the_attracting_roots_get_traps(self, bump_model, kind, unstable):
        cfg = ExperimentConfig()
        reports = pf.find_equilibria(bump_model, kind, grid_n=cfg.grid_n)
        assert any(abs(r.location[0] - unstable) < 1e-6 for r in reports)
        steps = round(cfg.t_end / cfg.h)
        owner, radii, last = trap_table(bump_model, kind, reports, cfg.h, cfg.match_radius, cfg.eq_tol, steps)
        assert owner.tolist() == [0, 2, 0, 2]  # inner traps, then outer ones
        inner = radii == cfg.match_radius / 2
        assert inner.tolist() == [True, True, False, False]
        centres = [reports[i].location[0] for i in owner[inner]]
        assert np.allclose(centres, [0.0, 1.0], atol=1e-9)
        assert np.all(radii[inner] == cfg.match_radius / 2)
        assert np.all(last[inner] == steps)

    def test_root_without_room_for_an_outer_trap_keeps_its_inner_one(self, monkeypatch):
        # field 0.5 - x on (0, 1): the inner trap of radius 0.5 reaches both
        # domain edges, so no outer trap can be wider
        model = pf.BernoulliSquaredModel(shift=pf.constant_shift(0.5), domain=(0.0, 1.0))
        reports = pf.find_equilibria(model, "rgd", grid_n=2001)
        assert locations(reports) == [pytest.approx(0.5, abs=1e-12)]
        owner, radii, last = trap_table(model, "rgd", reports, 0.01, match_radius=1.0)
        assert (owner.tolist(), radii.tolist(), last.tolist()) == ([0], [0.5], [6000])

        def scan():
            return pf.basin_scan(model, "rgd", reports, grid_n=81, t_end=60.0, match_radius=1.0)

        trapped = scan()
        monkeypatch.setattr(eq_mod, "_scalar_traps", lambda *args: None)
        assert np.array_equal(trapped.labels, scan().labels)
        assert set(trapped.labels) == {0}

    def test_steep_root_gets_a_trap_only_at_a_small_enough_step(self):
        # rgd field p(x) - x = 50 - 100 x: slope -100 at the root 0.5
        model = pf.BernoulliSquaredModel(shift=pf.clamped_polynomial_shift((50.0, -99.0)))
        reports = pf.find_equilibria(model, "rgd", grid_n=2001)
        assert locations(reports) == [pytest.approx(0.5, abs=1e-12)]
        assert trap_table(model, "rgd", reports, 0.011) is None
        owner, radii, _ = trap_table(model, "rgd", reports, 0.009)
        centres = [reports[i].location[0] for i in owner[radii == 5e-4]]
        assert centres == pytest.approx([0.5], abs=1e-12)

    @pytest.mark.parametrize(
        "kind, outer_radii, outer_last",
        [("rgd", [0.11368001, 0.38631999], [4301, 3863]),
         ("prm", [0.19948297, 0.30051703], [4401, 4360])],
    )
    def test_readme_trap_table_of_both_bump_flows(self, monkeypatch, bump_model, kind, outer_radii, outer_last):
        # the traps basin_scan hands to integrate_ensemble: inner ones at the
        # stable roots 0 and 1, then the outer ones around the same roots
        cfg = ExperimentConfig()
        assert (cfg.t_end, cfg.h, round(cfg.t_end / cfg.h)) == (50.0, 0.01, 5000)
        reports = pf.find_equilibria(bump_model, kind, grid_n=cfg.grid_n)
        passed, real = [], eq_mod.integrate_ensemble
        monkeypatch.setattr(
            eq_mod, "integrate_ensemble", lambda *a, **k: passed.append(k["traps"]) or real(*a, **k)
        )
        pf.basin_scan(
            bump_model, kind, reports, grid_n=cfg.grid_n, t_end=cfg.t_end,
            match_radius=cfg.match_radius, h=cfg.h, eq_tol=cfg.eq_tol,
        )
        centres, radii, last = passed[0]
        assert centres[:, 0].tolist() == [0.0, 1.0, 0.0, 1.0]
        assert radii[:2].tolist() == [5e-4, 5e-4]
        assert radii[2:] == pytest.approx(outer_radii, abs=5e-9)
        assert last.tolist() == [5000, 5000, *outer_last]


def spiked_model(centre, half_width=1e-4):
    # rgd field -x on [-1, 1], except +1 (outward) within half_width of
    # centre: narrower than one RK4 stage moves, so the step taken from the
    # centre itself still contracts toward 0
    def grad1(x1, x2):
        x = x1[0]
        return np.array([-1.0 if abs(x - centre) <= half_width else x])

    return pf.CallableModel(
        dimension=1,
        domain=pf.interval(-1.0, 1.0),
        risk=lambda x1, x2: 0.0,
        grad1=grad1,
        grad2=lambda x1, x2: np.zeros(1),
    )


class TestOuterTraps:
    RHO, MATCH, H, EQ_TOL, STEPS = 5e-4, 1e-3, 0.01, 1e-9, 6000

    def outer(self, model, h=H, eq_tol=EQ_TOL, steps=STEPS):
        # the one root 0, which gets its inner trap; no other root.  Returns
        # the rows of the table with a radius above rho, or None
        owner, radii, last = eq_mod._scalar_traps(model, "rgd", np.zeros(1), self.MATCH, h, eq_tol, steps)
        assert (owner[0], radii[0], last[0]) == (0, self.RHO, steps)
        wide = radii > self.RHO
        return (owner[wide], radii[wide], last[wide]) if wide.any() else None

    def test_linear_field_gets_the_whole_half_domain(self, quadratic_model):
        owner, radii, last = self.outer(quadratic_model)
        assert owner.tolist() == [0] and radii.tolist() == [0.5]
        # one RK4 step of x' = -x contracts by exp(-h) to within 1e-10
        n = np.ceil(np.log(self.RHO / 0.5) / np.log(np.exp(-self.H)))
        assert last.tolist() == [self.STEPS - n]

    def test_outward_stretch_in_the_annulus_is_refused(self):
        samples = np.geomspace(self.RHO, 1.0, eq_mod._TRAP_SAMPLES)
        assert self.outer(spiked_model(centre=2.0)) is not None
        assert self.outer(spiked_model(centre=samples[115])) is None

    def test_step_with_q_of_one_is_refused(self, quadratic_model):
        # a step this small leaves every sample where it is: q == 1
        x = np.array([[0.25]])
        assert _rk4_step(lambda y: -y, x, -x, 1e-17)[0, 0] == 0.25
        assert self.outer(quadratic_model, h=1e-17) is None
        assert self.outer(quadratic_model, h=1e-3, steps=60000) is not None

    def test_eq_tol_above_the_sampled_field_is_refused(self, quadratic_model):
        # |f| = |y| on the samples beyond match_radius: at least 1e-3
        assert self.outer(quadratic_model, eq_tol=9e-4) is not None
        assert self.outer(quadratic_model, eq_tol=2e-3) is None

    def test_horizon_shorter_than_n_steps_gives_no_outer_trap(self, quadratic_model):
        n = self.STEPS - self.outer(quadratic_model)[2][0]
        assert self.outer(quadratic_model, steps=n)[2].tolist() == [0]
        assert self.outer(quadratic_model, steps=n - 1) is None

    @pytest.mark.parametrize(
        "case, short_t_end",
        [("bump-rgd", 12.0), ("bump-prm", 12.0), ("logistic-rgd", 12.0), ("three-root", 0.5)],
    )
    @pytest.mark.parametrize("horizon", ["readme", "short"])
    def test_labels_equal_those_without_outer_traps(self, monkeypatch, case, short_t_end, horizon):
        cfg = ExperimentConfig()
        if case == "three-root":
            model, kind, grid_n = three_root_model(0.1), "rgd", 81
        else:
            shift = pf.logistic_shift(8.0, 0.5) if case == "logistic-rgd" else pf.bump_shift()
            model, kind, grid_n = pf.BernoulliSquaredModel(shift=shift), case[-3:], cfg.grid_n
        t_end = cfg.t_end if horizon == "readme" else short_t_end
        reports = pf.find_equilibria(model, kind, grid_n=2001)

        def scan():
            return pf.basin_scan(
                model, kind, reports, grid_n=grid_n, t_end=t_end,
                match_radius=cfg.match_radius, h=cfg.h, eq_tol=cfg.eq_tol,
            )

        built, real = [], eq_mod._scalar_traps
        monkeypatch.setattr(eq_mod, "_scalar_traps", lambda *args: built.append(real(*args)) or built[-1])
        with_outer = scan()
        owner, radii, last = built[0]
        outer = radii > cfg.match_radius / 2
        assert outer.sum() == 2 and np.all(radii[outer] > 0.04)
        steps = round(t_end / cfg.h)
        # at the short horizon the deadline is near: some trap stops taking
        # rows before half the horizon
        assert (last[outer].min() < steps // 2) == (horizon == "short")
        # the same table without the outer traps
        inner = ~outer
        monkeypatch.setattr(eq_mod, "_scalar_traps", lambda *args: (owner[inner], radii[inner], last[inner]))
        without = scan()
        assert len(set(with_outer.labels)) >= 2
        assert np.array_equal(with_outer.labels, without.labels)

