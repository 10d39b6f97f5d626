import math

import numpy as np
import pytest

from zorichlab.distortion import (
    Slab,
    grid_count_measures,
    lambda_h_estimate,
    plane_directions,
    relative_distortion,
    sample_slab,
    sphere_directions,
    verify_area_transport,
    verify_slab_bound,
)
from zorichlab.errors import DegenerateError, DomainError
from zorichlab.zorich import branch_distance, zorich, zorich_inverse

PI = math.pi


class TestDirections:
    def test_sphere_unit_norm(self):
        d = sphere_directions(128)
        np.testing.assert_allclose(np.linalg.norm(d, axis=-1), 1.0, atol=1e-12)

    def test_sphere_quasi_uniform(self):
        d = sphere_directions(256)
        assert np.max(np.abs(d.mean(axis=0))) < 0.02

    def test_circle(self):
        d = plane_directions(64, (1.0, 0.0), (0.0, 1.0))
        np.testing.assert_allclose(np.linalg.norm(d, axis=-1), 1.0, atol=1e-12)

    def test_plane(self):
        d = plane_directions(64, (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
        assert np.all(d[:, 0] == 0.0)
        np.testing.assert_allclose(np.linalg.norm(d, axis=-1), 1.0, atol=1e-12)

    def test_deterministic(self):
        np.testing.assert_array_equal(sphere_directions(64), sphere_directions(64))


class TestPointwiseLipschitz:
    # relative_distortion at one point: sup_upper and inf_lower are the
    # pointwise Lipschitz constants there
    def test_identity(self):
        # x + radius*v rounds into the ulp scale of x, so the quotients are
        # exact only to ulp(|x|)/radius
        est = relative_distortion(lambda x: x, np.array([1.0, 2.0, 3.0])[None], 1e-5)
        assert est.sup_upper == pytest.approx(1.0, rel=1e-9)
        assert est.inf_lower == pytest.approx(1.0, rel=1e-9)

    def test_scaling(self):
        est = relative_distortion(lambda x: 3.0 * x, np.array([0.2, -0.4, 1.0])[None], 1e-4)
        assert est.sup_upper == pytest.approx(3.0, rel=1e-9)
        assert est.inf_lower == pytest.approx(3.0, rel=1e-9)

    def test_map_at_origin_bracketed_by_lambda(self):
        lam = lambda_h_estimate(64)
        est = relative_distortion(zorich, np.array([0.0, 0.0, 0.0])[None], 1e-5)
        assert est.inf_lower >= 1.0 / lam
        assert est.sup_upper <= lam * math.exp(1e-5)

    def test_constant_map_degenerate(self):
        with pytest.raises(DegenerateError):
            relative_distortion(lambda x: np.zeros(np.shape(x)[:-1] + (3,)) + 1.0,
                                np.array([0.0, 0.0, 0.0])[None], 1e-5)

    def test_too_few_directions(self):
        with pytest.raises(DomainError):
            relative_distortion(lambda x: x, np.array([0.0, 0.0, 0.0])[None], 1e-5, n_dirs=16)

    @pytest.mark.parametrize("radius", [0.0, -1e-5])
    def test_radius_must_be_positive(self, radius):
        with pytest.raises(DomainError):
            relative_distortion(lambda x: x, np.array([0.0, 0.0, 0.0])[None], radius)

    def test_refinement_convergence_away_from_branch(self):
        rng = np.random.default_rng(41)
        pts = np.column_stack(
            [rng.uniform(-1.2, 1.2, 30), rng.uniform(-1.2, 1.2, 30), rng.uniform(-1, 1, 30)]
        )
        pts = pts[branch_distance(pts) > 1e-3][:20]
        for x in pts:
            a = relative_distortion(zorich, x[None], 1e-5)
            b = relative_distortion(zorich, x[None], 5e-6)
            assert abs(a.sup_upper - b.sup_upper) / b.sup_upper < 0.01
            assert abs(a.inf_lower - b.inf_lower) / b.inf_lower < 0.01


class TestRelativeDistortion:
    def test_identity(self):
        rng = np.random.default_rng(43)
        est = relative_distortion(lambda x: x, rng.normal(size=(50, 3)), 1e-5)
        assert est.ratio == pytest.approx(1.0, rel=1e-10)

    def test_doubling(self):
        rng = np.random.default_rng(45)
        est = relative_distortion(lambda x: 2.0 * x, rng.normal(size=(40, 3)), 1e-5)
        assert est.ratio == pytest.approx(1.0, rel=1e-10)
        assert est.sup_upper == pytest.approx(2.0, rel=1e-10)

    def test_wall_projection_is_conformal(self):
        # central projection of the unit wall onto a far wall is a pure
        # scaling, so its relative distortion on any patch is 1
        p = np.array([0.4, -0.3, 0.2])
        c = PI / 2 + 5 * PI - p[0]

        def proj(x):
            return p + c * (np.asarray(x) - p)

        rng = np.random.default_rng(47)
        pts = p + np.column_stack(
            [np.ones(30), rng.uniform(0.1, 0.9, 30), rng.uniform(0.5, 2.0, 30)]
        )
        dirs = plane_directions(64, (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
        est = relative_distortion(proj, pts, 1e-6, directions=dirs)
        assert abs(est.ratio - 1.0) <= 1e-6

    def test_ratio_at_least_one(self):
        rng = np.random.default_rng(49)
        pts = sample_slab(Slab(-0.5, 0.5), 60, seed=7)
        est = relative_distortion(zorich, pts, 1e-5)
        assert est.ratio >= 1.0
        assert 0 < est.inf_lower <= est.sup_upper


class TestLambdaEstimate:
    def test_at_least_one(self):
        assert lambda_h_estimate(64) >= 1.0

    def test_monotone_under_refinement(self):
        # the sup sits at the square corners, so finer grids see more of it
        assert lambda_h_estimate(64) <= lambda_h_estimate(128) * 1.001

    def test_small_grid_rejected(self):
        with pytest.raises(DomainError):
            lambda_h_estimate(32)


class TestSlabBound:
    def test_thin_slab(self):
        lam = lambda_h_estimate(64)
        rep = verify_slab_bound(Slab(0.0, 1e-9), 200, lam=lam, seed=11)
        assert rep.passed
        assert rep.d_est <= lam * lam * 1.02

    def test_unit_slab_bound_value(self):
        lam = lambda_h_estimate(64)
        rep = verify_slab_bound(Slab(0.0, 1.0), 200, lam=lam, seed=13)
        assert rep.bound == pytest.approx(lam * lam * math.e * 1.01, rel=1e-12)
        assert rep.passed

    def test_random_slabs(self):
        lam = lambda_h_estimate(64)
        rng = np.random.default_rng(53)
        for k in range(10):
            t1 = rng.uniform(-3, 3)
            gap = rng.uniform(0.02, 3.0)
            rep = verify_slab_bound(Slab(t1, t1 + gap), 150, lam=lam, seed=100 + k)
            assert rep.passed, rep

    @pytest.mark.parametrize("radius", [0.0, -1e-6, math.nan, math.inf])
    def test_bad_radius_rejected(self, radius):
        with pytest.raises(DomainError, match="radius"):
            verify_slab_bound(Slab(0.0, 1.0), 10, lam=1.0, radius=radius)

    def test_sample_respects_branch_margin(self):
        pts = sample_slab(Slab(-1.0, 1.0), 500, seed=17, radius=1e-5)
        assert np.all(branch_distance(pts) > 1e-4)
        assert np.all((pts[:, 2] > -1.0) & (pts[:, 2] < 1.0))


def cube_membership(lo, hi):
    lo = np.asarray(lo)
    hi = np.asarray(hi)

    def member(pts):
        pts = np.asarray(pts)
        return np.all((pts >= lo) & (pts <= hi), axis=-1)

    return member


class TestAreaTransport:
    def test_affine_exact(self):
        # f(x) = 2x + b on a unit cube with U the lower half
        b = np.array([0.3, -0.2, 0.5])
        e_lo, e_hi = np.zeros(3), np.ones(3)
        u_hi = np.array([0.5, 1.0, 1.0])

        def f(x):
            return 2.0 * np.asarray(x) + b

        def inv(y):
            return (np.asarray(y) - b) / 2.0

        in_e = cube_membership(e_lo, e_hi)
        in_u = cube_membership(e_lo, u_hi)
        img_lo, img_hi = f(e_lo), f(e_hi)
        m_fe, m_fu = grid_count_measures(
            lambda y: in_e(inv(y)), lambda y: in_u(inv(y)), img_lo, img_hi, 100
        )
        rng = np.random.default_rng(59)
        lam = relative_distortion(f, rng.uniform(0, 1, size=(30, 3)), 1e-5).ratio
        rep = verify_area_transport((1.0, 0.5, m_fe, m_fu), lam, 3)
        assert lam == pytest.approx(1.0, rel=1e-10)
        assert rep.passed
        assert rep.middle == pytest.approx(0.5, abs=0.01)

    def test_exponential_map_on_small_cube(self):
        center = np.array([0.3, -0.2, 0.1])
        half = 0.1
        e_lo, e_hi = center - half, center + half
        u_hi = e_hi.copy()
        u_hi[0] = center[0]  # U = half of E
        in_e = cube_membership(e_lo, e_hi)
        in_u = cube_membership(e_lo, u_hi)

        # bounding box of the image from a dense forward sample
        g = np.linspace(0, 1, 24)
        probe = e_lo + np.stack(np.meshgrid(g, g, g, indexing="ij"), -1).reshape(-1, 3) * 2 * half
        img = zorich(probe)
        img_lo = img.min(axis=0) - 1e-3
        img_hi = img.max(axis=0) + 1e-3

        def in_fe(y):
            return in_e(zorich_inverse(y, (0, 0)))

        def in_fu(y):
            return in_u(zorich_inverse(y, (0, 0)))

        m_fe, m_fu = grid_count_measures(in_fe, in_fu, img_lo, img_hi, 100)
        rng = np.random.default_rng(61)
        pts = center + rng.uniform(-half, half, size=(200, 3))
        lam = relative_distortion(zorich, pts, 1e-5).ratio
        rep = verify_area_transport(((2 * half) ** 3, (2 * half) ** 3 / 2, m_fe, m_fu), lam, 3)
        assert rep.passed, rep

    @pytest.mark.parametrize("cube", ["affine", "map"])
    def test_pullback_counts_like_composed_memberships(self, cube):
        # the cubes of the two tests above: the membership tests run once on
        # the pulled-back centers instead of once per set
        if cube == "affine":
            b = np.array([0.3, -0.2, 0.5])
            e_lo, e_hi, u_hi = np.zeros(3), np.ones(3), np.array([0.5, 1.0, 1.0])
            img_lo, img_hi = 2.0 * e_lo + b, 2.0 * e_hi + b

            def pullback(y):
                return (np.asarray(y) - b) / 2.0
        else:
            center, half = np.array([0.3, -0.2, 0.1]), 0.1
            e_lo, e_hi = center - half, center + half
            u_hi = e_hi.copy()
            u_hi[0] = center[0]
            g = np.linspace(0, 1, 24)
            cube_pts = np.stack(np.meshgrid(g, g, g, indexing="ij"), -1).reshape(-1, 3)
            img = zorich(e_lo + cube_pts * 2 * half)
            img_lo, img_hi = img.min(axis=0) - 1e-3, img.max(axis=0) + 1e-3

            def pullback(y):
                return zorich_inverse(y, (0, 0))
        in_e, in_u = cube_membership(e_lo, e_hi), cube_membership(e_lo, u_hi)
        composed = grid_count_measures(
            lambda y: in_e(pullback(y)), lambda y: in_u(pullback(y)), img_lo, img_hi, 100
        )
        pulled = grid_count_measures(in_e, in_u, img_lo, img_hi, 100, pullback=pullback)
        assert pulled == composed
        assert min(pulled) > 0.0

    def test_degenerate_measures_rejected(self):
        with pytest.raises(DegenerateError):
            verify_area_transport((0.0, 0.0, 1.0, 0.5), 1.0, 3)
