import math
import tracemalloc

import numpy as np
import pytest

from zorichlab import density
from zorichlab.distortion import (
    CHART_RADIUS,
    DistortionEstimate,
    Slab,
    _directions_for,
    cube_membership,
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
from zorichlab.zorich import branch_distance, h_square, zorich, zorich_inverse

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
            relative_distortion(lambda x: x, np.array([0.0, 0.0, 0.0])[None], 1e-5,
                                directions=sphere_directions(16))

    def test_directions_of_another_width(self):
        pts = np.array([[0.1, 0.2], [0.3, -0.4]])
        with pytest.raises(DomainError, match="directions of width 3 for points of width 2"):
            relative_distortion(h_square, pts, 1e-6, directions=sphere_directions(64))

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

    @pytest.mark.parametrize("radius", [0.25, 1e300])
    def test_margin_past_every_point_rejected(self, radius):
        # no point lies farther than pi/sqrt(2) from the branch lines, so a
        # margin of 10 * radius at or past it would be sampled for ever
        with pytest.raises(DomainError, match="branch margin"):
            sample_slab(Slab(0.0, 1.0), 5, seed=0, radius=radius)

    def test_sample_respects_branch_margin(self):
        pts = sample_slab(Slab(-1.0, 1.0), 500, seed=17, radius=1e-5)
        assert np.all(branch_distance(pts) > 1e-4)
        assert np.all((pts[:, 2] > -1.0) & (pts[:, 2] < 1.0))


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


# ---------------------------------------------------------------------------
# blocked estimators: frozen copies of the one-shot estimators they replaced,
# which built every probe and every cell center at once


def one_shot_distortion(f, points, radius, directions=None):
    points = np.atleast_2d(np.asarray(points, dtype=float))
    dirs = _directions_for(points[0], directions)
    fx = np.asarray(f(points))
    fy = np.asarray(f(points[:, None, :] + radius * dirs[None, :, :]))
    q = np.linalg.norm(fy - fx[:, None, :], axis=-1) / radius
    lower, upper = float(np.min(q)), float(np.max(q))
    return DistortionEstimate(upper, lower, upper / lower, len(points))


def one_shot_counts(membership_e, membership_u, box_lo, box_hi, cells_per_axis, pullback=None):
    box_lo = np.asarray(box_lo, dtype=float)
    box_hi = np.asarray(box_hi, dtype=float)
    dim = len(box_lo)
    axes = [
        box_lo[a] + (np.arange(cells_per_axis) + 0.5) * (box_hi[a] - box_lo[a]) / cells_per_axis
        for a in range(dim)
    ]
    centers = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
    cell = float(np.prod((box_hi - box_lo) / cells_per_axis))
    if pullback is not None:
        centers = pullback(centers)
    in_e = np.asarray(membership_e(centers), dtype=bool)
    in_u = np.asarray(membership_u(centers), dtype=bool)
    return float(np.count_nonzero(in_e)) * cell, float(np.count_nonzero(in_u)) * cell


def estimate_bits(est):
    """The estimate's floats as raw bytes (so NaN compares too) and its count."""
    floats = (est.sup_upper, est.inf_lower, est.ratio)
    return [np.float64(v).tobytes() for v in floats], est.sample_count


def sheared(x):
    # column by column: a matmul may round a row differently in another batch
    x1, x2, x3 = np.moveaxis(np.asarray(x), -1, 0)
    return np.stack([x1 + 0.4 * x2 + 0.5, 2.0 * x2 - 0.3 * x3 - 1.0, 0.2 * x1 + 3.0 * x3 + 2.0],
                    axis=-1)


def distortion_case(name):
    """(map, points, radius, directions) of one bit-identity case; the zorich
    points are sorted by height, so both extremes sit in the last block."""
    rng = np.random.default_rng(83)
    if name == "h_square":
        g = -PI / 2 + (np.arange(24) + 0.5) * PI / 24
        pts = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)
        return h_square, pts, CHART_RADIUS, None
    if name == "affine":
        return sheared, rng.uniform(-2.0, 2.0, size=(300, 3)), 1e-5, sphere_directions(64)
    pts = sample_slab(Slab(-1.0, 2.0), 700, 31)
    pts = pts[np.argsort(pts[:, 2], kind="stable")]
    # 48 directions do not divide a block: 341 points a block at 2^14
    return zorich, pts, 1e-5, sphere_directions(48) if name == "zorich-48" else None


@pytest.fixture(params=[1, 7, 64, 1 << 14])
def block(request, monkeypatch):
    monkeypatch.setattr(density, "_BLOCK", request.param)
    return request.param


class TestBlockedEstimators:
    @pytest.mark.parametrize("name", ["h_square", "zorich", "affine", "zorich-48"])
    def test_distortion_is_the_one_shot_distortion(self, block, name):
        f, pts, radius, dirs = distortion_case(name)
        got = relative_distortion(f, pts, radius, directions=dirs)
        assert estimate_bits(got) == estimate_bits(
            one_shot_distortion(f, pts, radius, directions=dirs))
        assert got.sample_count == len(pts)

    @pytest.mark.parametrize("width", [1, 2, 4, 9])
    def test_images_of_other_widths_keep_the_reduction(self, block, width):
        # 3-vector images are normed by columns; any other width as before,
        # nine columns included, where numpy's pairwise sum changes the order
        pts = np.random.default_rng(width).uniform(-1.0, 1.0, size=(200, 3))
        mix = np.random.default_rng(97).uniform(-2.0, 2.0, size=(3, width))

        def f(x):
            x = np.asarray(x)
            return np.sin(x[..., :1]) * mix[0] + np.cos(x[..., 1:2]) * mix[1] + x[..., 2:] * mix[2]

        dirs = sphere_directions(40)
        got = relative_distortion(f, pts, 1e-5, directions=dirs)
        assert estimate_bits(got) == estimate_bits(
            one_shot_distortion(f, pts, 1e-5, directions=dirs))

    def test_nan_probe_in_second_block_gives_nan(self, block):
        pts = np.random.default_rng(89).uniform(-1.0, 1.0, size=(600, 3))
        dirs = sphere_directions(32)
        step = max(1, block // len(dirs))
        # the first point of the second block, probed along its sixth direction
        target = pts[step] + 1e-5 * dirs[5]

        def f(x):
            out = np.array(x, dtype=float)
            out[np.all(out == target, axis=-1)] = np.nan
            return out

        got = relative_distortion(f, pts, 1e-5, directions=dirs)
        assert math.isnan(got.sup_upper) and math.isnan(got.inf_lower)
        assert estimate_bits(got) == estimate_bits(
            one_shot_distortion(f, pts, 1e-5, directions=dirs))

    @pytest.mark.parametrize("pulled", [False, True])
    def test_counts_in_the_plane_are_the_one_shot_counts(self, block, pulled):
        def rotate(y):
            y = np.asarray(y)
            return np.column_stack([0.6 * y[:, 0] - 0.8 * y[:, 1], 0.8 * y[:, 0] + 0.6 * y[:, 1]])

        def in_disk(p):
            return np.hypot(p[:, 0] - 0.2, p[:, 1]) < 0.9

        def in_half(p):
            return in_disk(p) & (p[:, 0] < 0.1)

        args = (in_disk, in_half, (-1.0, -1.2), (1.3, 1.0), 37)
        pullback = rotate if pulled else None
        got = grid_count_measures(*args, pullback=pullback)
        assert got == one_shot_counts(*args, pullback=pullback)
        assert 0.0 < got[1] < got[0]

    @pytest.mark.parametrize("pulled", [False, True])
    def test_counts_in_space_are_the_one_shot_counts(self, block, pulled):
        # the box spans the images of two corners of E; the last cell in C
        # order lies in E, so a lost last block changes the count
        e_lo, e_hi = np.array([0.2, -0.3, 0.0]), np.array([0.4, -0.1, 0.2])
        u_hi = np.array([0.3, -0.1, 0.2])
        in_e, in_u = cube_membership(e_lo, e_hi), cube_membership(e_lo, u_hi)

        def pullback(y):
            return zorich_inverse(y, (0, 0))

        img = zorich(np.array([e_lo, e_hi]))
        box = img.min(axis=0), img.max(axis=0)
        if pulled:
            args, kw = (in_e, in_u, *box, 13), {"pullback": pullback}
        else:
            args, kw = (lambda y: in_e(pullback(y)), lambda y: in_u(pullback(y)), *box, 13), {}
        got = grid_count_measures(*args, **kw)
        assert got == one_shot_counts(*args, **kw)
        assert 0.0 < got[1] < got[0]


@pytest.mark.parametrize("estimator", ["chart", "transport"])
def test_estimators_hold_one_block_of_probes(estimator):
    # one-shot, the 128 chart grid built 16384 x 64 probes and a 100^3
    # zorich_inverse grid count 10^6 centers (about 146 MB traced)
    center, half = np.array([0.3, -0.2, 0.1]), 0.1
    in_e = cube_membership(center - half, center + half)
    img = zorich(np.array([center - half, center + half]))
    tracemalloc.start()
    try:
        if estimator == "chart":
            lambda_h_estimate.__wrapped__(128)
        else:
            grid_count_measures(in_e, in_e, img.min(axis=0), img.max(axis=0), 100,
                                pullback=lambda y: zorich_inverse(y, (0, 0)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
