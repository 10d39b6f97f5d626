import math

import numpy as np
import pytest

from zorichlab.errors import DegenerateError, DomainError, NoIntersectionError
from zorichlab.group import GroupElement
from zorichlab.preimage import (
    FACE_IDS,
    ConeSurface,
    FaceRegion,
    SectorAreas,
    StripSpec,
    annular_sector_areas,
    beam_boundary_distance,
    cone_beam,
    cone_for_strip,
    cone_height,
    cone_mesh,
    cone_point,
    coverage_constant,
    face_mesh,
    face_toward_wall,
    project_to_plane,
    ray_cone_intersect,
    separation_constant,
    strip_floor,
)
from zorichlab.zorich import zorich, zorich_inverse

PI = math.pi


def random_cone(rng):
    level = rng.uniform(0.05, 20.0) * (1 if rng.random() < 0.5 else -1)
    g = GroupElement(int(rng.integers(-3, 4)), int(rng.integers(-3, 4)), bool(rng.integers(0, 2)))
    return ConeSurface(level, g)


def random_params(rng, n, margin=1e-4):
    # parameter points with M(p) < pi/2 - margin
    m = rng.uniform(margin, PI / 2 - margin, n)
    ang = rng.uniform(0, 2 * PI, n)
    x, y = np.cos(ang), np.sin(ang)
    scale = m / np.maximum(np.abs(x), np.abs(y))
    return np.column_stack([x * scale, y * scale])


class TestConeHeight:
    def test_vertex(self):
        assert cone_height(1.0, (0.0, 0.0)) == pytest.approx(0.0, abs=1e-15)

    def test_quarter(self):
        assert cone_height(1.0, (PI / 4, 0.0)) == pytest.approx(math.log(math.sqrt(2)))

    def test_level_e(self):
        assert cone_height(math.e, (0.0, 0.0)) == pytest.approx(1.0)

    def test_defining_equation(self):
        rng = np.random.default_rng(1)
        p = random_params(rng, 500)
        h = cone_height(2.5, p)
        m = np.maximum(np.abs(p[:, 0]), np.abs(p[:, 1]))
        np.testing.assert_allclose(np.exp(h) * np.cos(m), 2.5, rtol=1e-12)

    def test_edge_rejected(self):
        with pytest.raises(DomainError):
            cone_height(1.0, (PI / 2, 0.0))

    def test_overflowing_height_rejected(self):
        # 1e308 / cos(1.5) overflows a float; no RuntimeWarning escapes
        assert cone_height(1e308, (0.0, 0.0)) == math.log(1e308)
        with pytest.raises(DomainError, match="not a finite float"):
            cone_height(1e308, [(0.0, 0.0), (1.5, 0.0)])


class TestConePoint:
    def test_positive_vertex(self):
        x = cone_point(ConeSurface(1.0), (0.0, 0.0))
        np.testing.assert_allclose(x, [0.0, 0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(zorich(x), [0.0, 0.0, 1.0], atol=1e-15)

    def test_negative_vertex_reflected(self):
        x = cone_point(ConeSurface(-1.0), (0.0, 0.0))
        np.testing.assert_allclose(x, [PI, 0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(zorich(x), [0.0, 0.0, -1.0], atol=1e-15)

    def test_image_is_the_plane(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            cone = random_cone(rng)
            p = random_params(rng, 250)
            z3 = zorich(cone_point(cone, p))[:, 2]
            assert np.max(np.abs(z3 - cone.level)) <= 1e-9 * max(1.0, abs(cone.level))

    def test_injective_on_grid(self):
        g = np.linspace(-PI / 2 + 0.05, PI / 2 - 0.05, 20)
        p = np.array([(a, b) for a in g for b in g])
        pts = cone_point(ConeSurface(2.0), p)
        d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
        d[np.diag_indices(len(pts))] = np.inf
        assert d.min() > 1e-6


class TestFaceFlatness:
    def test_beam_faces_map_to_equator_plane(self):
        # points with M(x1, x2) = pi/2 have image third coordinate ~ 0
        rng = np.random.default_rng(3)
        n = 2000
        edge = rng.uniform(-PI / 2, PI / 2, n)
        x3 = rng.uniform(-3, 3, n)
        shift = rng.integers(-2, 3, n) * PI
        x = np.column_stack([np.full(n, PI / 2) + shift, edge, x3])
        z = zorich(x)
        assert np.max(np.abs(z[:, 2]) / np.exp(x3)) <= 1e-12


class TestBeamBoundaryDistance:
    def test_half_level(self):
        assert beam_boundary_distance(1.0, math.log(2.0)) == pytest.approx(PI / 6)

    def test_vertex(self):
        assert beam_boundary_distance(1.0, 0.0) == pytest.approx(PI / 2)

    def test_monotone_to_zero(self):
        x3 = np.linspace(0.0, 30.0, 200)
        d = beam_boundary_distance(1.0, x3)
        assert np.all(np.diff(d) < 0)
        assert d[-1] < 1e-12

    def test_matches_geometric_distance(self):
        rng = np.random.default_rng(5)
        level = 1.7
        p = random_params(rng, 2000)
        x3 = cone_height(level, p)
        geo = PI / 2 - np.maximum(np.abs(p[:, 0]), np.abs(p[:, 1]))
        np.testing.assert_allclose(beam_boundary_distance(level, x3), geo, atol=1e-9)

    def test_below_vertex_rejected(self):
        with pytest.raises(DomainError):
            beam_boundary_distance(1.0, -0.5)


class TestSeparationConstant:
    def test_value_at_e(self):
        expected = math.log(math.sqrt(2.0) * (2.0 * PI + 1.0))
        assert separation_constant(math.e) == pytest.approx(expected, abs=1e-8)

    def test_exp2a_above_three(self):
        rng = np.random.default_rng(7)
        for r in rng.uniform(0.05, 20.0, 200):
            if abs(r - 1.0) < 0.01:
                continue
            assert math.exp(2.0 * separation_constant(r)) > 3.0

    def test_gap_property(self):
        rng = np.random.default_rng(9)
        for _ in range(1000):
            r = rng.uniform(0.05, 20.0)
            if abs(r - 1.0) < 0.01:
                continue
            a = separation_constant(r)
            t1 = math.log(abs(math.log(r))) + rng.uniform(0.0, 5.0)
            t2 = t1 + a + rng.uniform(0.0, 5.0)
            assert math.exp(t2) / math.sqrt(2.0) - math.exp(t1) > 2.0 * PI

    def test_invalid_inputs(self):
        for r in (0.0, 1.0, -2.0):
            with pytest.raises(DomainError):
                separation_constant(r)


class TestSectorAreas:
    def test_gap_ln2(self):
        q = annular_sector_areas(0.0, math.log(2.0))
        assert q.ratio == pytest.approx(3.0 * PI / 4.0, rel=1e-12)

    def test_critical_value_pi(self):
        # at exp(2*gap) = 3 the ratio is exactly pi, comfortably below 2*pi
        q = annular_sector_areas(0.3, 0.3 + 0.5 * math.log(3.0))
        assert abs(q.ratio - PI) <= 1e-12
        assert q.ratio < 2.0 * PI

    def test_ratio_decreasing_in_gap(self):
        gaps = np.linspace(0.4, 4.0, 60)
        ratios = [annular_sector_areas(1.0, 1.0 + g).ratio for g in gaps]
        assert np.all(np.diff(ratios) < 0)

    def test_ratio_below_2pi_beyond_separation(self):
        rng = np.random.default_rng(11)
        count = 0
        while count < 1000:
            r = rng.uniform(0.05, 20.0)
            if abs(r - 1.0) < 0.05:
                continue
            count += 1
            a = separation_constant(r)
            gap = a + rng.uniform(0.0, 6.0)
            t1 = rng.uniform(-2.0, 2.0)
            assert annular_sector_areas(t1, t1 + gap).ratio < 2.0 * PI

    def test_ratio_independent_of_t1(self):
        a = annular_sector_areas(-1.0, -1.0 + 0.9)
        b = annular_sector_areas(2.0, 2.0 + 0.9)
        assert a.ratio == pytest.approx(b.ratio, rel=1e-12)

    def test_degenerate_gap(self):
        with pytest.raises(DegenerateError):
            annular_sector_areas(0.0, 0.2)


class TestWidthWindowBound:
    def test_rearranged_inequality(self):
        # whenever the trapezoid width is <= 4*pi and t1 > ln|ln r|, the
        # height gap obeys exp(t2 - t1) <= sqrt(2) (1 + 4 pi / |ln r|)
        rng = np.random.default_rng(13)
        for _ in range(1000):
            r = rng.uniform(0.05, 20.0)
            if abs(r - 1.0) < 0.05:
                continue
            big_l = abs(math.log(r))
            t1 = math.log(big_l) + rng.uniform(1e-3, 4.0)
            u = rng.uniform(1e-6, 1.0)
            t2 = math.log(math.sqrt(2.0) * (math.exp(t1) + 4.0 * PI * u))
            assert math.exp(t2) / math.sqrt(2.0) - math.exp(t1) <= 4.0 * PI + 1e-9
            bound = math.sqrt(2.0) * (1.0 + 4.0 * PI / big_l)
            assert math.exp(t2 - t1) <= bound * (1.0 + 1e-12)


class TestCoverageConstant:
    def test_frozen_value(self):
        # hand evaluation for lam = 1, r0 = 1, radius = e
        expected = 1.0 / (2.0**11 * PI * math.exp(2.0 * math.e) * (1.0 + 4.0 * PI))
        assert coverage_constant(1.0, math.e, 1.0) == pytest.approx(expected, rel=1e-15)

    def test_scales_with_r0_squared(self):
        c1 = coverage_constant(0.3, 2.0, 1.4)
        c2 = coverage_constant(0.6, 2.0, 1.4)
        assert c2 == pytest.approx(4.0 * c1, rel=1e-12)

    def test_invalid(self):
        with pytest.raises(DomainError):
            coverage_constant(2.0, 1.5, 1.0)
        with pytest.raises(DomainError):
            coverage_constant(0.5, 1.0, 1.0)
        with pytest.raises(DomainError):
            coverage_constant(0.5, 2.0, 0.5)


def ray_plane_oracle(p, direction, plane_x1):
    # generic parametric ray-plane intersection, kept independent of the
    # closed form under test
    normal = np.array([1.0, 0.0, 0.0])
    s = (plane_x1 - np.dot(normal, p)) / np.dot(normal, direction)
    return np.asarray(p, dtype=float) + s * np.asarray(direction, dtype=float)


class TestProjectToPlane:
    def test_example(self):
        out = project_to_plane((0.0, 0.0, 0.0), (0.5, 1.0), 1)
        np.testing.assert_allclose(out, [3 * PI / 2, 3 * PI / 4, 3 * PI / 2], rtol=1e-15)

    def test_plane_membership(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            p = rng.uniform(-2, 2, 3)
            u = (rng.uniform(-0.99, 0.99) or 0.5, rng.uniform(0.01, 3.0))
            m = int(rng.integers(1, 9))
            if abs(u[0]) < 1e-6:
                continue
            out = project_to_plane(p, u, m)
            assert out[0] == pytest.approx(PI / 2 + m * PI, abs=1e-12)

    def test_matches_ray_plane_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(500):
            p = rng.uniform(-3, 3, 3)
            u2 = rng.uniform(0.05, 0.95) * (1 if rng.random() < 0.5 else -1)
            u3 = rng.uniform(0.05, 3.0)
            m = int(rng.integers(1, 7))
            got = project_to_plane(p, (u2, u3), m)
            want = ray_plane_oracle(p, np.array([1.0, u2, u3]), PI / 2 + m * PI)
            assert np.max(np.abs(got - want)) <= 1e-12

    def test_degenerate_wall(self):
        with pytest.raises(DomainError):
            project_to_plane((10.0, 0.0, 0.0), (0.5, 1.0), 1)


class TestStripSpec:
    def test_eta_range_enforced(self):
        with pytest.raises(DomainError):
            StripSpec(plane_index=1, l=0, eta=1.0, s=0.0)


class TestRayConeIntersect:
    def test_vertical_ray_hits_vertex(self):
        cone = ConeSurface(2.0)
        hit = ray_cone_intersect((0.0, 0.0, -1.0), (0.0, 0.0, 0.0), cone, "+x1")
        np.testing.assert_allclose(hit, [0.0, 0.0, math.log(2.0)], atol=1e-12)

    def test_image_level_property(self):
        rng = np.random.default_rng(23)
        hits = 0
        while hits < 60:
            cone = ConeSurface(rng.uniform(0.2, 5.0))
            target = cone_point(cone, random_params(rng, 1, margin=0.3)[0])
            origin = target + rng.normal(size=3) * 4.0
            # aim from a random origin through a known surface point
            face = None
            for fid in FACE_IDS:
                try:
                    hit = ray_cone_intersect(origin, target, cone, fid)
                except NoIntersectionError:
                    continue
                face = fid
                assert zorich(hit)[2] == pytest.approx(cone.level, abs=1e-9 * max(1, cone.level))
            if face is not None:
                hits += 1

    def test_ray_through_strip_hits_adjacent_face(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            radius = rng.uniform(1.5, 8.0)
            level = math.log(radius)
            eta = rng.uniform(0.15, PI / 4 - 0.05)
            m = int(rng.integers(6, 12))
            l = int(rng.integers(-(m - 3), m - 2))
            spec = StripSpec(plane_index=m, l=l, eta=eta, s=strip_floor(level, eta) + 0.5)
            lo, hi = spec.x2_interval
            a = np.array(
                [spec.wall_x1, rng.uniform(lo, hi), spec.s + rng.uniform(0.2, 2.0)]
            )
            cone = cone_for_strip(level, m, l)
            face = face_toward_wall(cone, m)
            hit = ray_cone_intersect((0.0, 0.0, 0.0), a, cone, face)
            assert zorich(hit)[2] == pytest.approx(level, abs=1e-9 * max(1, abs(level)))
            # the hit stays close to the wall, inside the strip's x2 period
            assert abs(hit[0] - spec.wall_x1) < eta / 3.0
            assert PI / 2 + (l - 1) * PI < hit[1] < PI / 2 + l * PI

    def test_no_intersection_reports_range(self):
        cone = ConeSurface(1.0)
        with pytest.raises(NoIntersectionError):
            # ray parallel to the beam, far outside it
            ray_cone_intersect((10.0, 10.0, 0.0), (10.0, 10.0, 5.0), cone, "+x1")


class TestStripFloor:
    def test_boundary_gap_is_eta_third_at_the_floor(self):
        for level, eta in ((2.0, 0.3), (-5.0, 0.7), (1.2, 0.15)):
            s = strip_floor(level, eta)
            assert s > 0.0
            assert beam_boundary_distance(abs(level), s) == pytest.approx(eta / 3.0, rel=1e-12)
            assert beam_boundary_distance(abs(level), s + 1e-6) < eta / 3.0

    def test_floor_is_zero_for_small_levels(self):
        assert strip_floor(0.05, 0.7) == 0.0
        assert strip_floor(-0.05, 0.7) == 0.0


class TestConeForStrip:
    def test_adjacent_and_parity(self):
        for level in (2.0, -3.0):
            for m in (3, 4):
                for l in (-2, -1, 0, 1, 2):
                    cone = cone_for_strip(level, m, l)
                    probe = cone_point(cone, (0.0, 0.0))
                    wall = PI / 2 + m * PI
                    # vertex sits in one of the two beams touching the wall
                    assert abs(probe[0] - wall) < PI
                    assert abs(probe[1] - l * PI) < PI / 2 + 1e-9
                    z = zorich(probe)
                    assert z[2] == pytest.approx(level, rel=1e-12)

    def test_cone_beam_holds_the_vertex(self):
        elements = (GroupElement(0, 0, False), GroupElement(2, -1, True), GroupElement(-3, 2, False))
        for level in (2.0, -3.0):
            for g in elements:
                cone = ConeSurface(level, g)
                beam = cone_beam(cone)
                np.testing.assert_allclose(
                    cone_point(cone, (0.0, 0.0))[:2], (beam.i * PI, beam.j * PI), atol=1e-12
                )
        for m, l in ((3, -2), (4, 1)):
            assert cone_beam(cone_for_strip(2.0, m, l)).j == l
            assert cone_beam(cone_for_strip(-2.0, m, l)).i in (m, m + 1)

    def test_face_toward_wall_is_nearest(self):
        cone = cone_for_strip(2.0, 5, 1)
        fid = face_toward_wall(cone, 5)
        region = FaceRegion(cone, fid, cone.vertex_height + 2.0, cone.vertex_height + 3.0)
        tris = face_mesh(region, 8, 4)
        wall = PI / 2 + 5 * PI
        assert np.max(np.abs(tris[..., 0] - wall)) < 0.6


class TestMeshes:
    def test_vertices_on_surface(self):
        cone = ConeSurface(1.5, GroupElement(1, -1, True))
        tris = cone_mesh(cone, cone.vertex_height + 0.5, cone.vertex_height + 2.0, 8, 4)
        pts = tris.reshape(-1, 3)
        z3 = zorich(pts)[:, 2]
        np.testing.assert_allclose(z3, cone.level, atol=1e-9)

    def test_counts(self):
        cone = ConeSurface(1.0)
        tris = face_mesh(FaceRegion(cone, "+x2", 0.5, 1.5), 6, 3)
        assert tris.shape == (36, 3, 3)
        soup = cone_mesh(cone, 0.5, 1.5, 6, 3)
        assert soup.shape == (4 * 36, 3, 3)

    def test_cones_past_the_phase_cap_rejected(self):
        # --m 1e20 wrote a mesh whose x1 span was 0.0; the last resolvable
        # beam index is 3183098861837, odd
        k = 3183098861837
        for level, element in [(1.0, GroupElement(k // 2, 0)), (-1.0, GroupElement(k // 2, 0)),
                               (1.0, GroupElement(0, -(k // 2) - 1, True))]:
            assert max(map(abs, cone_beam(ConeSurface(level, element)))) in (k - 1, k)
        for level, element in [(1.0, GroupElement(k // 2 + 1, 0)), (1.0, GroupElement(10**20, 0)),
                               (-1.0, GroupElement(0, -(k // 2) - 2, True))]:
            with pytest.raises(DomainError, match="is past PHASE_CAP"):
                ConeSurface(level, element)


class TestPlaneSphereDuality:
    def test_plane_maps_to_sphere(self):
        rng = np.random.default_rng(31)
        t = 0.7
        x = np.column_stack(
            [rng.uniform(-15, 15, 3000), rng.uniform(-15, 15, 3000), np.full(3000, t)]
        )
        r = np.linalg.norm(zorich(x), axis=-1)
        np.testing.assert_allclose(r, math.exp(t), rtol=1e-12)

    def test_sphere_pulls_back_to_plane(self):
        rng = np.random.default_rng(33)
        r = 2.4
        u = rng.normal(size=(2000, 3))
        u /= np.linalg.norm(u, axis=-1, keepdims=True)
        y = r * u
        upper = y[y[:, 2] >= 0]
        lower = y[y[:, 2] <= 0]
        xu = zorich_inverse(upper, (0, 0))
        xl = zorich_inverse(lower, (1, 0))
        np.testing.assert_allclose(xu[:, 2], math.log(r), atol=1e-9)
        np.testing.assert_allclose(xl[:, 2], math.log(r), atol=1e-9)
