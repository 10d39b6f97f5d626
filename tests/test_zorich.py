import math

import numpy as np
import pytest

from zorichlab.errors import DomainError, ExponentOverflowError, ParityMismatchError
from zorichlab.zorich import (
    OK,
    PHASE_CAP,
    UNRESOLVABLE,
    Beam,
    branch_distance,
    fold,
    h_extended,
    h_inverse,
    h_square,
    second_iterate,
    unfold,
    zorich,
    zorich_inverse,
    zorich_second,
)

PI = math.pi
# the largest beam index k with k*pi <= PHASE_CAP, odd
LAST_BEAM = 3183098861837


class TestHSquare:
    def test_pole(self):
        np.testing.assert_allclose(h_square((0.0, 0.0)), [0.0, 0.0, 1.0], atol=0)

    def test_edge_midpoint(self):
        # M = r = pi/2 makes the scale factor exactly sin(pi/2)/(pi/2)
        np.testing.assert_allclose(h_square((PI / 2, 0.0)), [1.0, 0.0, 0.0], atol=1e-15)

    def test_diagonal(self):
        v = h_square((PI / 4, PI / 4))
        np.testing.assert_allclose(v, [0.5, 0.5, math.sqrt(2) / 2], atol=1e-15)

    def test_unit_norm_and_hemisphere(self):
        rng = np.random.default_rng(7)
        p = rng.uniform(-PI / 2, PI / 2, size=(2000, 2))
        v = h_square(p)
        np.testing.assert_allclose(np.linalg.norm(v, axis=-1), 1.0, atol=1e-12)
        assert np.all(v[:, 2] >= 0.0)

    def test_outside_square_rejected(self):
        with pytest.raises(DomainError):
            h_square((PI / 2 + 1e-6, 0.0))


class TestFold:
    def test_identity_inside(self):
        r = fold(PI / 4)
        assert r == (pytest.approx(PI / 4), 0, 0)

    def test_pi(self):
        r = fold(PI)
        assert r.folded == pytest.approx(0.0, abs=1e-15)
        assert (r.strip, r.parity) == (1, 1)

    def test_negative(self):
        r = fold(-3 * PI / 4)
        assert r.folded == pytest.approx(-PI / 4)
        assert (r.strip, r.parity) == (-1, 1)

    def test_unfold_roundtrip(self):
        rng = np.random.default_rng(11)
        t = rng.uniform(-40.0, 40.0, size=5000)
        r = fold(t)
        assert np.all(np.abs(r.folded) <= PI / 2 + 1e-12)
        back = unfold(r.folded, r.strip)
        np.testing.assert_allclose(back, t, atol=1e-13, rtol=0)


class TestHExtended:
    def test_one_reflection_flips_pole(self):
        np.testing.assert_allclose(h_extended((PI, 0.0)), [0.0, 0.0, -1.0], atol=1e-15)

    def test_matches_h_square_inside(self):
        rng = np.random.default_rng(3)
        p = rng.uniform(-PI / 2, PI / 2, size=(500, 2))
        np.testing.assert_array_equal(h_extended(p), h_square(p))

    def test_reflection_symmetry_across_edge(self):
        a = h_extended((PI / 2 + 0.1, 0.3))
        b = h_extended((PI / 2 - 0.1, 0.3))
        np.testing.assert_allclose(a[:2], b[:2], atol=1e-15)
        assert a[2] == pytest.approx(-b[2], abs=1e-15)

    @pytest.mark.parametrize("eps", [1e-6, 1e-8])
    def test_continuity_at_edges(self, eps):
        x2 = np.linspace(-1.2, 1.2, 17)
        left = h_extended(np.stack([np.full_like(x2, PI / 2 - eps), x2], axis=-1))
        right = h_extended(np.stack([np.full_like(x2, PI / 2 + eps), x2], axis=-1))
        assert np.max(np.linalg.norm(left - right, axis=-1)) < 1e-5

    def test_hemisphere_parity(self):
        rng = np.random.default_rng(5)
        p = rng.uniform(-12.0, 12.0, size=(3000, 2))
        fa = fold(p[:, 0])
        fb = fold(p[:, 1])
        sign = np.where((fa.parity + fb.parity) % 2 == 0, 1.0, -1.0)
        v3 = h_extended(p)[:, 2]
        assert np.all(sign * v3 >= -1e-15)


class TestZorich:
    def test_origin(self):
        np.testing.assert_allclose(zorich((0.0, 0.0, 0.0)), [0.0, 0.0, 1.0], atol=0)

    def test_scaled_diagonal(self):
        v = zorich((PI / 4, PI / 4, math.log(2.0)))
        np.testing.assert_allclose(v, [1.0, 1.0, math.sqrt(2)], rtol=1e-15)

    def test_lower_half_space(self):
        for t in (-1.0, 0.0, 2.5):
            v = zorich((PI, 0.0, t))
            np.testing.assert_allclose(v, [0.0, 0.0, -math.exp(t)], atol=1e-15)

    def test_norm_law(self):
        rng = np.random.default_rng(17)
        x = np.column_stack(
            [
                rng.uniform(-20, 20, 20000),
                rng.uniform(-20, 20, 20000),
                rng.uniform(-10, 10, 20000),
            ]
        )
        r = np.linalg.norm(zorich(x), axis=-1)
        expected = np.exp(x[:, 2])
        assert np.max(np.abs(r - expected) / expected) <= 1e-12

    def test_plane_preservation_exact(self):
        rng = np.random.default_rng(19)
        x2 = rng.uniform(-30, 30, 200)
        x3 = rng.uniform(-3, 3, 200)
        a = zorich(np.column_stack([np.zeros(200), x2, x3]))
        assert np.all(a[:, 0] == 0.0)
        b = zorich(np.column_stack([x2, np.zeros(200), x3]))
        assert np.all(b[:, 1] == 0.0)

    def test_overflow_guard(self):
        with pytest.raises(ExponentOverflowError) as err:
            zorich((0.0, 0.0, 701.0))
        assert err.value.stage == "first"

    def test_phase_cap(self):
        # a phase max(|x1|, |x2|) up to PHASE_CAP evaluates; its next float
        # is past the cap on either axis and either sign, also inside a batch
        past = math.nextafter(PHASE_CAP, math.inf)
        for x in [(PHASE_CAP, 0.0, 0.0), (0.3, -PHASE_CAP, 1.0), [(PHASE_CAP, -PHASE_CAP, 2.0)]]:
            assert np.all(np.isfinite(zorich(x)))
        for x in [(past, 0.0, 0.0), (0.3, -past, 1.0), [(0.0, 0.0, 0.0), (-past, 1.0, 2.0)],
                  (1e300, 0.0, 0.0)]:
            with pytest.raises(DomainError, match="past PHASE_CAP"):
                zorich(x)


class TestZorichSecond:
    def test_origin(self):
        np.testing.assert_allclose(zorich_second((0.0, 0.0, 0.0)), [0.0, 0.0, math.e], rtol=1e-15)

    def test_composition(self):
        rng = np.random.default_rng(23)
        x = np.column_stack(
            [rng.uniform(-9, 9, 500), rng.uniform(-9, 9, 500), rng.uniform(-2, 1.5, 500)]
        )
        np.testing.assert_array_equal(zorich_second(x), zorich(zorich(x)))

    def test_edge_point(self):
        v = zorich_second((PI / 2, 0.0, 0.0))
        np.testing.assert_allclose(v, zorich((1.0, 0.0, 0.0)), atol=0)

    def test_plane_line_image_bounded(self):
        p3 = 0.8
        s = np.linspace(-50, 50, 4001)
        x = np.column_stack([1.0 + 2.0 * s, 0.7 * s, np.full_like(s, p3)])
        f = zorich_second(x)
        assert np.all(np.linalg.norm(f, axis=-1) <= math.exp(math.exp(p3)) * (1 + 1e-12))

    def test_second_stage_overflow_tagged(self):
        with pytest.raises(ExponentOverflowError) as err:
            zorich_second((0.0, 0.0, 10.0))  # exp(10) > 700 at the second stage
        assert err.value.stage == "second"

    def test_input_phase_past_the_cap(self):
        # an input phase past PHASE_CAP is UNRESOLVABLE in the kernel and a
        # DomainError here, as in zorich; at the cap it evaluates
        past = math.nextafter(PHASE_CAP, math.inf)
        for x in [(1e300, 0.0, 0.0), (past, 0.0, 0.0), (0.3, -past, 1.0)]:
            assert second_iterate(x)[1] == UNRESOLVABLE
            with pytest.raises(DomainError, match="past PHASE_CAP"):
                zorich_second(x)
        x = [(PHASE_CAP, 0.0, 0.0), (0.0, -PHASE_CAP, -1.0), (past, 0.0, 0.0)]
        np.testing.assert_array_equal(second_iterate(x)[1], [OK, OK, UNRESOLVABLE])


class TestHInverse:
    def test_pole(self):
        np.testing.assert_array_equal(h_inverse((0.0, 0.0, 1.0)), [0.0, 0.0])

    def test_edge(self):
        np.testing.assert_allclose(h_inverse((1.0, 0.0, 0.0)), [PI / 2, 0.0], rtol=1e-15)

    def test_diagonal(self):
        p = h_inverse((0.5, 0.5, math.sqrt(2) / 2))
        np.testing.assert_allclose(p, [PI / 4, PI / 4], rtol=1e-12)

    def test_roundtrip_on_hemisphere(self):
        rng = np.random.default_rng(29)
        u = rng.normal(size=(2000, 3))
        u[:, 2] = np.abs(u[:, 2])
        u /= np.linalg.norm(u, axis=-1, keepdims=True)
        back = h_square(h_inverse(u))
        assert np.max(np.linalg.norm(back - u, axis=-1)) <= 1e-9

    def test_lower_hemisphere_rejected(self):
        with pytest.raises(DomainError):
            h_inverse((0.0, 0.0, -1.0))


class TestZorichInverse:
    def test_pole_branch(self):
        x = zorich_inverse((0.0, 0.0, math.e), (0, 0))
        np.testing.assert_allclose(x, [0.0, 0.0, 1.0], atol=1e-15)

    def test_lower_branch(self):
        x = zorich_inverse((0.0, 0.0, -1.0), (1, 0))
        np.testing.assert_allclose(x, [PI, 0.0, 0.0], atol=1e-15)

    @pytest.mark.parametrize("beam", [(0, 0), (1, 0), (-1, 1), (2, 1)])
    def test_roundtrip(self, beam):
        rng = np.random.default_rng(sum(beam) + 100)
        n = 2000
        beam = Beam(*beam)
        x1 = rng.uniform(-PI / 2, PI / 2, n) + beam.i * PI
        x2 = rng.uniform(-PI / 2, PI / 2, n) + beam.j * PI
        x3 = rng.uniform(-3, 3, n)
        x = np.column_stack([x1, x2, x3])
        keep = branch_distance(x) > 1e-6
        x = x[keep]
        back = zorich_inverse(zorich(x), beam)
        err = np.linalg.norm(back - x, axis=-1) / np.maximum(1.0, np.linalg.norm(x, axis=-1))
        assert np.max(err) <= 1e-9

    @pytest.mark.parametrize("beam", [(0, 0), (1, 0)])
    def test_roundtrip_near_the_beam_axis(self, beam):
        # the chart angle of a point 1e-8 off the axis must survive the inverse
        x = np.array([1e-8 + beam[0] * PI, 3e-9 + beam[1] * PI, 0.5])
        np.testing.assert_allclose(zorich_inverse(zorich(x), beam), x, rtol=0, atol=1e-12)

    def test_inverse_consistency(self):
        rng = np.random.default_rng(31)
        y = rng.normal(size=(500, 3))
        y[:, 2] = np.abs(y[:, 2])
        x = zorich_inverse(y, (0, 0))
        err = np.linalg.norm(zorich(x) - y, axis=-1) / np.linalg.norm(y, axis=-1)
        assert np.max(err) <= 1e-9

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            zorich_inverse((0.0, 0.0, 0.0), (0, 0))

    def test_deep_subnormal_image(self):
        # 1e-320 has few significant bits: the direction is that of (1, 0, 1)
        x = zorich_inverse((1e-320, 0.0, 1e-320), (0, 0))
        assert list(x[:2]) == list(zorich_inverse((1.0, 0.0, 1.0), (0, 0))[:2])
        assert x[2] == math.log(math.hypot(1e-320, 1e-320))

    def test_parity_mismatch(self):
        with pytest.raises(ParityMismatchError):
            zorich_inverse((0.0, 0.0, 1.0), (1, 0))
        with pytest.raises(ParityMismatchError):
            zorich_inverse((0.0, 0.0, -1.0), (0, 0))

    def test_equator_accepted_by_both(self):
        y = (2.0, 1.0, 0.0)
        for beam in ((0, 0), (1, 0)):
            x = zorich_inverse(y, beam)
            np.testing.assert_allclose(zorich(x), y, atol=1e-12)

    def test_beams_past_the_phase_cap_rejected(self):
        # the residual of --beam 1e20,0 read 0.197; past the cap the phase has
        # no float resolution, so no beam there names a branch
        assert LAST_BEAM * PI <= PHASE_CAP < (LAST_BEAM + 1) * PI
        y = (0.3, -0.2, 1.5)
        for beam in ((LAST_BEAM, 1), (-1, -LAST_BEAM)):
            assert Beam(*beam).resolvable
            x = zorich_inverse(y, beam)
            assert np.linalg.norm(zorich(x) - y) / np.linalg.norm(y) < 1e-2
        for beam in ((LAST_BEAM + 1, 0), (0, -LAST_BEAM - 1), (10**20, 0), (0, 10**400)):
            assert not Beam(*beam).resolvable
            with pytest.raises(DomainError, match="is past PHASE_CAP"):
                zorich_inverse(y, beam)


class TestBranchDistance:
    def test_on_branch_line(self):
        assert branch_distance((PI / 2, PI / 2, 5.0)) == pytest.approx(0.0, abs=1e-15)

    def test_origin(self):
        assert branch_distance((0.0, 0.0, 0.0)) == pytest.approx(PI / math.sqrt(2))

    def test_edge_midpoint(self):
        assert branch_distance((PI / 2, 0.0, 0.0)) == pytest.approx(PI / 2)

    def test_periodicity(self):
        rng = np.random.default_rng(37)
        p = rng.uniform(-5, 5, size=(300, 3))
        shifted = p + np.array([PI, -2 * PI, 0.4])
        np.testing.assert_allclose(branch_distance(p), branch_distance(shifted), atol=1e-12)
