import pytest

from zorichlab import preimage, verify
from zorichlab.verify import (
    FACE_CONFIGS,
    check_boundary_distance,
    check_norm_law,
    check_preimage_disk,
    check_width_window,
    run_checks,
    sector_band_area_quadrature,
    trapezoid_area_shoelace,
)


class TestIndividualChecks:
    def test_norm_law_structure(self):
        r = check_norm_law(2000)
        assert r.passed
        assert r.name == "norm_law"
        assert r.value <= r.bound

    def test_boundary_distance(self):
        assert check_boundary_distance(1000).passed

    def test_width_window(self):
        assert check_width_window(200).passed

    def test_preimage_disk(self):
        r = check_preimage_disk(2)
        assert r.passed
        assert r.value < 1.0


class TestQuadratureOracle:
    def test_band_area_matches_closed_form(self):
        for t1, gap in ((0.0, 0.8), (-1.0, 1.5), (1.2, 0.5)):
            q = preimage.annular_sector_areas(t1, t1 + gap)
            approx = sector_band_area_quadrature(t1, t1 + gap)
            assert abs(approx - q.band) / q.band < 1e-12

    def test_trapezoid_shoelace(self):
        q = preimage.annular_sector_areas(0.2, 1.4)
        assert trapezoid_area_shoelace(0.2, 1.4) == pytest.approx(q.trapezoid, rel=1e-12)


class TestFaceConfigs:
    def test_all_configs_build(self):
        for cfg in FACE_CONFIGS:
            cone, face, strip, u2_rect, u3_rect = cfg.build()
            assert u2_rect[0] < u2_rect[1]
            assert u3_rect[0] < u3_rect[1]
            # strips stay inside the working quadrant x1 > |x2|
            lo, hi = strip.x2_interval
            assert max(abs(lo), abs(hi)) < strip.wall_x1
            # boundary gap threshold of the intersection hypothesis
            xi = preimage.beam_boundary_distance(abs(cfg.level), strip.s)
            assert xi < cfg.eta / 3.0

    def test_level_signs_covered(self):
        levels = [cfg.level for cfg in FACE_CONFIGS]
        assert any(l > 0 for l in levels) and any(l < 0 for l in levels)


class TestRunChecks:
    def test_bad_level_rejected(self):
        with pytest.raises(ValueError):
            run_checks("medium")

    def test_tampered_bound_fails(self, monkeypatch):
        # mutation sanity: forcing the chart constant to 1 breaks the slab
        # bound and must take the overall verdict down with it
        import zorichlab.distortion as dist
        from zorichlab.verify import VerificationReport, check_slab_distortion

        monkeypatch.setattr(dist, "lambda_h_estimate", lambda *a, **k: 1.0)
        r = check_slab_distortion(3, 100)
        assert not r.passed
        assert not VerificationReport(level="quick", results=[r]).overall

    # the report order and the arguments of every check, per level
    EXPECTED = {
        "full": {
            "norm_law": (100_000,), "group_invariance": (10_000,),
            "fiber_transitivity": (500,), "inverse_roundtrip": (10_000,),
            "cone_level": (10_000,), "face_flatness": (10_000,),
            "boundary_distance": (10_000,), "separation_gap": (1_000,),
            "sector_ratio": (1_000,), "width_window": (1_000,), "preimage_disk": (5,),
            "wall_projection": (10_000,), "slab_distortion": (50, 300),
            "face_projection_distortion": (10,), "strip_intersection": (1_000,),
            "area_transport": (20,), "coverage_trend": (5, 10_000_000, 0.95),
            "density_trend": (16, 20_000, 4),
        },
        "quick": {
            "norm_law": (10_000,), "group_invariance": (1_000,),
            "fiber_transitivity": (50,), "inverse_roundtrip": (1_000,),
            "cone_level": (1_000,), "face_flatness": (1_000,),
            "boundary_distance": (1_000,), "separation_gap": (100,),
            "sector_ratio": (100,), "width_window": (100,), "preimage_disk": (2,),
            "wall_projection": (1_000,), "slab_distortion": (5, 100),
            "face_projection_distortion": (2,), "strip_intersection": (100,),
            "area_transport": (4,), "coverage_trend": (2, 1_000_000, 0.25),
            "density_trend": (8, 6_000, 2),
        },
    }

    def test_every_check_function_is_in_the_table(self):
        # a check missing from CHECKS never runs, and the benchmark wraps and
        # paces each check_<name> by the names in the table
        defined = {name.removeprefix("check_") for name in vars(verify) if name.startswith("check_")}
        assert defined == {name for name, _, _ in verify.CHECKS}

    @pytest.mark.parametrize("level", ["quick", "full"])
    def test_calls_patched_checks_in_order(self, monkeypatch, level):
        # the checks are looked up at call time, so replacing a module
        # attribute (as a tracer does) reaches run_checks
        calls = []
        for name in self.EXPECTED[level]:
            def fake(*args, _name=name):
                calls.append((_name, args))
                return verify.CheckResult(_name, "claim", 0.0, 1.0, 0.0, True)

            monkeypatch.setattr(verify, f"check_{name}", fake)
        rep = run_checks(level)
        assert calls == list(self.EXPECTED[level].items())
        assert [r.name for r in rep.results] == list(self.EXPECTED[level])
        assert list(rep.seconds) == list(self.EXPECTED[level])


def test_face_measurement_cached_for_transport():
    verify.measure_face_projection_distortion.cache_clear()
    verify.check_face_projection_distortion(1)
    verify.check_area_transport(1)
    info = verify.measure_face_projection_distortion.cache_info()
    assert (info.misses, info.hits) == (1, 1)
