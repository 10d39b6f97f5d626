"""Acceptance gate: every quantitative criterion at its stated tolerance.

Each test prints one `ACCEPTANCE <nn> <name>: PASS/FAIL` line; run with
`pytest -s tests/test_acceptance.py` to see them all.
"""

import math
import time
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.integrate import quad

from zorichlab import density, distortion, preimage, verify
from zorichlab.cli import main
from zorichlab.group import GroupElement, apply, from_word
from zorichlab.zorich import Beam, branch_distance, zorich, zorich_inverse

PI = math.pi


def report(number, name, ok, detail):
    print(f"\nACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} {name}: {detail}"


def test_01_norm_law():
    rng = np.random.default_rng(1001)
    n = 100_000
    x = np.column_stack(
        [rng.uniform(-30, 30, n), rng.uniform(-30, 30, n), rng.uniform(-10, 10, n)]
    )
    start = time.perf_counter()
    r = np.linalg.norm(zorich(x), axis=-1)
    elapsed = time.perf_counter() - start
    err = float(np.max(np.abs(r - np.exp(x[:, 2])) / np.exp(x[:, 2])))
    ok = err <= 1e-12 and elapsed < 1.0
    report(1, "norm_law", ok, f"max rel err {err:.3e}, {elapsed:.3f}s")


def test_02_strong_automorphy():
    rng = np.random.default_rng(1002)
    n = 10_000
    x = np.column_stack(
        [rng.uniform(-9, 9, n), rng.uniform(-9, 9, n), rng.uniform(-4, 4, n)]
    )
    zx = zorich(x)
    scale = np.maximum(1.0, np.exp(x[:, 2]))
    syms = ["g1", "g1_inv", "g2", "g2_inv", "g3"]
    words = [
        [syms[i] for i in rng.integers(0, len(syms), rng.integers(0, 9))] for _ in range(n)
    ]
    elements = {}
    for k, word in enumerate(words):
        elements.setdefault(from_word(word), []).append(k)
    worst = 0.0
    for g, idx in elements.items():
        err = np.linalg.norm(zorich(apply(g, x[idx])) - zx[idx], axis=-1) / scale[idx]
        worst = max(worst, float(np.max(err)))
    ok = worst <= 1e-9
    report(2, "strong_automorphy", ok, f"max err {worst:.3e} over {len(elements)} elements")


def test_03_inverse_branches():
    worst = 0.0
    for beam in ((0, 0), (1, 0)):
        rng = np.random.default_rng(1003 + beam[0])
        b = Beam(*beam)
        n = 10_000
        x = np.column_stack(
            [
                rng.uniform(-PI / 2, PI / 2, 2 * n) + b.i * PI,
                rng.uniform(-PI / 2, PI / 2, 2 * n) + b.j * PI,
                rng.uniform(-3, 3, 2 * n),
            ]
        )
        x = x[branch_distance(x) > 1e-6][:n]
        assert len(x) == n
        back = zorich_inverse(zorich(x), b)
        err = np.linalg.norm(back - x, axis=-1) / np.maximum(1.0, np.linalg.norm(x, axis=-1))
        worst = max(worst, float(np.max(err)))
    ok = worst <= 1e-9
    report(3, "inverse_branches", ok, f"max rel err {worst:.3e}, 1e4 per parity")


def test_04_cone_correctness():
    rng = np.random.default_rng(1004)
    worst_cone = 0.0
    per_cone = 500
    for _ in range(20):
        level = float(rng.uniform(0.05, 20.0)) * (1 if rng.random() < 0.5 else -1)
        g = GroupElement(
            int(rng.integers(-3, 4)), int(rng.integers(-3, 4)), bool(rng.integers(0, 2))
        )
        cone = preimage.ConeSurface(level, g)
        m = rng.uniform(1e-4, PI / 2 - 1e-4, per_cone)
        ang = rng.uniform(0, 2 * PI, per_cone)
        xv, yv = np.cos(ang), np.sin(ang)
        p = np.column_stack([xv, yv]) * (m / np.maximum(np.abs(xv), np.abs(yv)))[:, None]
        z3 = zorich(preimage.cone_point(cone, p))[:, 2]
        worst_cone = max(worst_cone, float(np.max(np.abs(z3 - level))) / max(1.0, abs(level)))
    n = 10_000
    edge = rng.uniform(-PI / 2, PI / 2, n)
    x3 = rng.uniform(-3, 3, n)
    shift = rng.integers(-2, 3, n) * PI
    x = np.column_stack([np.full(n, PI / 2) + shift, edge, x3])
    worst_face = float(np.max(np.abs(zorich(x)[:, 2]) / np.exp(x3)))
    ok = worst_cone <= 1e-9 and worst_face <= 1e-12
    report(
        4, "cone_correctness", ok,
        f"cone level err {worst_cone:.3e}, face flatness {worst_face:.3e}",
    )


def test_05_boundary_distance():
    rng = np.random.default_rng(1005)
    n = 10_000
    level = 1.7
    m = rng.uniform(1e-4, PI / 2 - 1e-4, n)
    ang = rng.uniform(0, 2 * PI, n)
    xv, yv = np.cos(ang), np.sin(ang)
    p = np.column_stack([xv, yv]) * (m / np.maximum(np.abs(xv), np.abs(yv)))[:, None]
    x3 = preimage.cone_height(level, p)
    formula = preimage.beam_boundary_distance(level, x3)
    geometric = PI / 2 - np.maximum(np.abs(p[:, 0]), np.abs(p[:, 1]))
    err = float(np.max(np.abs(formula - geometric)))
    ok = err <= 1e-9
    report(5, "boundary_distance", ok, f"max err {err:.3e} on 1e4 samples")


def test_06_separation_constant():
    rng = np.random.default_rng(1006)
    violations = 0
    count = 0
    while count < 1000:
        radius = float(rng.uniform(0.05, 20.0))
        if abs(radius - 1.0) <= 0.05:
            continue
        count += 1
        a = preimage.separation_constant(radius)
        if not math.exp(2 * a) > 3.0:
            violations += 1
        t1 = math.log(abs(math.log(radius))) + abs(float(rng.normal())) + 1e-9
        t2 = t1 + a + abs(float(rng.normal()))
        if not math.exp(t2) / math.sqrt(2.0) - math.exp(t1) > 2.0 * PI:
            violations += 1
    ok = violations == 0
    report(6, "separation_constant", ok, f"{violations} violations in 1000 draws")


def band_width(x1, r1, r2):
    # width of {x1 >= |x2|, r1 <= |x| <= r2} at abscissa x1
    outer = min(x1, math.sqrt(max(r2 * r2 - x1 * x1, 0.0)))
    inner = math.sqrt(max(r1 * r1 - x1 * x1, 0.0))
    return 2.0 * max(outer - inner, 0.0)


def test_07_area_ratio():
    rng = np.random.default_rng(1007)
    worst = 0.0
    for _ in range(25):
        t1 = float(rng.uniform(-2, 2))
        gap = float(rng.uniform(0.4, 3.0))
        q = preimage.annular_sector_areas(t1, t1 + gap)
        r1, r2 = math.exp(t1), math.exp(t1 + gap)
        val, _ = quad(
            band_width, r1 / math.sqrt(2), r2, args=(r1, r2),
            points=[r1, r2 / math.sqrt(2)], limit=200, epsabs=1e-13 * q.band,
        )
        worst = max(worst, abs(val - q.band) / q.band)
        # trapezoid closed form against the shoelace of its vertices
        r2s = r2 / math.sqrt(2)
        shoelace = (r2s - r1) * (r2s + r1)
        worst = max(worst, abs(shoelace - q.trapezoid) / q.trapezoid)
    crit = abs(preimage.annular_sector_areas(0.4, 0.4 + 0.5 * math.log(3.0)).ratio - PI)
    violations = 0
    count = 0
    while count < 1000:
        radius = float(rng.uniform(0.05, 20.0))
        if abs(radius - 1.0) <= 0.05:
            continue
        count += 1
        gap = preimage.separation_constant(radius) + abs(float(rng.normal()))
        if not preimage.annular_sector_areas(0.0, gap).ratio < 2.0 * PI:
            violations += 1
    ok = worst <= 1e-9 and crit <= 1e-12 and violations == 0
    report(
        7, "area_ratio", ok,
        f"quadrature err {worst:.3e}, critical value err {crit:.3e}, {violations} ratio violations",
    )


def test_08_wall_projection():
    rng = np.random.default_rng(1008)
    worst = 0.0
    for _ in range(10_000):
        p = rng.uniform(-3, 3, 3)
        u2 = float(rng.uniform(0.05, 0.95)) * (1 if rng.random() < 0.5 else -1)
        u3 = float(rng.uniform(0.05, 3.0))
        m = int(rng.integers(1, 7))
        got = preimage.project_to_plane(p, (u2, u3), m)
        d = np.array([1.0, u2, u3])
        s = (PI / 2 + m * PI - p[0]) / d[0]
        worst = max(worst, float(np.max(np.abs(got - (p + s * d)))))
    p = np.array([0.3, -0.2, 0.5])
    c = PI / 2 + 6 * PI - p[0]
    pts = p + np.column_stack(
        [np.ones(40), np.linspace(-0.9, 0.9, 40), np.linspace(0.3, 2.5, 40)]
    )
    dirs = distortion.plane_directions(64, (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
    est = distortion.relative_distortion(
        lambda x: p + c * (np.asarray(x) - p), pts, 1e-6, directions=dirs
    )
    dist_err = abs(est.ratio - 1.0)
    ok = worst <= 1e-12 and dist_err <= 1e-6
    report(
        8, "wall_projection", ok,
        f"oracle err {worst:.3e} on 1e4 samples, distortion err {dist_err:.3e}",
    )


def test_09_slab_distortion():
    lam128 = distortion.lambda_h_estimate(128)
    lam256 = distortion.lambda_h_estimate(256)
    stability = abs(lam128 - lam256) / lam256
    rng = np.random.default_rng(1009)
    worst_ratio = 0.0
    all_pass = True
    for k in range(50):
        t1 = float(rng.uniform(-3, 3))
        gap = float(rng.uniform(0.01, 3.0))
        rep = distortion.verify_slab_bound(
            distortion.Slab(t1, t1 + gap), 300, lam=lam128, seed=1900 + k
        )
        all_pass = all_pass and rep.passed
        worst_ratio = max(worst_ratio, rep.d_est / rep.bound)
    ok = all_pass and stability <= 0.02
    report(
        9, "slab_distortion", ok,
        f"worst D/bound {worst_ratio:.3f} over 50 slabs, lambda stability {stability:.4f}",
    )


# Criteria 10-15 rest on one `verify --level full` run: it already runs each
# of their checks, at the counts each criterion states.


@dataclass
class FullRun:
    code: int
    elapsed: float
    results: dict  # check name -> CheckResult
    seconds: dict  # check name -> wall seconds


@pytest.fixture(scope="module")
def full_verify(tmp_path_factory):
    reports = []
    run_checks = verify.run_checks

    def recording(level):
        reports.append(run_checks(level))
        return reports[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "run_checks", recording)
        start = time.perf_counter()
        code = main(["verify", "--level", "full", "--out", str(tmp_path_factory.mktemp("full"))])
        elapsed = time.perf_counter() - start
    (rep,) = reports
    return FullRun(code, elapsed, {r.name: r for r in rep.results}, rep.seconds)


def full_args(name):
    (args,) = [full for check, full, _ in verify.CHECKS if check == name]
    return args


def test_10_face_projection_distortion(full_verify):
    result = full_verify.results["face_projection_distortion"]
    ok = full_args("face_projection_distortion") == (10,) and result.passed and result.value <= 2.1
    report(10, "face_projection_distortion", ok, f"max D {result.value:.4f} over 10 configurations")


def test_11_strip_intersections(full_verify):
    result = full_verify.results["strip_intersection"]
    ok = full_args("strip_intersection") == (1000,) and result.passed
    report(11, "strip_intersections", ok, f"{int(result.value)} misses in 1000 rays")


def test_12_area_transport(full_verify):
    result = full_verify.results["area_transport"]
    ok = full_args("area_transport") == (20,) and result.note == "configs=20" and result.passed
    report(12, "area_transport", ok, f"20 configurations, worst overshoot {result.value:.3f}")


def test_13_density_coverage(full_verify):
    # five seed-20260808 lines at 10^7, each series nondecreasing (coverage_trend)
    result = full_verify.results["coverage_trend"]
    start = time.perf_counter()
    excluded = [
        density.LineSpec(p=(0.0, 0.0, 0.3), d=(1.0, 0.4, 0.0)),   # x3 = p3 plane
        density.LineSpec(p=(0.0, 0.0, 0.0), d=(0.0, 0.7, 1.4e-4)),  # x1 = p1 plane
    ]
    exc_runs = density.coverage_experiment(excluded, budget=density.COVERAGE_BUDGET)
    exc_cov = [run.coverage for run in exc_runs]
    elapsed = full_verify.seconds["coverage_trend"] + time.perf_counter() - start
    ok = (
        full_args("coverage_trend")
        == (5, density.COVERAGE_BUDGET, density.COVERAGE_THRESHOLD)
        and result.passed
        and result.value >= density.COVERAGE_THRESHOLD
        and max(exc_cov) < density.COVERAGE_THRESHOLD
        and elapsed < 300.0
    )
    report(
        13, "density_coverage", ok,
        f"worst line coverage {result.value:.4f} vs threshold "
        f"{density.COVERAGE_THRESHOLD}, excluded {[round(c, 4) for c in exc_cov]}, "
        f"{elapsed:.0f}s",
    )


def test_14_epsilon_density_trend(full_verify):
    # 16 x 16 lines of 20 000 evaluations on each of 4 rungs (density_trend)
    result = full_verify.results["density_trend"]
    ok = (
        full_args("density_trend") == (16, 20_000, 4)
        and result.passed
        and result.value >= density.DENSITY_FRACTION_MIN
    )
    report(
        14, "epsilon_density_trend", ok,
        f"worst fraction {result.value:.3f} vs floor "
        f"{density.DENSITY_FRACTION_MIN}; {result.note}",
    )


def test_15_cmd_verify(tmp_path, full_verify):
    start = time.perf_counter()
    code_quick = main(["verify", "--level", "quick", "--out", str(tmp_path / "quick")])
    quick_elapsed = time.perf_counter() - start
    code_full, full_elapsed = full_verify.code, full_verify.elapsed
    ok = code_quick == 0 and quick_elapsed < 60.0 and code_full == 0 and full_elapsed < 900.0
    report(
        15, "cmd_verify", ok,
        f"quick {quick_elapsed:.1f}s (exit {code_quick}), full {full_elapsed:.1f}s (exit {code_full})",
    )
