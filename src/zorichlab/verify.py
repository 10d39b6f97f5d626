"""Aggregated verification checks behind the `verify` command.

Each check measures one quantitative claim about the map (norm law, group
invariance, cone geometry, distortion bounds, coverage and density trends)
and reports value / bound / tolerance / pass.  Sample counts come in a
"full" and a "quick" profile (roughly one tenth), listed in `CHECKS`; every
check is seeded and deterministic.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import density, distortion, preimage
from .group import GENERATORS, GroupElement, apply, find_g, from_word
from .zorich import Beam, branch_distance, fold, zorich, zorich_inverse

PI = math.pi


@dataclass(frozen=True)
class CheckResult:
    name: str
    claim: str
    value: float
    bound: float
    tolerance: float
    passed: bool
    note: str = ""


@dataclass
class VerificationReport:
    level: str
    results: list[CheckResult] = field(default_factory=list)
    seconds: dict[str, float] = field(default_factory=dict)  # wall time per check name

    @property
    def overall(self) -> bool:
        return all(r.passed for r in self.results)


# ---------------------------------------------------------------------------
# individual checks


def at_most(name: str, claim: str, value: float, bound: float, tolerance=None) -> CheckResult:
    """A check that passes at value <= bound; its tolerance is the bound unless given."""
    tolerance = bound if tolerance is None else tolerance
    return CheckResult(name, claim, float(value), bound, tolerance, float(value) <= bound)


def check_norm_law(n: int) -> CheckResult:
    rng = np.random.default_rng(101)
    x = np.column_stack(
        [rng.uniform(-20, 20, n), rng.uniform(-20, 20, n), rng.uniform(-10, 10, n)]
    )
    r = np.linalg.norm(zorich(x), axis=-1)
    err = float(np.max(np.abs(r - np.exp(x[:, 2])) / np.exp(x[:, 2])))
    return at_most("norm_law", "plane-to-sphere", err, 1e-12)


def check_group_invariance(n: int) -> CheckResult:
    rng = np.random.default_rng(103)
    x = np.column_stack(
        [rng.uniform(-9, 9, n), rng.uniform(-9, 9, n), rng.uniform(-4, 4, n)]
    )
    zx = zorich(x)
    scale = np.maximum(1.0, np.exp(x[:, 2]))
    syms = list(GENERATORS)
    worst = 0.0
    for _ in range(32):
        word = [syms[i] for i in rng.integers(0, len(syms), rng.integers(0, 9))]
        g = from_word(word)
        err = np.linalg.norm(zorich(apply(g, x)) - zx, axis=-1) / scale
        worst = max(worst, float(np.max(err)))
    return at_most("group_invariance", "group-invariance", worst, 1e-9)


def check_fiber_transitivity(n: int) -> CheckResult:
    rng = np.random.default_rng(105)
    beams = [(0, 0), (2, 0), (-1, 1), (1, -1), (0, 2)]
    worst = 0.0
    for _ in range(n):
        y = rng.normal(size=3)
        y[2] = abs(y[2]) + 0.05
        xa = zorich_inverse(y, Beam(*beams[rng.integers(0, len(beams))]))
        xb = zorich_inverse(y, Beam(*beams[rng.integers(0, len(beams))]))
        g = find_g(xa, xb)
        worst = max(worst, float(np.max(np.abs(apply(g, xa) - xb))))
    return at_most("fiber_transitivity", "fiber-transitivity", worst, 1e-9)


def check_inverse_roundtrip(n: int) -> CheckResult:
    worst = 0.0
    for beam in ((0, 0), (1, 0)):
        rng = np.random.default_rng(107 + beam[0])
        b = Beam(*beam)
        x = np.column_stack(
            [
                rng.uniform(-PI / 2, PI / 2, n) + b.i * PI,
                rng.uniform(-PI / 2, PI / 2, n) + b.j * PI,
                rng.uniform(-3, 3, n),
            ]
        )
        x = x[branch_distance(x) > 1e-6]
        back = zorich_inverse(zorich(x), b)
        err = np.linalg.norm(back - x, axis=-1) / np.maximum(1.0, np.linalg.norm(x, axis=-1))
        worst = max(worst, float(np.max(err)))
    return at_most("inverse_roundtrip", "branch-roundtrip", worst, 1e-9)


def _square_points(rng, n: int) -> np.ndarray:
    """n points of the open parameter square, max-norm uniform on (1e-4, pi/2 - 1e-4)."""
    m = rng.uniform(1e-4, PI / 2 - 1e-4, n)
    ang = rng.uniform(0, 2 * PI, n)
    xv, yv = np.cos(ang), np.sin(ang)
    scale = m / np.maximum(np.abs(xv), np.abs(yv))
    return np.column_stack([xv * scale, yv * scale])


def check_cone_level(n: int) -> CheckResult:
    rng = np.random.default_rng(109)
    worst = 0.0
    for _ in range(20):
        level = float(rng.uniform(0.05, 20.0)) * (1 if rng.random() < 0.5 else -1)
        if abs(abs(level) - 1.0) < 1e-3:
            continue
        g = GroupElement(int(rng.integers(-3, 4)), int(rng.integers(-3, 4)), bool(rng.integers(0, 2)))
        cone = preimage.ConeSurface(level, g)
        p = _square_points(rng, n // 20)
        z3 = zorich(preimage.cone_point(cone, p))[:, 2]
        err = float(np.max(np.abs(z3 - level))) / max(1.0, abs(level))
        worst = max(worst, err)
    return at_most("cone_level", "cone-onto-plane", worst, 1e-9)


def check_face_flatness(n: int) -> CheckResult:
    rng = np.random.default_rng(111)
    edge = rng.uniform(-PI / 2, PI / 2, n)
    x3 = rng.uniform(-3, 3, n)
    shift = rng.integers(-2, 3, n) * PI
    x = np.column_stack([np.full(n, PI / 2) + shift, edge, x3])
    z = zorich(x)
    worst = float(np.max(np.abs(z[:, 2]) / np.exp(x3)))
    return at_most("face_flatness", "beam-face-flatness", worst, 1e-12)


def check_boundary_distance(n: int) -> CheckResult:
    rng = np.random.default_rng(113)
    level = float(rng.uniform(0.2, 5.0))
    p = _square_points(rng, n)
    x3 = preimage.cone_height(level, p)
    formula = preimage.beam_boundary_distance(level, x3)
    geometric = PI / 2 - np.maximum(np.abs(p[:, 0]), np.abs(p[:, 1]))
    worst = float(np.max(np.abs(formula - geometric)))
    return at_most("boundary_distance", "face-boundary-gap", worst, 1e-9)


def _radii(rng, n: int):
    """n ball-centre norms uniform on (0.05, 20), at least 0.05 off 1, drawn lazily."""
    count = 0
    while count < n:
        radius = float(rng.uniform(0.05, 20.0))
        if abs(radius - 1.0) > 0.05:
            count += 1
            yield radius


def check_separation_gap(n: int) -> CheckResult:
    rng = np.random.default_rng(115)
    violations = 0
    for radius in _radii(rng, n):
        a = preimage.separation_constant(radius)
        t1 = math.log(abs(math.log(radius))) + float(rng.uniform(0, 5))
        t2 = t1 + a + float(rng.uniform(0, 5))
        if not math.exp(t2) / math.sqrt(2) - math.exp(t1) > 2 * PI:
            violations += 1
        if not math.exp(2 * a) > 3.0:
            violations += 1
    return at_most("separation_gap", "height-gap-constant", violations, 0.0)


def _gauss_piece(fn, a, b, nodes, weights):
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return half * float(np.sum(weights * fn(mid + half * nodes)))


# Gauss-Legendre nodes and weights, computed on first use and shared by
# every call; callers must not modify them
_gauss_legendre = lru_cache(maxsize=4)(np.polynomial.legendre.leggauss)


def sector_band_area_quadrature(t1: float, t2: float) -> float:
    """Cartesian slice quadrature of the quadrant annular band area.

    Integrates the width function of {x1 >= |x2|, e^t1 <= |x| <= e^t2} over
    x1 with trig substitutions on the two arc pieces, independent of the
    closed form, with 200 Gauss-Legendre nodes per piece.
    """
    r1, r2 = math.exp(t1), math.exp(t2)
    nodes, weights = _gauss_legendre(200)
    # x1 in [r1/sqrt2, r1]: width 2(x1 - sqrt(r1^2 - x1^2)), x1 = r1 cos(u)
    p1 = _gauss_piece(
        lambda u: 2.0 * r1 * r1 * (np.cos(u) - np.sin(u)) * np.sin(u),
        0.0,
        PI / 4,
        nodes,
        weights,
    )
    # x1 in [r1, r2/sqrt2]: width 2 x1
    p2 = _gauss_piece(lambda x: 2.0 * x, r1, r2 / math.sqrt(2), nodes, weights)
    # x1 in [r2/sqrt2, r2]: width 2 sqrt(r2^2 - x1^2), x1 = r2 cos(u)
    p3 = _gauss_piece(lambda u: 2.0 * r2 * r2 * np.sin(u) ** 2, 0.0, PI / 4, nodes, weights)
    return p1 + p2 + p3


def trapezoid_area_shoelace(t1: float, t2: float) -> float:
    r1, r2s = math.exp(t1), math.exp(t2) / math.sqrt(2)
    xs = [r1, r2s, r2s, r1]
    ys = [-r1, -r2s, r2s, r1]
    acc = 0.0
    for i in range(4):
        j = (i + 1) % 4
        acc += xs[i] * ys[j] - xs[j] * ys[i]
    return 0.5 * abs(acc)


def check_sector_ratio(n: int) -> CheckResult:
    rng = np.random.default_rng(117)
    worst_quad = 0.0
    count = 0
    # closed forms against quadrature / shoelace oracles
    while count < max(20, n // 50):
        t1 = float(rng.uniform(-2, 2))
        gap = float(rng.uniform(0.4, 3.0))
        q = preimage.annular_sector_areas(t1, t1 + gap)
        band = sector_band_area_quadrature(t1, t1 + gap)
        trap = trapezoid_area_shoelace(t1, t1 + gap)
        worst_quad = max(
            worst_quad,
            abs(q.band - band) / q.band,
            abs(q.trapezoid - trap) / q.trapezoid,
        )
        count += 1
    # the exact critical value: ratio = pi at exp(2 gap) = 3
    crit = abs(preimage.annular_sector_areas(0.0, 0.5 * math.log(3.0)).ratio - PI)
    # ratio < 2 pi whenever the gap clears the separation constant
    violations = 0
    for radius in _radii(rng, n):
        gap = preimage.separation_constant(radius) + float(rng.uniform(0, 6))
        if not preimage.annular_sector_areas(0.0, gap).ratio < 2 * PI:
            violations += 1
    value = max(worst_quad, crit)
    passed = worst_quad <= 1e-9 and crit <= 1e-12 and violations == 0
    return CheckResult(
        "sector_ratio", "band-trapezoid-ratio", value, 1e-9, 1e-9, passed,
        note=f"critical_value_err={crit:.3e}",
    )


def check_width_window(n: int) -> CheckResult:
    rng = np.random.default_rng(119)
    violations = 0
    for radius in _radii(rng, n):
        big_l = abs(math.log(radius))
        t1 = math.log(big_l) + float(rng.uniform(1e-3, 4.0))
        u = float(rng.uniform(1e-6, 1.0))
        t2 = math.log(math.sqrt(2.0) * (math.exp(t1) + 4.0 * PI * u))
        bound = math.sqrt(2.0) * (1.0 + 4.0 * PI / big_l)
        if math.exp(t2 - t1) > bound * (1.0 + 1e-12):
            violations += 1
    return at_most("width_window", "width-window-bound", violations, 0.0)


def check_preimage_disk(n_cfg: int) -> CheckResult:
    """Preimage components of a ball contain the advertised flat disk."""
    lam = distortion.lambda_h_estimate()
    configs = [
        ((1.2, 0.4, 0.9), 0.3),
        ((-0.8, 1.1, 1.0), 0.4),
        ((0.3, -0.2, -1.4), 0.3),
        ((2.0, 1.0, 1.5), 0.6),
        ((-0.5, -0.6, 0.9), 0.2),
    ][:n_cfg]
    worst = 0.0
    for x0, r0 in configs:
        x0 = np.asarray(x0, dtype=float)
        radius = float(np.linalg.norm(x0))
        beam = (0, 0) if x0[2] >= 0 else (1, 0)
        center = zorich_inverse(x0, beam)
        rho = r0 / (8.0 * lam * math.exp(radius))
        ang = 2 * PI * (np.arange(40) + 0.5) / 40
        ring = np.stack([np.cos(ang), np.sin(ang), np.zeros(40)], axis=-1)
        pts = [center + rho * t * ring for t in (0.25, 0.5, 0.75, 1.0)]
        pts = np.concatenate(pts)
        dist = np.linalg.norm(zorich(pts) - x0, axis=-1)
        worst = max(worst, float(np.max(dist) / r0))
    return CheckResult(
        "preimage_disk", "preimage-disk-radius", worst, 1.0, 0.0, worst < 1.0
    )


def check_wall_projection(n: int) -> CheckResult:
    rng = np.random.default_rng(121)
    worst = 0.0
    for _ in range(n):
        p = rng.uniform(-3, 3, 3)
        u2 = float(rng.uniform(0.05, 0.95)) * (1 if rng.random() < 0.5 else -1)
        u3 = float(rng.uniform(0.05, 3.0))
        m = int(rng.integers(1, 7))
        got = preimage.project_to_plane(p, (u2, u3), m)
        d = np.array([1.0, u2, u3])
        s = (PI / 2 + m * PI - p[0]) / d[0]
        worst = max(worst, float(np.max(np.abs(got - (p + s * d)))))
    # conformality: relative distortion 1 on wall patches
    p = np.array([0.2, -0.1, 0.4])
    c = PI / 2 + 5 * PI - p[0]

    def proj(x):
        return p + c * (np.asarray(x) - p)

    pts = p + np.column_stack(
        [np.ones(25), np.linspace(0.1, 0.9, 25), np.linspace(0.4, 2.0, 25)]
    )
    dirs = distortion.plane_directions(64, (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
    est = distortion.relative_distortion(proj, pts, 1e-6, directions=dirs)
    dist_err = abs(est.ratio - 1.0)
    value = max(worst, dist_err)
    passed = worst <= 1e-12 and dist_err <= 1e-6
    return CheckResult(
        "wall_projection", "wall-projection", value, 1e-6, 1e-6, passed,
        note=f"oracle_err={worst:.3e} distortion_err={dist_err:.3e}",
    )


def check_slab_distortion(n_slabs: int, n_pts: int) -> CheckResult:
    lam = distortion.lambda_h_estimate()
    rng = np.random.default_rng(123)
    worst_margin = 0.0
    passed = True
    for k in range(n_slabs):
        t1 = float(rng.uniform(-3, 3))
        gap = float(rng.uniform(0.02, 3.0))
        rep = distortion.verify_slab_bound(
            distortion.Slab(t1, t1 + gap), n_pts, lam=lam, seed=900 + k
        )
        passed = passed and rep.passed
        worst_margin = max(worst_margin, rep.d_est / rep.bound)
    return CheckResult("slab_distortion", "slab-bound", worst_margin, 1.0, 0.01, passed)


# ---------------------------------------------------------------------------
# face projection configurations


ORIGIN = (0.0, 0.0, 0.0)


@dataclass(frozen=True)
class FaceProjectionConfig:
    """One wall/strip/cone configuration meeting the threshold hypotheses.

    Lines start at the origin; every configuration uses the strip margin eta.
    """

    radius: float           # |ball center|, the level is ln(radius)
    wall_index: int
    u2_center: float
    eta = 0.70              # strip margin; unannotated, so a constant and not a field

    @property
    def level(self) -> float:
        return math.log(self.radius)

    @property
    def c(self) -> float:
        return PI / 2 + self.wall_index * PI

    def build(self):
        a = preimage.separation_constant(self.radius)
        w = 1.05 * max(4 * PI, a)
        delta = w / (2.0 * self.c)
        s_floor = preimage.strip_floor(self.level, self.eta) + 0.35
        u3_center = s_floor / self.c + delta
        # image square must sit in resolvable heights and meet the width window
        top = self.c * (u3_center + delta)
        if top > 14.5:
            raise ValueError("face config: image square reaches unresolvable heights")
        if not max(4 * PI, a) <= w <= 10 * max(4 * PI, a):
            raise ValueError("face config: width window violated")
        x2c = self.c * self.u2_center
        l = fold(x2c).strip
        cone = preimage.cone_for_strip(self.level, self.wall_index, l)
        face = preimage.face_toward_wall(cone, self.wall_index)
        strip = preimage.StripSpec(self.wall_index, l, self.eta, s_floor)
        lo, hi = strip.x2_interval
        u2_rect = (lo / self.c, hi / self.c)
        u3_rect = (u3_center - delta, u3_center + delta)
        if not preimage.beam_boundary_distance(abs(self.level), s_floor) < self.eta / 3.0:
            raise ValueError("face config: boundary gap threshold xi < eta/3 violated")
        return cone, face, strip, u2_rect, u3_rect


FACE_CONFIGS = [
    FaceProjectionConfig(1.40, 40, 0.29),
    FaceProjectionConfig(1.45, 42, -0.31),
    FaceProjectionConfig(1.50, 44, 0.27),
    FaceProjectionConfig(1.55, 46, -0.26),
    FaceProjectionConfig(1.60, 48, 0.33),
    FaceProjectionConfig(0.70, 41, 0.25),
    FaceProjectionConfig(0.68, 43, -0.29),
    FaceProjectionConfig(0.66, 45, 0.31),
    FaceProjectionConfig(0.72, 47, -0.27),
    FaceProjectionConfig(0.74, 49, 0.28),
]


def face_projection_map(cone, face, p):
    """The central projection onto a cone face as a vectorized callable."""
    p = np.asarray(p, dtype=float)

    def project(pts):
        pts = np.asarray(pts, dtype=float)
        flat = pts.reshape(-1, 3)
        out, found = preimage.ray_cone_intersect_many(p, flat, cone, face)
        if not np.all(found):  # raise the first miss's NoIntersectionError
            preimage.ray_cone_intersect(p, flat[np.argmin(found)], cone, face)
        return out.reshape(pts.shape)

    return project


def _config_grid(u2_rect, u3_rect):
    """4 x 4 unit-wall points, 12% of the rectangle away from its edges."""
    w2 = u2_rect[1] - u2_rect[0]
    w3 = u3_rect[1] - u3_rect[0]
    g2 = np.linspace(u2_rect[0] + 0.12 * w2, u2_rect[1] - 0.12 * w2, 4)
    g3 = np.linspace(u3_rect[0] + 0.12 * w3, u3_rect[1] - 0.12 * w3, 4)
    return np.array([[1.0, a, b] for a in g2 for b in g3])


@lru_cache(maxsize=16)
def measure_face_projection_distortion(cfg: FaceProjectionConfig) -> float:
    """Relative distortion of the face projection; computed once per config."""
    cone, face, strip, u2_rect, u3_rect = cfg.build()
    proj = face_projection_map(cone, face, ORIGIN)
    pts = _config_grid(u2_rect, u3_rect)
    dirs = distortion.plane_directions(32, (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
    est = distortion.relative_distortion(proj, pts, 1e-6, directions=dirs)
    return est.ratio


def check_face_projection_distortion(n_cfg: int) -> CheckResult:
    worst = 0.0
    for cfg in FACE_CONFIGS[:n_cfg]:
        worst = max(worst, measure_face_projection_distortion(cfg))
    return at_most("face_projection_distortion", "face-projection-bound", worst, 2.1, 0.05)


def check_strip_intersection(n: int) -> CheckResult:
    rng = np.random.default_rng(127)
    targets, cones, faces = [], [], []
    for _ in range(n):
        radius = float(rng.uniform(1.5, 8.0))
        level = math.log(radius)
        eta = float(rng.uniform(0.15, PI / 4 - 0.05))
        m = int(rng.integers(6, 12))
        l = int(rng.integers(-(m - 3), m - 2))
        spec = preimage.StripSpec(m, l, eta, preimage.strip_floor(level, eta) + 0.5)
        lo, hi = spec.x2_interval
        targets.append(
            [spec.wall_x1, float(rng.uniform(lo, hi)), spec.s + float(rng.uniform(0.2, 2.0))]
        )
        cones.append(preimage.cone_for_strip(level, m, l))
        faces.append(preimage.face_toward_wall(cones[-1], m))
    # a ray that finds no crossing is a miss, and so is a hit off the level
    hits, found = preimage.ray_cone_intersect_many(ORIGIN, np.array(targets), cones, faces)
    levels = np.array([cone.level for cone in cones])[found]
    off = np.abs(zorich(hits[found])[:, 2] - levels) > 1e-9 * np.maximum(1.0, np.abs(levels))
    misses = np.count_nonzero(~found) + np.count_nonzero(off)
    return at_most("strip_intersection", "strip-face-intersection", misses, 0.0)


# ---------------------------------------------------------------------------
# area transport configurations


def _cube_transport(f, pullback, e_lo, e_hi, u_hi, img_box, samples, vol):
    """Transport sandwich of the cube [e_lo, e_hi] of volume vol and its part below u_hi."""
    in_e = distortion.cube_membership(e_lo, e_hi)
    in_u = distortion.cube_membership(e_lo, u_hi)
    m_fe, m_fu = distortion.grid_count_measures(in_e, in_u, *img_box, 100, pullback=pullback)
    lam = distortion.relative_distortion(f, samples, 1e-5).ratio
    return distortion.verify_area_transport((vol, vol / 2, m_fe, m_fu), lam, 3)


def _affine_transport(seed: int) -> distortion.AreaTransportReport:
    rng = np.random.default_rng(seed)
    scale = float(rng.uniform(0.5, 3.0))
    b = rng.uniform(-1, 1, 3)
    axis = int(rng.integers(0, 3))
    e_lo, e_hi = np.zeros(3), np.ones(3)
    u_hi = e_hi.copy()
    u_hi[axis] = 0.5

    def f(x):
        return scale * np.asarray(x) + b

    def inv(y):
        return (np.asarray(y) - b) / scale

    img_box = np.minimum(f(e_lo), f(e_hi)), np.maximum(f(e_lo), f(e_hi))
    samples = rng.uniform(0, 1, size=(30, 3))
    return _cube_transport(f, inv, e_lo, e_hi, u_hi, img_box, samples, 1.0)


def _map_cube_transport(seed: int) -> distortion.AreaTransportReport:
    rng = np.random.default_rng(seed)
    while True:
        center = np.array(
            [rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2), rng.uniform(-1.0, 1.0)]
        )
        if branch_distance(center) > 0.5 and max(abs(center[0]), abs(center[1])) < PI / 2 - 0.35:
            break
    half = float(rng.uniform(0.08, 0.15))
    e_lo, e_hi = center - half, center + half
    axis = int(rng.integers(0, 3))
    u_hi = e_hi.copy()
    u_hi[axis] = center[axis]
    g = np.linspace(0, 1, 20)
    probe = e_lo + np.stack(np.meshgrid(g, g, g, indexing="ij"), -1).reshape(-1, 3) * 2 * half
    img = zorich(probe)
    img_box = img.min(axis=0) - 1e-3, img.max(axis=0) + 1e-3
    samples = center + rng.uniform(-half, half, size=(200, 3))
    return _cube_transport(zorich, lambda y: zorich_inverse(y, (0, 0)), e_lo, e_hi, u_hi,
                           img_box, samples, (2 * half) ** 3)


def _face_transport(cfg: FaceProjectionConfig) -> distortion.AreaTransportReport:
    # E = the J rectangle, U = its lower-u2 half; both exact in the wall chart
    cone, _, strip, e_u2, e_u3 = cfg.build()
    level_abs = abs(cfg.level)
    # the face lies on the same side of the wall as the cone's vertex
    side = 1.0 if preimage.cone_beam(cone).i > strip.plane_index else -1.0
    m_e = (e_u2[1] - e_u2[0]) * (e_u3[1] - e_u3[0])
    m_u = m_e / 2.0
    u2_mid = 0.5 * (e_u2[0] + e_u2[1])

    # image areas by weighted 2-D grid counting over the ambient face chart
    cells = 1024
    lo2, hi2 = strip.x2_interval
    pad3 = 0.05 * (e_u3[1] - e_u3[0]) * cfg.c
    lo3 = e_u3[0] * cfg.c - pad3
    hi3 = e_u3[1] * cfg.c + pad3
    x2 = lo2 + (np.arange(cells) + 0.5) * (hi2 - lo2) / cells
    x3 = lo3 + (np.arange(cells) + 0.5) * (hi3 - lo3) / cells
    cell_area = (hi2 - lo2) / cells * (hi3 - lo3) / cells
    xi = preimage.beam_boundary_distance(level_abs, x3)
    arg = level_abs * np.exp(-x3)
    dxi = -arg / np.sqrt(1.0 - arg**2)
    weight = np.sqrt(1.0 + dxi**2)
    x1 = strip.wall_x1 + side * xi
    # pull each face point back through the wall chart
    u2g = x2[None, :] / x1[:, None]
    u3g = x3[:, None] / x1[:, None]
    in_e = (
        (u2g > e_u2[0]) & (u2g < e_u2[1]) & (u3g > e_u3[0]) & (u3g < e_u3[1])
    )
    in_u = in_e & (u2g < u2_mid)
    m_fe = float(np.sum(in_e * weight[:, None]) * cell_area)
    m_fu = float(np.sum(in_u * weight[:, None]) * cell_area)

    lam = measure_face_projection_distortion(cfg)
    return distortion.verify_area_transport((m_e, m_u, m_fe, m_fu), lam, 2)


def check_area_transport(n_cfg: int) -> CheckResult:
    reports = []
    n_affine = max(1, round(n_cfg * 0.4))
    n_map = max(1, round(n_cfg * 0.4))
    n_face = max(1, n_cfg - n_affine - n_map)
    for k in range(n_affine):
        reports.append(_affine_transport(7000 + k))
    for k in range(n_map):
        reports.append(_map_cube_transport(8000 + k))
    for cfg in FACE_CONFIGS[:n_face]:
        reports.append(_face_transport(cfg))
    worst = 0.0
    for rep in reports:
        span = rep.upper - rep.lower
        excess = max(rep.lower - rep.middle, rep.middle - rep.upper) / span if span else 0.0
        worst = max(worst, excess)
    passed = all(rep.passed for rep in reports)
    return CheckResult(
        "area_transport", "measure-transport", worst, 0.0, 0.02, passed,
        note=f"configs={len(reports)}",
    )


def check_coverage_trend(n_lines: int, budget: int, floor: float) -> CheckResult:
    rng = np.random.default_rng(20260808)
    lines = [density.random_valid_line(rng) for _ in range(n_lines)]
    runs = density.coverage_experiment(lines, budget=budget)
    worst = min(run.coverage for run in runs)
    monotone = all(
        all(b >= a for (_, a), (_, b) in zip(run.series, run.series[1:])) for run in runs
    )
    # an excluded line must fail the same threshold under the same budget
    excluded = density.LineSpec(d=(1.0, 0.4, 0.0))
    excl_cov = density.coverage_experiment([excluded], budget=budget)[0].coverage
    passed = monotone and worst >= floor and excl_cov < floor
    return CheckResult(
        "coverage_trend", "line-image-coverage", worst, floor, 0.0, passed,
        note=f"excluded_line_coverage={excl_cov:.4f}",
    )


def check_density_trend(grid_n: int, budget: int, rungs: int) -> CheckResult:
    ball = density.base_sequence(1)
    patch = density.PatchSpec(density.YPoint("+x1", 0.4, 0.35), 0.08)
    ladder = density.epsilon_density(patch, ball, grid_n, budget, rungs=rungs)
    worst = min(r.fraction for r in ladder)
    lam = distortion.lambda_h_estimate()
    eps = preimage.coverage_constant(ball.radius, ball.center_norm, lam) / 16.0
    return CheckResult(
        "density_trend", "hit-density-trend", worst, density.DENSITY_FRACTION_MIN, 0.0,
        worst >= density.DENSITY_FRACTION_MIN,
        note=f"worst_case_constant={eps:.3e}",
    )


# ---------------------------------------------------------------------------


# (check, full-level arguments, quick-level arguments), in report order.
# run_checks looks up the module attribute check_<name> at call time, so a
# function installed in its place (a tracer, a test double) is the one called.
CHECKS = (
    ("norm_law", (100_000,), (10_000,)),
    ("group_invariance", (10_000,), (1_000,)),
    ("fiber_transitivity", (500,), (50,)),
    ("inverse_roundtrip", (10_000,), (1_000,)),
    ("cone_level", (10_000,), (1_000,)),
    ("face_flatness", (10_000,), (1_000,)),
    ("boundary_distance", (10_000,), (1_000,)),
    ("separation_gap", (1_000,), (100,)),
    ("sector_ratio", (1_000,), (100,)),
    ("width_window", (1_000,), (100,)),
    ("preimage_disk", (5,), (2,)),
    ("wall_projection", (10_000,), (1_000,)),
    ("slab_distortion", (50, 300), (5, 100)),
    ("face_projection_distortion", (10,), (2,)),
    ("strip_intersection", (1_000,), (100,)),
    ("area_transport", (20,), (4,)),
    ("coverage_trend",
     (5, density.COVERAGE_BUDGET, density.COVERAGE_THRESHOLD),
     (2, density.COVERAGE_BUDGET_QUICK, density.COVERAGE_THRESHOLD_QUICK)),
    ("density_trend", (16, 20_000, 4), (8, 6_000, 2)),
)


def run_checks(level: str = "full") -> VerificationReport:
    if level not in ("quick", "full"):
        raise ValueError("run_checks: level must be 'quick' or 'full'")
    report = VerificationReport(level=level)
    for name, full, quick in CHECKS:
        check = globals()[f"check_{name}"]
        start = time.perf_counter()
        report.results.append(check(*(full if level == "full" else quick)))
        report.seconds[name] = time.perf_counter() - start
    return report
