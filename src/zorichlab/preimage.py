"""Preimage geometry of horizontal planes under the map.

For level t > 0 the base surface is the square-cross-section cone

    x3 = ln(t / cos M(x1, x2)),   M(x1, x2) = max(|x1|, |x2|) < pi/2,

inside the central beam; its image is the plane {x3 = t}.  For t < 0 the
base surface is the reflection of the |t| cone across the shared beam face
x1 = pi/2.  Every other preimage component is a group translate of the base
surface.  A cone has four faces, indexed by the quadrant of the parameter
square: "+x1" is {x1 >= |x2|} and so on.

The module also carries the closed-form constants and areas used by the
coverage estimates: the height-gap constant, the annular-sector/trapezoid
area comparison, and the voxel-independent coverage constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateError, DomainError, NoIntersectionError
from .group import IDENTITY, GroupElement, apply, inverse
from .zorich import EXP_CAP, FACE_AXIS, HALF_PI, Beam

FACE_IDS = tuple(FACE_AXIS)

# ray_cone_intersect: points of the bracketing scan, the most bisection
# steps per bracket, and rays scanned at once (about 16 MB of temporaries)
RAY_SCAN_SAMPLES = 1024
RAY_BISECT_STEPS = 200
RAY_BLOCK = 256


@dataclass(frozen=True)
class ConeSurface:
    """One component of the plane preimage: level plus placing group element."""

    level: float
    element: GroupElement = IDENTITY

    def __post_init__(self):
        if not math.isfinite(self.level) or self.level == 0.0:
            raise DomainError("ConeSurface: level must be finite and nonzero")
        if not cone_beam(self).resolvable:
            raise DomainError(f"ConeSurface: beam {tuple(cone_beam(self))} is past PHASE_CAP")

    @property
    def vertex_height(self) -> float:
        return math.log(abs(self.level))


@dataclass(frozen=True)
class FaceRegion:
    """Bounded band of one cone face between two heights."""

    cone: ConeSurface
    face: str
    t1: float
    t2: float

    def __post_init__(self):
        if self.face not in FACE_IDS:
            raise DomainError(f"FaceRegion: unknown face {self.face!r}")
        if not self.cone.vertex_height < self.t1 < self.t2:
            raise DomainError("FaceRegion: need vertex_height < t1 < t2")


@dataclass(frozen=True)
class StripSpec:
    """Vertical strip on the wall plane x1 = pi/2 + plane_index*pi.

    x2 runs over the eta-trimmed interval of the l-th period and x3 > s.
    """

    plane_index: int
    l: int
    eta: float
    s: float

    def __post_init__(self):
        if not 0.0 < self.eta < math.pi / 4:
            raise DomainError("StripSpec: eta must be in (0, pi/4)")

    @property
    def wall_x1(self) -> float:
        return HALF_PI + self.plane_index * math.pi

    @property
    def x2_interval(self) -> tuple[float, float]:
        lo = HALF_PI + (self.l - 1) * math.pi + self.eta
        hi = HALF_PI + self.l * math.pi - self.eta
        return lo, hi


def cone_height(level: float, p) -> np.ndarray:
    """Height of the level cone over parameter point p: ln(level / cos M(p)).

    Raises DomainError where the height is not a finite float.
    """
    if not level > 0.0:
        raise DomainError("cone_height: level must be positive")
    p = np.asarray(p, dtype=float)
    m = np.maximum(np.abs(p[..., 0]), np.abs(p[..., 1]))
    if np.any(m >= HALF_PI):
        raise DomainError("cone_height: parameter point must have M(p) < pi/2")
    with np.errstate(over="ignore"):
        height = np.log(level / np.cos(m))
    if not np.all(np.isfinite(height)):
        raise DomainError("cone_height: a height is not a finite float")
    return height


def cone_point(cone: ConeSurface, p) -> np.ndarray:
    """Point of the cone over parameter point p, in ambient coordinates.

    Builds the base point (p, cone_height(|level|, p)), reflects across
    x1 = pi/2 for negative levels, then applies the group element.
    """
    p = np.asarray(p, dtype=float)
    x3 = cone_height(abs(cone.level), p)
    x1 = p[..., 0]
    if cone.level < 0.0:
        x1 = math.pi - x1
    base = np.stack([x1, np.broadcast_to(p[..., 1], x1.shape), x3], axis=-1)
    return apply(cone.element, base)


def beam_boundary_distance(level: float, x3) -> np.ndarray:
    """Distance from a cone point at height x3 to the beam boundary.

    On the level cone, dist(x, boundary) = arcsin(level * exp(-x3)); points
    below the vertex (argument > 1) are rejected.
    """
    if not level > 0.0:
        raise DomainError("beam_boundary_distance: level must be positive")
    x3 = np.asarray(x3, dtype=float)
    arg = level * np.exp(-x3)
    if np.any(arg > 1.0 + 1e-12):
        raise DomainError("beam_boundary_distance: height below the cone vertex")
    return np.arcsin(np.clip(arg, -1.0, 1.0))


def strip_floor(level: float, eta: float) -> float:
    """Lowest height, at least 0, above which the level cone is within eta/3 of its beam's boundary.

    beam_boundary_distance(|level|, s) < eta/3 exactly when s > ln(|level| / sin(eta/3)).
    """
    return max(math.log(abs(level) / math.sin(eta / 3.0)), 0.0)


def separation_constant(radius: float) -> float:
    """Minimal height gap making the inscribed trapezoid wider than 2*pi.

    For a sphere of |radius| != 0, 1 the gap a = ln(sqrt(2)*(2*pi/L + 1)),
    L = |ln radius|, guarantees exp(t2)/sqrt(2) - exp(t1) > 2*pi whenever
    t1 > ln L and t2 > t1 + a.  The result is raised to ln(3)/2 when needed
    so exp(2a) > 3 always holds; a fixed 1e-9 margin keeps the strict
    inequalities safe in floating point.
    """
    if not (radius > 0.0) or radius == 1.0 or not math.isfinite(radius):
        raise DomainError("separation_constant: radius must be positive and != 1")
    big_l = abs(math.log(radius))
    a = math.log(math.sqrt(2.0) * (2.0 * math.pi / big_l + 1.0))
    return max(a, math.log(3.0) / 2.0) + 1e-9


@dataclass(frozen=True)
class SectorAreas:
    """Closed-form areas of the image band of a face region and its trapezoid."""

    band: float
    trapezoid: float
    ratio: float


def annular_sector_areas(t1: float, t2: float) -> SectorAreas:
    """Areas of the quadrant annular sector between radii e^t1, e^t2.

    band = (pi/4)(e^{2 t2} - e^{2 t1}); the inscribed trapezoid between the
    verticals x1 = e^{t1} and x1 = e^{t2}/sqrt(2) has area e^{2 t2}/2 -
    e^{2 t1}.  Degenerate when exp(2(t2 - t1)) <= 2.
    """
    if not t1 < t2:
        raise DomainError("annular_sector_areas: need t1 < t2")
    e1 = math.exp(2.0 * t1)
    e2 = math.exp(2.0 * t2)
    trap = e2 / 2.0 - e1
    if trap <= 0.0:
        raise DegenerateError("annular_sector_areas: trapezoid is empty for this gap")
    band = math.pi / 4.0 * (e2 - e1)
    return SectorAreas(band=band, trapezoid=trap, ratio=band / trap)


def coverage_constant(r0: float, radius: float, lam: float) -> float:
    """Worst-case fraction of a face band whose second preimage meets the ball.

    r0 is the ball radius, radius = |ball center|, lam the bi-Lipschitz
    constant of the hemisphere chart.
    """
    if not 0.0 < r0 < radius:
        raise DomainError("coverage_constant: need 0 < r0 < radius")
    if radius == 1.0:
        raise DomainError("coverage_constant: radius must differ from 1")
    if not lam >= 1.0:
        raise DomainError("coverage_constant: lam must be >= 1")
    big_l = abs(math.log(radius))
    return r0**2 / (
        2.0**11 * lam**4 * math.pi * math.exp(2.0 * radius) * (1.0 + 4.0 * math.pi / big_l)
    )


def project_to_plane(p, u, plane_index: int) -> np.ndarray:
    """Central projection of a point of the unit wall onto a far wall.

    The source point is p + (1, u2, u3) with u = (u2, u3); the target wall is
    x1 = pi/2 + plane_index*pi.  The image is p + c*(1, u2, u3) with
    c = pi/2 + plane_index*pi - p1, a plain scaling, hence conformal.
    """
    p = np.asarray(p, dtype=float)
    u2, u3 = float(u[0]), float(u[1])
    if not (-1.0 < u2 < 1.0) or u2 == 0.0:
        raise DomainError("project_to_plane: u2 must be in (-1, 1) and nonzero")
    if not u3 > 0.0:
        raise DomainError("project_to_plane: u3 must be positive")
    c = HALF_PI + plane_index * math.pi - p[0]
    if c <= 0.0:
        raise DomainError("project_to_plane: wall is behind the base point")
    return p + c * np.array([1.0, u2, u3])


def _surface_residual(level_abs, y):
    """exp(y3)*cos(M(y)) - |level|; zero exactly on the base cone."""
    m = np.maximum(np.abs(y[..., 0]), np.abs(y[..., 1]))
    return np.exp(np.minimum(y[..., 2], EXP_CAP)) * np.cos(m) - level_abs


def _in_quadrant(sign, axis, y, tol):
    """sign*y[axis] >= |y[other]| - tol, with sign and axis broadcast over y[..., 0]."""
    lead = sign * np.where(axis == 0, y[..., 0], y[..., 1])
    return lead >= np.abs(np.where(axis == 0, y[..., 1], y[..., 0])) - tol


# why a ray has no intersection, by code; code 0 is a hit
_MISSES = ("", "vertical ray misses the face quadrant", "surface is behind the ray origin",
           "ray never enters the beam", "beam crossing is empty (s in [{lo:.6g}, {hi:.6g}])",
           "no crossing on face {face} for s in [{lo:.6g}, {hi:.6g}] ({n} samples)")


def ray_cone_intersect(p, through, cone: ConeSurface, face: str) -> np.ndarray:
    """First intersection of the ray from p through `through` with a cone face.

    The one-ray case of ray_cone_intersect_many; raises NoIntersectionError
    (reporting the scanned range) when the ray finds no crossing.
    """
    points, why, lo, hi = _solve_rays(p, np.asarray(through, dtype=float)[None], cone, face)
    if why[0]:
        message = _MISSES[why[0]].format(face=face, lo=lo[0], hi=hi[0], n=RAY_SCAN_SAMPLES)
        scanned = (float(lo[0]), float(hi[0])) if why[0] >= 4 else None
        raise NoIntersectionError(f"ray_cone_intersect: {message}", scanned=scanned)
    return points[0]


def ray_cone_intersect_many(p, through, cones, faces):
    """First intersections of rays with cone faces: (points, found).

    Ray k runs from p (or p[k]) through through[k] to face faces[k] of
    cones[k]; one cone or face serves every ray.  In its cone's base frame a
    ray's beam crossing is bracketed by a scan of RAY_SCAN_SAMPLES points and
    polished by bisection, which is robust where the residual is not
    monotone.  A ray with no crossing on its face has found False and NaN
    coordinates.
    """
    points, why, _, _ = _solve_rays(p, through, cones, faces)
    return points, why == 0


def _solve_rays(p, through, cones, faces):
    """Points, miss codes (see _MISSES) and scanned ranges of rays."""
    through = np.asarray(through, dtype=float)
    n = len(through)
    faces = [faces] * n if isinstance(faces, str) else list(faces)
    cones = [cones] * n if isinstance(cones, ConeSurface) else list(cones)
    for face in faces:
        if face not in FACE_AXIS:
            raise DomainError(f"ray_cone_intersect: unknown face {face!r}")
    p = np.broadcast_to(np.asarray(p, dtype=float), through.shape)
    d = through - p
    if not np.all(np.isfinite(d)) or np.any(np.linalg.norm(d, axis=-1) == 0.0):
        raise DomainError("ray_cone_intersect: degenerate ray")
    sign, axis = np.array([FACE_AXIS[face] for face in faces]).reshape(n, 2).T
    level_abs = np.array([abs(cone.level) for cone in cones])

    # both ends of each ray into its cone's base frame, one apply per cone
    q = np.stack([p, p + d])
    rows = {}
    for k, cone in enumerate(cones):
        rows.setdefault(cone, []).append(k)
    for cone, ks in rows.items():
        q[:, ks] = apply(inverse(cone.element), q[:, ks])
        if cone.level < 0.0:
            q[:, ks, 0] = math.pi - q[:, ks, 0]
    q0, e = q[0], q[1] - q[0]

    s = np.full(n, np.nan)
    why = np.zeros(n, dtype=int)
    # vertical rays hit the graph x3 = ln(|level| / cos M) in closed form
    vertical = (np.abs(e[:, 0]) < 1e-14) & (np.abs(e[:, 1]) < 1e-14)
    for k in np.flatnonzero(vertical):
        m = max(abs(q0[k, 0]), abs(q0[k, 1]))
        if e[k, 2] == 0.0 or m >= HALF_PI or not _in_quadrant(sign[k], axis[k], q0[k], 1e-12):
            why[k] = 1
        else:
            s[k] = (math.log(level_abs[k] / math.cos(m)) - q0[k, 2]) / e[k, 2]
            why[k] = 2 if s[k] <= 0.0 else 0

    # restrict to the parameter-square slab crossing, plus an exponent cap;
    # each np.where is the builtin min or max, ties included
    lo, hi = np.full(n, 1e-12), np.full(n, np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        for ax in (0, 1):
            flat = np.abs(e[:, ax]) < 1e-14
            why[~vertical & flat & ~(np.abs(q0[:, ax]) <= HALF_PI)] = 3
            a = (-HALF_PI - q0[:, ax]) / e[:, ax]
            b = (HALF_PI - q0[:, ax]) / e[:, ax]
            near, far = np.where(b < a, b, a), np.where(b > a, b, a)
            lo = np.where(~flat & (near > lo), near, lo)
            hi = np.where(~flat & (far < hi), far, hi)
        cap = (EXP_CAP - q0[:, 2]) / e[:, 2]
    steep = np.abs(e[:, 2]) > 1e-14
    hi = np.where(steep & (e[:, 2] > 0) & (cap < hi), cap, hi)
    lo = np.where(steep & ~(e[:, 2] > 0) & (cap > lo), cap, lo)
    why[~vertical & (why == 0) & (~(lo < hi) | ~np.isfinite(hi))] = 4

    scan = np.flatnonzero(~vertical & (why == 0))
    for start in range(0, len(scan), RAY_BLOCK):
        k = scan[start:start + RAY_BLOCK]
        s[k] = _scan_and_polish(q0[k], e[k], level_abs[k], sign[k], axis[k], lo[k], hi[k])
    why[~vertical & (why == 0) & np.isnan(s)] = 5
    s[why != 0] = np.nan
    return p + s[:, None] * d, why, lo, hi


def _scan_and_polish(q0, e, level_abs, sign, axis, lo, hi):
    """Each ray's first accepted root in [lo, hi], by scan cell order; NaN if none."""
    grid = np.linspace(lo, hi, RAY_SCAN_SAMPLES, axis=-1)
    y = q0[:, None, :] + grid[..., None] * e[:, None, :]
    phi = _surface_residual(level_abs[:, None], y)
    quad = _in_quadrant(sign[:, None], axis[:, None], y, 1e-12)
    root = (phi[:, :-1] == 0.0) & quad[:, :-1]
    cand = (quad[:, :-1] | quad[:, 1:]) & (root | ((phi[:, :-1] < 0.0) != (phi[:, 1:] < 0.0)))
    tol = 1e-10 * np.maximum(1.0, level_abs)
    s_star = np.full(len(lo), np.nan)
    r = np.flatnonzero(cand.any(axis=1))
    while len(r):  # each round tries every open ray's next candidate cell
        i = cand[r].argmax(axis=1)
        cand[r, i] = False
        sa, sb, fa, fb = grid[r, i], grid[r, i + 1], phi[r, i], phi[r, i + 1]
        first = np.abs(fa) <= np.abs(fb)
        s, best_f = np.where(first, sa, sb), np.where(first, np.abs(fa), np.abs(fb))
        # bisect a sign change to the float limit (the residual gradient scales
        # like exp(y3)); each ray stops where a one-ray loop would break.  A
        # cell starting on a root keeps s = sa, as fa == 0
        act = np.flatnonzero(~root[r, i])
        for _ in range(RAY_BISECT_STEPS):
            sm = 0.5 * (sa[act] + sb[act])
            moved = (sm != sa[act]) & (sm != sb[act])
            act, sm = act[moved], sm[moved]
            if not len(act):
                break
            fm = _surface_residual(level_abs[r[act]], q0[r[act]] + sm[:, None] * e[r[act]])
            better = np.abs(fm) < best_f[act]
            s[act[better]], best_f[act[better]] = sm[better], np.abs(fm[better])
            small = (sb[act] - sa[act]) < 1e-12 * np.maximum(1.0, np.abs(sm))
            go = ~((fm == 0.0) | (small & (best_f[act] <= 0.01 * tol[r[act]])))
            left = go & ((fa[act] < 0.0) != (fm < 0.0))
            right = go & ~left
            sb[act[left]] = sm[left]
            sa[act[right]], fa[act[right]] = sm[right], fm[right]
            act = act[go]
        y_star = q0[r] + s[:, None] * e[r]
        res = np.abs(_surface_residual(level_abs[r], y_star))
        # high on the cone exp(y3) makes the absolute residual unresolvable;
        # the transverse form cos(M) - level*exp(-y3) stays well conditioned
        with np.errstate(over="ignore"):
            transverse = res * np.exp(-y_star[:, 2]) <= 1e-12
        ok = _in_quadrant(sign[r], axis[r], y_star, 1e-9) & ((res <= tol[r]) | transverse)
        s_star[r[ok]] = s[ok]
        r = r[~ok]
        r = r[cand[r].any(axis=1)]
    return s_star


def cone_for_strip(level: float, plane_index: int, l: int) -> ConeSurface:
    """Cone component adjacent to the wall x1 = pi/2 + plane_index*pi at row l.

    Exactly one of the two beams touching the wall at x2-row l has the parity
    matching the sign of the level; the returned element places the base cone
    there.
    """
    if level == 0.0:
        raise DomainError("cone_for_strip: level must be nonzero")
    negative = int(level < 0.0)
    i = plane_index if (plane_index + l) % 2 == negative else plane_index + 1
    flip = l % 2  # so that cone_beam of the result is (i, l)
    m = (i - (negative != flip)) // 2
    return ConeSurface(level, GroupElement(m, (l - flip) // 2, flip == 1))


def cone_beam(cone: ConeSurface) -> Beam:
    """The beam holding the cone, its vertex on the beam's axis.

    The base cone is in beam (0, 0), or (1, 0) for a negative level; the flip
    maps beam (i, j) to (1 - i, 1 - j), and (m, n) adds (2m, 2n).
    """
    g = cone.element
    return Beam(2 * g.m + int((cone.level < 0.0) != g.flip), 2 * g.n + int(g.flip))


def face_toward_wall(cone: ConeSurface, plane_index: int) -> str:
    """Face of the cone nearest to the wall x1 = pi/2 + plane_index*pi.

    That is the x1 face moving from the vertex toward the wall; the parameter
    axis p1 runs along ambient x1 in an even beam and against it in an odd one.
    """
    i = cone_beam(cone).i
    return "+x1" if (i <= plane_index) == (i % 2 == 0) else "-x1"


def face_mesh(region: FaceRegion, n_height: int, n_width: int) -> np.ndarray:
    """Triangulate a face band; returns an array of shape (n_tri, 3, 3).

    The face is parametrized by height x3 and transverse fraction v in
    [-1, 1]: at height x3 the half width is M(x3) = arccos(|level| e^{-x3}).
    """
    if n_height < 1 or n_width < 1:
        raise DomainError("face_mesh: need at least one cell per direction")
    level_abs = abs(region.cone.level)
    sign, axis = FACE_AXIS[region.face]
    h = np.linspace(region.t1, region.t2, n_height + 1)
    half = np.arccos(np.clip(level_abs * np.exp(-h), -1.0, 1.0))
    v = np.linspace(-1.0, 1.0, n_width + 1)
    lead = sign * half[:, None] * np.ones_like(v)[None, :]
    trans = half[:, None] * v[None, :]
    param = np.empty((n_height + 1, n_width + 1, 2))
    param[..., axis] = lead
    param[..., 1 - axis] = trans
    pts = cone_point(region.cone, param.reshape(-1, 2)).reshape(n_height + 1, n_width + 1, 3)
    # cell (i, j) with corners a b / c d gives triangles (a, b, d) and (a, d, c)
    a, b, c, d = pts[:-1, :-1], pts[:-1, 1:], pts[1:, :-1], pts[1:, 1:]
    return np.stack([a, b, d, a, d, c], axis=2).reshape(-1, 3, 3)


def cone_mesh(cone: ConeSurface, t1: float, t2: float, n_height: int, n_width: int) -> np.ndarray:
    """Triangle soup for all four faces of a cone band."""
    return np.concatenate(
        [face_mesh(FaceRegion(cone, fid, t1, t2), n_height, n_width) for fid in FACE_IDS])
