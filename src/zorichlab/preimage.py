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
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateError, DomainError, NoIntersectionError
from .group import IDENTITY, GroupElement, apply, inverse
from .zorich import EXP_CAP, HALF_PI

FACE_IDS = ("+x1", "-x1", "+x2", "-x2")

# parameter-square quadrant masks, as (sign, axis): face "+x1" selects
# sign*p[axis] >= |p[other]|
_FACE_AXIS = {"+x1": (1.0, 0), "-x1": (-1.0, 0), "+x2": (1.0, 1), "-x2": (-1.0, 1)}

# ray_cone_intersect: points of the bracketing scan, and the most bisection
# steps per bracket
RAY_SCAN_SAMPLES = 1024
RAY_BISECT_STEPS = 200


@dataclass(frozen=True)
class ConeSurface:
    """One component of the plane preimage: level plus placing group element."""

    level: float
    element: GroupElement = IDENTITY

    def __post_init__(self):
        if not math.isfinite(self.level) or self.level == 0.0:
            raise DomainError("ConeSurface: level must be finite and nonzero")

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
    """Height of the level cone over parameter point p: ln(level / cos M(p))."""
    if not level > 0.0:
        raise DomainError("cone_height: level must be positive")
    p = np.asarray(p, dtype=float)
    m = np.maximum(np.abs(p[..., 0]), np.abs(p[..., 1]))
    if np.any(m >= HALF_PI):
        raise DomainError("cone_height: parameter point must have M(p) < pi/2")
    return np.log(level / np.cos(m))


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


def trapezoid_fill_bound(r0: float, radius: float, lam: float) -> float:
    """Lower bound on the fraction of the trapezoid covered by preimage disks."""
    _check_coverage_inputs(r0, radius, lam)
    return r0**2 / (2.0**9 * lam**2 * math.exp(2.0 * radius))


def coverage_constant(r0: float, radius: float, lam: float) -> float:
    """Worst-case fraction of a face band whose second preimage meets the ball.

    r0 is the ball radius, radius = |ball center|, lam the bi-Lipschitz
    constant of the hemisphere chart.
    """
    _check_coverage_inputs(r0, radius, lam)
    big_l = abs(math.log(radius))
    return r0**2 / (
        2.0**11 * lam**4 * math.pi * math.exp(2.0 * radius) * (1.0 + 4.0 * math.pi / big_l)
    )


def _check_coverage_inputs(r0, radius, lam):
    if not 0.0 < r0 < radius:
        raise DomainError("coverage inputs: need 0 < r0 < radius")
    if radius == 1.0:
        raise DomainError("coverage inputs: radius must differ from 1")
    if not lam >= 1.0:
        raise DomainError("coverage inputs: lam must be >= 1")


@dataclass(frozen=True)
class CoverageConstants:
    """Bundle of the derived constants for one ball configuration."""

    radius: float
    r0: float
    lam: float
    a: float = field(init=False)
    c: float = field(init=False)
    eps: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "a", separation_constant(self.radius))
        object.__setattr__(self, "c", coverage_constant(self.r0, self.radius, self.lam))
        object.__setattr__(self, "eps", self.c / 16.0)


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


def strip_contains(spec: StripSpec, x) -> bool:
    """Membership test for the open strip (wall within 1e-9, open x2/x3 bounds)."""
    x = np.asarray(x, dtype=float)
    lo, hi = spec.x2_interval
    return bool(
        abs(float(x[0]) - spec.wall_x1) <= 1e-9
        and lo < float(x[1]) < hi
        and float(x[2]) > spec.s
    )


def _to_base_frame(cone: ConeSurface, pts):
    """Map ambient points into the parameter frame of the base cone."""
    pts = apply(inverse(cone.element), pts)
    if cone.level < 0.0:
        pts = pts.copy()
        pts[..., 0] = math.pi - pts[..., 0]
    return pts


def _surface_residual(level_abs: float, y):
    """exp(y3)*cos(M(y)) - |level|; zero exactly on the base cone."""
    m = np.maximum(np.abs(y[..., 0]), np.abs(y[..., 1]))
    return np.exp(np.minimum(y[..., 2], EXP_CAP)) * np.cos(m) - level_abs


def _in_quadrant(face: str, y, tol: float = 0.0):
    sign, axis = _FACE_AXIS[face]
    lead = sign * y[..., axis]
    other = np.abs(y[..., 1 - axis])
    return lead >= other - tol


def ray_cone_intersect(
    p,
    through,
    cone: ConeSurface,
    face: str,
) -> np.ndarray:
    """First intersection of the ray from p through `through` with a cone face.

    The ray is mapped into the base parameter frame, the crossing of the
    central beam is bracketed with a coarse scan of RAY_SCAN_SAMPLES points
    and polished by bisection.
    Bisection is used deliberately: the surface residual need not be monotone
    along the ray, and bracketing plus bisection is robust and deterministic.
    Raises NoIntersectionError (reporting the scanned range) when no sign
    change lies in the face quadrant.
    """
    if face not in _FACE_AXIS:
        raise DomainError(f"ray_cone_intersect: unknown face {face!r}")
    p = np.asarray(p, dtype=float)
    through = np.asarray(through, dtype=float)
    d = through - p
    if not np.all(np.isfinite(d)) or float(np.linalg.norm(d)) == 0.0:
        raise DomainError("ray_cone_intersect: degenerate ray")
    level_abs = abs(cone.level)

    q0 = _to_base_frame(cone, p)
    q1 = _to_base_frame(cone, p + d)
    e = q1 - q0

    def base_point(s):
        return q0 + np.multiply.outer(np.asarray(s, dtype=float), e)

    residual_tol = 1e-10 * max(1.0, level_abs)

    # vertical rays hit the graph x3 = ln(|level| / cos M) in closed form
    if abs(e[0]) < 1e-14 and abs(e[1]) < 1e-14:
        m = max(abs(q0[0]), abs(q0[1]))
        if e[2] == 0.0 or m >= HALF_PI or not _in_quadrant(face, q0[None, :], tol=1e-12)[0]:
            raise NoIntersectionError(
                "ray_cone_intersect: vertical ray misses the face quadrant", scanned=None
            )
        s_star = (math.log(level_abs / math.cos(m)) - q0[2]) / e[2]
        if s_star <= 0.0:
            raise NoIntersectionError(
                "ray_cone_intersect: surface is behind the ray origin", scanned=None
            )
        return p + s_star * d

    # restrict to the parameter-square slab crossing, plus an exponent cap
    lo, hi = 1e-12, math.inf
    for axis in (0, 1):
        if abs(e[axis]) < 1e-14:
            if not -HALF_PI <= q0[axis] <= HALF_PI:
                raise NoIntersectionError(
                    "ray_cone_intersect: ray never enters the beam", scanned=None
                )
            continue
        a = (-HALF_PI - q0[axis]) / e[axis]
        b = (HALF_PI - q0[axis]) / e[axis]
        lo = max(lo, min(a, b))
        hi = min(hi, max(a, b))
    if abs(e[2]) > 1e-14:
        cap = (EXP_CAP - q0[2]) / e[2]
        if e[2] > 0:
            hi = min(hi, cap)
        else:
            lo = max(lo, cap)
    if not lo < hi or not math.isfinite(hi):
        raise NoIntersectionError(
            f"ray_cone_intersect: beam crossing is empty (s in [{lo:.6g}, {hi:.6g}])",
            scanned=(lo, hi),
        )

    s_grid = np.linspace(lo, hi, RAY_SCAN_SAMPLES)
    y = base_point(s_grid)
    phi = _surface_residual(level_abs, y)
    quad = _in_quadrant(face, y, tol=1e-12)

    def polish(sa, sb):
        # bisect down to the float limit; the residual gradient scales like
        # exp(y3), so a fixed parameter tolerance alone is not enough
        fa = float(_surface_residual(level_abs, base_point(sa)))
        fb = float(_surface_residual(level_abs, base_point(sb)))
        best_s, best_f = (sa, abs(fa)) if abs(fa) <= abs(fb) else (sb, abs(fb))
        for _ in range(RAY_BISECT_STEPS):
            sm = 0.5 * (sa + sb)
            if sm == sa or sm == sb:
                break
            fm = float(_surface_residual(level_abs, base_point(sm)))
            if abs(fm) < best_f:
                best_s, best_f = sm, abs(fm)
            if fm == 0.0:
                break
            if (sb - sa) < 1e-12 * max(1.0, abs(sm)) and best_f <= 0.01 * residual_tol:
                break
            if (fa < 0.0) != (fm < 0.0):
                sb, fb = sm, fm
            else:
                sa, fa = sm, fm
        return best_s

    def accepted(s_star):
        y_star = base_point(s_star)
        if not _in_quadrant(face, y_star, tol=1e-9):
            return False
        res = abs(float(_surface_residual(level_abs, y_star)))
        # high on the cone exp(y3) pushes the absolute residual below float
        # resolution; the transverse form cos(M) - level*exp(-y3) stays
        # well conditioned there
        return res <= residual_tol or res * math.exp(-float(y_star[2])) <= 1e-12

    for i in range(RAY_SCAN_SAMPLES - 1):
        if not (quad[i] or quad[i + 1]):
            continue
        if phi[i] == 0.0 and quad[i]:
            s_star = float(s_grid[i])
        elif (phi[i] < 0.0) != (phi[i + 1] < 0.0):
            s_star = polish(float(s_grid[i]), float(s_grid[i + 1]))
        else:
            continue
        if accepted(s_star):
            return p + s_star * d
    raise NoIntersectionError(
        f"ray_cone_intersect: no crossing on face {face} for s in "
        f"[{lo:.6g}, {hi:.6g}] ({RAY_SCAN_SAMPLES} samples)",
        scanned=(lo, hi),
    )


def cone_for_strip(level: float, plane_index: int, l: int) -> ConeSurface:
    """Cone component adjacent to the wall x1 = pi/2 + plane_index*pi at row l.

    Exactly one of the two beams touching the wall at x2-row l has the parity
    matching the sign of the level; the returned element places the base cone
    there.
    """
    if level == 0.0:
        raise DomainError("cone_for_strip: level must be nonzero")
    want = 0 if level > 0.0 else 1
    i = plane_index if (plane_index + l) % 2 == want else plane_index + 1
    b0i, b0j = (0, 0) if level > 0.0 else (1, 0)
    di, dj = i - b0i, l - b0j
    if di % 2 == 0:
        element = GroupElement(di // 2, dj // 2, False)
    else:
        element = GroupElement((i - (1 - b0i)) // 2, (l - (1 - b0j)) // 2, True)
    return ConeSurface(level, element)


def face_toward_wall(cone: ConeSurface, plane_index: int) -> str:
    """Face of the cone whose points are nearest to the given wall plane."""
    wall = HALF_PI + plane_index * math.pi
    probes = {
        "+x1": (0.7, 0.0),
        "-x1": (-0.7, 0.0),
        "+x2": (0.0, 0.7),
        "-x2": (0.0, -0.7),
    }
    best, best_d = None, math.inf
    for fid, pr in probes.items():
        x = cone_point(cone, pr)
        dist = abs(float(x[0]) - wall)
        if dist < best_d:
            best, best_d = fid, dist
    return best


def face_mesh(region: FaceRegion, n_height: int, n_width: int) -> np.ndarray:
    """Triangulate a face band; returns an array of shape (n_tri, 3, 3).

    The face is parametrized by height x3 and transverse fraction v in
    [-1, 1]: at height x3 the half width is M(x3) = arccos(|level| e^{-x3}).
    """
    if n_height < 1 or n_width < 1:
        raise DomainError("face_mesh: need at least one cell per direction")
    level_abs = abs(region.cone.level)
    sign, axis = _FACE_AXIS[region.face]
    h = np.linspace(region.t1, region.t2, n_height + 1)
    half = np.arccos(np.clip(level_abs * np.exp(-h), -1.0, 1.0))
    v = np.linspace(-1.0, 1.0, n_width + 1)
    lead = sign * half[:, None] * np.ones_like(v)[None, :]
    trans = half[:, None] * v[None, :]
    param = np.empty((n_height + 1, n_width + 1, 2))
    param[..., axis] = lead
    param[..., 1 - axis] = trans
    pts = cone_point(region.cone, param.reshape(-1, 2)).reshape(n_height + 1, n_width + 1, 3)
    tris = []
    for i in range(n_height):
        for j in range(n_width):
            a, b = pts[i, j], pts[i, j + 1]
            c, d = pts[i + 1, j], pts[i + 1, j + 1]
            tris.append((a, b, d))
            tris.append((a, d, c))
    return np.asarray(tris)


def cone_mesh(cone: ConeSurface, t1: float, t2: float, n_height: int, n_width: int) -> np.ndarray:
    """Triangle soup for all four faces of a cone band."""
    parts = [
        face_mesh(FaceRegion(cone, fid, t1, t2), n_height, n_width) for fid in FACE_IDS
    ]
    return np.concatenate(parts, axis=0)
