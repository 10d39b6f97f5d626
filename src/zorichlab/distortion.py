"""Finite-difference estimation of pointwise Lipschitz constants and distortion.

The map handles passed in here must be vectorized callables: they accept
arrays of points with shape (..., k) and return arrays of image points with
a matching leading shape.  Direction sets are deterministic (Fibonacci
sphere in 3-D, uniform angles in 2-D), so every estimate is reproducible
without seeds.  Both estimators work in blocks of density._BLOCK (2^14) probes
or cells; for maps computed point by point, the results do not depend on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import density
from .errors import DegenerateError, DomainError
from .zorich import HALF_PI, _norm3, branch_distance, h_square, zorich

GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))

# finite-difference defaults shared by the verification experiments
DEFAULT_RADIUS = 1e-5
DEFAULT_DIRECTIONS = 64
BRANCH_MARGIN_FACTOR = 10.0
# finite-difference radius of the chart constant lambda_h_estimate
CHART_RADIUS = 1e-6
MIN_CHART_GRID_N = 64  # least grid side of lambda_h_estimate
# grid-counting slack: lam is inflated by this fraction in the transport check
AREA_INFLATE = 0.02


@dataclass(frozen=True)
class Slab:
    """Horizontal slab t1 < x3 < t2 (unbounded in the first two axes)."""

    t1: float
    t2: float

    def __post_init__(self):
        if not self.t1 < self.t2:
            raise DomainError("Slab: need t1 < t2")

    @property
    def gap(self) -> float:
        return self.t2 - self.t1


@dataclass(frozen=True)
class DistortionEstimate:
    sup_upper: float
    inf_lower: float
    ratio: float
    sample_count: int


def sphere_directions(n: int) -> np.ndarray:
    """Deterministic quasi-uniform unit vectors (Fibonacci lattice)."""
    k = np.arange(n) + 0.5
    z = 1.0 - 2.0 * k / n
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    theta = GOLDEN_ANGLE * k
    return np.column_stack([r * np.cos(theta), r * np.sin(theta), z])


def plane_directions(n: int, e1, e2) -> np.ndarray:
    """Unit directions inside the plane spanned by orthonormal e1, e2."""
    ang = 2.0 * math.pi * (np.arange(n) + 0.5) / n
    e1 = np.asarray(e1, dtype=float)
    e2 = np.asarray(e2, dtype=float)
    return np.cos(ang)[:, None] * e1 + np.sin(ang)[:, None] * e2


def _directions_for(x, directions):
    dim = np.asarray(x).shape[-1]
    if directions is None:
        directions = (sphere_directions(DEFAULT_DIRECTIONS) if dim == 3
                      else plane_directions(DEFAULT_DIRECTIONS, (1.0, 0.0), (0.0, 1.0)))
    directions = np.asarray(directions, dtype=float)
    if len(directions) < 32:
        raise DomainError("relative_distortion: need at least 32 directions")
    if directions.ndim != 2 or directions.shape[1] != dim:
        raise DomainError(f"relative_distortion: directions of width {directions.shape[-1]} "
                          f"for points of width {dim}")
    return directions


def relative_distortion(f, points, radius: float = DEFAULT_RADIUS, *,
                        directions=None) -> DistortionEstimate:
    """sup of upper constants over inf of lower constants on the sample set.

    At one point these are the pointwise Lipschitz constants, probed at
    distance `radius` (along DEFAULT_DIRECTIONS directions unless given);
    keep the points at branch distance > 10*radius.
    """
    if not radius > 0.0:
        raise DomainError("relative_distortion: radius must be positive")
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if len(points) == 0:
        raise DomainError("relative_distortion: need at least one sample point")
    dirs = _directions_for(points[0], directions)
    step = max(1, density._BLOCK // len(dirs))
    lows, highs = [], []
    for c in range(0, len(points), step):
        x = points[c : c + step]
        fx = np.asarray(f(x))
        fy = np.asarray(f(x[:, None, :] + radius * dirs[None, :, :]))
        d = fy - fx[:, None, :]
        # every package map has 3-vector images; other widths keep numpy's reduction
        q = (_norm3(d) if d.shape[-1] == 3 else np.linalg.norm(d, axis=-1)) / radius
        lows.append(np.min(q))
        highs.append(np.max(q))
    # np.min/np.max, not the builtins: a NaN quotient in any block gives NaN
    lower = float(np.min(lows))
    upper = float(np.max(highs))
    if lower < 1e-14:
        raise DegenerateError("relative_distortion: map is locally constant")
    return DistortionEstimate(
        sup_upper=upper,
        inf_lower=lower,
        ratio=upper / lower,
        sample_count=len(points),
    )


@lru_cache(maxsize=8)
def lambda_h_estimate(grid_n: int = 128) -> float:
    """Bi-Lipschitz constant of the square-to-hemisphere chart, from below.

    Scans an interior grid of the base square and returns the largest of
    max(upper, 1/lower); the true constant is the supremum, so refinement
    can only increase the estimate (the sup sits at the square corners).
    """
    if grid_n < MIN_CHART_GRID_N:
        raise DomainError(f"lambda_h_estimate: grid_n must be >= {MIN_CHART_GRID_N}")
    g = -HALF_PI + (np.arange(grid_n) + 0.5) * math.pi / grid_n
    pts = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)
    est = relative_distortion(h_square, pts, CHART_RADIUS)
    return max(est.sup_upper, 1.0 / est.inf_lower)


def sample_slab(slab: Slab, n: int, seed: int, radius: float = DEFAULT_RADIUS) -> np.ndarray:
    """Deterministic slab sample over |x1|, |x2| < 2*pi respecting the branch margin."""
    rng = np.random.default_rng(seed)
    span = 2.0 * math.pi
    margin = BRANCH_MARGIN_FACTOR * radius
    # no point lies farther than pi/sqrt(2), a beam's centre, from the branch lines
    if not margin < math.pi / math.sqrt(2.0):
        raise DomainError(f"sample_slab: radius {radius!r} leaves no point outside the "
                          "branch margin")
    out = np.empty((0, 3))
    while len(out) < n:
        m = 2 * (n - len(out)) + 16
        cand = np.column_stack(
            [
                rng.uniform(-span, span, m),
                rng.uniform(-span, span, m),
                rng.uniform(slab.t1, slab.t2, m),
            ]
        )
        cand = cand[branch_distance(cand) > margin]
        out = np.concatenate([out, cand])
    return out[:n]


@dataclass(frozen=True)
class SlabReport:
    d_est: float
    bound: float
    passed: bool


def verify_slab_bound(slab: Slab, n_samples: int = 1000, *, lam: float,
                      radius: float = DEFAULT_RADIUS, n_dirs: int = DEFAULT_DIRECTIONS,
                      seed: int = 2024) -> SlabReport:
    """Check the measured slab distortion against lam^2 * exp(gap) * 1.01."""
    if slab.gap > 20.0:
        raise DomainError("verify_slab_bound: slab gap above 20 is not sane to probe")
    if n_samples < 1:
        raise DomainError("verify_slab_bound: need samples")
    if not (radius > 0.0 and math.isfinite(radius)):
        raise DomainError("verify_slab_bound: radius must be positive and finite")
    pts = sample_slab(slab, n_samples, seed, radius)
    est = relative_distortion(zorich, pts, radius, directions=sphere_directions(n_dirs))
    bound = lam * lam * math.exp(slab.gap) * 1.01
    return SlabReport(d_est=est.ratio, bound=bound, passed=est.ratio <= bound)


@dataclass(frozen=True)
class AreaTransportReport:
    """Both sides of the measure-transport sandwich for one configuration."""

    lower: float
    middle: float
    upper: float
    passed: bool


def verify_area_transport(measures, lam: float, n_dim: int) -> AreaTransportReport:
    """Check (1/lam^n) m(U)/m(E) <= m(fU)/m(fE) <= lam^n m(U)/m(E).

    `measures` is (m_e, m_u, m_fe, m_fu); lam is inflated by AREA_INFLATE
    before exponentiation to absorb grid-counting noise.
    """
    m_e, m_u, m_fe, m_fu = (float(v) for v in measures)
    if min(m_e, m_fe) <= 0.0:
        raise DegenerateError("verify_area_transport: ambient measures must be positive")
    lam_n = (lam * (1.0 + AREA_INFLATE)) ** n_dim
    ratio = m_u / m_e
    image_ratio = m_fu / m_fe
    lower = ratio / lam_n
    upper = ratio * lam_n
    return AreaTransportReport(lower, image_ratio, upper, lower <= image_ratio <= upper)


def cube_membership(lo, hi):
    """Membership test of the closed box [lo, hi], for points of shape (..., len(lo))."""
    def member(pts):
        pts = np.asarray(pts)
        inside = (pts[..., 0] >= lo[0]) & (pts[..., 0] <= hi[0])
        for k in range(1, len(lo)):  # column by column: no (n, 3) boolean temporaries
            inside &= (pts[..., k] >= lo[k]) & (pts[..., k] <= hi[k])
        return inside

    return member


def grid_count_measures(membership_e, membership_u, box_lo, box_hi,
                        cells_per_axis: int, *, pullback=None) -> tuple[float, float]:
    """Estimate the measures of two nested sets by counting cell centers.

    Returns (m_e, m_u) in absolute units of the box volume; works in any
    dimension (len(box_lo) axes).  The cells are taken in C order, one
    density._BLOCK at a time.  With a pullback, both memberships test
    pullback(centers), computed once per block, instead of the centers.
    """
    box_lo = np.asarray(box_lo, dtype=float)
    box_hi = np.asarray(box_hi, dtype=float)
    dim = len(box_lo)
    axes = [
        box_lo[a] + (np.arange(cells_per_axis) + 0.5) * (box_hi[a] - box_lo[a]) / cells_per_axis
        for a in range(dim)
    ]
    cell = float(np.prod((box_hi - box_lo) / cells_per_axis))
    n_cells, block = cells_per_axis**dim, density._BLOCK
    n_e = n_u = 0
    for c in range(0, n_cells, block):
        index = np.unravel_index(np.arange(c, min(c + block, n_cells)), (cells_per_axis,) * dim)
        centers = np.column_stack([axis[i] for axis, i in zip(axes, index)])
        if pullback is not None:
            centers = pullback(centers)
        n_e += np.count_nonzero(np.asarray(membership_e(centers), dtype=bool))
        n_u += np.count_nonzero(np.asarray(membership_u(centers), dtype=bool))
    return float(n_e) * cell, float(n_u) * cell
