"""Experiments on second-iterate images of lines: tracing, coverage, density.

A line through the base point P is parametrized by its crossing of the unit
wall Y (the boundary of the semi-infinite square beam P + {M(x1, x2) = 1,
x3 > 0}).  Valid crossings exclude the coordinate and diagonal planes, where
the second-iterate image is confined to a plane, a sphere or a bounded set.

The tracer samples the second iterate adaptively: a parameter interval is
bisected while its image endpoints are further apart than a step bound and
at least one endpoint lies in the target box.  Intervals whose first-stage
exponent already exceeds the box scale are skipped.  Everything is
deterministic for fixed inputs; traces from one run can be marked into
occupancy grids in any chunking (marking is idempotent and merging is a
bitwise union).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateError, DomainError
from .zorich import OK, OVERFLOW_FIRST, OVERFLOW_SECOND, UNRESOLVABLE, second_iterate

Y_FACES = ("+x1", "-x1", "+x2", "-x2")

_CHECKPOINT_BASE = 1000

# thresholds enshrined by the pilot runs documented in the README; the
# experiment configurations that produced them are the defaults of
# `coverage_experiment` / `random_valid_line` and the verify density check
COVERAGE_BOX = 10.0
COVERAGE_GRID_N = 64
COVERAGE_BUDGET = 10_000_000
COVERAGE_LINES = 5
COVERAGE_THRESHOLD = 0.95
COVERAGE_THRESHOLD_QUICK = 0.25
COVERAGE_BUDGET_QUICK = 1_000_000
DENSITY_FRACTION_MIN = 0.01


@dataclass(frozen=True)
class YPoint:
    """Crossing point of the unit wall around P, in face-local coordinates.

    The ambient offset from P is (1, u2, u3) on face "+x1", (-1, u2, u3) on
    "-x1", (u2, +-1, u3) on the x2 faces.
    """

    face: str
    u2: float
    u3: float

    def __post_init__(self):
        if self.face not in Y_FACES:
            raise DomainError(f"YPoint: unknown face {self.face!r}")

    def offset(self) -> np.ndarray:
        if self.face == "+x1":
            return np.array([1.0, self.u2, self.u3])
        if self.face == "-x1":
            return np.array([-1.0, self.u2, self.u3])
        if self.face == "+x2":
            return np.array([self.u2, 1.0, self.u3])
        return np.array([self.u2, -1.0, self.u3])


def y_point_valid(alpha: YPoint) -> bool:
    """Exclusions for line crossings: u3 > 0 and u2 not in {-1, 0, 1}."""
    return alpha.u3 > 0.0 and 0.0 < abs(alpha.u2) < 1.0


@dataclass(frozen=True)
class LineSpec:
    """The line p + s*d.

    A line named by its wall crossing alpha is the unique line through P = p
    and P + alpha.offset(), so d is derived from alpha; a line given by d
    alone (for the excluded families) has alpha None.
    """

    alpha: YPoint | None = None
    p: tuple[float, float, float] = (0.0, 0.0, 0.0)
    d: tuple[float, float, float] | None = None

    def __post_init__(self):
        if (self.alpha is None) == (self.d is None):
            raise DomainError("LineSpec: give exactly one of alpha and d")
        if self.alpha is not None:
            object.__setattr__(self, "d", tuple(float(v) for v in self.alpha.offset()))

    def direction(self) -> np.ndarray:
        return np.asarray(self.d, dtype=float)

    def point_at(self, s) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        return np.asarray(self.p, dtype=float) + np.multiply.outer(s, self.direction())


def RawLine(p, d) -> LineSpec:
    """Line through p with an arbitrary direction (for excluded families)."""
    return LineSpec(p=p, d=d)


@dataclass(frozen=True)
class BallSpec:
    center: tuple[float, float, float]
    radius: float

    def __post_init__(self):
        q = np.linalg.norm(self.center)
        if not 0.0 < self.radius < q:
            raise DomainError("BallSpec: need 0 < radius < |center|")
        if q == 1.0:
            raise DomainError("BallSpec: center must be off the unit sphere")

    @property
    def center_norm(self) -> float:
        return float(np.linalg.norm(self.center))


@dataclass(frozen=True)
class PatchSpec:
    """Square neighbourhood E_delta of a wall crossing, inside one face."""

    center: YPoint
    delta: float

    def __post_init__(self):
        if not self.delta > 0.0:
            raise DomainError("PatchSpec: delta must be positive")
        if abs(self.center.u2) + self.delta >= 1.0 or self.center.u3 - self.delta <= 0.0:
            raise DomainError("PatchSpec: patch leaves the face")


# ---------------------------------------------------------------------------
# countable ball base of R^3 minus the unit sphere and the origin


def _stage_balls(k: int, chunk: int = 1 << 21):
    """Dyadic stage k: grid step 2^-k over [-2^k, 2^k]^3, filtered.

    Yields (q, norm) array chunks in deterministic lexicographic order.
    """
    step = 2.0**-k
    imax = 4**k
    coords = np.arange(-imax, imax + 1, dtype=float) * step
    n = len(coords)
    rows_per_chunk = max(1, chunk // (n * n))
    for start in range(0, n, rows_per_chunk):
        c0 = coords[start : start + rows_per_chunk]
        q = np.stack(np.meshgrid(c0, coords, coords, indexing="ij"), axis=-1).reshape(-1, 3)
        norm = np.linalg.norm(q, axis=-1)
        keep = (norm > 0.0) & (np.abs(norm - 1.0) > 2.0**-k)
        yield q[keep], norm[keep]


def base_prefix(n: int) -> tuple[np.ndarray, np.ndarray]:
    """First n balls of the enumeration as (centers, radii) arrays.

    Radii combine the schedule bound 2^-ceil(index^(1/3)) with the clearance
    to the origin and to the unit sphere, then take a running minimum so the
    sequence is nonincreasing.
    """
    if n < 1:
        raise DomainError("base_prefix: need n >= 1")
    qs, ds = [], []
    count = 0
    running = math.inf
    k = 0
    while count < n:
        for q, norm in _stage_balls(k):
            if len(q) == 0:
                continue
            idx = count + 1 + np.arange(len(q))
            sched = np.exp2(-np.ceil(np.cbrt(idx)))
            delta = np.minimum(sched, np.minimum(norm / 2.0, np.abs(norm - 1.0) / 2.0))
            delta = np.minimum.accumulate(np.minimum(delta, running))
            running = float(delta[-1])
            qs.append(q)
            ds.append(delta)
            count += len(q)
            if count >= n:
                break
        k += 1
    centers = np.concatenate(qs)[:n]
    radii = np.concatenate(ds)[:n]
    return centers, radii


def base_sequence(n: int) -> BallSpec:
    """n-th ball of the deterministic countable base (1-based)."""
    centers, radii = base_prefix(n)
    return BallSpec(center=tuple(float(c) for c in centers[-1]), radius=float(radii[-1]))


# ---------------------------------------------------------------------------
# adaptive tracing of the second iterate


@dataclass(frozen=True)
class TraceAudit:
    evals: int
    dropped_overflow: int
    dropped_unresolvable: int
    in_box_points: int
    pairs_in_box: int
    cap_hits: int

    @property
    def cap_hit_fraction(self) -> float:
        return self.cap_hits / self.pairs_in_box if self.pairs_in_box else 0.0


@dataclass(frozen=True)
class TraceResult:
    s: np.ndarray
    points: np.ndarray
    in_box: np.ndarray
    audit: TraceAudit


def _second_stage(line: LineSpec, s, box_r: float):
    """Evaluate the second iterate along the line, masking overflow.

    Returns (f, zexp, in_box, n_overflow, n_unresolvable): f has NaN rows
    where the first stage overflows, the second exponent exceeds the cap, or
    the intermediate phase is beyond float resolution; zexp is the
    first-stage exponent with +inf on first-stage overflow.
    """
    f, zexp, status = second_iterate(line.point_at(s))
    f[status == UNRESOLVABLE] = np.nan
    counts = np.bincount(status.ravel(), minlength=4)
    in_box = (status == OK) & np.all(np.abs(f) <= box_r, axis=-1)
    return (f, zexp, in_box, int(counts[OVERFLOW_FIRST] + counts[OVERFLOW_SECOND]),
            int(counts[UNRESOLVABLE]))


def default_s_range(line: LineSpec, x3_window=(-1.0, 27.0)) -> tuple[float, float]:
    """Parameter window mapping onto the given first-coordinate x3 window.

    The upper default 27 keeps the intermediate phase within float
    resolution (exp(27) ~ 5e11 < zorich.PHASE_CAP); lines parallel to the
    horizontal plane get a fixed wide window instead.
    """
    d3 = float(line.direction()[2])
    p3 = float(line.p[2])
    if abs(d3) < 1e-12:
        return (-1e4, 1e4)
    a = (x3_window[0] - p3) / d3
    b = (x3_window[1] - p3) / d3
    return (a, b) if a < b else (b, a)


def adaptive_trace(
    line: LineSpec,
    box_r: float,
    budget: int,
    h_max: float,
    *,
    s_range: tuple[float, float] | None = None,
    n0: int | None = None,
    max_depth: int = 48,
) -> TraceResult:
    """Trace the second-iterate image of the line over the target box.

    Seeds a uniform parameter grid, then repeatedly bisects intervals whose
    image endpoints are more than h_max apart and touch the box, skipping
    intervals whose first-stage exponents both exceed ln(2*box_r) + 1.
    Stops at the evaluation budget or depth cap; overflow samples are
    dropped and counted, never fatal.
    """
    if budget < 1000:
        raise DomainError("adaptive_trace: budget must be >= 1000")
    if not (h_max > 0.0 and box_r > 0.0):
        raise DomainError("adaptive_trace: box_r and h_max must be positive")
    if s_range is None:
        s_range = default_s_range(line)
    s_lo, s_hi = float(s_range[0]), float(s_range[1])
    if not s_lo < s_hi:
        raise DomainError("adaptive_trace: empty parameter range")
    if n0 is None:
        n0 = max(2, budget // 3)
    n0 = min(n0, budget)

    skip_exp = math.log(2.0 * box_r) + 1.0
    s = np.linspace(s_lo, s_hi, n0)
    f, zexp, in_box, n_over, n_unres = _second_stage(line, s, box_r)
    evals = n0

    chunks_s = [s]
    chunks_f = [f]
    chunks_box = [in_box]

    left_s, right_s = s[:-1], s[1:]
    left_f, right_f = f[:-1], f[1:]
    left_e, right_e = zexp[:-1], zexp[1:]
    left_b, right_b = in_box[:-1], in_box[1:]

    for _depth in range(max_depth):
        if evals >= budget or len(left_s) == 0:
            break
        with np.errstate(over="ignore"):
            gap = np.linalg.norm(left_f - right_f, axis=-1)
        gap = np.where(np.isnan(gap), np.inf, gap)
        width_ok = (right_s - left_s) > 8.0 * np.spacing(np.maximum(np.abs(left_s), np.abs(right_s)))
        need = (
            (left_b | right_b)
            & (gap > h_max)
            & (np.minimum(left_e, right_e) <= skip_exp)
            & width_ok
        )
        idx = np.flatnonzero(need)
        if len(idx) == 0:
            break
        if evals + len(idx) > budget:
            idx = idx[: budget - evals]
        mid_s = 0.5 * (left_s[idx] + right_s[idx])
        mid_f, mid_e, mid_b, o2, u2 = _second_stage(line, mid_s, box_r)
        evals += len(idx)
        n_over += o2
        n_unres += u2
        chunks_s.append(mid_s)
        chunks_f.append(mid_f)
        chunks_box.append(mid_b)
        # children of split intervals replace their parents
        left_s = np.concatenate([left_s[idx], mid_s])
        right_s = np.concatenate([mid_s, right_s[idx]])
        left_f = np.concatenate([left_f[idx], mid_f])
        right_f = np.concatenate([mid_f, right_f[idx]])
        left_e = np.concatenate([left_e[idx], mid_e])
        right_e = np.concatenate([mid_e, right_e[idx]])
        left_b = np.concatenate([left_b[idx], mid_b])
        right_b = np.concatenate([mid_b, right_b[idx]])

    s_all = np.concatenate(chunks_s)
    f_all = np.concatenate(chunks_f)
    box_all = np.concatenate(chunks_box)
    order = np.argsort(s_all, kind="stable")
    s_all, f_all, box_all = s_all[order], f_all[order], box_all[order]

    keep = np.all(np.isfinite(f_all), axis=-1)
    s_kept, f_kept, box_kept = s_all[keep], f_all[keep], box_all[keep]

    both = box_kept[:-1] & box_kept[1:]
    with np.errstate(over="ignore"):
        pair_gap = np.linalg.norm(f_kept[:-1] - f_kept[1:], axis=-1)
    cap_hits = int(np.count_nonzero(both & (pair_gap > h_max * (1 + 1e-9))))

    audit = TraceAudit(
        evals=evals,
        dropped_overflow=n_over,
        dropped_unresolvable=n_unres,
        in_box_points=int(np.count_nonzero(box_kept)),
        pairs_in_box=int(np.count_nonzero(both)),
        cap_hits=cap_hits,
    )
    return TraceResult(s=s_kept, points=f_kept, in_box=box_kept, audit=audit)


# ---------------------------------------------------------------------------
# voxel occupancy


class VoxelGrid:
    """Occupancy grid over [-half_extent, half_extent]^3 with exclusions.

    Voxels meeting the ball B(0, r_exclude) or the spherical shell
    | |x| - 1 | < shell_width do not count toward coverage; both default to
    one voxel diagonal, the grid-resolution stand-in for a measure-zero set.
    """

    def __init__(self, half_extent: float = COVERAGE_BOX, n: int = COVERAGE_GRID_N,
                 r_exclude: float | None = None, shell_width: float | None = None):
        if n < 2 or half_extent <= 0:
            raise DomainError("VoxelGrid: need n >= 2 and a positive extent")
        self.half_extent = float(half_extent)
        self.n = int(n)
        self.voxel = 2.0 * self.half_extent / self.n
        diag = self.voxel * math.sqrt(3.0)
        self.r_exclude = diag if r_exclude is None else float(r_exclude)
        self.shell_width = diag if shell_width is None else float(shell_width)
        self.occupancy = np.zeros((self.n,) * 3, dtype=bool)
        self.excluded = self._exclusion_mask()

    def _exclusion_mask(self) -> np.ndarray:
        edges = -self.half_extent + self.voxel * np.arange(self.n)
        lo = np.stack(np.meshgrid(edges, edges, edges, indexing="ij"), axis=-1)
        hi = lo + self.voxel
        nearest = np.clip(0.0, lo, hi)
        dmin = np.linalg.norm(nearest, axis=-1)
        dmax = np.linalg.norm(np.maximum(np.abs(lo), np.abs(hi)), axis=-1)
        ball = dmin <= self.r_exclude
        shell = (dmin < 1.0 + self.shell_width) & (dmax > 1.0 - self.shell_width)
        return ball | shell

    def mark(self, points) -> int:
        """Mark voxels containing the given points; returns in-box count."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[0] == 0:
            return 0
        inside = np.all((pts >= -self.half_extent) & (pts < self.half_extent), axis=-1)
        pts = pts[inside]
        if len(pts):
            idx = ((pts + self.half_extent) / self.voxel).astype(np.int64)
            idx = np.clip(idx, 0, self.n - 1)
            self.occupancy[idx[:, 0], idx[:, 1], idx[:, 2]] = True
        return int(np.count_nonzero(inside))

    def coverage(self) -> float:
        active = ~self.excluded
        total = int(np.count_nonzero(active))
        return float(np.count_nonzero(self.occupancy & active)) / total if total else 0.0

    def merge(self, other: "VoxelGrid") -> None:
        if (other.n, other.half_extent) != (self.n, self.half_extent):
            raise DomainError("VoxelGrid.merge: incompatible grids")
        self.occupancy |= other.occupancy


def mark_and_coverage(grid: VoxelGrid, points) -> list[tuple[int, float]]:
    """Mark a point stream and report coverage at geometric checkpoints.

    Returns (points_consumed, coverage) pairs at 10^3, 10^4, ... and at the
    end of the stream; coverage is nondecreasing in points consumed.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    series = []
    consumed = 0
    checkpoint = _CHECKPOINT_BASE
    while consumed < len(pts):
        take = min(checkpoint - consumed, len(pts) - consumed)
        grid.mark(pts[consumed : consumed + take])
        consumed += take
        if consumed == checkpoint:
            series.append((consumed, grid.coverage()))
            checkpoint *= 10
    if not series or series[-1][0] != consumed:
        series.append((consumed, grid.coverage()))
    return series


# ---------------------------------------------------------------------------
# ball hitting and the density experiment


@dataclass(frozen=True)
class HitResult:
    hit: bool
    witness_param: float | None
    min_distance: float
    evals: int


def hits_ball(line: LineSpec, ball: BallSpec, budget: int, *,
              h_max: float | None = None,
              s_range: tuple[float, float] | None = None) -> HitResult:
    """Trace the line against the box around the ball and look for a hit."""
    box_r = ball.center_norm + ball.radius
    if h_max is None:
        h_max = ball.radius
    trace = adaptive_trace(line, box_r, budget, h_max, s_range=s_range)
    if len(trace.points) == 0:
        return HitResult(False, None, math.inf, trace.audit.evals)
    with np.errstate(over="ignore"):
        dist = np.linalg.norm(trace.points - np.asarray(ball.center), axis=-1)
    k = int(np.argmin(dist))
    best = float(dist[k])
    if best < ball.radius:
        return HitResult(True, float(trace.s[k]), best, trace.audit.evals)
    return HitResult(False, None, best, trace.audit.evals)


@dataclass(frozen=True)
class DensityRung:
    delta: float
    grid_n: int
    valid: int
    skipped: int
    hits: int

    @property
    def fraction(self) -> float:
        return self.hits / self.valid if self.valid else 0.0


def patch_grid(patch: PatchSpec, delta: float, grid_n: int) -> list[YPoint]:
    """Cell-center grid of wall crossings covering E_delta."""
    offs = (np.arange(grid_n) + 0.5) / grid_n * 2.0 - 1.0
    return [
        YPoint(patch.center.face, patch.center.u2 + delta * a, patch.center.u3 + delta * b)
        for a in offs
        for b in offs
    ]


def epsilon_density(
    patch: PatchSpec,
    ball: BallSpec,
    grid_n: int,
    budget_per_line: int,
    *,
    rungs: int = 4,
    p=(0.0, 0.0, 0.0),
    max_skip_fraction: float = 0.05,
) -> list[DensityRung]:
    """Hit fractions over a shrinking ladder of patch sizes.

    For each rung delta, delta/2, ... a grid_n x grid_n grid of crossings in
    E_delta is traced against the ball; invalid crossings (the measure-zero
    exclusions) are skipped and counted, and the patch is rejected as
    degenerate when they exceed max_skip_fraction of the grid.
    """
    if grid_n < 2:
        raise DomainError("epsilon_density: grid_n must be >= 2")
    out = []
    for r in range(rungs):
        delta = patch.delta / 2.0**r
        crossings = patch_grid(patch, delta, grid_n)
        valid_pts = [a for a in crossings if y_point_valid(a)]
        skipped = len(crossings) - len(valid_pts)
        if skipped > max_skip_fraction * grid_n * grid_n:
            raise DegenerateError(
                f"epsilon_density: {skipped} of {grid_n * grid_n} crossings hit the exclusions"
            )
        hits = sum(hits_ball(LineSpec(a, tuple(p)), ball, budget_per_line).hit
                   for a in valid_pts)
        out.append(
            DensityRung(
                delta=delta,
                grid_n=grid_n,
                valid=len(valid_pts),
                skipped=skipped,
                hits=hits,
            )
        )
    return out


# ---------------------------------------------------------------------------
# line sampling and the coverage experiment


def random_valid_line(rng: np.random.Generator, p=(0.0, 0.0, 0.0)) -> LineSpec:
    """Pseudorandom valid wall crossing, away from the excluded planes.

    u2 is uniform over +-(0.05, 0.95) and u3 over (0.8e-4, 1.8e-4).  Shallow
    slopes pack many wall crossings of the first-stage image into the
    exponent window that stays within float phase resolution, which is what
    drives voxel coverage at a fixed evaluation budget (pilot calibrated).
    """
    u2 = float(rng.uniform(0.05, 0.95)) * (1.0 if rng.random() < 0.5 else -1.0)
    u3 = float(rng.uniform(0.8e-4, 1.8e-4))
    return LineSpec(YPoint("+x1", u2, u3), tuple(p))


@dataclass(frozen=True)
class CoverageRun:
    line: LineSpec
    series: list[tuple[int, float]]
    audit: TraceAudit
    coverage: float


def coverage_experiment(
    lines,
    *,
    box_r: float = COVERAGE_BOX,
    grid_n: int = COVERAGE_GRID_N,
    budget: int = COVERAGE_BUDGET,
    h_max: float | None = None,
    shared_grid: VoxelGrid | None = None,
) -> list[CoverageRun]:
    """Trace each line and mark a fresh grid per line; returns per-line runs.

    When shared_grid is given the occupancy is also merged into it.
    """
    if h_max is None:
        h_max = 2.0 * box_r / grid_n
    runs = []
    for line in lines:
        trace = adaptive_trace(line, box_r, budget, h_max)
        grid = VoxelGrid(box_r, grid_n)
        series = mark_and_coverage(grid, trace.points)
        if shared_grid is not None:
            shared_grid.merge(grid)
        runs.append(
            CoverageRun(line=line, series=series, audit=trace.audit, coverage=grid.coverage())
        )
    return runs
