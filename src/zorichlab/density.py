"""Experiments on second-iterate images of lines: tracing, coverage, density.

A line through the base point P is parametrized by its crossing of the unit
wall Y (the boundary of the semi-infinite square beam P + {M(x1, x2) = 1,
x3 > 0}).  Valid crossings exclude the coordinate and diagonal planes, where
the second-iterate image is confined to a plane, a sphere or a bounded set.

The tracer samples the second iterate adaptively: a parameter interval is
bisected while its image endpoints are further apart than a step bound and
at least one endpoint lies in the target box.  Intervals whose second
exponent already exceeds the box scale are skipped.  The lines of a density
rung are traced together, in groups of at most _GROUP_SAMPLES samples of
budget, with one kernel call per depth for the group; each line's trace is
bit-identical to tracing it alone, so the outputs are unchanged.
Everything is deterministic for fixed inputs; traces from one run can be
marked into occupancy grids in any chunking (marking is idempotent).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateError, DomainError
from .zorich import OK, OVERFLOW_FIRST, OVERFLOW_SECOND, UNRESOLVABLE, second_iterate

Y_FACES = ("+x1", "-x1", "+x2", "-x2")

_CHECKPOINT_BASE = 1000
_BALL_CHUNK = 1 << 21  # ball centres generated per chunk of a dyadic stage
_GROUP_SAMPLES = 1 << 17  # combined budget of the lines one group traces together
# first-stage x3 window of a traced line: exp(27) ~ 5e11 < zorich.PHASE_CAP
X3_WINDOW = (-1.0, 27.0)
MAX_DEPTH = 48  # bisection depths of adaptive_trace
MAX_SKIP_FRACTION = 0.05  # excluded crossings a density patch may contain

# thresholds enshrined by the pilot runs documented in the README; the
# experiment configurations that produced them are the defaults of
# `coverage_experiment` / `random_valid_line` and the verify density check
COVERAGE_BOX = 10.0
COVERAGE_GRID_N = 64
COVERAGE_BUDGET = 10_000_000
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


def _stage_balls(k: int):
    """Dyadic stage k: grid step 2^-k over [-2^k, 2^k]^3, filtered.

    Yields (q, norm) array chunks in deterministic lexicographic order.
    """
    step = 2.0**-k
    imax = 4**k
    coords = np.arange(-imax, imax + 1, dtype=float) * step
    n = len(coords)
    rows_per_chunk = max(1, _BALL_CHUNK // (n * n))
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


def default_s_range(line: LineSpec) -> tuple[float, float]:
    """Parameter window mapping onto the first-coordinate window X3_WINDOW.

    Its upper end keeps the intermediate phase within float resolution;
    lines parallel to the horizontal plane get a fixed wide window instead.
    """
    d3 = float(line.direction()[2])
    p3 = float(line.p[2])
    if abs(d3) < 1e-12:
        return (-1e4, 1e4)
    a = (X3_WINDOW[0] - p3) / d3
    b = (X3_WINDOW[1] - p3) / d3
    return (a, b) if a < b else (b, a)


def adaptive_trace(
    line: LineSpec,
    box_r: float,
    budget: int,
    h_max: float,
    *,
    s_range: tuple[float, float] | None = None,
) -> TraceResult:
    """Trace the second-iterate image of the line over the target box.

    Seeds a uniform parameter grid of budget // 3 points, then repeatedly
    bisects intervals whose image endpoints are more than h_max apart and
    touch the box, skipping intervals whose second exponents both exceed
    ln(2*box_r) + 1.  Stops at the evaluation budget or after
    MAX_DEPTH bisections; overflow samples are dropped and counted, never
    fatal.
    """
    return next(_trace_lines([line], box_r, budget, h_max, [s_range]))


def _trace_lines(lines, box_r: float, budget: int, h_max: float, s_ranges=None):
    """adaptive_trace of each line (s_ranges: one range or None per line), in input order.

    Lines are traced together in groups of at most _GROUP_SAMPLES // budget
    lines (a larger budget traces alone); every result is bit-identical to
    tracing its line alone.
    """
    if budget < 1000:
        raise DomainError("adaptive_trace: budget must be >= 1000")
    if not (h_max > 0.0 and box_r > 0.0):
        raise DomainError("adaptive_trace: box_r and h_max must be positive")
    ranges = [
        default_s_range(line) if s_range is None else (float(s_range[0]), float(s_range[1]))
        for line, s_range in zip(lines, s_ranges or [None] * len(lines), strict=True)
    ]
    if not all(s_lo < s_hi for s_lo, s_hi in ranges):
        raise DomainError("adaptive_trace: empty parameter range")
    per_group = max(1, _GROUP_SAMPLES // budget)
    for first in range(0, len(lines), per_group):
        group = slice(first, first + per_group)
        yield from _trace_group(lines[group], ranges[group], box_r, budget, h_max)


def _trace_group(lines, ranges, box_r, budget, h_max):
    """The tracer of adaptive_trace, run on a group of lines at once.

    Each line's seed grid and its first bisection test run line by line;
    every later depth evaluates the midpoints of all the group's lines in one
    second_iterate call.  Intervals are kept grouped by line, each line's in
    the order a lone trace of it keeps them, so the budget truncation takes
    the same intervals: a line keeps its first budget - evals needed ones.
    """
    n = len(lines)
    n0 = budget // 3
    skip_exp = math.log(2.0 * box_r) + 1.0
    # the sample store, in evaluation order: the seed grids line by line,
    # then one block of midpoints per depth.  An interval is a pair (lo, hi)
    # of store rows.  The store starts with room for the seeds plus one
    # line's budget and grows on demand (one line never needs to); pages are
    # touched only as samples are written.  `low` marks a second exponent
    # z3 <= skip_exp: z3 is never NaN (+inf after a first-stage overflow), so
    # min(z3[lo], z3[hi]) <= skip_exp is low[lo] | low[hi].
    size = min(n * budget, n * n0 + budget)
    s, f = np.empty(size), np.empty((size, 3))
    low, in_box = np.empty(size, dtype=bool), np.empty(size, dtype=bool)
    status = np.empty(size, dtype=np.int8)

    def store(batch, new_s, new_f, new_z3, new_status):
        new_f[new_status == UNRESOLVABLE] = np.nan
        s[batch], f[batch], status[batch] = new_s, new_f, new_status
        low[batch] = new_z3 <= skip_exp
        in_box[batch] = (new_status == OK) & np.all(np.abs(new_f) <= box_r, axis=-1)

    def needs_split(lo, hi):
        with np.errstate(over="ignore"):
            gap = np.linalg.norm(f.take(lo, axis=0) - f.take(hi, axis=0), axis=-1)
        left, right = s[lo], s[hi]
        width_ok = (right - left) > 8.0 * np.spacing(np.maximum(np.abs(left), np.abs(right)))
        return (
            (in_box[lo] | in_box[hi])
            & ~(gap <= h_max)  # a NaN gap counts as too wide
            & (low[lo] | low[hi])
            & width_ok
        )

    # depth 0, line by line: the seed grid and the intervals it splits
    split = []
    for k, (line, (s_lo, s_hi)) in enumerate(zip(lines, ranges)):
        seed_s = np.linspace(s_lo, s_hi, n0)
        batch = slice(k * n0, (k + 1) * n0)
        new_f, new_z3, new_status = second_iterate(line.point_at(seed_s))
        store(batch, seed_s, new_f, new_z3, new_status)
        lo = np.arange(k * n0, (k + 1) * n0 - 1)
        # n0 - 1 < budget - n0 seed intervals: the budget never binds here
        split.append(lo[np.flatnonzero(needs_split(lo, lo + 1))])
    lo = np.concatenate(split)
    hi = lo + 1
    counts = np.array([len(c) for c in split])
    evals = np.full(n, n0)
    runs = [[(k * n0, (k + 1) * n0)] for k in range(n)]  # each line's store rows
    total = n * n0
    p = np.array([line.p for line in lines], dtype=float)
    d = np.array([line.direction() for line in lines])

    for depth in range(1, MAX_DEPTH + 1):
        if len(lo) == 0:
            break
        if total + len(lo) > len(s):
            size = min(n * budget, max(total + len(lo), 2 * len(s)))
            s, f, low, in_box, status = (_grown(a, total, size) for a in (s, f, low, in_box, status))
        edges = [0, *np.cumsum(counts).tolist()]
        spans = list(zip(edges, edges[1:]))  # line k splits lo[a:b], hi[a:b]
        new_s = 0.5 * (s[lo] + s[hi])
        mid = np.arange(total, total + len(lo))
        x = np.empty((len(lo), 3))
        for k, (a, b) in enumerate(spans):
            if b > a:
                # lines[k].point_at(new_s[a:b]), bit for bit
                np.add(p[k], np.multiply.outer(new_s[a:b], d[k]), out=x[a:b])
                runs[k].append((total + a, total + b))
        evals += counts
        # children replace their parents line by line, left halves first; a
        # line that spends its budget at this depth is done
        spans = [(a, b) if evals[k] < budget else (a, a) for k, (a, b) in enumerate(spans)]
        lo = np.concatenate([c for a, b in spans for c in (lo[a:b], mid[a:b])])
        hi = np.concatenate([c for a, b in spans for c in (mid[a:b], hi[a:b])])
        # the kernel's outputs stay bound until the next depth: freed at once,
        # the allocator returned the heap top and each depth faulted the
        # kernel's temporaries in again (+30% page faults on a 10^6 trace)
        batch = slice(total, total + len(mid))
        new_f, new_z3, new_status = second_iterate(x)
        store(batch, new_s, new_f, new_z3, new_status)
        total += len(mid)
        if depth == MAX_DEPTH:
            break
        idx = np.flatnonzero(needs_split(lo, hi))
        # the needed children of line k are idx[cut[k]:cut[k+1]]
        cut = np.searchsorted(idx, np.cumsum([0] + [2 * (b - a) for a, b in spans]))
        counts = np.minimum(np.diff(cut), budget - evals)
        if np.any(counts < np.diff(cut)):
            idx = np.concatenate([idx[c : c + m] for c, m in zip(cut, counts)])
        lo, hi = lo[idx], hi[idx]

    for k in range(n):
        rows = _rows(runs[k])
        yield _finish(s[rows], f[rows], in_box[rows], status[rows], h_max)


def _grown(a: np.ndarray, used: int, size: int) -> np.ndarray:
    """A copy of a's first `used` rows with room for `size` rows."""
    out = np.empty((size, *a.shape[1:]), dtype=a.dtype)
    out[:used] = a[:used]
    return out


def _rows(runs):
    """Store rows of (start, stop) runs in order: a slice when they join up."""
    if all(stop == start for (_, stop), (start, _) in zip(runs, runs[1:])):
        return slice(runs[0][0], runs[-1][1])
    return np.concatenate([np.arange(a, b) for a, b in runs])


def _finish(s, f, in_box, status, h_max) -> TraceResult:
    """The TraceResult of one line's samples, given in evaluation order."""
    order = np.argsort(s, kind="stable")
    order = order[np.all(np.isfinite(f), axis=-1)[order]]
    s_kept, f_kept, box_kept = s[order], f.take(order, axis=0), in_box[order]
    counts = np.bincount(status, minlength=4)

    both = box_kept[:-1] & box_kept[1:]
    with np.errstate(over="ignore"):
        pair_gap = np.linalg.norm(f_kept[:-1] - f_kept[1:], axis=-1)
    cap_hits = int(np.count_nonzero(both & (pair_gap > h_max * (1 + 1e-9))))

    audit = TraceAudit(
        evals=len(s),
        dropped_overflow=int(counts[OVERFLOW_FIRST] + counts[OVERFLOW_SECOND]),
        dropped_unresolvable=int(counts[UNRESOLVABLE]),
        in_box_points=int(np.count_nonzero(box_kept)),
        pairs_in_box=int(np.count_nonzero(both)),
        cap_hits=cap_hits,
    )
    return TraceResult(s=s_kept, points=f_kept, in_box=box_kept, audit=audit)


# ---------------------------------------------------------------------------
# voxel occupancy


class VoxelGrid:
    """Occupancy grid over [-half_extent, half_extent]^3 with exclusions.

    Voxels within one voxel diagonal of the origin or of the unit sphere
    do not count toward coverage: the diagonal is the grid-resolution
    stand-in for a measure-zero set.
    """

    def __init__(self, half_extent: float = COVERAGE_BOX, n: int = COVERAGE_GRID_N):
        if n < 2 or half_extent <= 0:
            raise DomainError("VoxelGrid: need n >= 2 and a positive extent")
        self.half_extent = float(half_extent)
        self.n = int(n)
        self.voxel = 2.0 * self.half_extent / self.n
        self.occupancy = np.zeros((self.n,) * 3, dtype=bool)
        self.excluded = self._exclusion_mask()

    def _exclusion_mask(self) -> np.ndarray:
        edges = -self.half_extent + self.voxel * np.arange(self.n)
        lo = np.stack(np.meshgrid(edges, edges, edges, indexing="ij"), axis=-1)
        hi = lo + self.voxel
        nearest = np.clip(0.0, lo, hi)
        dmin = np.linalg.norm(nearest, axis=-1)
        dmax = np.linalg.norm(np.maximum(np.abs(lo), np.abs(hi)), axis=-1)
        diag = self.voxel * math.sqrt(3.0)
        ball = dmin <= diag
        shell = (dmin < 1.0 + diag) & (dmax > 1.0 - diag)
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
              s_range: tuple[float, float] | None = None) -> HitResult:
    """Trace the line against the box around the ball and look for a hit.

    The trace step bound is the ball radius.
    """
    box_r = ball.center_norm + ball.radius
    return _hit(adaptive_trace(line, box_r, budget, ball.radius, s_range=s_range), ball)


def _hit(trace: TraceResult, ball: BallSpec) -> HitResult:
    """The trace point nearest the ball centre, a hit when inside the ball."""
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
) -> list[DensityRung]:
    """Hit fractions over a shrinking ladder of patch sizes.

    For each rung delta, delta/2, ... a grid_n x grid_n grid of crossings in
    E_delta is traced against the ball, as hits_ball would trace each line
    but in groups of lines; invalid crossings (the measure-zero exclusions)
    are skipped and counted, and the patch is rejected as degenerate when
    they exceed MAX_SKIP_FRACTION of the grid.
    """
    if grid_n < 2 or rungs < 1:
        raise DomainError("epsilon_density: need grid_n >= 2 and rungs >= 1")
    box_r = ball.center_norm + ball.radius
    out = []
    for r in range(rungs):
        delta = patch.delta / 2.0**r
        crossings = patch_grid(patch, delta, grid_n)
        valid_pts = [a for a in crossings if y_point_valid(a)]
        skipped = len(crossings) - len(valid_pts)
        if skipped > MAX_SKIP_FRACTION * grid_n * grid_n:
            raise DegenerateError(
                f"epsilon_density: {skipped} of {grid_n * grid_n} crossings hit the exclusions"
            )
        lines = [LineSpec(a, tuple(p)) for a in valid_pts]
        traces = _trace_lines(lines, box_r, budget_per_line, ball.radius)
        hits = sum(_hit(trace, ball).hit for trace in traces)
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


def random_valid_line(rng: np.random.Generator) -> LineSpec:
    """Pseudorandom valid line through the origin, away from the excluded planes.

    u2 is uniform over +-(0.05, 0.95) and u3 over (0.8e-4, 1.8e-4).  Shallow
    slopes pack many wall crossings of the first-stage image into the
    exponent window that stays within float phase resolution, which is what
    drives voxel coverage at a fixed evaluation budget (pilot calibrated).
    """
    u2 = float(rng.uniform(0.05, 0.95)) * (1.0 if rng.random() < 0.5 else -1.0)
    u3 = float(rng.uniform(0.8e-4, 1.8e-4))
    return LineSpec(YPoint("+x1", u2, u3))


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
) -> list[CoverageRun]:
    """Trace each line and mark a fresh grid per line; returns per-line runs."""
    if h_max is None:
        h_max = 2.0 * box_r / grid_n
    runs = []
    for line in lines:
        trace = adaptive_trace(line, box_r, budget, h_max)
        grid = VoxelGrid(box_r, grid_n)
        series = mark_and_coverage(grid, trace.points)
        runs.append(
            CoverageRun(line=line, series=series, audit=trace.audit, coverage=grid.coverage())
        )
    return runs
