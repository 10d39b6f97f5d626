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
budget, and a depth's midpoints of the whole group are evaluated together;
each line fills its own fixed region of the group's sample store in its
evaluation order, so its trace is bit-identical to tracing it alone and the
outputs are unchanged.

The tracer works in fixed blocks of _BLOCK points: each kernel call, each
pass of the split test, the final gathers and pair gaps and each voxel mark
take at most one block.  Every step is elementwise, so the blocks change no
output bit; they bound the working set beside the store and the result (a
10^6 trace peaks near 69 MB of arrays, 35 MB of them the store).

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
_BLOCK = 1 << 16  # points or intervals per kernel call, test, gather and mark
# first-stage x3 window of a traced line: exp(27) ~ 5e11 < zorich.PHASE_CAP
X3_WINDOW = (-1.0, 27.0)
MAX_DEPTH = 48  # bisection depths of adaptive_trace
MAX_SKIP_FRACTION = 0.05  # excluded crossings a density patch may contain
MIN_BUDGET = 1000  # least evaluation budget of a trace
MIN_GRID_N = 2  # least crossings per side of a density patch grid

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


def confinement_notes(d) -> list[str]:
    """One note per excluded family that lines of direction d belong to.  The
    horizontal test is exact, d3 == 0.0, while default_s_range gives any line
    with |d3| < 1e-12 its horizontal window; both rules are kept as they are,
    since changing either changes a printed note or a traced window."""
    notes = []
    if d[2] == 0.0:
        notes.append("bounded image: line lies in a horizontal plane, the image stays in a bounded set")
    if d[0] == 0.0 or d[1] == 0.0:
        notes.append("planar image: line lies in a preserved coordinate plane")
    if abs(d[0]) == abs(d[1]) and d[0] != 0.0:
        notes.append("planar image: line lies in a preserved diagonal plane")
    return notes


def y_point_valid(alpha: YPoint) -> bool:
    """Exclusions for line crossings: u3 > 0, |u2| < 1 and no confinement note."""
    return alpha.u3 > 0.0 and abs(alpha.u2) < 1.0 and not confinement_notes(alpha.offset())


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
        if not (np.isfinite(np.concatenate([self.p, self.d], dtype=float)).all() and any(self.d)):
            raise DomainError("LineSpec: need a finite p and a finite, nonzero d")

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


def _norm3(v) -> np.ndarray:
    """np.linalg.norm(v, axis=-1) of 3-vector rows, bit for bit, from the columns.

    The sum runs in the order of numpy's reduction, (x*x + y*y) + z*z, and
    is several times faster than a reduction over the length-3 last axis.
    """
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    return np.sqrt(x * x + y * y + z * z)


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
        norm = _norm3(q)
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
    if budget < MIN_BUDGET:
        raise DomainError(f"adaptive_trace: budget must be >= {MIN_BUDGET}")
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
    every later depth evaluates the midpoints of all the group's lines
    together, one _BLOCK of points per second_iterate call.  Intervals are
    kept grouped by line, each line's in the order a lone trace of it keeps
    them, so the budget truncation takes the same intervals: a line keeps its
    first budget - evals needed ones.
    """
    n = len(lines)
    n0 = budget // 3
    skip_exp = math.log(2.0 * box_r) + 1.0
    # the sample store: line k owns rows [k*budget, (k+1)*budget) and fills
    # them in its evaluation order, its seed grid and then one run of
    # midpoints per depth.  An interval is a pair (lo, hi) of store rows.
    # Pages are touched only as samples are written.  `low` marks a second
    # exponent z3 <= skip_exp: z3 is never NaN (+inf after a first-stage
    # overflow), so min(z3[lo], z3[hi]) <= skip_exp is low[lo] | low[hi].
    s, f = np.empty(n * budget), np.empty((n * budget, 3))
    low, in_box = np.empty(n * budget, dtype=bool), np.empty(n * budget, dtype=bool)
    status = np.empty(n * budget, dtype=np.int8)
    p = np.array([line.p for line in lines], dtype=float)
    d = np.array([line.direction() for line in lines])

    def evaluate(new_s, runs):
        """Evaluate and store the points of new_s, one _BLOCK at a time.

        runs holds (a, b, k, row): line k's parameters new_s[a:b] go to its
        store rows row, row + 1, ...; the runs are disjoint.
        """
        for c in range(0, len(new_s), _BLOCK):
            e = min(c + _BLOCK, len(new_s))
            x = np.empty((e - c, 3))
            writes = []
            for a, b, k, row in runs:
                i, j = max(a, c), min(b, e)
                if i < j:
                    # lines[k].point_at(new_s[i:j]), bit for bit
                    np.add(p[k], np.multiply.outer(new_s[i:j], d[k]), out=x[i - c : j - c])
                    writes.append((slice(row + i - a, row + j - a), slice(i - c, j - c)))
            new_f, new_z3, new_status = second_iterate(x)
            new_f[new_status == UNRESOLVABLE] = np.nan
            new_low = new_z3 <= skip_exp
            near = np.abs(new_f) <= box_r
            new_in_box = (new_status == OK) & near[:, 0] & near[:, 1] & near[:, 2]
            block_s = new_s[c:e]
            for rows, part in writes:
                s[rows], f[rows], status[rows] = block_s[part], new_f[part], new_status[part]
                low[rows], in_box[rows] = new_low[part], new_in_box[part]

    def needs_split(lo, hi):
        """Whether to bisect each interval (lo[i], hi[i]), one _BLOCK of them at a time."""
        need = np.empty(len(lo), dtype=bool)
        for c in range(0, len(lo), _BLOCK):
            a, b = lo[c : c + _BLOCK], hi[c : c + _BLOCK]
            with np.errstate(over="ignore"):
                gap = _norm3(f.take(a, axis=0) - f.take(b, axis=0))
            left, right = s[a], s[b]
            width_ok = (right - left) > 8.0 * np.spacing(np.maximum(np.abs(left), np.abs(right)))
            need[c : c + _BLOCK] = (
                (in_box[a] | in_box[b])
                & ~(gap <= h_max)  # a NaN gap counts as too wide
                & (low[a] | low[b])
                & width_ok
            )
        return need

    # depth 0, line by line: the seed grid and the intervals it splits; its
    # n0 - 1 < budget - n0 intervals leave the budget unbound
    split = []
    for k, (s_lo, s_hi) in enumerate(ranges):
        evaluate(np.linspace(s_lo, s_hi, n0), [(0, n0, k, k * budget)])
        lo = np.arange(k * budget, k * budget + n0 - 1)
        split.append(lo[np.flatnonzero(needs_split(lo, lo + 1))])
    lo = np.concatenate(split)
    hi = lo + 1
    counts = np.array([len(c) for c in split])
    evals = np.full(n, n0)  # rows line k has filled

    for depth in range(1, MAX_DEPTH + 1):
        if len(lo) == 0:
            break
        edges = [0, *np.cumsum(counts).tolist()]
        spans = list(zip(edges, edges[1:]))  # line k splits lo[a:b], hi[a:b]
        new_s = 0.5 * (s[lo] + s[hi])
        mid = np.empty(len(lo), dtype=np.intp)
        runs = []
        for k, (a, b) in enumerate(spans):
            if b > a:
                first = k * budget + evals[k]
                mid[a:b] = np.arange(first, first + b - a)
                runs.append((a, b, k, first))
        evals += counts
        # children replace their parents line by line, left halves first; a
        # line that spends its budget at this depth is done
        spans = [(a, b) if evals[k] < budget else (a, a) for k, (a, b) in enumerate(spans)]
        lo = np.concatenate([c for a, b in spans for c in (lo[a:b], mid[a:b])])
        hi = np.concatenate([c for a, b in spans for c in (mid[a:b], hi[a:b])])
        evaluate(new_s, runs)
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
        rows = slice(k * budget, k * budget + evals[k])
        yield _finish(s[rows], f[rows], in_box[rows], status[rows], h_max)


def _finish(s, f, in_box, status, h_max) -> TraceResult:
    """The TraceResult of one line's samples, given in evaluation order."""
    # the sort order as 4-byte row indices when they fit: the gathers below
    # hold it next to their results
    order = np.argsort(s, kind="stable").astype(np.int32 if len(s) < 2**31 else np.intp)
    counts = np.bincount(status, minlength=4)
    kept = int(counts[OK])
    s_kept, f_kept, box_kept = np.empty(kept), np.empty((kept, 3)), np.empty(kept, dtype=bool)
    done = 0
    for c in range(0, len(s), _BLOCK):
        block = order[c : c + _BLOCK].astype(np.intp)
        block = block[status[block] == OK]  # the store keeps a row finite iff it is OK
        rows = slice(done, done + len(block))
        s_kept[rows], f_kept[rows], box_kept[rows] = s[block], f.take(block, axis=0), in_box[block]
        done += len(block)

    # the pairs (i, i + 1) of kept samples, one _BLOCK of them at a time
    pairs_in_box = cap_hits = 0
    for c in range(0, kept - 1, _BLOCK):
        e = min(c + _BLOCK, kept - 1)
        both = box_kept[c:e] & box_kept[c + 1 : e + 1]
        with np.errstate(over="ignore"):
            pair_gap = _norm3(f_kept[c:e] - f_kept[c + 1 : e + 1])
        pairs_in_box += int(np.count_nonzero(both))
        cap_hits += int(np.count_nonzero(both & (pair_gap > h_max * (1 + 1e-9))))

    audit = TraceAudit(
        evals=len(s),
        dropped_overflow=int(counts[OVERFLOW_FIRST] + counts[OVERFLOW_SECOND]),
        dropped_unresolvable=int(counts[UNRESOLVABLE]),
        in_box_points=int(np.count_nonzero(box_kept)),
        pairs_in_box=pairs_in_box,
        cap_hits=cap_hits,
    )
    return TraceResult(s=s_kept, points=f_kept, in_box=box_kept, audit=audit)


# ---------------------------------------------------------------------------
# voxel occupancy


def voxel_edge(half_extent: float, n: int = COVERAGE_GRID_N) -> float:
    """Voxel edge of an n^3 grid over [-half_extent, half_extent]^3 (the default trace step)."""
    return 2.0 * half_extent / n


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
        self.voxel = voxel_edge(self.half_extent, self.n)
        self.occupancy = np.zeros((self.n,) * 3, dtype=bool)
        self.excluded = self._exclusion_mask()

    def _exclusion_mask(self) -> np.ndarray:
        lo = -self.half_extent + self.voxel * np.arange(self.n)  # voxel edges on one axis
        hi = lo + self.voxel

        def radius(c):
            """|(c[i], c[j], c[k])| over the grid, summed in _norm3's order."""
            sq = c * c
            r = (sq[:, None, None] + sq[None, :, None]) + sq
            return np.sqrt(r, out=r)

        # distance from the origin of each voxel's nearest and farthest point
        dmin = radius(np.clip(0.0, lo, hi))
        dmax = radius(np.maximum(np.abs(lo), np.abs(hi)))
        diag = self.voxel * math.sqrt(3.0)
        ball = dmin <= diag
        shell = (dmin < 1.0 + diag) & (dmax > 1.0 - diag)
        return ball | shell

    def mark(self, points) -> int:
        """Mark voxels containing the given points; returns in-box count."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[0] == 0:
            return 0
        h = self.half_extent
        x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
        inside = (x >= -h) & (x < h) & (y >= -h) & (y < h) & (z >= -h) & (z < h)
        pts = pts.take(np.flatnonzero(inside), axis=0)
        if len(pts):
            idx = ((pts + h) / self.voxel).astype(np.int64)
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
        end = min(checkpoint, len(pts))
        for c in range(consumed, end, _BLOCK):
            grid.mark(pts[c : min(c + _BLOCK, end)])
        consumed = end
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
        dist = _norm3(trace.points - np.asarray(ball.center))
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
    if grid_n < MIN_GRID_N or rungs < 1:
        raise DomainError(f"epsilon_density: need grid_n >= {MIN_GRID_N} and rungs >= 1")
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
    h_max: float  # the trace step


def coverage_experiment(
    lines,
    *,
    box_r: float = COVERAGE_BOX,
    grid_n: int = COVERAGE_GRID_N,
    budget: int = COVERAGE_BUDGET,
    h_max: float | None = None,
) -> list[CoverageRun]:
    """Trace each line and mark a fresh grid per line (h_max defaults to its voxel edge)."""
    return [_coverage_run(line, box_r, grid_n, budget, h_max) for line in lines]


def _coverage_run(line, box_r, grid_n, budget, h_max) -> CoverageRun:
    """One line of coverage_experiment; its trace is freed before the next line is traced."""
    grid = VoxelGrid(box_r, grid_n)
    h_max = grid.voxel if h_max is None else h_max
    trace = adaptive_trace(line, box_r, budget, h_max)
    series = mark_and_coverage(grid, trace.points)
    return CoverageRun(line, series, trace.audit, grid.coverage(), h_max)
