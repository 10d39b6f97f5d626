"""Experiments on second-iterate images of lines: tracing, coverage, density.

A line through the base point P is parametrized by its crossing of the unit
wall Y (the boundary of the semi-infinite square beam P + {M(x1, x2) = 1,
x3 > 0}).  Valid crossings exclude the coordinate and diagonal planes, where
the second-iterate image is confined to a plane, a sphere or a bounded set.

The tracer samples the second iterate adaptively: a parameter interval is
bisected while its image endpoints are further apart than a step bound and
at least one endpoint lies in the target box.  The lines of a density rung
are traced together, in groups of at most _GROUP_SAMPLES = 2^19 samples of
budget (26 lines at a 20k budget).  A depth's midpoints of the whole group
are evaluated together, and the group's store is filled in evaluation order,
so a line's samples are runs of it: its trace is bit-identical to tracing it
alone.  numpy advises huge pages for arrays of 4 MiB or more, and the store
commits the pages of the samples the group takes, not of its whole budget.

The tracer works in fixed blocks of _BLOCK = 2^14 points: each kernel call,
each pass of the split test, each step of the final walk and each voxel mark
take at most one block.  Every step is elementwise, so the blocks change no
output bit; they bound the working set beside the store.  A kernel block is
built as (3, m) coordinate rows and passed as their transpose, so the kernel
works on contiguous rows; a store row is s, f and one flag byte (status and
_IN_BOX).  The kernel's and the split test's blocks run on the calling
thread and one worker (_blocks), each writing only its own rows.  Each line
leaves the tracer as a _Walk (views of a lone line's store, or a group's
store and a row index of its runs), walked once on one thread.  Its sorted
blocks (s, points, in_box) of kept rows are its one exit: the trace command
writes their in-box points, mark_and_coverage marks a grid from them and
_finish joins them; hits_ball keeps the point nearest a ball from its
unsorted rows.  A line is traced only if one seed step moves each coordinate
its direction moves: a line the float grid cannot resolve raises DomainError.

Everything is deterministic for fixed inputs; traces from one run can be
marked into occupancy grids in any chunking (marking is idempotent).
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateError, DomainError
from .zorich import (
    FACE_AXIS,
    OK,
    OVERFLOW_FIRST,
    OVERFLOW_SECOND,
    PHASE_CAP,
    UNRESOLVABLE,
    _norm3,
    _phase_ok,
    second_iterate,
)

Y_FACES = tuple(FACE_AXIS)

_CHECKPOINT_BASE = 1000
# last index of the ball base: past it the schedule radius 2^-ceil(n^(1/3)) is
# at most 2^-53, below the float spacing at 1 (and dyadic stage 4 has 135M centres)
MAX_BALL_N = 52**3
_GROUP_SAMPLES = 1 << 19  # combined budget of the lines one group traces together
_BLOCK = 1 << 14  # points or intervals per kernel call, test, gather and mark
# first-stage x3 window of a traced line: exp(27) ~ 5e11 < zorich.PHASE_CAP
X3_WINDOW = (-1.0, 27.0)
MAX_DEPTH = 48  # bisection depths of adaptive_trace
MAX_SKIP_FRACTION = 0.05  # excluded crossings a density patch may contain
MIN_BUDGET = 1000  # least evaluation budget of a trace
MIN_GRID_N = 2  # least crossings per side of a density patch grid
_IN_BOX = np.int8(4)  # a store row's in-box bit beside its status (bits 0-1)

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
        sign, axis = FACE_AXIS[self.face]
        out = np.array([self.u2, self.u2, self.u3], dtype=float)
        out[axis] = sign
        return out


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
        with np.errstate(over="ignore"):
            q = np.linalg.norm(self.center)
        if not np.isfinite(q):
            raise DomainError("BallSpec: |center|^2 must be a finite float")
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


def _stage_balls(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Centres of dyadic stage k (step 2^-k over [-2^k, 2^k]^3, filtered) and their norms."""
    coords = np.arange(-(4**k), 4**k + 1, dtype=float) * 2.0**-k
    q = np.stack(np.meshgrid(coords, coords, coords, indexing="ij"), axis=-1).reshape(-1, 3)
    norm = _norm3(q)
    keep = (norm > 0.0) & (np.abs(norm - 1.0) > 2.0**-k)
    return q[keep], norm[keep]


def base_prefix(n: int) -> tuple[np.ndarray, np.ndarray]:
    """First n balls of the enumeration as (centers, radii) arrays, n <= MAX_BALL_N.

    Radii combine the schedule bound 2^-ceil(index^(1/3)) with the clearance
    to the origin and to the unit sphere, then take a running minimum so the
    sequence is nonincreasing.
    """
    if n < 1:
        raise DomainError("base_prefix: need n >= 1")
    if n > MAX_BALL_N:
        raise DomainError(f"base_prefix: need n <= {MAX_BALL_N}; past it radii are below 2^-52")
    stages = [_stage_balls(0)]
    while sum(len(q) for q, _ in stages) < n:
        stages.append(_stage_balls(len(stages)))
    centers, norm = (np.concatenate(part)[:n] for part in zip(*stages))
    sched = np.exp2(-np.ceil(np.cbrt(np.arange(1, n + 1))))
    clearance = np.minimum(norm / 2.0, np.abs(norm - 1.0) / 2.0)
    return centers, np.minimum.accumulate(np.minimum(sched, clearance))


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
) -> TraceResult:
    """Trace the second-iterate image of the line over the target box.

    Seeds a uniform parameter grid of budget // 3 points, then repeatedly
    bisects intervals whose image endpoints are more than h_max apart and
    touch the box.  Stops at the evaluation budget or after MAX_DEPTH
    bisections; overflow samples are dropped and counted, never fatal.
    """
    (walk,) = _trace_lines([line], box_r, budget, h_max)
    return _finish(walk)


def _row_type(rows: int):
    """The index type of rows below `rows`: int32 when they fit, else intp."""
    return np.int32 if rows < 2**31 else np.intp


def _flags(status, in_box):
    """The store's flag byte of each row: status | _IN_BOX if in_box."""
    return status.astype(np.int8) | in_box * _IN_BOX


class _Walk:
    """One line's samples, given in evaluation order and walked once.

    The store is (s, f, flags), flags from _flags.  The samples are its rows,
    or its rows[0], rows[1], ... given a row index (a grouped line's walk,
    which shares its group's store).  iter(walk) gathers them once, sorts them
    by s and returns their blocks: (s, points, in_box) of the OK rows of each
    _BLOCK of sorted samples; exhausted, the walk holds `audit`.  scan() yields
    (s, points) of the OK samples of each _BLOCK of them in evaluation order:
    no sort and no audit.  Either lets go of the store as it starts, so a
    walked walk keeps no group's store alive.
    """

    def __init__(self, s, f, flags, h_max, rows=None):
        self._store, self._rows, self._h_max = (s, f, flags), rows, h_max
        self.evals, self.audit = len(s if rows is None else rows), None

    def __iter__(self):
        (s, f, flags), rows = self._store, self._rows
        self._store = self._rows = None
        if rows is not None:
            s, f, flags = s[rows], f.take(rows, axis=0), flags[rows]
        # the sort order in 4-byte row indices when they fit
        order = np.argsort(s, kind="stable").astype(_row_type(len(s)))
        return self._sorted_blocks(s, f, flags, order, np.bincount(flags & 3, minlength=4))

    def _sorted_blocks(self, s, f, flags, order, counts):
        pairs_in_box = cap_hits = 0
        carry = np.empty(0, dtype=np.intp)  # the last kept store row of the blocks before
        for c in range(0, len(s), _BLOCK):
            block = order[c : c + _BLOCK].astype(np.intp)
            # the carried row, then this block's OK rows (the store's finite rows)
            block = np.concatenate([carry, block[flags[block] & 3 == OK]])
            points, box, n = f.take(block, axis=0), flags[block] & _IN_BOX != 0, len(carry)
            yield s[block[n:]], points[n:], box[n:]
            # the kept pairs (i, i + 1) whose i + 1 this block gathered
            both = box[:-1] & box[1:]
            with np.errstate(over="ignore"):
                pair_gap = _norm3(points[:-1] - points[1:])
            pairs_in_box += int(np.count_nonzero(both))
            cap_hits += int(np.count_nonzero(both & (pair_gap > self._h_max * (1 + 1e-9))))
            carry = block[-1:]
        dropped = int(counts[OVERFLOW_FIRST] + counts[OVERFLOW_SECOND]), int(counts[UNRESOLVABLE])
        in_box_points = int(np.count_nonzero(flags & _IN_BOX))  # set only at OK rows
        self.audit = TraceAudit(len(s), *dropped, in_box_points, pairs_in_box, cap_hits)

    def scan(self):
        (s, f, flags), rows = self._store, self._rows
        self._store = self._rows = None
        for c in range(0, self.evals, _BLOCK):
            if rows is None:
                ok = np.flatnonzero(flags[c : c + _BLOCK] & 3 == OK) + c
            else:  # intp row indices: each is used three times, and a gather casts int32 ones
                block = rows[c : c + _BLOCK].astype(np.intp)
                ok = block[flags[block] & 3 == OK]
            yield s[ok], f.take(ok, axis=0)


def _finish(walk: _Walk) -> TraceResult:
    """The TraceResult of a walk: its blocks joined, once the walk has let go of its store."""
    s, points, in_box = (np.concatenate(c) for c in zip(*walk))
    return TraceResult(s, points, in_box, walk.audit)


def _trace_lines(lines, box_r: float, budget: int, h_max: float):
    """The _Walk of each line over its default_s_range, in input order.

    Lines are traced together in groups of at most _GROUP_SAMPLES // budget
    lines (a larger budget traces alone); every walk is bit-identical to
    tracing its line alone.
    """
    if budget < MIN_BUDGET:
        raise DomainError(f"adaptive_trace: budget must be >= {MIN_BUDGET}")
    if not (h_max > 0.0 and box_r > 0.0):
        raise DomainError("adaptive_trace: box_r and h_max must be positive")
    ranges = [default_s_range(line) for line in lines]
    if not all(s_lo < s_hi for s_lo, s_hi in ranges):
        raise DomainError("adaptive_trace: empty parameter range")
    for line, (s_lo, s_hi) in zip(lines, ranges):
        with np.errstate(over="ignore"):  # an infinite coordinate is past the cap below
            # the window's start, one seed step on and its end
            x, y, end = line.point_at([s_lo, s_lo + (s_hi - s_lo) / (budget // 3 - 1), s_hi])
        if np.any((x == y) & (line.direction() != 0.0)):
            raise DomainError(f"adaptive_trace: one seed step over s in [{s_lo:g}, {s_hi:g}] "
                              "leaves a coordinate of the line unresolved")
        # max(|x1|, |x2|) is convex along the window, so its ends bound it
        if not _phase_ok(np.array([x, end])).all():
            raise DomainError(f"adaptive_trace: a first-stage phase over s in [{s_lo:g}, "
                              f"{s_hi:g}] is past PHASE_CAP = {PHASE_CAP:g}")
    per_group = max(1, _GROUP_SAMPLES // budget)
    for first in range(0, len(lines), per_group):
        group = slice(first, first + per_group)
        yield from _trace_group(lines[group], ranges[group], box_r, budget, h_max)


def _cpus() -> int:
    """The CPUs this process may run on (all of them where the OS cannot say)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _blocks(fn, n: int) -> None:
    """Call fn(c) for each block start c in range(0, n, _BLOCK), on this thread and one worker.

    Both threads take starts from one iterator, so fn(c) may write only what
    block c owns.  One block, or a process allowed one CPU, runs inline.  The
    worker runs in a copy of the caller's context, so a caller's np.errstate
    holds in it too.  After an exception in either thread the other takes no
    further block; the worker is joined before this returns or raises.
    """
    starts = iter(range(0, n, _BLOCK))
    if n <= _BLOCK or _cpus() < 2:
        for c in starts:
            fn(c)
        return
    take, failed = threading.Lock(), []

    def drain():
        try:
            while not failed:
                with take:
                    c = next(starts, None)
                if c is None:
                    return
                fn(c)
        except BaseException as exc:  # raised again below, in the calling thread
            failed.append(exc)

    worker = threading.Thread(target=contextvars.copy_context().run, args=(drain,))
    worker.start()
    drain()
    worker.join()
    if failed:
        raise failed[0]


def _trace_group(lines, ranges, box_r, budget, h_max):
    """The tracer of adaptive_trace, run on a group of lines at once.

    Each line's seed grid and its first bisection test run line by line;
    every later depth evaluates the midpoints of all the group's lines
    together, one _BLOCK of points per second_iterate call.  Intervals are
    kept grouped by line, each line's in the order a lone trace of it keeps
    them, so the budget truncation takes the same intervals: a line keeps its
    first budget - evals needed ones.  A depth is a fixed number of array
    operations on the intervals and the per-line interval counts.  Each
    depth's (first row, counts) is recorded: a grouped line's walk reads the
    group's store through the row index of its runs that they give.  A lone
    line's walk is views of the store.
    """
    n = len(lines)
    n0 = budget // 3
    # the sample store, filled in evaluation order (the lines' seed grids, then
    # each depth's midpoints, line by line), so the pages it touches follow the
    # samples taken.  An interval is a pair (lo, hi) of store rows.  A row is s,
    # f and one flag byte (_flags).  A block is evaluated as the transpose of a
    # (3, m) block of points, so the kernel and the flags work on contiguous
    # coordinate rows; f is stored as rows.
    s, f, flags = np.empty(n * budget), np.empty((n * budget, 3)), np.empty(n * budget, np.int8)
    p = np.array([line.p for line in lines], dtype=float).T  # line k's is column k
    d = np.array([line.direction() for line in lines]).T
    row_type = _row_type(n * budget)  # of the interval ends lo, hi and the midpoints' rows
    ids = np.arange(n, dtype=np.int16 if n <= 2**15 else row_type)  # line indices, 2 bytes if they fit

    def evaluate(new_s, top, line):
        """Evaluate new_s into store rows top, top + 1, ..., one _BLOCK at a time (see
        _blocks); new_s[i] is a parameter of line line[i], or of line `line` if an int."""

        def block(c):
            e = min(c + _BLOCK, len(new_s))
            # the lines' point_at(new_s[c:e]) as coordinate rows, bit for bit
            if np.ndim(line):
                k = line[c:e].astype(np.intp)
                x, pk = d.take(k, axis=1), p.take(k, axis=1)
                np.multiply(x, new_s[c:e], out=x)
            else:
                x, pk = np.multiply(d[:, line, None], new_s[c:e]), p[:, line, None]
            np.add(x, pk, out=x)
            new_f, _, new_status = second_iterate(x.T)
            rows_f = new_f.T
            rows_f[:, new_status == UNRESOLVABLE] = np.nan
            near = np.abs(rows_f) <= box_r
            rows = slice(top + c, top + e)
            s[rows], f[rows] = new_s[c:e], new_f
            flags[rows] = _flags(new_status, (new_status == OK) & near[0] & near[1] & near[2])

        _blocks(block, len(new_s))

    def needs_split(lo, hi):
        """Whether to bisect each interval (lo[i], hi[i]), one _BLOCK of them at a time."""
        need = np.empty(len(lo), dtype=bool)

        def block(c):
            # intp row indices: each is used three times, and a gather casts int32 ones
            a, b = lo[c : c + _BLOCK].astype(np.intp), hi[c : c + _BLOCK].astype(np.intp)
            with np.errstate(over="ignore"):
                gap = _norm3(f.take(a, axis=0) - f.take(b, axis=0))
            left, right = s[a], s[b]
            width_ok = (right - left) > 8.0 * np.spacing(np.maximum(np.abs(left), np.abs(right)))
            need[c : c + _BLOCK] = (
                ((flags[a] | flags[b]) & _IN_BOX != 0)  # an end in the box
                & ~(gap <= h_max)  # a NaN gap counts as too wide
                & width_ok
            )

        _blocks(block, len(lo))
        return need

    # depth 0, line by line: the seed grid and the intervals it splits; its
    # n0 - 1 < budget - n0 intervals leave the budget unbound
    split = []
    for k, (s_lo, s_hi) in enumerate(ranges):
        evaluate(np.linspace(s_lo, s_hi, n0), k * n0, k)
        lo = np.arange(k * n0, (k + 1) * n0 - 1, dtype=row_type)
        split.append(lo[np.flatnonzero(needs_split(lo, lo + 1))])
    lo = np.concatenate(split)
    hi = lo + 1
    counts = np.array([len(c) for c in split])  # the intervals line k splits
    evals, top = np.full(n, n0), n * n0  # samples line k has taken; the first free row
    history = []  # (first row, counts) of each depth's midpoints

    for depth in range(1, MAX_DEPTH + 1):
        if len(lo) == 0:
            break
        history.append((top, counts))
        new_s = 0.5 * (s[lo] + s[hi])
        mid = np.arange(top, top + len(lo), dtype=row_type)
        evaluate(new_s, top, 0 if n == 1 else np.repeat(ids, counts))  # a lone line: no ids
        evals += counts
        top += len(new_s)
        room = budget - evals
        if depth == MAX_DEPTH or not room.any():
            break
        # children replace their parents line by line, left halves first; a
        # line that spends its budget at this depth is done
        if n == 1:
            lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        else:
            if counts[room == 0].any():
                keep = np.repeat(room > 0, counts)
                lo, hi, mid = lo[keep], hi[keep], mid[keep]
                counts = np.where(room > 0, counts, 0)
            # line k's interval i has its left child at i + first[k], its right child counts[k] on
            first = np.cumsum(counts) - counts
            left = np.repeat(first, counts) + np.arange(len(lo))
            right = np.repeat(counts, counts) + left
            lo2, hi2 = np.empty((2, 2 * len(lo)), row_type)
            lo2[left], lo2[right], hi2[left], hi2[right] = lo, mid, mid, hi
            lo, hi = lo2, hi2
        idx = np.flatnonzero(needs_split(lo, hi))
        # line k's needed children are idx[end[k] - needed[k]:end[k]]; it keeps its first room[k]
        end = np.searchsorted(idx, np.cumsum(2 * counts))
        needed = np.diff(end, prepend=0)
        counts = np.minimum(needed, room)
        if n == 1:
            idx = idx[: counts[0]]
        elif np.any(counts < needed):
            rank = np.arange(len(idx)) - np.repeat(end - needed, needed)
            idx = idx[rank < np.repeat(counts, needed)]
        lo, hi = lo[idx], hi[idx]

    if n == 1:  # a lone line's runs are adjacent
        yield _Walk(s[:top], f[:top], flags[:top], h_max)
        return
    # line k's runs: size[:, k] rows of its seed grid, then of each depth's
    # midpoints, each from its start less the line's samples before it (shift)
    tops, sizes = zip((0, np.full(n, n0)), *history)
    size = np.array(sizes)
    start = np.array(tops)[:, None] + np.cumsum(size, axis=1) - size
    shift = (start - (np.cumsum(size, axis=0) - size)).astype(row_type)
    for k in range(n):
        rows = np.repeat(shift[:, k], size[:, k]) + np.arange(evals[k], dtype=row_type)
        yield _Walk(s, f, flags, h_max, rows)


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
        if not math.isfinite(self.voxel):
            raise DomainError("VoxelGrid: the voxel edge must be a finite float")
        self.occupancy = np.zeros((self.n,) * 3, dtype=bool)
        self.excluded = self._exclusion_mask()

    def _exclusion_mask(self) -> np.ndarray:
        lo = -self.half_extent + self.voxel * np.arange(self.n)  # voxel edges on one axis
        hi = lo + self.voxel

        def radius(c):
            """|(c[i], c[j], c[k])| over the grid, summed in _norm3's order."""
            with np.errstate(over="ignore"):  # an infinite square is a far voxel's
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
        pts = _points(points)
        h = self.half_extent
        x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
        inside = (x >= -h) & (x < h) & (y >= -h) & (y < h) & (z >= -h) & (z < h)
        pts = pts.take(np.flatnonzero(inside), axis=0)
        idx = ((pts + h) / self.voxel).astype(np.int64)
        idx.clip(0, self.n - 1, out=idx)
        # one flat index into the C-ordered grid, not a 3-array fancy index
        flat = (idx[:, 0] * self.n + idx[:, 1]) * self.n + idx[:, 2]
        self.occupancy.reshape(-1)[flat] = True
        return int(np.count_nonzero(inside))

    def coverage(self) -> float:
        active = ~self.excluded
        total = int(np.count_nonzero(active))
        return float(np.count_nonzero(self.occupancy & active)) / total if total else 0.0


def _points(points) -> np.ndarray:
    """points as rows of 3 floats; a non-empty input whose last axis is not 3 raises."""
    pts = np.asarray(points, dtype=float)
    if pts.size and pts.shape[-1:] != (3,):
        raise DomainError(f"points need 3 coordinates, got an array of shape {pts.shape}")
    return pts.reshape(-1, 3)


def mark_and_coverage(grid: VoxelGrid, chunks) -> list[tuple[int, float]]:
    """Mark a stream of point arrays, at most _BLOCK points a mark and none across a
    checkpoint 10^3, 10^4, ...; (points consumed, coverage) at each checkpoint
    and at the end of the stream."""
    series, done, checkpoint = [], 0, _CHECKPOINT_BASE
    for chunk in chunks:
        pts, c = _points(chunk), 0
        while c < len(pts):
            end = min(c + _BLOCK, len(pts), c + checkpoint - done)
            grid.mark(pts[c:end])
            done, c = done + end - c, end
            if done == checkpoint:
                series.append((done, grid.coverage()))
                checkpoint *= 10
    if not series or series[-1][0] != done:
        series.append((done, grid.coverage()))
    return series


# ---------------------------------------------------------------------------
# ball hitting and the density experiment


@dataclass(frozen=True)
class HitResult:
    hit: bool
    witness_param: float | None
    min_distance: float
    evals: int


def hits_ball(walk: _Walk, ball: BallSpec) -> HitResult:
    """The kept point nearest the ball centre, a hit when inside the ball.  The scan
    reads the walk's rows unsorted: the distance is an exact minimum and the witness
    the least s among the nearest points, so neither depends on the rows' order."""
    best, witness = math.inf, math.inf
    for s, points in walk.scan():
        with np.errstate(over="ignore"):
            dist = _norm3(points - np.asarray(ball.center))
        if len(dist) and (near := dist.min()) <= best:
            least = s[dist == near].min()
            witness, best = least if near < best else min(witness, least), float(near)
    hit = best < ball.radius
    return HitResult(hit, float(witness) if hit else None, best, walk.evals)


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
    E_delta is traced against the ball in groups of lines, and hits_ball
    scans each line's walk; invalid crossings (the measure-zero exclusions)
    are skipped and counted, and the patch is rejected as degenerate when
    they exceed MAX_SKIP_FRACTION of the grid, or unresolved when the deepest
    rung's crossings are not all distinct floats.
    """
    if grid_n < MIN_GRID_N or rungs < 1:
        raise DomainError(f"epsilon_density: need grid_n >= {MIN_GRID_N} and rungs >= 1")
    deepest = patch_grid(patch, math.ldexp(patch.delta, 1 - rungs), grid_n)
    if len(set(deepest)) < len(deepest):
        raise DomainError(f"epsilon_density: rung {rungs - 1} repeats a crossing; use fewer rungs")
    box_r = ball.center_norm + ball.radius
    out = []
    for r in range(rungs):
        delta = math.ldexp(patch.delta, -r)
        crossings = patch_grid(patch, delta, grid_n)
        valid_pts = [a for a in crossings if y_point_valid(a)]
        skipped = len(crossings) - len(valid_pts)
        if skipped > MAX_SKIP_FRACTION * grid_n * grid_n:
            raise DegenerateError(
                f"epsilon_density: {skipped} of {grid_n * grid_n} crossings hit the exclusions"
            )
        lines = [LineSpec(a, tuple(p)) for a in valid_pts]
        walks = _trace_lines(lines, box_r, budget_per_line, ball.radius)
        hits = sum(hits_ball(walk, ball).hit for walk in walks)
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
    """One line of coverage_experiment: its sorted walk marks the grid; no TraceResult is made."""
    grid = VoxelGrid(box_r, grid_n)
    h_max = grid.voxel if h_max is None else h_max
    (walk,) = _trace_lines([line], box_r, budget, h_max)
    series = mark_and_coverage(grid, (points for _, points, _ in walk))
    return CoverageRun(series, walk.audit, grid.coverage(), h_max)
