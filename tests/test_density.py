import ast
import importlib
import math
import sys
import threading
import time
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from zorichlab import density, distortion
from zorichlab.density import (
    BallSpec,
    HitResult,
    LineSpec,
    PatchSpec,
    VoxelGrid,
    YPoint,
    adaptive_trace,
    base_prefix,
    base_sequence,
    confinement_notes,
    coverage_experiment,
    default_s_range,
    epsilon_density,
    hits_ball,
    mark_and_coverage,
    patch_grid,
    random_valid_line,
    y_point_valid,
)
from zorichlab.errors import DegenerateError, DomainError
from zorichlab.zorich import (
    OK,
    OVERFLOW_FIRST,
    OVERFLOW_SECOND,
    PHASE_CAP,
    UNRESOLVABLE,
    _norm3,
    second_iterate,
)

PI = math.pi


class TestYPoints:
    def test_valid(self):
        assert y_point_valid(YPoint("+x1", 0.5, 2.0))

    def test_zero_u2_excluded(self):
        assert not y_point_valid(YPoint("+x1", 0.0, 2.0))

    def test_diagonal_excluded(self):
        assert not y_point_valid(YPoint("+x1", 1.0, 2.0))
        assert not y_point_valid(YPoint("+x1", -1.0, 2.0))

    def test_zero_u3_excluded(self):
        assert not y_point_valid(YPoint("+x1", 0.5, 0.0))

    def test_offsets_sit_on_the_wall(self):
        for face in ("+x1", "-x1", "+x2", "-x2"):
            off = YPoint(face, 0.3, 1.2).offset()
            assert max(abs(off[0]), abs(off[1])) == 1.0
            assert off[2] == 1.2

    def test_unknown_face(self):
        with pytest.raises(DomainError):
            YPoint("x3", 0.5, 1.0)

    def test_line_points(self):
        line = LineSpec(YPoint("+x1", 0.5, 1.0), (1.0, 2.0, 3.0))
        np.testing.assert_allclose(line.point_at(0.0), [1.0, 2.0, 3.0])
        np.testing.assert_allclose(line.point_at(1.0), [2.0, 2.5, 4.0])
        assert line.point_at(np.array([0.0, 2.0])).shape == (2, 3)

    @pytest.mark.parametrize(
        "alpha, p, d",
        [
            (None, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
            (None, (0.0, 0.0, 0.0), (-0.0, 0.0, -0.0)),
            (None, (0.0, 0.0, 0.0), (math.nan, 0.0, 1.0)),
            (None, (0.0, 0.0, 0.0), (1.0, math.inf, 0.0)),
            (None, (0.0, math.nan, 0.0), (1.0, 0.4, 0.0)),
            (YPoint("+x1", 0.5, 1.0), (-math.inf, 0.0, 0.0), None),
            (YPoint("+x1", math.nan, 1.0), (0.0, 0.0, 0.0), None),
        ],
    )
    def test_line_must_be_a_line(self, alpha, p, d):
        with pytest.raises(DomainError, match="finite p and a finite, nonzero d"):
            LineSpec(alpha, p, d)


def _parent_confinement_notes(line) -> list[str]:
    """The command line's own copy of the excluded-family notes before
    density owned them, frozen as the oracle of confinement_notes."""
    d = line.direction()
    notes = []
    if d[2] == 0.0:
        notes.append("bounded image: line lies in a horizontal plane, the image stays in a bounded set")
    if d[0] == 0.0 or d[1] == 0.0:
        notes.append("planar image: line lies in a preserved coordinate plane")
    if abs(d[0]) == abs(d[1]) and d[0] != 0.0:
        notes.append("planar image: line lies in a preserved diagonal plane")
    return notes


def _parent_y_point_valid(alpha: YPoint) -> bool:
    """y_point_valid before it was written with confinement_notes, frozen as its oracle."""
    return alpha.u3 > 0.0 and 0.0 < abs(alpha.u2) < 1.0


class TestConfinementNotes:
    @pytest.mark.parametrize("face", density.Y_FACES)
    @pytest.mark.parametrize("u2", [0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 1.5, -1.5])
    @pytest.mark.parametrize("u3", [0.0, 1e-4, -1.0])
    def test_crossings_match_the_oracle(self, face, u2, u3):
        alpha = YPoint(face, u2, u3)
        line = LineSpec(alpha)
        assert confinement_notes(line.d) == _parent_confinement_notes(line)
        assert y_point_valid(alpha) == _parent_y_point_valid(alpha)

    @pytest.mark.parametrize(
        "d, families",
        [
            ((1.0, 0.4, 0.0), ["horizontal"]),
            ((-3.0, 0.2, -0.0), ["horizontal"]),
            ((0.0, 0.7, 1.4e-4), ["coordinate"]),
            ((0.3, -0.0, 1.0), ["coordinate"]),
            ((1.0, 1.0, 0.003), ["diagonal"]),
            ((-2.0, 2.0, -1.0), ["diagonal"]),
            ((1.0, -1.0, 0.0), ["horizontal", "diagonal"]),
            ((0.0, 1.0, 0.0), ["horizontal", "coordinate"]),
            ((0.0, 0.0, 1.0), ["coordinate"]),
            ((0.3, 0.2, 1.0), []),
            ((1.0, 0.4, 1e-13), []),  # default_s_range's horizontal window, but no note
        ],
    )
    def test_directions_match_the_oracle(self, d, families):
        notes = confinement_notes(d)
        assert notes == _parent_confinement_notes(LineSpec(d=d))
        assert [n.split(" plane")[0].split()[-1] for n in notes] == families


class TestBallBase:
    def test_first_ball(self):
        ball = base_sequence(1)
        q = np.linalg.norm(ball.center)
        assert 0.0 < ball.radius < min(q, abs(q - 1.0))

    def test_radii_nonincreasing_and_vanishing(self):
        centers, radii = base_prefix(30000)
        assert np.all(np.diff(radii) <= 0.0)
        assert radii[-1] < 1e-6
        norms = np.linalg.norm(centers, axis=-1)
        assert np.all(norms > 0.0)
        assert np.all(radii < norms)
        assert np.all(np.abs(norms - 1.0) > 0.0)

    def test_prefix_consistency(self):
        c1, r1 = base_prefix(500)
        c2, r2 = base_prefix(1200)
        np.testing.assert_array_equal(c1, c2[:500])
        np.testing.assert_array_equal(r1, r2[:500])

    def test_base_ends_at_max_ball_n(self):
        # past 52^3 the schedule radius 2^-ceil(n^(1/3)) is below the float spacing at 1
        centers, radii = base_prefix(density.MAX_BALL_N)
        assert len(centers) == density.MAX_BALL_N and radii[-1] <= 2.0**-52
        with pytest.raises(DomainError, match=f"need n <= {density.MAX_BALL_N}"):
            base_prefix(density.MAX_BALL_N + 1)

    def test_base_property_on_test_open_set(self):
        # the open ball B((3,0,0), 0.5) must contain some enumerated ball
        centers, radii = base_prefix(40000)
        d = np.linalg.norm(centers - np.array([3.0, 0.0, 0.0]), axis=-1)
        assert np.any(d + radii < 0.5)

    def test_ball_spec_validation(self):
        with pytest.raises(DomainError):
            BallSpec((0.0, 0.0, 0.0), 0.1)
        with pytest.raises(DomainError):
            BallSpec((1.0, 0.0, 0.0), 0.5)
        with pytest.raises(DomainError):
            BallSpec((0.0, 0.0, 2.0), 3.0)
        # |center|^2 overflows (a RuntimeWarning would fail the suite)
        with pytest.raises(DomainError, match="finite"):
            BallSpec((1e160, 0.0, 0.0), 1.0)


class TestVoxelGrid:
    def test_single_point(self):
        grid = VoxelGrid(10.0, 16)
        marked = grid.mark([(3.0, -2.0, 7.0)])
        assert marked == 1
        assert np.count_nonzero(grid.occupancy) == 1

    def test_out_of_box_ignored(self):
        grid = VoxelGrid(10.0, 16)
        assert grid.mark([(11.0, 0.0, 0.0), (0.0, -10.5, 0.0)]) == 0

    def test_empty_list_marks_nothing(self):
        grid = VoxelGrid(10.0, 16)
        assert grid.mark([]) == 0
        assert not grid.occupancy.any()

    def test_exclusions(self):
        grid = VoxelGrid(10.0, 64)
        # origin voxel and a unit-sphere voxel are excluded, a generic one is not
        def voxel_of(p):
            return tuple(((np.asarray(p) + 10.0) / grid.voxel).astype(int))

        assert grid.excluded[voxel_of((0.0, 0.0, 0.0))]
        assert grid.excluded[voxel_of((1.0, 0.0, 0.0))]
        assert not grid.excluded[voxel_of((5.0, 5.0, 5.0))]

    def test_far_box(self):
        # the far edges' squares overflow to inf, which neither mask selects
        # (a RuntimeWarning would fail the suite); an infinite edge is rejected
        assert np.count_nonzero(VoxelGrid(1e200, 4).excluded) == 8  # those at the origin
        with pytest.raises(DomainError, match="voxel edge"):
            VoxelGrid(1e308, 2)

    def test_coverage_of_all_centers(self):
        grid = VoxelGrid(2.0, 8)
        edges = -2.0 + grid.voxel * (np.arange(8) + 0.5)
        centers = np.stack(np.meshgrid(edges, edges, edges, indexing="ij"), -1).reshape(-1, 3)
        grid.mark(centers)
        assert grid.coverage() == 1.0


def meshgrid_exclusion_mask(grid):
    """VoxelGrid._exclusion_mask as first written, from n^3 x 3 meshgrids."""
    edges = -grid.half_extent + grid.voxel * np.arange(grid.n)
    lo = np.stack(np.meshgrid(edges, edges, edges, indexing="ij"), axis=-1)
    hi = lo + grid.voxel
    dmin = np.linalg.norm(np.clip(0.0, lo, hi), axis=-1)
    dmax = np.linalg.norm(np.maximum(np.abs(lo), np.abs(hi)), axis=-1)
    diag = grid.voxel * math.sqrt(3.0)
    return (dmin <= diag) | ((dmin < 1.0 + diag) & (dmax > 1.0 - diag))


def three_index_mark(grid, points):
    """VoxelGrid.mark as first written, with a row reduction and a boolean gather."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    inside = np.all((pts >= -grid.half_extent) & (pts < grid.half_extent), axis=-1)
    pts = pts[inside]
    if len(pts):
        idx = ((pts + grid.half_extent) / grid.voxel).astype(np.int64)
        idx = np.clip(idx, 0, grid.n - 1)
        grid.occupancy[idx[:, 0], idx[:, 1], idx[:, 2]] = True
    return int(np.count_nonzero(inside))


class TestVoxelGridRows:
    @pytest.mark.parametrize("n", [2, 3, 7, 64, 128])
    @pytest.mark.parametrize("half_extent", [0.5, 2.0, 10.0])
    def test_exclusion_mask_is_the_meshgrid_mask(self, half_extent, n):
        grid = VoxelGrid(half_extent, n)
        np.testing.assert_array_equal(grid.excluded, meshgrid_exclusion_mask(grid))

    def test_exclusion_mask_memory(self):
        # one n^3 distance array at a time, not n^3 x 3 meshgrids (40 MB at n = 64)
        VoxelGrid(10.0, 64)
        tracemalloc.start()
        try:
            VoxelGrid(10.0, 64)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("half_extent, n", [(10.0, 16), (2.0, 7), (0.5, 3)])
    def test_mark_on_the_faces(self, half_extent, n):
        h = half_extent
        grid, frozen = VoxelGrid(h, n), VoxelGrid(h, n)
        assert grid.mark([(-h, -h, -h)]) == 1 and grid.occupancy[0, 0, 0]
        assert grid.mark([(h, 0.0, 0.0), (0.0, h, 0.0), (0.0, 0.0, h)]) == 0
        assert np.count_nonzero(grid.occupancy) == 1
        # clouds with coordinates on, just inside and just outside every face
        rng = np.random.default_rng(5)
        face = [-h, h, np.nextafter(-h, 0.0), np.nextafter(h, 0.0), np.nextafter(-h, -np.inf),
                np.nextafter(h, np.inf), 0.0, -0.0, math.nan, math.inf]
        coords = np.where(rng.random((3000, 3)) < 0.5, rng.choice(face, (3000, 3)),
                          rng.uniform(-1.5 * h, 1.5 * h, (3000, 3)))
        grid = VoxelGrid(h, n)
        for chunk in np.array_split(coords, 7):
            assert grid.mark(chunk) == three_index_mark(frozen, chunk)
        np.testing.assert_array_equal(grid.occupancy, frozen.occupancy)

    @pytest.mark.parametrize("half_extent, n", [(10.0, 64), (2.0, 7), (0.5, 2)])
    def test_flat_index_marks_the_corners_as_three_indices_do(self, half_extent, n):
        # every point whose coordinates are -h, the last float below h, h or
        # 0: the first two reach the grid's first and last voxel on each
        # axis, and a coordinate h leaves the point unmarked
        h = half_extent
        face = [-h, math.nextafter(h, 0.0), h, 0.0]
        pts = np.array(np.meshgrid(face, face, face, indexing="ij")).reshape(3, -1).T
        grid, frozen = VoxelGrid(h, n), VoxelGrid(h, n)
        assert grid.mark(pts) == three_index_mark(frozen, pts) == 27
        np.testing.assert_array_equal(grid.occupancy, frozen.occupancy)
        ends = [0, n - 1, n // 2]  # the voxels of -h, nextafter(h, 0) and 0
        marked = {(i, j, k) for i in ends for j in ends for k in ends}
        assert set(zip(*np.nonzero(grid.occupancy))) == marked
        for p in pts:  # one at a time, so that swapped axes would show
            grid.occupancy[:] = frozen.occupancy[:] = False
            assert grid.mark(p) == three_index_mark(frozen, p)
            np.testing.assert_array_equal(grid.occupancy, frozen.occupancy)


def test_density_reduces_rows_by_columns():
    # reductions over the length-3 last axis are several times slower than
    # the same arithmetic on the columns; the tracer, the kernel's inverse
    # branch and the distortion estimator use the columns (zorich._norm3).
    # verify.py is left out: its norms are the checks' own oracles, on
    # 10^3-10^4 rows.
    def last_axis(call):
        axis = [k.value for k in call.keywords if k.arg == "axis"] + call.args[1:2]
        return any(ast.unparse(a) == "-1" for a in axis)

    found = set()
    # zorichlab.zorich names the map; import_module gives the module
    for module in (density, importlib.import_module("zorichlab.zorich"), distortion):
        tree = ast.parse(Path(module.__file__).read_text())
        found |= {
            (module.__name__, ast.unparse(node))
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and ast.unparse(node.func) in ("np.linalg.norm", "np.sum", "np.all", "np.any")
            and last_axis(node)
        }
    # relative_distortion keeps numpy's reduction for images that are not
    # 3-vectors, which no package map has
    assert found == {("zorichlab.distortion", "np.linalg.norm(d, axis=-1)")}


class TestMarkAndCoverage:
    def test_empty_stream(self):
        grid = VoxelGrid(10.0, 16)
        series = mark_and_coverage(grid, [np.empty((0, 3))])
        assert series == [(0, 0.0)]

    def test_empty_list_stream(self):
        # an empty list is an empty stream, not one point with no coordinates
        assert mark_and_coverage(VoxelGrid(10.0, 16), [[]]) == [(0, 0.0)]
        assert mark_and_coverage(VoxelGrid(10.0, 16), []) == [(0, 0.0)]

    @pytest.mark.parametrize("bad", [np.zeros((3, 2)), np.zeros(6), [[1.0, 2.0]], 5.0])
    def test_points_without_three_coordinates_raise(self, bad):
        # not read as other points: six numbers are not two points
        grid = VoxelGrid(10.0, 16)
        with pytest.raises(DomainError, match="3 coordinates"):
            grid.mark(bad)
        with pytest.raises(DomainError, match="3 coordinates"):
            mark_and_coverage(grid, [bad])
        assert not grid.occupancy.any()
        assert grid.mark(np.empty((0, 3))) == 0 and grid.mark([]) == 0
        assert mark_and_coverage(grid, [np.empty((0, 3))]) == mark_and_coverage(grid, [[]]) == \
            [(0, 0.0)]

    def test_single_point_stream(self):
        grid = VoxelGrid(10.0, 16)
        series = mark_and_coverage(grid, [[(5.0, 5.0, 5.0)]])
        assert len(series) == 1
        assert series[0][0] == 1
        assert np.count_nonzero(grid.occupancy) == 1

    def test_checkpoints_and_monotonicity(self):
        rng = np.random.default_rng(71)
        pts = rng.uniform(-9.9, 9.9, size=(25000, 3))
        grid = VoxelGrid(10.0, 32)
        series = mark_and_coverage(grid, [pts])
        consumed = [c for c, _ in series]
        assert consumed == [1000, 10000, 25000]
        cov = [c for _, c in series]
        assert all(b >= a for a, b in zip(cov, cov[1:]))

    def test_chunked_marking_matches_single_pass(self):
        # determinism plus idempotent marking: any chunking of one trace
        # stream yields the same occupancy
        line = LineSpec(YPoint("+x1", 0.37, 0.002))
        trace = adaptive_trace(line, 10.0, 40_000, 0.3125)
        full = VoxelGrid(10.0, 32)
        full.mark(trace.points)
        half1, half2 = VoxelGrid(10.0, 32), VoxelGrid(10.0, 32)
        n = len(trace.points) // 2
        half1.mark(trace.points[:n])
        half2.mark(trace.points[n:])
        np.testing.assert_array_equal(half1.occupancy | half2.occupancy, full.occupancy)

    def test_blocked_marking_is_one_pass_marking(self, monkeypatch):
        # each checkpoint chunk marked in blocks of a small prime gives the
        # series and occupancy of marking each chunk whole
        trace = adaptive_trace(LineSpec(YPoint("+x1", 0.37, 0.002)), 12.0, 40_000, 0.3125)
        pts = trace.points
        assert len(pts) > 10_000
        whole = VoxelGrid(10.0, 32)
        want = []
        for a, b in [(0, 1000), (1000, 10_000), (10_000, len(pts))]:
            whole.mark(pts[a:b])
            want.append((b, whole.coverage()))
        monkeypatch.setattr(density, "_BLOCK", 997)
        grid = VoxelGrid(10.0, 32)
        sizes = []
        mark = grid.mark
        grid.mark = lambda chunk: sizes.append(len(chunk)) or mark(chunk)
        assert mark_and_coverage(grid, [pts]) == want
        np.testing.assert_array_equal(grid.occupancy, whole.occupancy)
        assert max(sizes) == 997 and sum(sizes) == len(pts)


class TestBlocks:
    """density._blocks, the loop of the tracer's kernel and split test over blocks."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        # the threaded path on any host, over 100 blocks of 10
        monkeypatch.setattr(density, "_cpus", lambda: 2)
        monkeypatch.setattr(density, "_BLOCK", 10)

    @staticmethod
    def both_threads(fn):
        """fn, with each thread's first call waiting until the other thread has made one."""
        meet, seen = threading.Barrier(2, timeout=30), set()

        def call(c):
            if threading.get_ident() not in seen:
                seen.add(threading.get_ident())
                meet.wait()
            return fn(c)

        return call

    def test_each_block_once(self):
        # a short switch interval lets the threads interleave almost anywhere
        before, interval = threading.active_count(), sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                starts = []
                density._blocks(self.both_threads(starts.append), 1000)
                assert sorted(starts) == list(range(0, 1000, 10))
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == before

    def test_worker_exception_reaches_the_caller(self):
        before, caller = threading.active_count(), threading.get_ident()

        def fn(c):
            if threading.get_ident() != caller:
                raise ValueError(f"block {c}")

        with pytest.raises(ValueError, match="block"):
            density._blocks(self.both_threads(fn), 1000)
        assert threading.active_count() == before

    def test_caller_exception_stops_the_worker(self):
        before, caller, starts = threading.active_count(), threading.get_ident(), []

        def fn(c):
            if threading.get_ident() == caller:
                raise ValueError(f"block {c}")
            starts.append(c)
            time.sleep(0.001)

        with pytest.raises(ValueError, match="block"):
            density._blocks(self.both_threads(fn), 1000)
        assert threading.active_count() == before
        assert len(starts) < 99  # the worker stopped taking blocks

    def test_caller_errstate_holds_in_both_threads(self):
        seen = {}

        def fn(c):
            seen.setdefault(threading.get_ident(), set()).add(np.geterr()["over"])

        with np.errstate(over="ignore"):
            density._blocks(self.both_threads(fn), 1000)
        assert len(seen) == 2 and all(modes == {"ignore"} for modes in seen.values())

    @pytest.mark.parametrize("cpus, n", [(1, 1000), (2, 10)])
    def test_one_cpu_or_one_block_runs_inline(self, monkeypatch, cpus, n):
        monkeypatch.setattr(density, "_cpus", lambda: cpus)
        threads = []
        density._blocks(lambda c: threads.append(threading.get_ident()), n)
        assert set(threads) == {threading.get_ident()} and len(threads) == len(range(0, n, 10))


class TestAdaptiveTrace:
    def test_memory_is_bounded(self):
        # the store is 33 MB at this budget; the result and block-sized
        # temporaries fit beside it in 85 MB, whole-batch temporaries do not
        line = LineSpec(YPoint("+x1", 0.37, 1.3e-4))
        tracemalloc.start()
        try:
            adaptive_trace(line, 10.0, 1_000_000, 0.3125)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 85 * 10**6

    def test_deterministic(self):
        line = LineSpec(YPoint("+x1", -0.61, 0.004))
        a = adaptive_trace(line, 10.0, 30_000, 0.5)
        b = adaptive_trace(line, 10.0, 30_000, 0.5)
        np.testing.assert_array_equal(a.points, b.points)
        assert a.audit == b.audit

    def test_budget_respected(self):
        line = LineSpec(YPoint("+x1", 0.43, 0.001))
        trace = adaptive_trace(line, 10.0, 25_000, 0.1)
        assert trace.audit.evals <= 25_000

    def test_horizontal_line_image_bounded(self):
        # a line inside the x3 = p3 plane maps into a bounded set
        p3 = 0.4
        line = LineSpec(p=(0.0, 0.0, p3), d=(1.0, 0.3, 0.0))
        trace = adaptive_trace(line, 10.0, 20_000, 0.5)
        bound = math.exp(math.exp(p3))
        with np.errstate(over="ignore"):
            norms = np.linalg.norm(trace.points, axis=-1)
        assert np.all(norms <= bound * (1.0 + 1e-12))

    def test_coordinate_plane_line_confined(self):
        line = LineSpec(p=(0.0, 0.0, 0.0), d=(0.0, 0.7, 0.003))
        trace = adaptive_trace(line, 10.0, 20_000, 0.5)
        assert np.all(trace.points[:, 0] == 0.0)

    def test_diagonal_line_confined(self):
        line = LineSpec(p=(0.0, 0.0, 0.0), d=(1.0, 1.0, 0.003))
        trace = adaptive_trace(line, 10.0, 20_000, 0.5)
        np.testing.assert_array_equal(trace.points[:, 0], trace.points[:, 1])

    def test_gap_audit(self):
        # except at cap hits, consecutive in-box points are within h_max
        line = LineSpec(YPoint("+x1", 0.37, 0.002))
        h_max = 0.4
        trace = adaptive_trace(line, 10.0, 60_000, h_max)
        f, box = trace.points, trace.in_box
        both = box[:-1] & box[1:]
        with np.errstate(over="ignore"):
            gaps = np.linalg.norm(f[:-1] - f[1:], axis=-1)[both]
        violations = int(np.count_nonzero(gaps > h_max * (1 + 1e-9)))
        assert violations == trace.audit.cap_hits
        assert trace.audit.cap_hit_fraction < 0.2

    def test_overflow_points_counted_not_fatal(self):
        line = LineSpec(YPoint("+x1", 0.37, 0.02))
        trace = adaptive_trace(line, 10.0, 20_000, 0.5)
        assert trace.audit.dropped_overflow > 0
        assert np.all(np.isfinite(trace.points))

    def test_s_range_default_for_horizontal(self):
        line = LineSpec(p=(0.0, 0.0, 1.0), d=(1.0, 0.5, 0.0))
        lo, hi = default_s_range(line)
        assert lo < 0 < hi


def nearest_sample(line, ball, window, n):
    """(distance, s) of the finite image, of n evenly spaced s over window,
    nearest the ball centre."""
    s = np.linspace(*window, n)
    f, status = second_iterate(line.point_at(s))
    with np.errstate(over="ignore"):
        d = np.where(status == OK, np.linalg.norm(f - np.asarray(ball.center), axis=-1), np.inf)
    k = int(np.argmin(d))
    return float(d[k]), float(s[k])


def brute_force_hit(line, ball, budget):
    return nearest_sample(line, ball, default_s_range(line), budget)[0] < ball.radius


def trace_and_hit(line, ball, budget):
    """hits_ball on the walk of the line traced alone, against the box around the ball."""
    (walk,) = density._trace_lines([line], ball.center_norm + ball.radius, budget, ball.radius)
    return hits_ball(walk, ball)


class TestHitsBall:
    def test_witness_by_construction(self):
        line = LineSpec(YPoint("+x1", 0.37, 0.21))
        trace = adaptive_trace(line, 6.0, 20_000, 0.2)
        inside = trace.points[trace.in_box]
        norms = np.linalg.norm(inside, axis=-1)
        pick = inside[(norms > 1.6) & (norms < 4.0)][0]
        ball = BallSpec(tuple(pick), 0.1)
        res = trace_and_hit(line, ball, 20_000)
        assert res.hit
        assert res.witness_param is not None
        assert res.min_distance < 0.1

    def test_unreachable_ball_for_horizontal_line(self):
        p3 = 0.0
        line = LineSpec(p=(0.0, 0.0, p3), d=(1.0, 0.4, 0.0))
        # image norms are at most e^(e^0) = e < |q| - delta
        ball = BallSpec((5.0, 0.0, 0.0), 0.5)
        res = trace_and_hit(line, ball, 10_000)
        assert not res.hit
        assert res.min_distance >= 5.0 - 0.5 - math.e

    def test_no_finite_point_is_no_hit(self):
        # every point of this horizontal line overflows at the first stage
        line = LineSpec(p=(0.0, 0.0, 800.0), d=(0.3, 0.2, 0.0))
        res = trace_and_hit(line, base_sequence(1), 1000)
        assert res == HitResult(False, None, math.inf, 333)

    def test_brute_force_never_beats_adaptive(self):
        rng = np.random.default_rng(4242)
        budget = 4000
        brute_only = 0
        hits = 0
        for _ in range(100):
            u2 = float(rng.uniform(0.05, 0.95)) * (1 if rng.random() < 0.5 else -1)
            u3 = float(rng.uniform(0.05, 0.5))
            line = LineSpec(YPoint("+x1", u2, u3))
            q = rng.normal(size=3)
            q *= rng.uniform(1.5, 4.0) / np.linalg.norm(q)
            ball = BallSpec(tuple(q), float(rng.uniform(0.15, 0.45)))
            a = trace_and_hit(line, ball, budget).hit
            b = brute_force_hit(line, ball, 10 * budget)
            hits += a
            brute_only += b and not a
        assert brute_only == 0
        assert hits > 0

    def test_hit_set_open_under_perturbation(self):
        # hit crossings stay hits under 1e-6 parameter nudges.  Openness is a
        # local property and the map's parameter sensitivity grows like
        # exp(exp(x3)), so witnesses are restricted to low exponents
        # (x3 = u3 * s < 4) and the nudged lines are re-searched, sample by
        # sample, near the same witness.
        rng = np.random.default_rng(515)
        ball = base_sequence(1)
        found = 0
        trial = 0
        while found < 10 and trial < 800:
            trial += 1
            u2 = float(rng.uniform(0.1, 0.9)) * (1 if rng.random() < 0.5 else -1)
            u3 = float(rng.uniform(0.1, 0.5))
            line = LineSpec(YPoint("+x1", u2, u3))
            res = trace_and_hit(line, ball, 20_000)
            if not (res.hit and res.min_distance < ball.radius * 0.8
                    and u3 * res.witness_param < 4.0):
                continue
            found += 1
            local = (res.witness_param - 0.5 / u3, res.witness_param + 0.5 / u3)
            for du2, du3 in ((1e-6, 0.0), (-1e-6, 0.0), (0.0, 1e-6), (0.0, -1e-6)):
                nudged = LineSpec(YPoint("+x1", u2 + du2, u3 + du3))
                assert nearest_sample(nudged, ball, local, 20_000)[0] < ball.radius
        assert found == 10


class TestEpsilonDensity:
    def test_fraction_bounds_and_ladder(self):
        ball = base_sequence(1)
        patch = PatchSpec(YPoint("+x1", 0.4, 0.35), 0.04)
        rungs = epsilon_density(patch, ball, grid_n=4, budget_per_line=6000, rungs=2)
        assert len(rungs) == 2
        assert rungs[1].delta == pytest.approx(patch.delta / 2)
        for r in rungs:
            assert 0.0 <= r.fraction <= 1.0
            assert r.valid + r.skipped == 16

    def test_rung_hits_match_hits_ball(self):
        # the rung traces its lines together; each line's hit is the one
        # hits_ball finds on the walk of the line traced alone
        ball = base_sequence(1)
        patch = PatchSpec(YPoint("+x1", 0.4, 0.35), 0.04)
        rungs = epsilon_density(patch, ball, grid_n=4, budget_per_line=6000, rungs=2)
        for r in rungs:
            lines = [LineSpec(a) for a in patch_grid(patch, r.delta, 4) if y_point_valid(a)]
            assert r.valid == len(lines)
            assert r.hits == sum(trace_and_hit(line, ball, 6000).hit for line in lines)
        assert 0 < sum(r.hits for r in rungs) < sum(r.valid for r in rungs)

    def test_degenerate_patch_rejected(self):
        # a binary-fraction grid hitting u2 = 0 exactly trips the skip cap
        patch = PatchSpec(YPoint("+x1", 0.125, 0.5), 0.25)
        ball = base_sequence(1)
        with pytest.raises(DegenerateError):
            epsilon_density(patch, ball, grid_n=2, budget_per_line=6000, rungs=1)

    @pytest.mark.parametrize("rungs", [56, 1100])
    def test_unresolved_deepest_rung_rejected_before_tracing(self, monkeypatch, rungs):
        # at rung 55 the 2 x 2 crossings are one float, and 2.0**1099 overflows
        def no_trace(*args):
            raise AssertionError("a line was traced")

        monkeypatch.setattr(density, "_trace_lines", no_trace)
        patch = PatchSpec(YPoint("+x1", 0.4, 0.35), 0.08)
        with pytest.raises(DomainError, match=f"rung {rungs - 1} repeats a crossing"):
            epsilon_density(patch, base_sequence(1), grid_n=2, budget_per_line=1000, rungs=rungs)

    def test_resolved_ladder_keeps_its_deltas(self, monkeypatch):
        # rung 48's 2 x 2 crossings are still distinct; each delta is delta / 2**r
        monkeypatch.setattr(density, "_trace_lines", lambda *args: iter(()))
        patch = PatchSpec(YPoint("+x1", 0.4, 0.35), 0.08)
        ladder = epsilon_density(patch, base_sequence(1), grid_n=2, budget_per_line=1000, rungs=49)
        assert [r.delta for r in ladder] == [0.08 / 2.0**r for r in range(49)]

    def test_patch_grid_covers_patch(self):
        patch = PatchSpec(YPoint("+x1", 0.3, 0.4), 0.05)
        pts = patch_grid(patch, 0.05, 6)
        assert len(pts) == 36
        for alpha in pts:
            assert abs(alpha.u2 - 0.3) < 0.05
            assert abs(alpha.u3 - 0.4) < 0.05

    def test_patch_validation(self):
        with pytest.raises(DomainError):
            PatchSpec(YPoint("+x1", 0.95, 0.5), 0.1)
        with pytest.raises(DomainError):
            PatchSpec(YPoint("+x1", 0.2, 0.05), 0.1)


class TestCoverageExperiment:
    def test_series_and_sampler(self):
        rng = np.random.default_rng(99)
        lines = [random_valid_line(rng)]
        assert y_point_valid(lines[0].alpha)
        runs = coverage_experiment(lines, budget=50_000)
        assert len(runs) == 1
        cov = [c for _, c in runs[0].series]
        assert all(b >= a for a, b in zip(cov, cov[1:]))
        assert 0.0 <= runs[0].coverage <= 1.0

    def test_lines_are_traced_one_at_a_time(self, monkeypatch):
        # a line's store (9.9 MB here) is freed before the next line is
        # traced: each line starts and ends holding what the run started
        # with, so two lines peak where one does, give or take how two
        # threads' block temporaries happen to overlap, far less than a store
        store = 300_000 * 33
        run, held = density._coverage_run, []

        def traced(*args):
            held.append(tracemalloc.get_traced_memory()[0])
            out = run(*args)
            held.append(tracemalloc.get_traced_memory()[0])
            return out

        monkeypatch.setattr(density, "_coverage_run", traced)
        lines = [LineSpec(YPoint("+x1", 0.37, 1.3e-4))] * 2
        peaks = []
        for n in (1, 2):
            held.clear()
            tracemalloc.start()
            try:
                coverage_experiment(lines[:n], budget=300_000)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert len(held) == 2 * n and max(held) < 2**20
        assert peaks[1] < peaks[0] + store / 2


# _finish and mark_and_coverage each make one pass; frozen copies of the
# two-pass forms they replaced are the references.


def two_loop_finish(s, f, in_box, status, h_max):
    """_finish as it was with its pair gaps in a second loop after the gathers."""
    order = np.argsort(s, kind="stable")
    counts = np.bincount(status, minlength=4)
    kept = int(counts[OK])
    s_kept, f_kept, box_kept = np.empty(kept), np.empty((kept, 3)), np.empty(kept, dtype=bool)
    done = 0
    for c in range(0, len(s), density._BLOCK):
        block = order[c : c + density._BLOCK]
        block = block[status[block] == OK]
        rows = slice(done, done + len(block))
        s_kept[rows], f_kept[rows], box_kept[rows] = s[block], f[block], in_box[block]
        done += len(block)
    pairs_in_box = cap_hits = 0
    for c in range(0, kept - 1, density._BLOCK):
        e = min(c + density._BLOCK, kept - 1)
        both = box_kept[c:e] & box_kept[c + 1 : e + 1]
        with np.errstate(over="ignore"):
            pair_gap = np.linalg.norm(f_kept[c:e] - f_kept[c + 1 : e + 1], axis=-1)
        pairs_in_box += int(np.count_nonzero(both))
        cap_hits += int(np.count_nonzero(both & (pair_gap > h_max * (1 + 1e-9))))
    audit = density.TraceAudit(
        evals=len(s),
        dropped_overflow=int(counts[OVERFLOW_FIRST] + counts[OVERFLOW_SECOND]),
        dropped_unresolvable=int(counts[UNRESOLVABLE]),
        in_box_points=int(np.count_nonzero(box_kept)),
        pairs_in_box=pairs_in_box,
        cap_hits=cap_hits,
    )
    return density.TraceResult(s=s_kept, points=f_kept, in_box=box_kept, audit=audit)


def hand_made_store(sorted_status, seed, ties=False):
    """A store whose rows, taken in sorted s order, have the given statuses.

    Rows are stored in a shuffled order; an OK row has a finite f (some
    consecutive gaps above 1) and a random in_box, any other row a NaN f.
    With ties, pairs of rows share an s, so the stable sort's order counts.
    """
    rng = np.random.default_rng(seed)
    n = len(sorted_status)
    position = rng.permutation(n)  # sorted position of each stored row
    s = (position // 2 if ties else position).astype(float)
    status = np.asarray(sorted_status, dtype=np.int8)[position]
    ok = status == OK
    scale = rng.choice([0.1, 3.0], (n, 1))
    f = np.where(ok[:, None], rng.uniform(-1.0, 1.0, (n, 3)) * scale, np.nan)
    in_box = ok & (rng.random(n) < 0.7)
    return s, f, in_box, status


def store_walk(s, f, in_box, status, h_max):
    """The _Walk of a hand-made store, its in_box and status packed into the flag byte."""
    return density._Walk(s, f, density._flags(status, in_box), h_max)


BAD = [OVERFLOW_FIRST, OVERFLOW_SECOND, UNRESOLVABLE]


@pytest.mark.parametrize("block", [3, 1 << 14])
def test_flag_byte_packs_what_the_split_test_and_the_walk_read(monkeypatch, block):
    # every flag byte a store can hold: a status, and in_box only at OK
    monkeypatch.setattr(density, "_BLOCK", block)
    rows = [(status, box) for status in (OK, *BAD) for box in (False, True)
            if status == OK or not box]
    status, in_box = (np.array(column) for column in zip(*rows))
    flags = density._flags(status, in_box)
    assert flags.dtype == np.int8 and len(set(flags.tolist())) == len(rows) == 5
    # the split test over every pair of rows
    a, b = (v.ravel() for v in np.meshgrid(np.arange(len(rows)), np.arange(len(rows))))
    np.testing.assert_array_equal((flags[a] | flags[b]) & density._IN_BOX != 0,
                                  in_box[a] | in_box[b])
    # the walk decodes status and in_box: it keeps the OK rows in s order
    s = np.arange(len(rows), 0.0, -1.0)
    f = np.where((status == OK)[:, None], np.arange(3.0 * len(rows)).reshape(-1, 3), np.nan)
    got = density._finish(density._Walk(s, f, flags, 1.0))
    ok = np.flatnonzero(status == OK)[::-1]
    np.testing.assert_array_equal(got.s, s[ok])
    np.testing.assert_array_equal(got.points, f[ok])
    np.testing.assert_array_equal(got.in_box, in_box[ok])
    counts = np.bincount(status, minlength=4)
    assert (got.audit.evals, got.audit.dropped_overflow, got.audit.dropped_unresolvable,
            got.audit.in_box_points) == (5, counts[OVERFLOW_FIRST] + counts[OVERFLOW_SECOND],
                                         counts[UNRESOLVABLE], np.count_nonzero(in_box))


def assert_finish_is_two_loop_finish(store):
    got, want = density._finish(store_walk(*store, 1.0)), two_loop_finish(*store, 1.0)
    for name in ("s", "points", "in_box"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert got.audit == want.audit
    return want.audit


class TestFinishInOneWalk:
    @pytest.mark.parametrize(
        "sorted_status",
        [
            # the first sorted block of 4 has no OK row
            BAD + [OVERFLOW_FIRST] + [OK] * 9 + [UNRESOLVABLE, OK, OK],
            # the second block has exactly one OK row, the last block a lone row
            [OK] * 4 + [OVERFLOW_SECOND, OK, UNRESOLVABLE, OVERFLOW_FIRST] + [OK] * 5,
            # kept == 0 and kept == 1, in one block and over several
            BAD,
            BAD * 3,
            [OK],
            BAD + [OK] + BAD * 2,
            # blocks with no OK row between blocks with some
            [OK, OK] + BAD * 3 + [OK] * 3 + BAD * 2 + [OK],
        ],
    )
    @pytest.mark.parametrize("ties", [False, True])
    def test_one_walk_is_the_two_loops(self, monkeypatch, sorted_status, ties):
        monkeypatch.setattr(density, "_BLOCK", 4)
        for seed in range(8):
            assert_finish_is_two_loop_finish(hand_made_store(sorted_status, seed, ties))

    @pytest.mark.parametrize("block", [3, 7, 1 << 16])
    def test_random_stores(self, monkeypatch, block):
        monkeypatch.setattr(density, "_BLOCK", block)
        rng = np.random.default_rng(block)
        for seed in range(6):
            sorted_status = rng.choice([OK, OK, OK, *BAD], size=int(rng.integers(1, 200)))
            audit = assert_finish_is_two_loop_finish(
                hand_made_store(sorted_status, seed, ties=bool(seed % 2)))
            assert audit.pairs_in_box > 0 or len(sorted_status) < 20  # the store has pairs


def parent_mark_and_coverage(grid, points):
    """mark_and_coverage as it was, with the end of the stream added after its loop."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    series = []
    consumed = 0
    checkpoint = 1000
    while consumed < len(pts):
        end = min(checkpoint, len(pts))
        for c in range(consumed, end, density._BLOCK):
            grid.mark(pts[c : min(c + density._BLOCK, end)])
        consumed = end
        if consumed == checkpoint:
            series.append((consumed, grid.coverage()))
            checkpoint *= 10
    if not series or series[-1][0] != consumed:
        series.append((consumed, grid.coverage()))
    return series


def recorded_marks(run, points):
    """run(grid, points) on a fresh grid: its series, the bytes of each mark call's points
    in call order, and the final occupancy."""
    grid = VoxelGrid(10.0, 8)
    calls = []
    mark = grid.mark
    grid.mark = lambda chunk: calls.append(chunk.tobytes()) or mark(chunk)
    return run(grid, points), calls, grid.occupancy


class TestCheckpointsInOneLoop:
    @pytest.mark.parametrize("n", [0, 1, 999, 1000, 1001, 10_000, 10_001])
    @pytest.mark.parametrize("block", [7, 1 << 16])
    def test_one_loop_is_the_parent_loop(self, monkeypatch, n, block):
        monkeypatch.setattr(density, "_BLOCK", block)
        pts = np.random.default_rng(n).uniform(-11.0, 11.0, (n, 3))
        got = recorded_marks(lambda grid, points: mark_and_coverage(grid, [points]), pts)
        want = recorded_marks(parent_mark_and_coverage, pts)
        assert got[0] == want[0]
        assert got[1] == want[1]
        np.testing.assert_array_equal(got[2], want[2])
        assert [c for c, _ in got[0]][-1] == n


# coverage_experiment marks its grid from the tracer's sorted walk and makes
# no TraceResult.  The oracle marks a whole trace result with mark_and_coverage
# and keeps that trace's audit.  Each line is named for the way its trace ends
# or for its kept count, which the first assertion pins.
VOXEL = density.voxel_edge(density.COVERAGE_BOX)
DROPS_LAST = LineSpec(YPoint("-x1", 0.2, 0.05))
COVERAGE_LINES = {  # name: (line, budget, MAX_DEPTH, what its trace shows)
    "converging": (LineSpec(YPoint("+x1", 0.4, 0.35)), 60_000, density.MAX_DEPTH,
                   lambda trace: trace.audit.evals < 60_000 and len(trace.s) > 10_000),
    "budget-bound": (LineSpec(YPoint("+x1", 0.37, 0.002)), 6000, density.MAX_DEPTH,
                     lambda trace: trace.audit.evals == 6000),
    "depth-capped": (LineSpec(YPoint("+x1", 0.4, 0.35)), 20_000, 3,
                     lambda trace: trace.audit.evals < 20_000 and len(trace.s) > 1000),
    # x3 = 800 is above EXP_CAP, so every sample overflows
    "no kept sample": (LineSpec(p=(0.0, 0.0, 800.0), d=(1.0, 0.3, 0.0)), 3000,
                       density.MAX_DEPTH, lambda trace: len(trace.s) == 0),
    # its last samples in s order are dropped, so small blocks follow the
    # block that ends at the last checkpoint
    "1000 kept": (DROPS_LAST, 1376, density.MAX_DEPTH,
                  lambda trace: len(trace.s) == 1000
                  and trace.s[-1] < density.default_s_range(DROPS_LAST)[1]),
}


class TestCoverageFromTheWalk:
    @pytest.mark.parametrize("block", [7, 1 << 14, 1 << 16])
    @pytest.mark.parametrize("name", list(COVERAGE_LINES))
    def test_walk_marks_what_the_trace_result_marks(self, monkeypatch, name, block):
        line, budget, max_depth, shows = COVERAGE_LINES[name]
        monkeypatch.setattr(density, "_BLOCK", block)
        monkeypatch.setattr(density, "MAX_DEPTH", max_depth)
        trace = adaptive_trace(line, density.COVERAGE_BOX, budget, VOXEL)
        assert shows(trace)
        grid = VoxelGrid()
        want = mark_and_coverage(grid, [trace.points]), trace.audit, grid.coverage()
        (run,) = coverage_experiment([line], budget=budget)
        assert (run.series, run.audit, run.coverage) == want
        assert run.h_max == VOXEL

    def test_no_trace_result_is_made(self, monkeypatch):
        def no_result(*args, **kwargs):
            raise AssertionError("a TraceResult was made")

        monkeypatch.setattr(density, "TraceResult", no_result)
        (run,) = coverage_experiment([LineSpec(YPoint("+x1", 0.37, 0.002))], budget=6000)
        assert run.audit.evals == 6000 and run.series[-1][0] > 1000


# hits_ball scans the walk's unsorted rows for the nearest kept point, the
# least s among equally near ones.  The oracle is the scan as it was: one
# argmin over a whole TraceResult, whose points are sorted by s.


def argmin_hit(trace, ball):
    """hits_ball's scan as it was, on a whole trace result."""
    if len(trace.points) == 0:
        return HitResult(False, None, math.inf, trace.audit.evals)
    with np.errstate(over="ignore"):
        dist = _norm3(trace.points - np.asarray(ball.center))
    k = int(np.argmin(dist))
    best = float(dist[k])
    if best < ball.radius:
        return HitResult(True, float(trace.s[k]), best, trace.audit.evals)
    return HitResult(False, None, best, trace.audit.evals)


def assert_hit_is_argmin_hit(store, ball):
    got = hits_ball(store_walk(*store, ball.radius), ball)
    want = argmin_hit(two_loop_finish(*store, ball.radius), ball)
    assert got == want
    return want


# a ball of radius VOXEL whose box is the coverage box, so the COVERAGE_LINES
# traces are the coverage traces: the converging and depth-capped lines pass
# through it, the others miss it
NEAR = np.array([-3.646, -4.365, -7.842])
NEAR_BALL = BallSpec(tuple(NEAR / np.linalg.norm(NEAR) * (density.COVERAGE_BOX - VOXEL)), VOXEL)


class TestHitScan:
    @pytest.mark.parametrize("block", [3, 4, 7])
    def test_scan_is_one_argmin(self, monkeypatch, block):
        monkeypatch.setattr(density, "_BLOCK", block)
        rng = np.random.default_rng(block)
        centers = [(1.6, 0.5, -0.5), (0.3, 0.2, 2.5), (-2.0, -1.0, 0.1)]
        hits = set()
        for seed in range(12):
            sorted_status = rng.choice([OK, OK, OK, *BAD], size=int(rng.integers(1, 60)))
            store = hand_made_store(sorted_status, seed, ties=bool(seed % 2))
            for center in centers:
                for radius in (0.05, 0.4, 1.5):
                    hits.add(assert_hit_is_argmin_hit(store, BallSpec(center, radius)).hit)
        for sorted_status in (BAD, BAD * 3):  # no kept point
            assert assert_hit_is_argmin_hit(hand_made_store(sorted_status, 0), NEAR_BALL) == \
                HitResult(False, None, math.inf, len(sorted_status))
        assert hits == {True, False}

    @pytest.mark.parametrize("block", [3, 4, 7])
    @pytest.mark.parametrize(
        "sorted_status",
        [
            [OK] * 8,
            [OK, *BAD, OK, OK, *BAD, OK, OK, OK],
            BAD + [OK] * 5 + BAD * 3 + [OK, OK],
        ],
    )
    def test_equal_nearest_distances_keep_the_first(self, monkeypatch, block, sorted_status):
        # the first and the last kept point in s order are one point, nearer
        # the centre than any other and in different blocks: argmin keeps the
        # first, and so must the scan across blocks
        monkeypatch.setattr(density, "_BLOCK", block)
        s, f, in_box, status = hand_made_store(sorted_status, block)
        ok = np.flatnonzero(status == OK)
        first, last = ok[np.argmin(s[ok])], ok[np.argmax(s[ok])]
        assert s[first] // block < s[last] // block  # s is the sorted position
        f[first] = f[last] = (5.0, 5.0, 5.0)
        for radius, witness in [(0.5, s[first]), (0.2, None)]:
            want = assert_hit_is_argmin_hit((s, f, in_box, status), BallSpec((5.25, 5.0, 5.0), radius))
            assert (want.witness_param, want.min_distance) == (witness, 0.25)

    @pytest.mark.parametrize("block", [3, 7])
    @pytest.mark.parametrize("least_later", [True, False])
    @pytest.mark.parametrize(
        "sorted_status",
        [
            [OK] * 8,
            [OK, *BAD, OK, OK, *BAD, OK, OK, OK],
            BAD + [OK] * 5 + BAD * 3 + [OK, OK],
        ],
    )
    def test_equal_nearest_distances_in_store_blocks(self, monkeypatch, block, least_later,
                                                     sorted_status):
        # two different points at one distance from the centre, at different
        # s in different store blocks, the smaller s in the later block or in
        # the earlier: the unsorted scan keeps the least s, as argmin over the
        # sorted walk does
        monkeypatch.setattr(density, "_BLOCK", block)
        s, f, in_box, status = hand_made_store(sorted_status, block)
        ok = np.flatnonzero(status == OK)
        early, late = ok[0], ok[-1]  # store rows
        assert early // block < late // block
        if (s[late] < s[early]) != least_later:
            s[early], s[late] = s[late], s[early]
        f[early], f[late] = (5.5, 5.0, 5.0), (5.0, 5.0, 5.0)  # both 0.25 from (5.25, 5, 5)
        for radius, witness in [(0.5, min(s[early], s[late])), (0.2, None)]:
            want = assert_hit_is_argmin_hit((s, f, in_box, status), BallSpec((5.25, 5.0, 5.0), radius))
            assert (want.witness_param, want.min_distance) == (witness, 0.25)

    def test_the_scan_lets_go_of_the_store(self):
        store = hand_made_store([OK] * 20 + BAD, 3)
        walk = store_walk(*store, NEAR_BALL.radius)
        held = [weakref.ref(v) for v in walk._store]
        del store
        hits_ball(walk, NEAR_BALL)
        assert walk._store is None and [ref() for ref in held] == [None] * 3
        # a traced line's walk: views of a lone line's store, or its group's
        # store and a row index; walked one at a time, as a rung walks them,
        # the group's store goes once its last walk is scanned
        line = LineSpec(YPoint("+x1", 0.4, 0.35))
        for lines in ([line], [LineSpec(YPoint("+x1", 0.5, 0.3)), line]):
            for i, walk in enumerate(density._trace_lines(lines, 10.0, 6000, NEAR_BALL.radius)):
                if i == 0:
                    held = [weakref.ref(v.base if v.base is not None else v) for v in walk._store]
                assert hits_ball(walk, NEAR_BALL).evals == walk.evals > 2000
                assert walk._store is None and walk._rows is None
                if i < len(lines) - 1:  # the group's later walks hold its store
                    assert all(ref() is not None for ref in held)
            assert [ref() for ref in held] == [None] * 3

    def test_a_rung_sorts_no_walk(self, monkeypatch):
        patch = PatchSpec(YPoint("+x1", 0.4, 0.35), 0.04)
        want = epsilon_density(patch, base_sequence(1), grid_n=4, budget_per_line=6000, rungs=2)

        def no_sort(walk):
            raise AssertionError("a walk was sorted")

        monkeypatch.setattr(density._Walk, "__iter__", no_sort)
        got = epsilon_density(patch, base_sequence(1), grid_n=4, budget_per_line=6000, rungs=2)
        assert got == want and sum(r.hits for r in got) > 0

    @pytest.mark.parametrize("block", [7, 1 << 14])
    @pytest.mark.parametrize("name", list(COVERAGE_LINES))
    def test_lone_and_grouped_scans_are_one_argmin(self, monkeypatch, name, block):
        line, budget, max_depth, shows = COVERAGE_LINES[name]
        monkeypatch.setattr(density, "_BLOCK", block)
        monkeypatch.setattr(density, "MAX_DEPTH", max_depth)
        box_r = NEAR_BALL.center_norm + NEAR_BALL.radius
        trace = adaptive_trace(line, box_r, budget, NEAR_BALL.radius)
        assert shows(trace)
        want = argmin_hit(trace, NEAR_BALL)
        assert want.hit == (name in ("converging", "depth-capped"))
        assert trace_and_hit(line, NEAR_BALL, budget) == want
        other = LineSpec(YPoint("+x1", 0.5, 0.3))
        walks = density._trace_lines([other, line], box_r, budget, NEAR_BALL.radius)
        assert [hits_ball(walk, NEAR_BALL) for walk in walks][1] == want

    def test_no_trace_result_is_made(self, monkeypatch):
        def no_result(*args, **kwargs):
            raise AssertionError("a TraceResult was made")

        monkeypatch.setattr(density, "TraceResult", no_result)
        ball = base_sequence(1)
        assert trace_and_hit(LineSpec(YPoint("+x1", 0.4, 0.35)), ball, 6000).evals > 0
        patch = PatchSpec(YPoint("+x1", 0.4, 0.35), 0.04)
        (rung,) = epsilon_density(patch, ball, grid_n=2, budget_per_line=6000, rungs=1)
        assert rung.valid == 4

    def test_a_walked_walk_lets_go_of_its_store(self, monkeypatch):
        # a rung of lines at 20k samples, just past two full groups, traces at
        # least 3 groups, each full group's store per_group * 0.7 MB: each
        # later group starts holding less than 1 MiB, so the walk of the group
        # before keeps no store
        per_group = density._GROUP_SAMPLES // 20_000
        grid_n = math.isqrt(2 * per_group) + 1
        groups = -(-grid_n**2 // per_group)
        assert groups >= 3
        trace_group, held = density._trace_group, []

        def traced(*args):
            held.append(tracemalloc.get_traced_memory()[0])
            yield from trace_group(*args)

        monkeypatch.setattr(density, "_trace_group", traced)
        patch = PatchSpec(YPoint("+x1", 0.4, 0.35), 0.04)
        tracemalloc.start()
        try:
            (rung,) = epsilon_density(patch, base_sequence(1), grid_n=grid_n,
                                      budget_per_line=20_000, rungs=1)
        finally:
            tracemalloc.stop()
        assert rung.valid == grid_n**2 and len(held) == groups
        assert max(held[1:]) < 2**20


# perfbench times the walk's consumers by wrapping density.hits_ball and
# density.mark_and_coverage by name: the package's own paths must call them
# through the module, or their per-layer metrics read 0.


def counted(monkeypatch, name):
    """density.<name> replaced by a wrapper that records each call's result."""
    results, fn = [], getattr(density, name)

    def wrapper(*args):
        results.append(fn(*args))
        return results[-1]

    monkeypatch.setattr(density, name, wrapper)
    return results


def test_density_rungs_call_hits_ball_once_per_valid_line(monkeypatch):
    results = counted(monkeypatch, "hits_ball")
    patch = PatchSpec(YPoint("+x1", 0.4, 0.35), 0.04)
    rungs = epsilon_density(patch, base_sequence(1), grid_n=4, budget_per_line=6000, rungs=2)
    assert len(results) == sum(r.valid for r in rungs) == 32
    assert sum(res.hit for res in results) == sum(r.hits for r in rungs) > 0


def test_coverage_calls_mark_and_coverage_once_per_line(monkeypatch):
    results = counted(monkeypatch, "mark_and_coverage")
    lines = [LineSpec(YPoint("+x1", 0.37, 0.002)), LineSpec(YPoint("+x1", 0.4, 0.35))]
    runs = coverage_experiment(lines, budget=6000)
    assert results == [run.series for run in runs]


class TestResolution:
    """A line whose points one seed step apart share a coordinate that its
    direction moves cannot be traced: the float grid cannot resolve it."""

    FAR = LineSpec(YPoint("+x1", 0.37, 1.3e-4), p=(1e308, 0.0, 0.0))

    def test_lone_line_exits_before_tracing(self):
        with pytest.raises(DomainError, match=r"one seed step over s in \[-7692.31, 207692\]"):
            adaptive_trace(self.FAR, 10.0, 1000, 0.3125)

    def test_grouped_line_stops_the_group_before_tracing(self, monkeypatch):
        def no_trace(*args):
            raise AssertionError("a line was traced")

        monkeypatch.setattr(density, "_trace_group", no_trace)
        near = LineSpec(YPoint("+x1", 0.37, 1.3e-4))
        with pytest.raises(DomainError, match="unresolved"):
            next(density._trace_lines([near, self.FAR, near], 10.0, 1000, 0.3125))

    def test_resolved_lines_trace(self):
        # far but resolved, and a coordinate the direction does not move
        for line in [LineSpec(YPoint("+x1", 0.37, 1.3e-4), p=(1e12, 0.0, 0.0)),
                     LineSpec(p=(0.0, 0.0, 1e308), d=(1.0, 0.3, 0.0))]:
            assert adaptive_trace(line, 10.0, 1000, 0.3125).audit.evals > 0


class TestPhaseCap:
    """A line's first-stage phase max(|x1|, |x2|) must stay within PHASE_CAP
    over its whole window; the window is a segment, so its ends decide."""

    # the window is s in [-1, 27], so x1 runs up to p1 + 27, exactly
    D = (1.0, 0.3, 1.0)
    AT_CAP = LineSpec(p=(PHASE_CAP - 27.0, 0.0, 0.0), d=D)
    PAST_CAP = LineSpec(p=(math.nextafter(PHASE_CAP - 27.0, math.inf), 0.0, 0.0), d=D)

    def test_a_window_ending_at_the_cap_traces(self):
        assert self.AT_CAP.point_at(density.default_s_range(self.AT_CAP)[1])[0] == PHASE_CAP
        assert adaptive_trace(self.AT_CAP, 10.0, 1000, 0.3125).audit.evals > 0

    def test_a_window_past_the_cap_exits_before_tracing(self, monkeypatch):
        end = self.PAST_CAP.point_at(density.default_s_range(self.PAST_CAP)[1])[0]
        assert end == math.nextafter(PHASE_CAP, math.inf)

        def no_trace(*args):
            raise AssertionError("a line was traced")

        monkeypatch.setattr(density, "_trace_group", no_trace)
        # the cap holds at either end of the window, on either phase axis
        near_start = LineSpec(p=(0.0, -PHASE_CAP - 0.5, 0.0), d=self.D)
        far = LineSpec(YPoint("+x1", 0.37, 1.3e-4), p=(1e15, 0.0, 0.0))  # `trace --p 1e15,0,0`
        for line in (self.PAST_CAP, near_start, far):
            with pytest.raises(DomainError, match="past PHASE_CAP"):
                next(density._trace_lines([self.AT_CAP, line], 10.0, 1000, 0.3125))

    def test_an_overflowing_end_is_past_the_cap(self):
        # s_hi * d1 overflows a float; no RuntimeWarning escapes
        line = LineSpec(p=(0.0, 0.0, -1.0), d=(1e300, 0.3, 1e-11))
        with np.errstate(all="raise"), pytest.raises(DomainError, match="past PHASE_CAP"):
            adaptive_trace(line, 10.0, 1000, 0.3125)
