import ast
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from zorichlab import density
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
from zorichlab.zorich import OK, second_iterate

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


class TestVoxelGrid:
    def test_single_point(self):
        grid = VoxelGrid(10.0, 16)
        marked = grid.mark([(3.0, -2.0, 7.0)])
        assert marked == 1
        assert np.count_nonzero(grid.occupancy) == 1

    def test_out_of_box_ignored(self):
        grid = VoxelGrid(10.0, 16)
        assert grid.mark([(11.0, 0.0, 0.0), (0.0, -10.5, 0.0)]) == 0

    def test_exclusions(self):
        grid = VoxelGrid(10.0, 64)
        # origin voxel and a unit-sphere voxel are excluded, a generic one is not
        def voxel_of(p):
            return tuple(((np.asarray(p) + 10.0) / grid.voxel).astype(int))

        assert grid.excluded[voxel_of((0.0, 0.0, 0.0))]
        assert grid.excluded[voxel_of((1.0, 0.0, 0.0))]
        assert not grid.excluded[voxel_of((5.0, 5.0, 5.0))]

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


def test_density_reduces_rows_by_columns():
    # reductions over the length-3 last axis are several times slower than
    # the same arithmetic on the columns; density.py's hot path uses the columns
    def last_axis(call):
        axis = [k.value for k in call.keywords if k.arg == "axis"] + call.args[1:2]
        return any(ast.unparse(a) == "-1" for a in axis)

    tree = ast.parse(Path(density.__file__).read_text())
    found = [
        f"line {node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and ast.unparse(node.func) in ("np.linalg.norm", "np.all", "np.any")
        and last_axis(node)
    ]
    assert not found, found


class TestMarkAndCoverage:
    def test_empty_stream(self):
        grid = VoxelGrid(10.0, 16)
        series = mark_and_coverage(grid, np.empty((0, 3)))
        assert series == [(0, 0.0)]

    def test_single_point_stream(self):
        grid = VoxelGrid(10.0, 16)
        series = mark_and_coverage(grid, [(5.0, 5.0, 5.0)])
        assert len(series) == 1
        assert series[0][0] == 1
        assert np.count_nonzero(grid.occupancy) == 1

    def test_checkpoints_and_monotonicity(self):
        rng = np.random.default_rng(71)
        pts = rng.uniform(-9.9, 9.9, size=(25000, 3))
        grid = VoxelGrid(10.0, 32)
        series = mark_and_coverage(grid, pts)
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
        assert mark_and_coverage(grid, pts) == want
        np.testing.assert_array_equal(grid.occupancy, whole.occupancy)
        assert max(sizes) == 997 and sum(sizes) == len(pts)


class TestAdaptiveTrace:
    def test_memory_is_bounded(self):
        # the store is 35 MB at this budget; the result and block-sized
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


def brute_force_hit(line, ball, budget):
    s_lo, s_hi = default_s_range(line)
    s = np.linspace(s_lo, s_hi, budget)
    f, _, status = second_iterate(line.point_at(s))
    keep = status == OK
    with np.errstate(over="ignore"):
        d = np.linalg.norm(f[keep] - np.asarray(ball.center), axis=-1)
    return bool(np.any(d < ball.radius))


class TestHitsBall:
    def test_witness_by_construction(self):
        line = LineSpec(YPoint("+x1", 0.37, 0.21))
        trace = adaptive_trace(line, 6.0, 20_000, 0.2)
        inside = trace.points[trace.in_box]
        norms = np.linalg.norm(inside, axis=-1)
        pick = inside[(norms > 1.6) & (norms < 4.0)][0]
        ball = BallSpec(tuple(pick), 0.1)
        res = hits_ball(line, ball, 20_000)
        assert res.hit
        assert res.witness_param is not None
        assert res.min_distance < 0.1

    def test_unreachable_ball_for_horizontal_line(self):
        p3 = 0.0
        line = LineSpec(p=(0.0, 0.0, p3), d=(1.0, 0.4, 0.0))
        # image norms are at most e^(e^0) = e < |q| - delta
        ball = BallSpec((5.0, 0.0, 0.0), 0.5)
        res = hits_ball(line, ball, 10_000)
        assert not res.hit
        assert res.min_distance >= 5.0 - 0.5 - math.e

    def test_no_finite_point_is_no_hit(self):
        # every point of this window overflows at the first stage
        line = LineSpec(d=(0.3, 0.2, 1.0))
        res = hits_ball(line, base_sequence(1), 1000, s_range=(701.0, 800.0))
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
            a = hits_ball(line, ball, budget).hit
            b = brute_force_hit(line, ball, 10 * budget)
            hits += a
            brute_only += b and not a
        assert brute_only == 0
        assert hits > 0

    def test_hit_set_open_under_perturbation(self):
        # hit crossings stay hits under 1e-6 parameter nudges.  Openness is a
        # local property and the map's parameter sensitivity grows like
        # exp(exp(x3)), so witnesses are restricted to a low-exponent window
        # and the nudged lines are re-searched near the same witness.
        rng = np.random.default_rng(515)
        ball = base_sequence(1)
        found = 0
        trial = 0
        while found < 10 and trial < 800:
            trial += 1
            u2 = float(rng.uniform(0.1, 0.9)) * (1 if rng.random() < 0.5 else -1)
            u3 = float(rng.uniform(0.1, 0.5))
            line = LineSpec(YPoint("+x1", u2, u3))
            res = hits_ball(line, ball, 20_000, s_range=(0.2 / u3, 4.0 / u3))
            if not (res.hit and res.min_distance < ball.radius * 0.8):
                continue
            found += 1
            local = (res.witness_param - 0.5 / u3, res.witness_param + 0.5 / u3)
            for du2, du3 in ((1e-6, 0.0), (-1e-6, 0.0), (0.0, 1e-6), (0.0, -1e-6)):
                nudged = LineSpec(YPoint("+x1", u2 + du2, u3 + du3))
                assert hits_ball(nudged, ball, 20_000, s_range=local).hit
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
        # hits_ball finds tracing it alone
        ball = base_sequence(1)
        patch = PatchSpec(YPoint("+x1", 0.4, 0.35), 0.04)
        rungs = epsilon_density(patch, ball, grid_n=4, budget_per_line=6000, rungs=2)
        for r in rungs:
            lines = [LineSpec(a) for a in patch_grid(patch, r.delta, 4) if y_point_valid(a)]
            assert r.valid == len(lines)
            assert r.hits == sum(hits_ball(line, ball, 6000).hit for line in lines)
        assert 0 < sum(r.hits for r in rungs) < sum(r.valid for r in rungs)

    def test_degenerate_patch_rejected(self):
        # a binary-fraction grid hitting u2 = 0 exactly trips the skip cap
        patch = PatchSpec(YPoint("+x1", 0.125, 0.5), 0.25)
        ball = base_sequence(1)
        with pytest.raises(DegenerateError):
            epsilon_density(patch, ball, grid_n=2, budget_per_line=6000, rungs=1)

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

    def test_lines_are_traced_one_at_a_time(self):
        # a line's trace is freed before the next line is traced, so two
        # lines peak where one does (a trace result here is about 7 MB)
        lines = [LineSpec(YPoint("+x1", 0.37, 1.3e-4))] * 2
        peaks = []
        for n in (1, 2):
            tracemalloc.start()
            try:
                coverage_experiment(lines[:n], budget=300_000)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < peaks[0] + 2**20
