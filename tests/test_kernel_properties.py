"""Property tests for the kernel invariants in zorichlab.zorich, the
bookkeeping of the adaptive tracer and its grouped form, the group action
and fundamental-domain reduction, and the batched ray-cone solve.

Hypothesis runs derandomized, so every run draws the same examples.
"""

import contextlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zorichlab import density
from zorichlab.density import (
    MAX_DEPTH,
    Y_FACES,
    LineSpec,
    YPoint,
    _finish,
    _trace_lines,
    adaptive_trace,
    base_sequence,
    default_s_range,
)
from zorichlab.errors import DomainError, NoIntersectionError
from zorichlab.group import (
    GroupElement,
    apply,
    compose,
    inverse,
    reduce_to_fundamental_domain,
)
from zorichlab.preimage import (
    FACE_IDS,
    RAY_BISECT_STEPS,
    RAY_SCAN_SAMPLES,
    ConeSurface,
    cone_point,
    ray_cone_intersect,
    ray_cone_intersect_many,
)
from zorichlab.zorich import (
    EXP_CAP,
    HALF_PI,
    OK,
    OVERFLOW_FIRST,
    OVERFLOW_SECOND,
    PHASE_CAP,
    TWO_PI,
    UNRESOLVABLE,
    branch_distance,
    fold,
    h_extended,
    h_square,
    second_iterate,
    unfold,
    zorich,
    zorich_inverse,
)

PROPERTY = settings(derandomize=True, database=None, max_examples=150, deadline=None)

# x3 spans both exponent caps: the second exponent reaches EXP_CAP near
# x3 = ln(EXP_CAP) ~ 6.55 (in even beams), and x3 > EXP_CAP overflows at once
POINTS = st.lists(
    st.tuples(
        st.floats(-40.0, 40.0),
        st.floats(-40.0, 40.0),
        st.one_of(st.floats(-30.0, EXP_CAP + 20.0), st.floats(6.0, 7.0), st.just(EXP_CAP)),
    ),
    min_size=1,
    max_size=40,
)


@PROPERTY
@given(st.lists(st.floats(-40.0, 40.0), min_size=1, max_size=50))
def test_unfold_inverts_fold(values):
    t = np.array(values)
    r = fold(t)
    np.testing.assert_allclose(unfold(r.folded, r.strip), t, atol=1e-13, rtol=0)


@PROPERTY
@given(POINTS)
def test_second_iterate_is_the_masked_composition(rows):
    x = np.array(rows)
    f, z3, status = second_iterate(x)

    assert not np.any(np.isnan(z3))  # the tracer stores only z3 <= skip_exp
    first_ok = x[:, 2] <= EXP_CAP
    assert np.all(status[~first_ok] == OVERFLOW_FIRST)
    assert np.all(np.isposinf(z3[~first_ok]))
    z = zorich(x[first_ok])
    np.testing.assert_array_equal(z3[first_ok], z[:, 2])

    second_ok = z[:, 2] <= EXP_CAP
    resolvable = np.max(np.abs(z[:, :2]), axis=-1) <= PHASE_CAP
    expected = np.where(second_ok, np.where(resolvable, OK, UNRESOLVABLE), OVERFLOW_SECOND)
    np.testing.assert_array_equal(status[first_ok], expected)

    both = np.flatnonzero(first_ok)[second_ok]
    np.testing.assert_array_equal(f[both], zorich(zorich(x[both])))
    assert np.all(np.isnan(np.delete(f, both, axis=0)))


# The kernel written the plain way: np.mod for the fold parity, the chart
# columns stacked, np.full outputs filled through masked gathers and scatters
# and the status from np.select.  The library's kernel must give the same bits.
def masked_chart(x1, x2, sign=1.0):
    m = np.maximum(np.abs(x1), np.abs(x2))
    r = np.hypot(x1, x2)
    safe_r = np.where(r > 0.0, r, 1.0)
    scale = np.where(r > 0.0, np.sin(m) / safe_r, 0.0)
    return np.stack([x1 * scale, x2 * scale, np.cos(m) * sign], axis=-1)


def masked_h_extended(p):
    p = np.asarray(p, dtype=float)
    q = np.floor((p[..., :2] + HALF_PI) / math.pi)
    sign = 1.0 - 2.0 * np.mod(q, 2.0)
    ab = np.clip((p[..., :2] - q * math.pi) * sign, -HALF_PI, HALF_PI)
    return masked_chart(ab[..., 0], ab[..., 1], sign[..., 0] * sign[..., 1])


def masked_lift(x):
    return np.exp(x[..., 2])[..., None] * masked_h_extended(x[..., :2])


def masked_second_iterate(x):
    x = np.asarray(x, dtype=float)
    ok1 = x[..., 2] <= EXP_CAP
    z = np.full(x.shape, np.nan)
    if np.any(ok1):
        z[ok1] = masked_lift(x[ok1])
    z3 = np.where(ok1, z[..., 2], np.inf)
    ok2 = z3 <= EXP_CAP
    f = np.full(x.shape, np.nan)
    if np.any(ok2):
        f[ok2] = masked_lift(z[ok2])
    phase_ok = np.max(np.abs(z[..., :2]), axis=-1) <= PHASE_CAP
    status = np.select(
        [~ok1, ~ok2, ~phase_ok], [OVERFLOW_FIRST, OVERFLOW_SECOND, UNRESOLVABLE], OK
    )
    return f, z3, status


def assert_same_bits(a, b):
    assert type(a) is type(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def assert_kernel_is_masked_kernel(x):
    for got, want in zip(second_iterate(x), masked_second_iterate(x), strict=True):
        assert_same_bits(got, want)
    first_ok = x[..., 2] <= EXP_CAP
    if np.all(first_ok):
        z = zorich(x)
        assert_same_bits(z, masked_lift(x))
        assert_same_bits(h_extended(z[..., :2]), masked_h_extended(z[..., :2]))
    assert_same_bits(h_extended(x[..., :2]), masked_h_extended(x[..., :2]))


IN_RANGE = st.lists(
    st.tuples(st.floats(-40.0, 40.0), st.floats(-40.0, 40.0), st.floats(-30.0, 6.0)),
    min_size=1,
    max_size=40,
)


@PROPERTY
@given(st.one_of(POINTS, IN_RANGE))
def test_kernel_is_the_masked_kernel(rows):
    x = np.array(rows)
    assert_kernel_is_masked_kernel(x)
    assert_kernel_is_masked_kernel(x[x[:, 2] <= EXP_CAP])
    assert_kernel_is_masked_kernel(x[0])  # one point: 0-d z3 and status
    square = np.clip(x[:, :2], -HALF_PI, HALF_PI)
    assert_same_bits(h_square(square), masked_chart(square[:, 0], square[:, 1]))
    assert_same_bits(h_square(square[0]), masked_chart(square[0, 0], square[0, 1]))


@PROPERTY
@given(st.lists(
    st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3), st.floats(EXP_CAP - 1.0, EXP_CAP)),
    min_size=1,
    max_size=40,
))
def test_norm_law_at_the_exponent_cap(rows):
    x = np.array(rows)
    y = zorich(x)
    norm = np.hypot(np.hypot(y[:, 0], y[:, 1]), y[:, 2])  # |y|^2 would overflow
    assert np.all(np.isfinite(norm))
    np.testing.assert_array_max_ulp(norm, np.exp(x[:, 2]), maxulp=4)


BEAMS = [(0, 0), (1, 0), (0, 1), (1, 1), (-2, 3), (3, -1)]
# the open beam: on a face the image's third coordinate is a rounding of
# zero, and the fold may put the point in the neighbour beam
INNER = HALF_PI - 1e-9


@PROPERTY
@given(
    st.sampled_from(BEAMS),
    st.lists(
        st.tuples(st.floats(-INNER, INNER), st.floats(-INNER, INNER), st.floats(-20.0, 20.0)),
        min_size=1,
        max_size=40,
    ),
)
def test_inverse_branch_inverts_the_map_in_its_beam(beam, rows):
    u = np.array(rows)
    x = u + [beam[0] * math.pi, beam[1] * math.pi, 0.0]
    # off the branch lines, and off the pole of the chart, where arccos of
    # the third coordinate keeps only sqrt(eps) of the angle
    x = x[(branch_distance(x) > 1e-3) & (np.max(np.abs(u[:, :2]), axis=-1) > 1e-6)]
    back = zorich_inverse(zorich(x), beam)
    err = np.linalg.norm(back - x, axis=-1) / np.maximum(1.0, np.linalg.norm(x, axis=-1))
    assert np.all(err <= 1e-9)


@PROPERTY
@given(st.lists(st.tuples(st.floats(-PHASE_CAP, PHASE_CAP), st.floats(-PHASE_CAP, PHASE_CAP)),
                min_size=1, max_size=50))
def test_h_extended_unit_norm_and_parity(rows):
    p = np.array(rows)
    v = h_extended(p)
    np.testing.assert_allclose(np.linalg.norm(v, axis=-1), 1.0, atol=1e-12, rtol=0)
    parity_sign = (1 - 2 * fold(p[:, 0]).parity) * (1 - 2 * fold(p[:, 1]).parity)
    np.testing.assert_array_equal(np.sign(v[:, 2]), parity_sign)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(
    st.sampled_from(Y_FACES),
    st.floats(0.05, 0.95, exclude_min=True, exclude_max=True),
    st.sampled_from([-1.0, 1.0]),
    st.floats(3e-5, 1.0),
    st.floats(1.0, 12.0),
    st.floats(0.03, 1.0),
    st.integers(1000, 20_000),
)
def test_trace_bookkeeping(face, u2, sign, u3, box_r, h_max, budget):
    trace = adaptive_trace(LineSpec(YPoint(face, sign * u2, u3)), box_r, budget, h_max)
    a = trace.audit
    assert a.evals <= budget
    assert len(trace.s) == a.evals - a.dropped_overflow - a.dropped_unresolvable
    assert np.all(np.diff(trace.s) >= 0.0)
    assert np.all(np.isfinite(trace.points))
    np.testing.assert_array_equal(trace.in_box, np.all(np.abs(trace.points) <= box_r, axis=-1))
    assert a.in_box_points == np.count_nonzero(trace.in_box)


def assert_same_trace(a, b):
    np.testing.assert_array_equal(a.s, b.s)
    np.testing.assert_array_equal(a.points, b.points)
    np.testing.assert_array_equal(a.in_box, b.in_box)
    assert a.audit == b.audit


VALID_LINES = st.lists(
    st.builds(
        lambda face, u2, sign, u3: LineSpec(YPoint(face, sign * u2, u3)),
        st.sampled_from(Y_FACES),
        st.floats(0.05, 0.95, exclude_min=True, exclude_max=True),
        st.sampled_from([-1.0, 1.0]),
        st.floats(3e-5, 1.0),
    ),
    min_size=1,
    max_size=6,
)


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(VALID_LINES, st.floats(1.0, 12.0), st.floats(0.03, 1.0), st.integers(1000, 20_000))
def test_grouped_trace_is_the_lone_trace(lines, box_r, h_max, budget):
    traces = list(_trace_lines(lines, box_r, budget, h_max))
    assert len(traces) == len(lines)
    for line, trace in zip(lines, traces):
        assert_same_trace(trace, adaptive_trace(line, box_r, budget, h_max))


@pytest.mark.parametrize("group_samples", [density._GROUP_SAMPLES, 12_000])
@pytest.mark.parametrize("at_budget", [0, 1, 2])
def test_grouped_trace_truncates_per_line(monkeypatch, group_samples, at_budget):
    # one line spends its budget while the two others converge below it; a
    # cap of two lines' budget also splits the three into groups of two and one
    monkeypatch.setattr(density, "_GROUP_SAMPLES", group_samples)
    ball = base_sequence(1)
    box_r, budget = ball.center_norm + ball.radius, 6000
    lines = [LineSpec(YPoint("+x1", 0.4, 0.35)), LineSpec(YPoint("+x1", 0.5, 0.3))]
    lines.insert(at_budget, LineSpec(YPoint("+x1", 0.37, 0.002)))
    traces = list(_trace_lines(lines, box_r, budget, ball.radius))
    evals = [t.audit.evals for t in traces]
    assert evals[at_budget] == budget
    assert max(evals[:at_budget] + evals[at_budget + 1:]) < budget
    for line, trace in zip(lines, traces):
        assert_same_trace(trace, adaptive_trace(line, box_r, budget, ball.radius))


def reference_trace(line, box_r, budget, h_max):
    """adaptive_trace of one line, written as a plain loop over depths.

    Children of the intervals split at one depth come left halves first,
    then right halves; at the budget a line keeps its first needed children.
    """
    skip_exp = math.log(2.0 * box_r) + 1.0
    s = np.linspace(*default_s_range(line), budget // 3)
    f, z3, status = second_iterate(line.point_at(s))
    lo = np.arange(len(s) - 1)
    hi = lo + 1
    for _ in range(MAX_DEPTH):
        f[status == UNRESOLVABLE] = np.nan
        in_box = (status == OK) & np.all(np.abs(f) <= box_r, axis=-1)
        with np.errstate(over="ignore"):
            gap = np.linalg.norm(f[lo] - f[hi], axis=-1)
        wide = (s[hi] - s[lo]) > 8.0 * np.spacing(np.maximum(np.abs(s[lo]), np.abs(s[hi])))
        need = (in_box[lo] | in_box[hi]) & ~(gap <= h_max) & (np.minimum(z3[lo], z3[hi]) <= skip_exp)
        keep = np.flatnonzero(need & wide)[: budget - len(s)]
        if len(keep) == 0:
            break
        lo, hi = lo[keep], hi[keep]
        mid_s = 0.5 * (s[lo] + s[hi])
        mid_f, mid_z3, mid_status = second_iterate(line.point_at(mid_s))
        mid = np.arange(len(s), len(s) + len(mid_s))
        s, f = np.concatenate([s, mid_s]), np.concatenate([f, mid_f])
        z3, status = np.concatenate([z3, mid_z3]), np.concatenate([status, mid_status])
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
    f[status == UNRESOLVABLE] = np.nan
    in_box = (status == OK) & np.all(np.abs(f) <= box_r, axis=-1)
    return _finish(s, f, in_box, status, h_max)


@pytest.mark.parametrize("budget", [1000, 6000])
def test_budget_truncation_keeps_the_first_needed_children(budget):
    # budget-bound lines: the truncation decides which samples a trace has
    ball = base_sequence(1)
    box_r = ball.center_norm + ball.radius
    lines = [
        LineSpec(YPoint("+x1", 0.37, 0.002)),
        LineSpec(YPoint("-x2", -0.61, 0.01)),
        LineSpec(YPoint("+x2", 0.2, 0.05)),
    ]
    traces = list(_trace_lines(lines, box_r, budget, ball.radius))
    for line, trace in zip(lines, traces):
        want = reference_trace(line, box_r, budget, ball.radius)
        assert want.audit.evals == budget
        assert_same_trace(adaptive_trace(line, box_r, budget, ball.radius), want)
        assert_same_trace(trace, want)



ELEMENTS = st.builds(GroupElement, st.integers(-50, 50), st.integers(-50, 50), st.booleans())
GROUP_POINTS = st.lists(
    st.tuples(st.floats(-100.0, 100.0), st.floats(-100.0, 100.0), st.floats(-30.0, 30.0)),
    min_size=1,
    max_size=20,
)


def action_tolerance(x, *elements):
    """A few roundings of the largest coordinate or translation involved."""
    shift = TWO_PI * sum(abs(g.m) + abs(g.n) for g in elements)
    return 8.0 * np.finfo(float).eps * (math.pi + float(np.max(np.abs(x))) + shift)


@PROPERTY
@given(ELEMENTS, ELEMENTS, GROUP_POINTS)
def test_apply_is_a_group_action(g, h, rows):
    x = np.array(rows)
    tol = action_tolerance(x, g, h)
    composed, stepwise = apply(compose(g, h), x), apply(g, apply(h, x))
    np.testing.assert_allclose(composed, stepwise, rtol=0, atol=tol)
    back = apply(inverse(g), apply(g, x))
    np.testing.assert_allclose(back, x, rtol=0, atol=tol)
    for y in (composed, stepwise, back):  # the third coordinate is never touched
        assert y[:, 2].tobytes() == x[:, 2].tobytes()


# coordinates anywhere, or a rounding of an odd multiple of pi/2: the ends of
# the box, the x2 = pi/2 face and their translates, where rounding decides
NEAR_ENDS = st.integers(-30, 30).map(lambda k: HALF_PI + math.pi * k)


@PROPERTY
@given(
    st.one_of(st.floats(-100.0, 100.0), NEAR_ENDS),
    st.one_of(st.floats(-100.0, 100.0), st.just(HALF_PI), NEAR_ENDS),
    st.floats(-30.0, 30.0),
)
def test_reduction_lands_in_the_fundamental_domain(x1, x2, x3):
    x = np.array([x1, x2, x3])
    reduced, g = reduce_to_fundamental_domain(x)
    r1, r2, r3 = reduced
    if x2 == HALF_PI:
        assert r2 == HALF_PI
    if r2 == HALF_PI:  # the face convention: x1' in the closed [-pi/2, pi/2]
        assert -HALF_PI <= r1 <= HALF_PI
    else:  # the half-open box
        assert -HALF_PI <= r1 < 3.0 * HALF_PI and -HALF_PI <= r2 < HALF_PI
    assert r3 == x3
    np.testing.assert_allclose(apply(g, reduced), x, rtol=0, atol=action_tolerance(x, g))

# The ray-cone solve written the plain way, one ray at a time: a Python loop
# over the scan cells and scalar bisection.  ray_cone_intersect_many must
# give the same bits ray by ray.  `rejected` collects the scan cells whose
# root was not accepted.
_FACE_AXIS = {"+x1": (1.0, 0), "-x1": (-1.0, 0), "+x2": (1.0, 1), "-x2": (-1.0, 1)}


def scalar_base_frame(cone, pts):
    pts = apply(inverse(cone.element), pts)
    if cone.level < 0.0:
        pts = pts.copy()
        pts[..., 0] = math.pi - pts[..., 0]
    return pts


def scalar_residual(level_abs, y):
    m = np.maximum(np.abs(y[..., 0]), np.abs(y[..., 1]))
    return np.exp(np.minimum(y[..., 2], EXP_CAP)) * np.cos(m) - level_abs


def scalar_in_quadrant(face, y, tol=0.0):
    sign, axis = _FACE_AXIS[face]
    return sign * y[..., axis] >= np.abs(y[..., 1 - axis]) - tol


def scalar_ray_cone_intersect(p, through, cone, face, rejected=None):
    if face not in _FACE_AXIS:
        raise DomainError(f"ray_cone_intersect: unknown face {face!r}")
    p = np.asarray(p, dtype=float)
    through = np.asarray(through, dtype=float)
    d = through - p
    if not np.all(np.isfinite(d)) or float(np.linalg.norm(d)) == 0.0:
        raise DomainError("ray_cone_intersect: degenerate ray")
    level_abs = abs(cone.level)
    q0 = scalar_base_frame(cone, p)
    e = scalar_base_frame(cone, p + d) - q0

    def base_point(s):
        return q0 + np.multiply.outer(np.asarray(s, dtype=float), e)

    residual_tol = 1e-10 * max(1.0, level_abs)
    if abs(e[0]) < 1e-14 and abs(e[1]) < 1e-14:
        m = max(abs(q0[0]), abs(q0[1]))
        if e[2] == 0.0 or m >= HALF_PI or not scalar_in_quadrant(face, q0[None, :], 1e-12)[0]:
            raise NoIntersectionError(
                "ray_cone_intersect: vertical ray misses the face quadrant", scanned=None
            )
        s_star = (math.log(level_abs / math.cos(m)) - q0[2]) / e[2]
        if s_star <= 0.0:
            raise NoIntersectionError(
                "ray_cone_intersect: surface is behind the ray origin", scanned=None
            )
        return p + s_star * d
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
    phi = scalar_residual(level_abs, y)
    quad = scalar_in_quadrant(face, y, tol=1e-12)

    def polish(sa, sb):
        fa = float(scalar_residual(level_abs, base_point(sa)))
        fb = float(scalar_residual(level_abs, base_point(sb)))
        best_s, best_f = (sa, abs(fa)) if abs(fa) <= abs(fb) else (sb, abs(fb))
        for _ in range(RAY_BISECT_STEPS):
            sm = 0.5 * (sa + sb)
            if sm == sa or sm == sb:
                break
            fm = float(scalar_residual(level_abs, base_point(sm)))
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
        if not scalar_in_quadrant(face, y_star, tol=1e-9):
            return False
        res = abs(float(scalar_residual(level_abs, y_star)))
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
        if rejected is not None:
            rejected.append(i)
    raise NoIntersectionError(
        f"ray_cone_intersect: no crossing on face {face} for s in "
        f"[{lo:.6g}, {hi:.6g}] ({RAY_SCAN_SAMPLES} samples)",
        scanned=(lo, hi),
    )


def scalar_rays(p, through, cones, faces):
    """Points (NaN where missed), found, and each miss's message and range."""
    points, found, misses = [], [], []
    for k in range(len(through)):
        try:
            points.append(scalar_ray_cone_intersect(p[k], through[k], cones[k], faces[k]))
            found.append(True)
        except NoIntersectionError as err:
            points.append(np.full(3, np.nan))
            found.append(False)
            misses.append((str(err), err.scanned))
    return np.array(points), np.array(found), misses


def assert_rays_match_scalar(p, through, cones, faces):
    want_points, want_found, want_misses = scalar_rays(p, through, cones, faces)
    points, found = ray_cone_intersect_many(p, through, cones, faces)
    assert points.dtype == want_points.dtype and points.shape == want_points.shape
    assert points.tobytes() == want_points.tobytes()
    np.testing.assert_array_equal(found, want_found)
    misses = []
    for k in range(len(through)):
        try:
            assert_same_bits(ray_cone_intersect(p[k], through[k], cones[k], faces[k]),
                             want_points[k])
        except NoIntersectionError as err:
            misses.append((str(err), err.scanned))
    assert misses == want_misses
    return found


LEVELS = st.builds(
    lambda level, sign: sign * level, st.floats(0.05, 20.0), st.sampled_from([-1.0, 1.0])
)
CONES = st.builds(
    lambda level, m, n, flip: ConeSurface(level, GroupElement(m, n, flip)),
    LEVELS, st.integers(-3, 3), st.integers(-3, 3), st.booleans(),
)


@st.composite
def rays(draw):
    """One ray: aimed through a cone point, vertical, or anywhere."""
    cone, face = draw(CONES), draw(st.sampled_from(FACE_IDS))
    param = np.array([draw(st.floats(-1.5, 1.5)), draw(st.floats(-1.5, 1.5))])
    target = cone_point(cone, param)
    offset = np.array([draw(st.floats(-6.0, 6.0)) for _ in range(3)])
    kind = draw(st.sampled_from(["aimed", "vertical", "anywhere"]))
    if kind == "vertical":  # from below or above the surface point
        height = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.1, 5.0))
        offset = np.array([0.0, 0.0, height])
    elif kind == "anywhere":
        target = target + np.array([draw(st.floats(-3.0, 3.0)) for _ in range(3)])
    origin = target + offset
    if np.array_equal(origin, target):  # a zero offset, or one lost to rounding
        origin = target + np.array([0.0, 0.0, 1.0])
    return origin, target, cone, face


# a ray whose first bracket is polished to a root off its face before it
# finds an accepted one, and one that then finds none at all
REJECTED_FIRST = [
    ((-13.83750482870557, 10.730631015013705, -0.46317129079353947),
     (-11.640042036416622, 11.644502236790983, 2.284967530306775),
     ConeSurface(5.902815634716647, GroupElement(-2, 2, False)), "+x1"),
    ((1.1666424438571754, 12.490072398245877, 0.5350516002073782),
     (5.352726642935361, 13.498343905423091, 2.5622447404709083),
     ConeSurface(7.73032699599385, GroupElement(1, 2, False)), "-x1"),
]


@PROPERTY
@given(st.lists(rays(), min_size=1, max_size=12))
def test_batched_ray_solve_is_the_scalar_solve(batch):
    p, through, cones, faces = (list(column) for column in zip(*batch))
    p, through = np.array(p), np.array(through)
    assert_rays_match_scalar(p, through, cones, faces)  # mixed cones and faces
    n = len(through)  # one origin, cone and face for every ray
    origin = np.broadcast_to(p[0], through.shape)
    assert_rays_match_scalar(origin, through, [cones[0]] * n, [faces[0]] * n)
    points, found = ray_cone_intersect_many(p[0], through, cones[0], faces[0])
    want_points, want_found = ray_cone_intersect_many(
        origin, through, [cones[0]] * n, [faces[0]] * n
    )
    assert points.tobytes() == want_points.tobytes()
    np.testing.assert_array_equal(found, want_found)


def test_batched_ray_solve_covers_every_branch():
    p, through, cones, faces = (list(column) for column in zip(*REJECTED_FIRST))
    for k in range(len(p)):
        rejected = []
        with contextlib.suppress(NoIntersectionError):
            scalar_ray_cone_intersect(p[k], through[k], cones[k], faces[k], rejected)
        assert rejected  # the first bracket is rejected
    found = assert_rays_match_scalar(np.array(p), np.array(through), cones, faces)
    np.testing.assert_array_equal(found, [True, False])
    cone = ConeSurface(2.0)
    cases = [  # (origin, through, the start of its miss message or None for a hit)
        ((0.1, 0.05, 5.0), (0.1, 0.05, 0.0), None),  # vertical, from above
        ((0.1, 0.05, -1.0), (0.1, 0.05, 0.0), None),  # vertical, from below
        ((-0.1, 0.05, -1.0), (-0.1, 0.05, 0.0), "vertical ray misses the face quadrant"),
        ((0.1, 0.05, 5.0), (0.1, 0.05, 6.0), "surface is behind the ray origin"),
        ((10.0, 0.3, 0.0), (10.0, 0.5, 5.0), "ray never enters the beam"),
        ((-3.0, 0.0, 0.0), (-3.5, 0.0, 0.0), "beam crossing is empty (s in ["),
        ((0.2, 0.0, -5.0), (0.3, 0.1, -6.0), "no crossing on face +x1 for s in ["),
    ]
    p, through = np.array([c[0] for c in cases]), np.array([c[1] for c in cases])
    found = assert_rays_match_scalar(p, through, [cone] * len(cases), ["+x1"] * len(cases))
    np.testing.assert_array_equal(found, [c[2] is None for c in cases])
    for origin, target, message in cases[2:]:
        with pytest.raises(NoIntersectionError) as miss:
            ray_cone_intersect(origin, target, cone, "+x1")
        assert str(miss.value).startswith(f"ray_cone_intersect: {message}")
    # bad input is an error for the whole call, in both forms
    origin, x_axis = (0.0, 0.0, 0.0), (1.0, 0.0, 0.0)
    with pytest.raises(DomainError, match="^ray_cone_intersect: degenerate ray$"):
        ray_cone_intersect(origin, origin, cone, "+x1")
    with pytest.raises(DomainError, match="^ray_cone_intersect: degenerate ray$"):
        ray_cone_intersect_many(origin, [x_axis, origin], cone, "+x1")
    with pytest.raises(DomainError, match="^ray_cone_intersect: unknown face '[+]x3'$"):
        ray_cone_intersect(origin, x_axis, cone, "+x3")
    with pytest.raises(DomainError, match="^ray_cone_intersect: unknown face '[+]x3'$"):
        ray_cone_intersect_many(origin, [x_axis, x_axis], cone, ["+x1", "+x3"])
