"""Property tests for the kernel invariants in zorichlab.zorich, the
bookkeeping of the adaptive tracer and its grouped form.

Hypothesis runs derandomized, so every run draws the same examples.
"""

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
from zorichlab.zorich import (
    EXP_CAP,
    HALF_PI,
    OK,
    OVERFLOW_FIRST,
    OVERFLOW_SECOND,
    PHASE_CAP,
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
