"""Property tests for the kernel invariants in zorichlab.zorich, the
bookkeeping of the adaptive tracer and its grouped form.

Hypothesis runs derandomized, so every run draws the same examples.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zorichlab import density
from zorichlab.density import (
    Y_FACES,
    LineSpec,
    YPoint,
    _trace_lines,
    adaptive_trace,
    base_sequence,
)
from zorichlab.zorich import (
    EXP_CAP,
    OK,
    OVERFLOW_FIRST,
    OVERFLOW_SECOND,
    PHASE_CAP,
    UNRESOLVABLE,
    fold,
    h_extended,
    second_iterate,
    unfold,
    zorich,
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
