"""Property tests for the kernel invariants in zorichlab.zorich, the
bookkeeping of the adaptive tracer and its grouped form, the group action
and fundamental-domain reduction, the batched ray-cone solve and the face
of a cone toward a wall.

Hypothesis runs derandomized, so every run draws the same examples.
"""

import contextlib
import math
import threading

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
    hits_ball,
)
from zorichlab.errors import DomainError, NoIntersectionError
from zorichlab.group import (
    GroupElement,
    apply,
    compose,
    inverse,
)
from zorichlab.preimage import (
    FACE_IDS,
    RAY_BISECT_STEPS,
    RAY_SCAN_SAMPLES,
    ConeSurface,
    cone_point,
    face_toward_wall,
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
    _norm3,
    branch_distance,
    fold,
    h_extended,
    h_inverse,
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


# a coordinate of a row the tracer reduces: specials, squares that overflow or
# underflow, subnormals and signed zeros
COORDS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324]),
    st.floats(1e154, 1e300).flatmap(lambda v: st.sampled_from([v, -v])),
    st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),
)
# rows of like magnitudes, where the order of the sum decides its rounding
LIKE = st.floats(-4.0, 4.0)
ROWS = st.lists(
    st.one_of(st.tuples(COORDS, COORDS, COORDS), st.tuples(LIKE, LIKE, LIKE)),
    min_size=1,
    max_size=30,
)


@PROPERTY
@given(ROWS)
def test_norm3_is_linalg_norm(rows):
    v = np.array(rows, dtype=float)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        for w in (v, v[:-1] - v[1:]):  # the rows and the gaps between them
            assert _norm3(w).tobytes() == np.linalg.norm(w, axis=-1).tobytes()
    # the column-and of a row mask, as the store and VoxelGrid.mark take it
    m = np.abs(v) <= 10.0
    np.testing.assert_array_equal(m[:, 0] & m[:, 1] & m[:, 2], np.all(m, axis=-1))


# first-stage x3 where the first-stage coordinates pass PHASE_CAP (odd beams
# keep the second exponent negative there), and x3 next to EXP_CAP
LN_PHASE_CAP = math.log(PHASE_CAP)
STATUS_POINTS = st.lists(
    st.tuples(
        st.floats(-40.0, 40.0),
        st.floats(-40.0, 40.0),
        st.one_of(
            st.floats(-30.0, EXP_CAP + 20.0),
            st.floats(LN_PHASE_CAP - 1.0, LN_PHASE_CAP + 8.0),
            st.floats(EXP_CAP - 1e-9, EXP_CAP + 1e-9),
            st.floats(6.0, 7.0),
        ),
    ),
    min_size=1,
    max_size=40,
)


@PROPERTY
@given(STATUS_POINTS)
def test_stored_row_is_finite_iff_ok(rows):
    # the kernel's image is NaN wherever the status is not OK: the tracer
    # stores it as it comes, and _finish keeps the finite rows by their status
    f, status = second_iterate(np.array(rows))
    np.testing.assert_array_equal(np.all(np.isfinite(f), axis=-1), status == OK)


@PROPERTY
@given(STATUS_POINTS)
def test_an_in_box_row_has_a_low_second_exponent(rows):
    # the split test reads the in-box bit alone: an OK row with every
    # |f_i| <= box_r has exp(z3) = |f| <= sqrt(3) box_r, so z3 <= ln(2 box_r) + 1
    # and no exponent bound is left to test.  Each OK row is checked at the
    # least box_r > 0 that holds it, its own max |f_i|
    x = np.array(rows)
    f, status = second_iterate(x)
    ok = status == OK
    box_r = np.maximum(np.max(np.abs(f[ok]), axis=-1), np.finfo(float).smallest_subnormal)
    assert np.all(zorich(x[ok])[:, 2] <= np.log(2.0 * box_r) + 1.0)


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
    f, status = second_iterate(x)

    first_ok = x[:, 2] <= EXP_CAP
    assert np.all(status[~first_ok] == OVERFLOW_FIRST)
    z = zorich(x[first_ok])

    second_ok = z[:, 2] <= EXP_CAP
    resolvable = np.max(np.abs(z[:, :2]), axis=-1) <= PHASE_CAP
    expected = np.where(second_ok, np.where(resolvable, OK, UNRESOLVABLE), OVERFLOW_SECOND)
    np.testing.assert_array_equal(status[first_ok], expected)

    ok = np.flatnonzero(first_ok)[second_ok & resolvable]
    np.testing.assert_array_equal(f[ok], zorich(zorich(x[ok])))
    # zorich refuses an intermediate phase past PHASE_CAP, and the kernel
    # gives no image there
    if not np.all(resolvable[second_ok]):
        with pytest.raises(DomainError, match="past PHASE_CAP"):
            zorich(z[second_ok & ~resolvable])
    assert np.all(np.isnan(f[status != OK]))


def signed(magnitudes):
    return magnitudes.flatmap(lambda v: st.sampled_from([v, -v]))


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
    phase_ok = np.max(np.abs(x[..., :2]), axis=-1) <= PHASE_CAP  # the input's phase
    phase_ok &= np.max(np.abs(z[..., :2]), axis=-1) <= PHASE_CAP  # and the first stage's
    status = np.select(
        [~ok1, ~ok2, ~phase_ok], [OVERFLOW_FIRST, OVERFLOW_SECOND, UNRESOLVABLE], OK
    )
    f[status != OK] = np.nan  # the kernel gives no image where the status is not OK
    return f, z3, status


def assert_same_bits(a, b):
    assert type(a) is type(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def assert_same_nans(a, b):
    """NaN at the same places and the same bits elsewhere: the sign and payload
    of a NaN made from an inf depend on the operation that made it."""
    assert type(a) is type(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    nan = np.isnan(a)
    np.testing.assert_array_equal(nan, np.isnan(b))
    assert a[~nan].tobytes() == b[~nan].tobytes()


def assert_kernel_is_masked_kernel(x, same=assert_same_bits):
    f, _, status = masked_second_iterate(x)
    for got, want in zip(second_iterate(x), (f, status), strict=True):
        same(got, want)
    first_ok = x[..., 2] <= EXP_CAP
    if np.all(first_ok) and np.all(np.isfinite(x)):  # zorich rejects a non-finite input
        z = masked_lift(x)
        if np.max(np.abs(x[..., :2])) <= PHASE_CAP:
            same(zorich(x), z)
        else:  # and a phase past PHASE_CAP
            with pytest.raises(DomainError, match="past PHASE_CAP"):
                zorich(x)
        same(h_extended(z[..., :2]), masked_h_extended(z[..., :2]))
    same(h_extended(x[..., :2]), masked_h_extended(x[..., :2]))


IN_RANGE = st.lists(
    st.tuples(st.floats(-40.0, 40.0), st.floats(-40.0, 40.0), st.floats(-30.0, 6.0)),
    min_size=1,
    max_size=40,
)
# the chart's and the fold's edges: signed zeros (exactly one zero, or both:
# the centre of a square, where r == 0), the square's sides and corners and
# their neighbours, other squares' centres, NaN and infinities, and |x| past
# 2^53 * pi, where every strip is even
EDGE_COORDS = st.one_of(
    st.sampled_from([0.0, -0.0, HALF_PI, -HALF_PI, math.pi, -math.pi, TWO_PI, -3.0 * HALF_PI,
                     math.nextafter(HALF_PI, 0.0), math.nextafter(HALF_PI, 4.0), 5e-324]),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    signed(st.floats(2.0**53 * math.pi, 1e300)),
    st.floats(-4.0, 4.0),
)
EDGE_POINTS = st.lists(
    st.tuples(EDGE_COORDS, EDGE_COORDS, st.one_of(st.floats(-30.0, 6.0), st.just(-0.0))),
    min_size=1,
    max_size=40,
)


@PROPERTY
@given(st.one_of(POINTS, IN_RANGE, EDGE_POINTS))
def test_kernel_is_the_masked_kernel(rows):
    x = np.array(rows)
    finite = np.all(np.isfinite(x))
    same = assert_same_bits if finite else assert_same_nans
    # an inf makes a NaN in the fold's subtractions, as in the masked kernel
    with contextlib.nullcontext() if finite else np.errstate(invalid="ignore"):
        assert_kernel_is_masked_kernel(x, same)
        assert_kernel_is_masked_kernel(x[x[:, 2] <= EXP_CAP], same)
        assert_kernel_is_masked_kernel(x[0], same)  # one point: 0-d z3 and status
        square = np.clip(x[:, :2], -HALF_PI, HALF_PI)
        same(h_square(square), masked_chart(square[:, 0], square[:, 1]))
        same(h_square(square[0]), masked_chart(square[0, 0], square[0, 1]))


def layout_batch(second_overflows):
    """200 points, none, some or all of which overflow at the second stage;
    "some" also overflows a seventh of them at the first stage.  x3 <= 6
    keeps z3 <= e^6 < EXP_CAP, while x3 >= 7 next to an even beam's axis
    (M <= 0.3) gives z3 >= e^7 cos(0.3) > EXP_CAP."""
    rng = np.random.default_rng(43)
    n = 200
    x = np.column_stack([rng.uniform(-40.0, 40.0, n), rng.uniform(-40.0, 40.0, n),
                         rng.uniform(-2.0, 6.0, n)])
    over = {"none": np.zeros(n, bool), "some": rng.random(n) < 0.5, "all": np.ones(n, bool)}
    over = over[second_overflows]
    beam = 2.0 * math.pi * rng.integers(-5, 6, (n, 2))
    x[over, :2] = beam[over] + rng.uniform(-0.3, 0.3, (np.count_nonzero(over), 2))
    x[over, 2] = rng.uniform(7.0, 9.0, np.count_nonzero(over))
    if second_overflows == "some":
        x[::7, 2] = EXP_CAP + 100.0  # and first-stage overflows: both lifts scatter
    return x


@pytest.mark.parametrize("second_overflows", ["none", "some", "all"])
def test_kernel_bits_do_not_depend_on_layout(second_overflows):
    # the kernel folds both columns as one (2, n) copy and scatters lifted
    # rows as 24-byte items: a strided view, one point and a batch of
    # leading shape (2, 50) give the bits of a contiguous batch
    x = layout_batch(second_overflows)
    n = np.count_nonzero(second_iterate(x)[1] == OVERFLOW_SECOND)
    assert {"none": n == 0, "some": 0 < n < len(x), "all": n == len(x)}[second_overflows]
    view = x[::2]
    assert not view.flags.c_contiguous
    for got, want in zip(second_iterate(view), second_iterate(view.copy()), strict=True):
        assert_same_bits(got, want)
    for got, want in zip(second_iterate(x[:100].reshape(2, 50, 3)), second_iterate(x[:100]),
                         strict=True):
        assert_same_bits(got, want.reshape(got.shape))
    batch = second_iterate(x)
    for k in (0, 1, 99, 199):
        for got, want in zip(second_iterate(x[k]), batch, strict=True):
            assert got.shape == want.shape[1:]
            assert got.tobytes() == want[k].tobytes()


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
    x = x[branch_distance(x) > 1e-3]  # off the branch lines
    back = zorich_inverse(zorich(x), beam)
    err = np.linalg.norm(back - x, axis=-1) / np.maximum(1.0, np.linalg.norm(x, axis=-1))
    assert np.all(err <= 1e-9)


@PROPERTY
@given(
    st.sampled_from(BEAMS),
    st.lists(
        st.tuples(
            st.floats(-INNER, INNER), st.floats(-INNER, INNER), st.floats(-EXP_CAP, EXP_CAP)
        ),
        min_size=1,
        max_size=40,
    ),
)
def test_inverse_branch_covers_the_whole_range(beam, rows):
    # |y| = exp(x3) runs from exp(-EXP_CAP) to exp(EXP_CAP): |y|^2 overflows
    # above x3 ~ 354.9 and leaves the normal floats below x3 ~ -354
    u = np.array(rows)
    x = u + [beam[0] * math.pi, beam[1] * math.pi, 0.0]
    x = x[branch_distance(x) > 1e-3]
    back = zorich_inverse(zorich(x), beam)
    err = np.linalg.norm(back - x, axis=-1) / np.maximum(1.0, np.linalg.norm(x, axis=-1))
    assert np.all(err <= 1e-9)


# The inverse branch as it was written with sums over the length-3 last
# axis; the library's column norms (_norm3) must give the same bits, on the
# rescaled path of zorich_inverse too.  (The estimator's frozen reduction is
# tests/test_distortion.py's one_shot_distortion, NaN blocks included.)
def reduced_h_inverse(u):
    u = np.asarray(u, dtype=float)
    norm = np.sqrt(np.sum(u * u, axis=-1))
    if np.any(np.abs(norm - 1.0) > 1e-9):
        raise DomainError("h_inverse: input must be a unit vector")
    u3 = u[..., 2]
    if np.any(u3 < -1e-12):
        raise DomainError("h_inverse: third coordinate must be >= 0")
    m = np.arctan2(np.hypot(u[..., 0], u[..., 1]), u3)
    den = np.maximum(np.abs(u[..., 0]), np.abs(u[..., 1]))
    at_pole = m < 1e-12
    safe_den = np.where(at_pole, 1.0, den)
    scale = np.where(at_pole, 0.0, m / safe_den)
    return np.stack([u[..., 0] * scale, u[..., 1] * scale], axis=-1)


def reduced_zorich_inverse(y, beam):
    y = np.asarray(y, dtype=float)
    with np.errstate(over="ignore"):
        norm = np.sqrt(np.sum(y * y, axis=-1))
    scaled, scaled_norm = y, norm
    if norm.size and not 2.0**-511 <= norm.min() <= norm.max() < np.inf:
        big = np.max(np.abs(y), axis=-1)
        scale = np.where(((norm >= 2.0**-511) & (norm < np.inf)) | (big == 0.0), 1.0, big)
        scaled = y / scale[..., None]
        with np.errstate(over="ignore"):
            scaled_norm = np.sqrt(np.sum(np.square(scaled), axis=-1))
        norm = scale * scaled_norm
        if np.any(norm == 0.0):
            raise DomainError("zorich_inverse: zero input has no preimage")
        if not math.log(norm.max()) <= EXP_CAP:
            raise DomainError("zorich_inverse: outside the map's range")
    u = scaled / scaled_norm[..., None]
    if (beam[0] + beam[1]) % 2 == 1:
        u = u.copy()
        u[..., 2] = -u[..., 2]
    ab = reduced_h_inverse(u)
    x1 = unfold(ab[..., 0], beam[0])
    x2 = unfold(ab[..., 1], beam[1])
    return np.stack([x1, x2, np.log(norm)], axis=-1)


def outcome(fn, *args):
    """The bytes of fn's result, or the type of the DomainError it raised."""
    try:
        return fn(*args).tobytes()
    except DomainError as exc:
        return type(exc)


# rows whose |y|^2 overflows (|y| up to exp(EXP_CAP)), rows below 2^-511
# (subnormals and zeros too) and rows of ordinary size, mixed in one batch
NORM_COORDS = st.one_of(
    st.floats(-4e303, 4e303),
    st.floats(-2.0**-511, 2.0**-511),
    st.floats(-1e3, 1e3),
    st.sampled_from([0.0, -0.0, 5e-324, 1e154, 1.4e154]),
)


@PROPERTY
@given(st.sampled_from(BEAMS), st.lists(st.tuples(NORM_COORDS, NORM_COORDS, NORM_COORDS),
                                        min_size=1, max_size=30))
def test_inverse_branch_is_the_reduced_inverse_branch(beam, rows):
    y = np.array(rows)
    y[:, 2] = np.abs(y[:, 2]) * (1.0 if sum(beam) % 2 == 0 else -1.0)
    assert outcome(zorich_inverse, y, beam) == outcome(reduced_zorich_inverse, y, beam)
    with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
        u = y / np.hypot(np.hypot(y[:, 0], y[:, 1]), y[:, 2])[:, None]
    u = u[np.all(np.isfinite(u), axis=-1)]
    u[:, 2] = np.abs(u[:, 2])
    assert outcome(h_inverse, u) == outcome(reduced_h_inverse, u)


@PROPERTY
@given(st.lists(st.tuples(st.floats(-PHASE_CAP, PHASE_CAP), st.floats(-PHASE_CAP, PHASE_CAP)),
                min_size=1, max_size=50))
def test_h_extended_unit_norm_and_parity(rows):
    p = np.array(rows)
    v = h_extended(p)
    np.testing.assert_allclose(np.linalg.norm(v, axis=-1), 1.0, atol=1e-12, rtol=0)
    parity_sign = (1 - 2 * fold(p[:, 0]).parity) * (1 - 2 * fold(p[:, 1]).parity)
    np.testing.assert_array_equal(np.sign(v[:, 2]), parity_sign)


MAX_FLOAT = 1.7976931348623157e308


# a third coordinate of a line's point or direction at the edges of
# default_s_range's arithmetic: the largest float, the horizontal threshold
# 1e-12 and its neighbours, subnormals, the window's numerator constants and
# log-uniform magnitudes from the least subnormal to the largest float
WINDOW_COORDS = st.one_of(
    signed(st.sampled_from([MAX_FLOAT, 1e-12, math.nextafter(1e-12, 0.0),
                            math.nextafter(1e-12, 1.0), 27.0, 1.0, 5e-324])),
    st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),
    signed(st.floats(-323.0, 308.25).map(lambda e: 10.0**e)),
)
# (p3, d3) whose quotient p3 / d3 sits at the overflow edge
EDGE_QUOTIENTS = st.builds(
    lambda q, d3: (q * d3, d3),
    signed(st.floats(1e307, MAX_FLOAT)),
    signed(st.floats(-12.0, 0.0).map(lambda e: 10.0**e)),
)


@PROPERTY
@given(st.one_of(st.tuples(WINDOW_COORDS, WINDOW_COORDS), EDGE_QUOTIENTS))
def test_default_window_is_empty_or_of_finite_width(p3_d3):
    # both ends come from numerators -1 - p3 and 27 - p3 that are equal once
    # p3 is large enough to overflow a quotient, so no window has finite ends
    # and an infinite width
    p3, d3 = p3_d3
    lo, hi = default_s_range(LineSpec(p=(0.0, 0.0, p3), d=(1.0, 0.3, d3)))
    assert not lo < hi or math.isfinite(hi - lo)


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
    traces = list(map(_finish, _trace_lines(lines, box_r, budget, h_max)))
    assert len(traces) == len(lines)
    for line, trace in zip(lines, traces):
        assert_same_trace(trace, adaptive_trace(line, box_r, budget, h_max))


@pytest.mark.parametrize("group_samples",
                         sorted({12_000, 2**17, 2**18, density._GROUP_SAMPLES}))
@pytest.mark.parametrize("at_budget", [0, 1, 2])
def test_grouped_trace_truncates_per_line(monkeypatch, group_samples, at_budget):
    # one line spends its budget while the two others converge below it; a
    # cap of two lines' budget also splits the three into groups of two and one
    monkeypatch.setattr(density, "_GROUP_SAMPLES", group_samples)
    ball = base_sequence(1)
    box_r, budget = ball.center_norm + ball.radius, 6000
    lines = [LineSpec(YPoint("+x1", 0.4, 0.35)), LineSpec(YPoint("+x1", 0.5, 0.3))]
    lines.insert(at_budget, LineSpec(YPoint("+x1", 0.37, 0.002)))
    traces = list(map(_finish, _trace_lines(lines, box_r, budget, ball.radius)))
    evals = [t.audit.evals for t in traces]
    assert evals[at_budget] == budget
    assert max(evals[:at_budget] + evals[at_budget + 1:]) < budget
    for line, trace in zip(lines, traces):
        assert_same_trace(trace, adaptive_trace(line, box_r, budget, ball.radius))


def reference_trace(line, box_r, budget, h_max, depths=MAX_DEPTH):
    """adaptive_trace of one line, written as a plain loop over depths.

    Children of the intervals split at one depth come left halves first,
    then right halves; at the budget a line keeps its first needed children.
    At most `depths` runs of midpoints are evaluated (the tracer's MAX_DEPTH).
    """
    skip_exp = math.log(2.0 * box_r) + 1.0
    s = np.linspace(*default_s_range(line), budget // 3)
    f, z3, status = masked_second_iterate(line.point_at(s))
    lo = np.arange(len(s) - 1)
    hi = lo + 1
    for _ in range(depths):
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
        mid_f, mid_z3, mid_status = masked_second_iterate(line.point_at(mid_s))
        mid = np.arange(len(s), len(s) + len(mid_s))
        s, f = np.concatenate([s, mid_s]), np.concatenate([f, mid_f])
        z3, status = np.concatenate([z3, mid_z3]), np.concatenate([status, mid_status])
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
    in_box = (status == OK) & np.all(np.abs(f) <= box_r, axis=-1)
    return _finish(density._Walk(s, f, density._flags(status, in_box), h_max))


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
    traces = list(map(_finish, _trace_lines(lines, box_r, budget, ball.radius)))
    for line, trace in zip(lines, traces):
        want = reference_trace(line, box_r, budget, ball.radius)
        assert want.audit.evals == budget
        assert_same_trace(adaptive_trace(line, box_r, budget, ball.radius), want)
        assert_same_trace(trace, want)


@pytest.mark.parametrize("depths", [2, 3])
def test_depth_cap_stops_the_trace(monkeypatch, depths):
    # lines that would refine deeper stop after `depths` runs of midpoints,
    # alone and grouped, with budget to spare
    ball = base_sequence(1)
    box_r, budget = ball.center_norm + ball.radius, 20_000
    lines = [
        LineSpec(YPoint("+x1", 0.4, 0.35)),
        LineSpec(YPoint("+x1", 0.37, 0.002)),
        LineSpec(YPoint("-x2", -0.61, 0.01)),
    ]
    deeper = [reference_trace(line, box_r, budget, ball.radius, depths + 1) for line in lines]
    want = [reference_trace(line, box_r, budget, ball.radius, depths) for line in lines]
    monkeypatch.setattr(density, "MAX_DEPTH", depths)
    traces = list(map(_finish, _trace_lines(lines, box_r, budget, ball.radius)))
    for line, trace, capped, more in zip(lines, traces, want, deeper):
        assert capped.audit.evals < more.audit.evals <= budget
        assert_same_trace(adaptive_trace(line, box_r, budget, ball.radius), capped)
        assert_same_trace(trace, capped)


@pytest.mark.parametrize("group_samples",
                         sorted({12_000, 2**17, 2**18, density._GROUP_SAMPLES}))
def test_blocked_trace_is_the_unblocked_trace(monkeypatch, group_samples):
    # blocks of a small prime straddle the seed grids (2000 points), the line
    # regions of a group's midpoints and the groups' interval lists
    ball = base_sequence(1)
    box_r, budget = ball.center_norm + ball.radius, 6000
    bound = [
        LineSpec(YPoint("+x1", 0.37, 0.002)),
        LineSpec(YPoint("-x2", -0.61, 0.01)),
        LineSpec(YPoint("+x2", 0.2, 0.05)),
    ]
    lines = [*bound, LineSpec(YPoint("+x1", 0.4, 0.35)), LineSpec(YPoint("+x1", 0.5, 0.3))]
    lone = [adaptive_trace(line, box_r, budget, ball.radius) for line in lines]
    want = [reference_trace(line, box_r, budget, ball.radius) for line in bound]
    sizes, on_caller, caller = [], set(), threading.get_ident()

    def kernel(x, _real=density.second_iterate):
        sizes.append(len(x))
        on_caller.add(threading.get_ident() == caller)
        return _real(x)

    monkeypatch.setattr(density, "_BLOCK", 997)
    monkeypatch.setattr(density, "_GROUP_SAMPLES", group_samples)
    monkeypatch.setattr(density, "second_iterate", kernel)
    traces = list(map(_finish, _trace_lines(lines, box_r, budget, ball.radius)))
    assert max(sizes) == 997 and sum(sizes) == sum(t.audit.evals for t in traces)
    # with two CPUs the blocks ran on the caller and the worker, so the
    # asserts below cover the threaded path (a worker's ident can change
    # from call to call, so only "on the caller or not" is recorded)
    assert on_caller == ({True, False} if density._cpus() >= 2 else {True})
    for trace, alone in zip(traces, lone):
        assert_same_trace(trace, alone)
    for trace, reference in zip(traces, want):
        assert_same_trace(trace, reference)


# one group whose first and last lines stop after their seed grids, with a
# horizontal line that spends its budget dropping samples to overflow, a
# budget-bound line, a converging one and a horizontal line whose samples
# are UNRESOLVABLE, overflow or in the box side by side
HARD_GROUP = [
    LineSpec(p=(0.0, 0.0, -10.0), d=(1.0, 0.3, 0.0)),
    LineSpec(p=(0.0, 0.0, 8.0), d=(1.0, 0.3, 0.0)),
    LineSpec(YPoint("+x1", 0.37, 0.002)),
    LineSpec(YPoint("+x1", 0.4, 0.35)),
    LineSpec(p=(0.0, 0.0, 35.0), d=(1.0, 0.3, 0.0)),
    LineSpec(p=(0.0, 0.0, -3.0), d=(1.0, 0.3, 0.0)),
]


@pytest.mark.parametrize("depths", [MAX_DEPTH, 3])
def test_a_hard_group_is_its_lines_traced_alone(monkeypatch, depths):
    ball = base_sequence(1)
    box_r, budget = ball.center_norm + ball.radius, 6000
    assert len(HARD_GROUP) * budget <= density._GROUP_SAMPLES
    want = [reference_trace(line, box_r, budget, ball.radius, depths) for line in HARD_GROUP]
    evals = [trace.audit.evals for trace in want]
    assert evals[0] == evals[-1] == budget // 3 and evals[2] == budget
    if depths == MAX_DEPTH:
        assert evals[1] == budget and want[1].audit.dropped_overflow == 1362
    monkeypatch.setattr(density, "_BLOCK", 997)
    monkeypatch.setattr(density, "MAX_DEPTH", depths)
    traces = list(map(_finish, _trace_lines(HARD_GROUP, box_r, budget, ball.radius)))
    for line, trace, reference in zip(HARD_GROUP, traces, want):
        assert_same_trace(adaptive_trace(line, box_r, budget, ball.radius), reference)
        assert_same_trace(trace, reference)
    # the hit scan reads the same samples through the group's row index
    hits = [hits_ball(walk, ball) for walk in _trace_lines(HARD_GROUP, box_r, budget, ball.radius)]
    for line, hit in zip(HARD_GROUP, hits):
        (walk,) = _trace_lines([line], box_r, budget, ball.radius)
        assert hit == hits_ball(walk, ball)



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


def probed_face_toward_wall(cone, plane_index):
    """The face-toward-wall rule as a search: the face whose probe point, 0.7
    along its axis in the parameter square, is nearest the wall."""
    wall = HALF_PI + plane_index * math.pi
    probes = {"+x1": (0.7, 0.0), "-x1": (-0.7, 0.0), "+x2": (0.0, 0.7), "-x2": (0.0, -0.7)}
    return min(FACE_IDS, key=lambda face: abs(float(cone_point(cone, probes[face])[0]) - wall))


@PROPERTY
@given(CONES, st.integers(-12, 12))
def test_face_toward_wall_is_the_nearest_probed_face(cone, plane_index):
    assert face_toward_wall(cone, plane_index) == probed_face_toward_wall(cone, plane_index)


def column_block(x):
    """x as the transpose of a C-ordered (3, n) block, the tracer's layout."""
    view = np.ascontiguousarray(x.T).T
    assert view.T.flags.c_contiguous and not view.flags.c_contiguous
    return view


@pytest.mark.parametrize("batch", ["none", "some", "all", "unresolvable"])
def test_column_blocks_give_the_row_bits_in_their_layout(batch):
    # the transpose of a (3, n) block gives the bits of its C-ordered copy,
    # and the kernel's results come back in the layout of its input
    if batch == "unresolvable":  # input phases past PHASE_CAP and first-stage ones
        x = layout_batch("some")
        x[3::11, 0] = 2.0 * PHASE_CAP
        x[5::11, 2] = LN_PHASE_CAP + 3.0
    else:
        x = layout_batch(batch)
    status = second_iterate(x)[1]
    unresolvable = [np.any(status[rows] == UNRESOLVABLE) for rows in (slice(3, None, 11),
                                                                      slice(5, None, 11))]
    assert unresolvable == [batch == "unresolvable"] * 2
    got, want = second_iterate(column_block(x)), second_iterate(x)
    for g, w in zip(got, want, strict=True):
        assert_same_bits(g, w)
    assert got[0].T.flags.c_contiguous and want[0].flags.c_contiguous
    # zorich and h_extended, on the rows zorich accepts
    ok = (x[:, 2] <= EXP_CAP) & (np.max(np.abs(x[:, :2]), axis=-1) <= PHASE_CAP)
    for fn in (zorich, h_extended):
        got, want = fn(column_block(x[ok])), fn(x[ok])
        assert_same_bits(got, want)
        assert got.T.flags.c_contiguous and want.flags.c_contiguous
    got = h_extended(column_block(x[:, :2]))
    assert_same_bits(got, h_extended(x[:, :2]))
    assert got.T.flags.c_contiguous
