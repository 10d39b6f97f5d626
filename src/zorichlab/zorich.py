"""The piecewise-exponential map on R^3, its building blocks and inverse branches.

Conventions used throughout the library:

* angular coordinates (the first two axes) are radians;
* the base square B is ``max(|x1|, |x2|) <= pi/2``;
* ``beam(i, j)`` is the vertical prism obtained by translating B by
  ``(i*pi, j*pi)``; the map sends the interior of a beam onto the open upper
  half space when ``i + j`` is even and onto the open lower half space when
  it is odd;
* the map is many-to-one, so every inverse branch takes an explicit beam
  index.  Nothing in this module guesses a branch.

All functions are vectorized over leading axes: points are arrays of shape
``(..., 2)`` or ``(..., 3)``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError, ExponentOverflowError, ParityMismatchError

HALF_PI = math.pi / 2.0
TWO_PI = 2.0 * math.pi

# exp(x3) must stay finite in float64; the second iterate checks the
# intermediate third coordinate against the same cap.
EXP_CAP = 700.0

# beyond this magnitude of the intermediate coordinates the fold phase loses
# float resolution, so second-stage images would be numerically meaningless
PHASE_CAP = 1e13

# per-point status of `second_iterate`
OK = 0
OVERFLOW_FIRST = 1
OVERFLOW_SECOND = 2
UNRESOLVABLE = 3

# the faces of the base square (so of each beam and cone), as (sign, axis):
# face "+x1" is the side x1 = pi/2, its quadrant sign*p[axis] >= |p[other]|
FACE_AXIS = {"+x1": (1.0, 0), "-x1": (-1.0, 0), "+x2": (1.0, 1), "-x2": (-1.0, 1)}

_SQUARE_TOL = 1e-12
_UNIT_TOL = 1e-9
_POLE_TOL = 1e-12


class FoldResult(NamedTuple):
    """Coordinate folded into [-pi/2, pi/2] plus the strip it came from (arrays for arrays)."""

    folded: float | np.ndarray
    strip: int | np.ndarray
    parity: int | np.ndarray


class Beam(NamedTuple):
    """Integer beam index; parity decides which half space the image fills."""

    i: int
    j: int

    @property
    def parity(self) -> int:
        return (self.i + self.j) % 2

    @property
    def resolvable(self) -> bool:
        """max(|i|, |j|)*pi <= PHASE_CAP: the beam's phases keep float resolution."""
        k = max(abs(self.i), abs(self.j))
        return k <= PHASE_CAP and k * math.pi <= PHASE_CAP  # a larger int's k*pi may overflow


def _fold_arrays(t):
    """Vectorized fold of a contiguous array of any shape: returns (folded, strip,
    (-1)**strip) as float arrays of its shape.

    Each pass after the first writes into its own result: same operations,
    same bits, fewer temporaries.  Every pass is elementwise, so the rows of a
    (2, n) array fold as each would alone, into contiguous rows.
    """
    q = t + HALF_PI
    q /= math.pi
    np.floor(q, out=q)
    # q mod 2, exactly (q is an integer) and several times faster than np.mod
    sign = q * 0.5
    np.floor(sign, out=sign)
    sign *= 2.0
    np.subtract(q, sign, out=sign)
    sign *= 2.0
    np.subtract(1.0, sign, out=sign)
    folded = q * math.pi
    np.subtract(t, folded, out=folded)
    folded *= sign
    return folded, q, sign


def fold(t):
    """Reflect t into [-pi/2, pi/2].

    strip = floor((t + pi/2)/pi) counts how many square sides were crossed;
    folded = (-1)**strip * (t - strip*pi).  ``unfold`` is the exact inverse.
    """
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise DomainError("fold: input must be finite")
    folded, q, _ = _fold_arrays(t.reshape(-1))
    if t.ndim == 0:
        qi = int(q[0])
        return FoldResult(float(folded[0]), qi, qi % 2)
    strip = q.astype(np.int64).reshape(t.shape)
    return FoldResult(folded.reshape(t.shape), strip, np.mod(strip, 2))


def unfold(folded, strip):
    """Inverse of fold: strip*pi + (-1)**strip * folded."""
    folded = np.asarray(folded, dtype=float)
    strip = np.asarray(strip)
    return strip * math.pi + (1 - 2 * np.mod(strip, 2)) * folded


def _norm3(v) -> np.ndarray:
    """np.linalg.norm(v, axis=-1) of 3-vector rows, bit for bit, from the columns.

    The sum runs in the order of numpy's reduction, (x*x + y*y) + z*z, and
    is several times faster than a reduction over the length-3 last axis.
    """
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    return np.sqrt(x * x + y * y + z * z)


def _chart(x1, x2, m, sign, out):
    """h_square at base-square points into out, m = max(|x1|, |x2|), third coordinate
    times sign; out[..., k] is a contiguous row when out is a (3, n) block's transpose."""
    r = np.hypot(x1, x2)
    scale = np.sin(m)
    positive = r > 0.0
    if positive.all():  # off the square's centre, which almost no sample hits
        scale /= r
    else:  # the centre maps to the pole; a NaN r also takes this branch
        scale = np.where(positive, scale / np.where(positive, r, 1.0), 0.0)
    np.multiply(x1, scale, out=out[..., 0])
    np.multiply(x2, scale, out=out[..., 1])
    np.multiply(np.cos(m), sign, out=out[..., 2])
    return out


def h_square(p):
    """Bi-Lipschitz map from the base square onto the upper unit hemisphere.

    h(x1, x2) = (x1*sin(M)/r, x2*sin(M)/r, cos(M)) with M = max(|x1|, |x2|)
    and r = |(x1, x2)|; the square center maps to the pole (0, 0, 1).
    """
    p = np.asarray(p, dtype=float)
    x1 = p[..., 0]
    x2 = p[..., 1]
    m = np.maximum(np.abs(x1), np.abs(x2))
    if np.any(m > HALF_PI + _SQUARE_TOL):
        raise DomainError("h_square: point outside the base square")
    return _chart(x1, x2, m, 1.0, np.empty(np.shape(m) + (3,)))


def h_extended(p):
    """Doubly periodic extension of h_square to the whole plane.

    Each reflection in a square side reflects the image across the equator,
    so the third coordinate picks up the fold-parity sign.  The fold is
    mathematically inside the base square, but for huge inputs the rounding
    of strip*pi can overshoot it, so the folded values are clipped; the
    phase uncertainty at such magnitudes is the caller's concern.
    """
    p = np.asarray(p, dtype=float)
    rows = p[..., :2].reshape(-1, 2)
    # both columns as the rows of one contiguous (2, n) array, one point
    # included: one fold pass and one clip for both, each writing in place.
    # The transpose of a (2, n) or (3, n) block is one already, and its
    # result is the transpose of a (3, n) block: the input's layout.
    ab, _, signs = _fold_arrays(np.ascontiguousarray(rows.T))
    ab.clip(-HALF_PI, HALF_PI, out=ab)  # the method skips np.clip's wrapper
    a, b = ab
    sign = signs[0]
    sign *= signs[1]
    m = np.abs(a)
    np.maximum(m, np.abs(b), out=m)
    out = _chart(a, b, m, sign, np.empty_like(rows, shape=(len(rows), 3)))
    return out.reshape(p.shape[:-1] + (3,))


def _phase_ok(v):
    """max(|v1|, |v2|) <= PHASE_CAP for each row: the fold resolves its phase."""
    return np.maximum(np.abs(v[..., 0]), np.abs(v[..., 1])) <= PHASE_CAP


def _lift(x):
    """exp(x3) * h_extended(x1, x2), for x3 already checked against EXP_CAP."""
    out = h_extended(x[..., :2])
    out *= np.exp(x[..., 2])[..., None]
    return out


def _lift_where(x, ok):
    """_lift where ok holds, NaN elsewhere, in x's layout; masked copies only when
    some point fails.  The points are gathered as the coordinate rows of a
    (3, k) block and scattered one coordinate row at a time, over twice as
    fast as one (3, k) scatter."""
    if ok.size and ok.all():  # an empty batch makes no h_extended call
        return _lift(x)
    rows = x.reshape(-1, 3)
    out = np.full_like(rows, np.nan)
    i = np.flatnonzero(ok)  # faster than a boolean gather
    if len(i):
        for row, lifted in zip(out.T, _lift(rows.T.take(i, axis=1).T).T):
            row[i] = lifted
    return out.reshape(x.shape)


def zorich(x):
    """Evaluate the map: exp(x3) * h_extended(x1, x2).

    |result| equals exp(x3) exactly up to rounding.  Raises
    ExponentOverflowError for x3 beyond the float64 cap, and DomainError for
    a phase max(|x1|, |x2|) past PHASE_CAP, which the fold cannot resolve.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise DomainError("zorich: input must be finite")
    if not _phase_ok(x).all():
        raise DomainError(f"zorich: a phase max(|x1|, |x2|) is past PHASE_CAP = {PHASE_CAP:g}")
    if np.any(x[..., 2] > EXP_CAP):
        raise ExponentOverflowError("first", float(np.max(x[..., 2])))
    return _lift(x)


def second_iterate(x):
    """Second iterate with a per-point status instead of exceptions.

    Returns (f, z3, status): z3 is the second exponent (+inf after a
    first-stage overflow), status one of OK, OVERFLOW_FIRST, OVERFLOW_SECOND
    (x3 or z3 above EXP_CAP; f is NaN there) and UNRESOLVABLE (a phase of the
    input or of the first stage past PHASE_CAP; f is computed but its phase
    is meaningless).  f comes back in x's layout: the transpose of a (3, n)
    block is evaluated as contiguous coordinate rows.
    """
    x = np.asarray(x, dtype=float)
    ok1 = x[..., 2] <= EXP_CAP
    z = _lift_where(x, ok1)
    z3 = np.where(ok1, z[..., 2], np.inf)
    ok2 = z3 <= EXP_CAP
    f = _lift_where(z, ok2)
    status = np.where(
        ok1,
        np.where(ok2, np.where(_phase_ok(x) & _phase_ok(z), OK, UNRESOLVABLE), OVERFLOW_SECOND),
        OVERFLOW_FIRST,
    )
    return f, z3, status


def zorich_second(x):
    """Second iterate of the map.

    The intermediate third coordinate must also respect the exponent cap;
    overflow errors carry a stage tag ("first" or "second").  A phase past
    PHASE_CAP, of x or of the first stage, raises DomainError.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise DomainError("zorich_second: input must be finite")
    f, z3, status = second_iterate(x)
    if np.any(status == OVERFLOW_FIRST):
        raise ExponentOverflowError("first", float(np.max(x[..., 2])))
    if np.any(status == OVERFLOW_SECOND):
        raise ExponentOverflowError("second", float(np.max(z3)))
    if np.any(status == UNRESOLVABLE):
        raise DomainError(f"zorich_second: a phase is past PHASE_CAP = {PHASE_CAP:g}")
    return f


def h_inverse(u):
    """Invert h_square on the closed upper hemisphere.

    M = arctan2(hypot(u1, u2), u3), exact near the pole too; below the pole
    cutoff the preimage is the origin, otherwise M * (u1, u2) / max(|u1|, |u2|).
    """
    u = np.asarray(u, dtype=float)
    norm = _norm3(u)
    if np.any(np.abs(norm - 1.0) > _UNIT_TOL):
        raise DomainError("h_inverse: input must be a unit vector")
    u3 = u[..., 2]
    if np.any(u3 < -_POLE_TOL):
        raise DomainError("h_inverse: third coordinate must be >= 0")
    m = np.arctan2(np.hypot(u[..., 0], u[..., 1]), u3)
    den = np.maximum(np.abs(u[..., 0]), np.abs(u[..., 1]))
    at_pole = m < _POLE_TOL
    safe_den = np.where(at_pole, 1.0, den)
    scale = np.where(at_pole, 0.0, m / safe_den)
    return np.stack([u[..., 0] * scale, u[..., 1] * scale], axis=-1)


def zorich_inverse(y, beam):
    """Inverse branch of the map in the named beam.

    x3 = ln|y|; the unit direction is reflected to the upper hemisphere when
    the beam parity is odd, inverted through h_inverse and unfolded into the
    beam.  The sign of y3 must match the beam parity (y3 = 0 is accepted by
    both parities and resolves to the shared face).  |y| runs over the map's
    range, 0 < |y| <= exp(EXP_CAP); a row whose |y|^2 overflows or is not a
    normal float (|y| < 2^-511) is normed after dividing it by max |y_i|.  A
    beam past PHASE_CAP (not Beam.resolvable) raises DomainError.
    """
    y = np.asarray(y, dtype=float)
    beam = Beam(*beam)
    if not beam.resolvable:
        raise DomainError(f"zorich_inverse: beam {tuple(beam)} is past PHASE_CAP")
    with np.errstate(over="ignore"):
        norm = _norm3(y)
    if norm.size and not 2.0**-511 <= norm.min() <= norm.max() < np.inf:
        big = np.max(np.abs(y), axis=-1)
        scale = np.where(((norm >= 2.0**-511) & (norm < np.inf)) | (big == 0.0), 1.0, big)
        with np.errstate(over="ignore"):
            norm = scale * _norm3(y / scale[..., None])
        if np.any(norm == 0.0):
            raise DomainError("zorich_inverse: zero input has no preimage")
        if not math.log(norm.max()) <= EXP_CAP:
            raise DomainError(f"zorich_inverse: need 0 < |y| <= exp({EXP_CAP:g}), the map's range")
    y3 = y[..., 2]
    if beam.parity == 0 and np.any(y3 < 0.0):
        raise ParityMismatchError("zorich_inverse: y3 < 0 needs an odd-parity beam")
    if beam.parity == 1 and np.any(y3 > 0.0):
        raise ParityMismatchError("zorich_inverse: y3 > 0 needs an even-parity beam")
    u = y / norm[..., None]
    if beam.parity == 1:
        u = u.copy()
        u[..., 2] = -u[..., 2]
    ab = h_inverse(u)
    x1 = unfold(ab[..., 0], beam.i)
    x2 = unfold(ab[..., 1], beam.j)
    return np.stack([x1, x2, np.log(norm)], axis=-1)


def branch_distance(x):
    """Euclidean distance from (x1, x2) to the branch-line lattice.

    The branch set is the family of vertical lines through the beam corners
    (pi/2 + j*pi, pi/2 + k*pi).  Accepts (..., 2) or (..., 3) input.
    """
    x = np.asarray(x, dtype=float)
    t = (x[..., :2] - HALF_PI) / math.pi
    d = (t - np.round(t)) * math.pi
    return np.hypot(d[..., 0], d[..., 1])
