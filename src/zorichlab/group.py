"""Deck-transformation group of the map: canonical form, action, reduction.

An element (m, n, flip) acts by optionally applying the point reflection
(x1, x2) -> (pi - x1, pi - x2) and then translating by 2*pi*(m, n); the third
coordinate is untouched.  The group is Z^2 semidirect Z_2 (flip conjugates
translations to their inverses), so composition is exact integer arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import DomainError
from .zorich import HALF_PI, TWO_PI


@dataclass(frozen=True)
class GroupElement:
    m: int = 0
    n: int = 0
    flip: bool = False


IDENTITY = GroupElement()

GENERATORS = {
    "g1": GroupElement(1, 0, False),
    "g1_inv": GroupElement(-1, 0, False),
    "g2": GroupElement(0, 1, False),
    "g2_inv": GroupElement(0, -1, False),
    "g3": GroupElement(0, 0, True),
}


def apply(g: GroupElement, x):
    """Act on points of shape (..., 3)."""
    x = np.asarray(x, dtype=float)
    x1 = x[..., 0]
    x2 = x[..., 1]
    if g.flip:
        x1 = math.pi - x1
        x2 = math.pi - x2
    return np.stack([x1 + TWO_PI * g.m, x2 + TWO_PI * g.n, x[..., 2]], axis=-1)


def compose(g: GroupElement, h: GroupElement) -> GroupElement:
    """Return g o h, i.e. apply(compose(g, h), x) == apply(g, apply(h, x))."""
    s = -1 if g.flip else 1
    return GroupElement(g.m + s * h.m, g.n + s * h.n, g.flip != h.flip)


def inverse(g: GroupElement) -> GroupElement:
    # flips are involutions in canonical form
    if g.flip:
        return g
    return GroupElement(-g.m, -g.n, False)


def from_word(word) -> GroupElement:
    """Fold a generator word (left-to-right product) into canonical form."""
    elems = []
    for sym in word:
        if isinstance(sym, GroupElement):
            elems.append(sym)
        elif sym in GENERATORS:
            elems.append(GENERATORS[sym])
        else:
            raise DomainError(f"from_word: unknown generator {sym!r}")
    return reduce(compose, elems, IDENTITY)


def find_g(x, y) -> GroupElement:
    """Solve apply(g, x) == y for g, assuming x and y are on one orbit.

    Two linear integer systems (one per flip value); raises DomainError when
    neither rounds to an exact solution within 1e-9 (relative to the
    largest coordinate, at least 1).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    scale = max(1.0, float(np.max(np.abs(x))), float(np.max(np.abs(y))))
    for flip in (False, True):
        if flip:
            m = round((y[0] + x[0] - math.pi) / TWO_PI)
            n = round((y[1] + x[1] - math.pi) / TWO_PI)
        else:
            m = round((y[0] - x[0]) / TWO_PI)
            n = round((y[1] - x[1]) / TWO_PI)
        g = GroupElement(int(m), int(n), flip)
        if float(np.max(np.abs(apply(g, x) - y))) <= 1e-9 * scale:
            return g
    raise DomainError("find_g: points are not on one group orbit")


def _reduce_once(v: float) -> tuple[float, int]:
    """Shift v by a multiple of 2*pi into [-pi/2, 3*pi/2).

    Rounding can leave v - 2*pi*k a few ulps outside the interval; v is then
    at one of its ends but for rounding, and goes to the lower end.
    """
    k = math.floor((v + HALF_PI) / TWO_PI)
    r = v - TWO_PI * k
    if r >= 3.0 * HALF_PI:
        return -HALF_PI, k + 1
    return max(r, -HALF_PI), k


def reduce_to_fundamental_domain(x):
    """Move x into the double-beam fundamental domain, returning (x', g).

    The domain is x1 in [-pi/2, 3*pi/2), x2 in [-pi/2, pi/2), all x3, with
    one extra convention: orbits with x2 = pi/2 (mod 2*pi) never meet that
    half-open box (the flip maps the x2 = pi/2 plane to itself), so those
    points keep x2' = pi/2 and take x1' in [-pi/2, pi/2].  apply(g, x') == x.
    """
    x = np.asarray(x, dtype=float)
    x1, x2, x3 = float(x[0]), float(x[1]), float(x[2])
    x2a, n0 = _reduce_once(x2)
    if x2a < HALF_PI:
        # pure translation
        x1p, m = _reduce_once(x1)
        return np.array([x1p, x2a, x3]), GroupElement(m, n0, False)
    if x2a > HALF_PI:
        # flip route: x = apply((m, n, flip), x') with x' = reduce(pi - x)
        x1p, j = _reduce_once(math.pi - x1)
        x2p, k = _reduce_once(math.pi - x2)
        if x2p < HALF_PI:
            return np.array([x1p, x2p, x3]), GroupElement(-j, -k, True)
        # else both routes round x2' to pi/2 or above: x is on the face but
        # for rounding
    # face x2 = pi/2 (mod 2*pi): flip fixes the face, pick x1' in [-pi/2, pi/2]
    x1p, m = _reduce_once(x1)
    if x1p <= HALF_PI:
        return np.array([x1p, HALF_PI, x3]), GroupElement(m, n0, False)
    x1p, j = _reduce_once(math.pi - x1)  # rounding may put x1p a few ulps past pi/2
    return np.array([min(x1p, HALF_PI), HALF_PI, x3]), GroupElement(-j, n0, True)
