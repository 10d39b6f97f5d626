"""Deck-transformation group of the map: canonical form and action.

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
from .zorich import TWO_PI


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
    for sym in word:
        if sym not in GENERATORS:
            raise DomainError(f"from_word: unknown generator {sym!r}")
    return reduce(compose, (GENERATORS[sym] for sym in word), IDENTITY)


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

