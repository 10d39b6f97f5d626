import math

import numpy as np
import pytest

from zorichlab.errors import DomainError
from zorichlab.group import (
    GENERATORS,
    IDENTITY,
    GroupElement,
    apply,
    compose,
    find_g,
    from_word,
    inverse,
)
from zorichlab.zorich import Beam, zorich, zorich_inverse

PI = math.pi


def random_elements(rng, n):
    return [
        GroupElement(int(m), int(k), bool(f))
        for m, k, f in zip(
            rng.integers(-6, 7, n), rng.integers(-6, 7, n), rng.integers(0, 2, n)
        )
    ]


class TestAction:
    def test_translation(self):
        g = GroupElement(1, 0, False)
        np.testing.assert_allclose(apply(g, (0.0, 0.0, 5.0)), [2 * PI, 0.0, 5.0])

    def test_flip(self):
        g = GroupElement(0, 0, True)
        np.testing.assert_allclose(apply(g, (0.0, 0.0, 5.0)), [PI, PI, 5.0])

    def test_flip_is_involution(self):
        g = GroupElement(0, 0, True)
        rng = np.random.default_rng(2)
        x = rng.uniform(-10, 10, size=(50, 3))
        np.testing.assert_allclose(apply(g, apply(g, x)), x, atol=1e-12)

    def test_x3_unchanged(self):
        rng = np.random.default_rng(3)
        for g in random_elements(rng, 20):
            x = rng.uniform(-5, 5, size=3)
            assert apply(g, x)[2] == x[2]


class TestGroupLaws:
    def test_compose_matches_pointwise(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(-8, 8, size=(20, 3))
        for g in random_elements(rng, 30):
            for h in random_elements(rng, 3):
                lhs = apply(compose(g, h), x)
                rhs = apply(g, apply(h, x))
                np.testing.assert_allclose(lhs, rhs, atol=1e-11)

    def test_associativity_exact(self):
        rng = np.random.default_rng(7)
        es = random_elements(rng, 60)
        for g, h, k in zip(es[::3], es[1::3], es[2::3]):
            assert compose(compose(g, h), k) == compose(g, compose(h, k))

    def test_identity_and_inverse_exact(self):
        rng = np.random.default_rng(11)
        for g in random_elements(rng, 50):
            assert compose(g, IDENTITY) == g
            assert compose(IDENTITY, g) == g
            assert compose(inverse(g), g) == IDENTITY
            assert compose(g, inverse(g)) == IDENTITY

    def test_inverse_action(self):
        rng = np.random.default_rng(13)
        x = rng.uniform(-8, 8, size=(10, 3))
        for g in random_elements(rng, 20):
            np.testing.assert_allclose(apply(inverse(g), apply(g, x)), x, atol=1e-11)


class TestWords:
    def test_flip_conjugates_translation(self):
        assert from_word(["g3", "g1", "g3"]) == GroupElement(-1, 0, False)

    def test_empty_word(self):
        assert from_word([]) == IDENTITY

    def test_word_action_matches_sequential(self):
        rng = np.random.default_rng(17)
        syms = list(GENERATORS)
        x = rng.uniform(-5, 5, size=3)
        for _ in range(50):
            word = [syms[i] for i in rng.integers(0, len(syms), rng.integers(0, 9))]
            g = from_word(word)
            y = x.copy()
            for sym in reversed(word):
                y = apply(GENERATORS[sym], y)
            np.testing.assert_allclose(apply(g, x), y, atol=1e-11)

    def test_unknown_symbol(self):
        with pytest.raises(DomainError):
            from_word(["g4"])


class TestStrongAutomorphy:
    def test_invariance_under_words(self):
        rng = np.random.default_rng(19)
        n = 1000
        x = np.column_stack(
            [rng.uniform(-9, 9, n), rng.uniform(-9, 9, n), rng.uniform(-4, 4, n)]
        )
        zx = zorich(x)
        syms = list(GENERATORS)
        for length in range(9):
            word = [syms[i] for i in rng.integers(0, len(syms), length)]
            g = from_word(word)
            err = np.linalg.norm(zorich(apply(g, x)) - zx, axis=-1)
            assert np.max(err / np.maximum(1.0, np.exp(x[:, 2]))) <= 1e-9

    def test_fiber_transitivity_via_find_g(self):
        # build two preimages of the same point on different beams, solve for g
        rng = np.random.default_rng(23)
        for _ in range(200):
            y = rng.normal(size=3)
            y[2] = abs(y[2]) + 0.1
            beams = [(0, 0), (2, 0), (-1, 1), (1, -1)]
            i = beams[rng.integers(0, len(beams))]
            j = beams[rng.integers(0, len(beams))]
            x1 = zorich_inverse(y, Beam(*i))
            x2 = zorich_inverse(y, Beam(*j))
            g = find_g(x1, x2)
            assert np.max(np.abs(apply(g, x1) - x2)) <= 1e-9

    def test_find_g_rejects_unrelated(self):
        with pytest.raises(DomainError):
            find_g((0.0, 0.0, 0.0), (1.0, 0.0, 0.0))

