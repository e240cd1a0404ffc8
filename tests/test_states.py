import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pennyflip.angles import Angle
from pennyflip.dihedral import FLIP, HADAMARD, IDENTITY, isometries
from pennyflip.orbits import orbit_of_basis
from pennyflip.states import (KET_MINUS, KET_ONE, KET_PLUS, KET_ZERO,
                              CoinState, act, win_probability)


def test_named_states():
    assert KET_ZERO.phi == Angle(0)
    assert KET_PLUS.phi == Angle(1, 4)
    assert KET_ONE.phi == Angle(1, 2)
    assert KET_MINUS.phi == Angle(3, 4)


def test_antipodal_identification():
    assert CoinState.of(5, 4) == KET_PLUS
    assert CoinState.of(-1, 4) == KET_MINUS


def test_hadamard_sends_zero_to_plus():
    assert act(HADAMARD, KET_ZERO) == KET_PLUS
    assert act(HADAMARD, KET_ONE) == KET_MINUS


def test_identity_action():
    for x in (KET_ZERO, KET_PLUS, CoinState.of(2, 7)):
        assert act(IDENTITY, x) == x


def test_flip_fixes_minus():
    assert act(FLIP, KET_MINUS) == KET_MINUS
    assert act(FLIP, KET_PLUS) == KET_PLUS
    assert act(FLIP, KET_ZERO) == KET_ONE


def test_action_is_compatible_with_composition():
    for n in (8, 12, 16):
        domain = orbit_of_basis(n)
        pool = isometries(n)
        for p, q in itertools.product(pool, repeat=2):
            for x in domain:
                assert act(p.compose(q), x) == act(p, act(q, x))


def test_action_stays_projective():
    for p in isometries(16):
        for x in orbit_of_basis(16):
            phi = act(p, x).phi
            assert 0 <= phi < 1


def test_reflector_involution():
    for k in range(8):
        refl = isometries(8)[8 + k]
        for x in orbit_of_basis(8):
            assert act(refl, act(refl, x)) == x


def inner_product_oracle(a: CoinState, b: CoinState) -> float:
    va = np.array(a.amplitudes())
    vb = np.array(b.amplitudes())
    return float(va @ vb) ** 2


class TestWinProbability:
    def test_same_state(self):
        assert win_probability(KET_ZERO, KET_ZERO) == 1.0

    def test_plus_versus_zero_is_exactly_half(self):
        assert win_probability(KET_PLUS, KET_ZERO) == 0.5

    def test_minus_versus_one(self):
        assert win_probability(KET_MINUS, KET_ONE) == 0.5
        assert win_probability(KET_MINUS, KET_ONE) == pytest.approx(
            inner_product_oracle(KET_MINUS, KET_ONE), abs=1e-12)

    def test_orthogonal(self):
        assert win_probability(KET_ONE, KET_ZERO) == 0.0

    def test_general_angle_matches_inner_product(self):
        x = CoinState.of(2, 7)
        assert win_probability(x, KET_ZERO) == pytest.approx(
            inner_product_oracle(x, KET_ZERO), abs=1e-12)

    def test_complementary_probabilities(self):
        for n in range(3, 33):
            for x in orbit_of_basis(n):
                total = (win_probability(x, KET_ZERO)
                         + win_probability(x, KET_ONE))
                assert total == pytest.approx(1.0, abs=1e-12)


def test_rendering_and_parsing():
    assert str(KET_PLUS) == "|+⟩"
    assert str(CoinState.of(1, 8)) == "cos(1/8·π)|0⟩+sin(1/8·π)|1⟩"
    assert CoinState.parse("+") == KET_PLUS
    assert CoinState.parse("|1⟩") == KET_ONE
    assert CoinState.parse("1/8·π") == CoinState.of(1, 8)


@given(st.integers(min_value=-200, max_value=200),
       st.integers(min_value=1, max_value=64))
def test_parse_inverts_str(numerator, denominator):
    x = CoinState.of(numerator, denominator)
    assert CoinState.parse(str(x)) == x
