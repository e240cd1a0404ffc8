import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pennyflip.angles import Angle, CanonicalRange
from pennyflip.errors import ExactArithmeticOverflow

FULL = CanonicalRange.FULL_TURN


def test_dyadic_addition():
    assert Angle(1, 4).add(Angle(1, 4)) == Angle(1, 2)


def test_wraparound_to_identity():
    assert Angle(1, 8).add(Angle(15, 8), FULL) == Angle(0)


def test_rational_addition_against_float_oracle():
    # 2/3 + 2/5 = 16/15
    result = Angle(2, 3).add(Angle(2, 5), FULL)
    assert result == Angle(16, 15)
    assert result.radians == pytest.approx(
        (2 / 3 + 2 / 5) * math.pi, abs=1e-12)


def test_negate_mod_full_turn():
    assert Angle(1, 4).negate(FULL) == Angle(7, 4)


def test_scale_full_turns():
    assert Angle(2, 8).scale(8, FULL) == Angle(0)
    assert Angle(2, 7).scale(7, FULL) == Angle(0)


def test_cos_sin_exact_shortcuts():
    s = math.sqrt(2) / 2
    assert Angle(1, 4).cos_sin() == (s, s)
    assert Angle(0).cos_sin() == (1.0, 0.0)
    assert Angle(1, 2).cos_sin() == (0.0, 1.0)
    assert Angle(1).cos_sin() == (-1.0, 0.0)


def test_cos_sin_general_value():
    c, s = Angle(2, 7).cos_sin()
    assert c == pytest.approx(0.6234898018587336, abs=1e-12)
    assert s == pytest.approx(0.7818314824680298, abs=1e-12)


def test_overflow_is_an_error():
    with pytest.raises(ExactArithmeticOverflow):
        Angle(1, 2**64 + 1)


def test_normalization_modes():
    a = Angle(5, 4)
    assert a.normalized(CanonicalRange.FULL_TURN) == Angle(5, 4)
    assert a.normalized(CanonicalRange.AXIS) == Angle(1, 4)
    assert Angle(-1, 4).normalized(CanonicalRange.AXIS) == Angle(3, 4)


def test_str_and_parse_roundtrip():
    for a in (Angle(0), Angle(1, 4), Angle(7, 4), Angle(1)):
        assert Angle.parse(str(a)) == a
    # parsing renormalizes into the requested range
    assert Angle.parse("3·π") == Angle(1)
    assert Angle.parse("3/4*pi") == Angle(3, 4)
    assert Angle.parse("pi") == Angle(1)
    for text in ("π/4", "pi/4", "1/4π"):
        assert Angle.parse(text) == Angle(1, 4)
    assert Angle.parse("3π/4") == Angle(3, 4)
    assert Angle.parse("-pi/4") == Angle(7, 4)
    for text in ("banana", "π/4π"):
        with pytest.raises(ValueError):
            Angle.parse(text)


angles = st.builds(Angle,
                   st.integers(min_value=-200, max_value=200),
                   st.integers(min_value=1, max_value=64))


@given(angles, angles)
def test_addition_commutes(a, b):
    assert a.add(b, FULL) == b.add(a, FULL)


@given(angles)
def test_additive_inverse(a):
    assert a.add(a.negate(), FULL) == Angle(0)


@given(angles)
def test_scale_by_twice_denominator_is_zero(a):
    assert a.scale(2 * a.denominator, FULL) == Angle(0)


@settings(max_examples=200)
@given(angles)
def test_pythagorean_identity(a):
    c, s = a.cos_sin()
    assert c * c + s * s == pytest.approx(1.0, abs=1e-12)
