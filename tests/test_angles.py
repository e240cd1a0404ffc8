import copy
import math
import numbers
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pennyflip.angles import Angle
from pennyflip.dihedral import IDENTITY, PlanarIsometry
from pennyflip.errors import ExactArithmeticOverflow
from pennyflip.states import CoinState


def test_dyadic_addition():
    quarter = PlanarIsometry(Angle(1, 4))
    assert quarter.compose(quarter) == PlanarIsometry(Angle(1, 2))


def test_wraparound_to_identity():
    assert (PlanarIsometry(Angle(1, 8)).compose(PlanarIsometry(Angle(15, 8)))
            == IDENTITY)


def test_rational_addition_against_float_oracle():
    # 2/3 + 2/5 = 16/15
    result = PlanarIsometry(Angle(2, 3)).compose(
        PlanarIsometry(Angle(2, 5))).angle
    assert result == Angle(16, 15)
    assert result.numerator / result.denominator * math.pi == pytest.approx(
        (2 / 3 + 2 / 5) * math.pi, abs=1e-12)


def test_negate_mod_full_turn():
    assert PlanarIsometry(Angle(-1, 4)).angle == Angle(7, 4)


def test_scale_full_turns():
    assert PlanarIsometry(Fraction(2, 8) * 8) == IDENTITY
    assert PlanarIsometry(Fraction(2, 7) * 7) == IDENTITY


def test_cos_sin_exact_shortcuts():
    s = math.sqrt(2) / 2
    assert Angle(1, 4).cos_sin() == (s, s)
    assert Angle(0).cos_sin() == (1.0, 0.0)
    assert Angle(1, 2).cos_sin() == (0.0, 1.0)
    assert Angle(1).cos_sin() == (-1.0, 0.0)
    assert Angle(-7, 4).cos_sin() == (s, s)


def test_cos_sin_general_value():
    c, s = Angle(2, 7).cos_sin()
    assert c == pytest.approx(0.6234898018587336, abs=1e-12)
    assert s == pytest.approx(0.7818314824680298, abs=1e-12)


def reference_cos_sin(a):
    """The formula ``Angle.cos_sin`` used first: reduce mod 2 as a
    ``Fraction``, read the table on the pi/4 grid, else go through floats."""
    a = Fraction(*a.as_integer_ratio())
    f = a % 2
    if f.denominator in (1, 2, 4):
        return {0: (1.0, 0.0), 1: (math.sqrt(2) / 2,) * 2, 2: (0.0, 1.0),
                3: (-math.sqrt(2) / 2, math.sqrt(2) / 2), 4: (-1.0, 0.0),
                5: (-math.sqrt(2) / 2,) * 2, 6: (0.0, -1.0),
                7: (math.sqrt(2) / 2, -math.sqrt(2) / 2)}[int(f * 4)]
    return math.cos(float(a) * math.pi), math.sin(float(a) * math.pi)


@given(st.integers(min_value=-2**62, max_value=2**62),
       st.one_of(st.sampled_from([1, 2, 4, 8, 3, 12]),
                 st.integers(min_value=1, max_value=2**62)))
def test_cos_sin_bit_equal_to_the_reference(numerator, denominator):
    a = Angle(numerator, denominator)
    assert a.cos_sin() == reference_cos_sin(a)


def test_overflow_is_an_error():
    with pytest.raises(ExactArithmeticOverflow):
        Angle(1, 2**64 + 1)


def test_normalization_modes():
    # each owning type reduces into its own period
    a = Angle(5, 4)
    assert PlanarIsometry(a).angle == Angle(5, 4)
    assert PlanarIsometry(a, True).angle == Angle(1, 4)
    assert CoinState(a).phi == Angle(1, 4)
    assert PlanarIsometry(Angle(-1, 4), True).angle == Angle(3, 4)
    assert CoinState(Angle(-1, 4)).phi == Angle(3, 4)


def test_direct_construction_is_canonical():
    assert PlanarIsometry(Angle(9, 4)) == PlanarIsometry(Angle(1, 4))
    assert (PlanarIsometry(Angle(5, 4), reflect=True)
            == PlanarIsometry(Angle(1, 4), True))
    assert CoinState(Angle(5, 4)) == CoinState.of(1, 4)


def test_str_and_parse_roundtrip():
    # parsing returns the value as written; the owner reduces it
    assert Angle.parse("3·π") == Angle(3)
    assert PlanarIsometry(Angle.parse("3·π")) == PlanarIsometry(Angle(1))
    assert Angle.parse("3/4*pi") == Angle(3, 4)
    assert Angle.parse("pi") == Angle(1)
    for text in ("π/4", "pi/4", "1/4π"):
        assert Angle.parse(text) == Angle(1, 4)
    assert Angle.parse("3π/4") == Angle(3, 4)
    assert Angle.parse("-pi/4") == Angle(-1, 4)
    assert PlanarIsometry(Angle.parse("-pi/4")).angle == Angle(7, 4)
    assert f"{Angle(3, 4)}" == str(Angle(3, 4)) == "3/4·π"
    for text in ("banana", "π/4π", "1/0π", "0/0"):
        with pytest.raises(ValueError):
            Angle.parse(text)


angles = st.builds(Angle,
                   st.integers(min_value=-200, max_value=200),
                   st.integers(min_value=1, max_value=64))


@given(angles)
def test_parse_inverts_str(a):
    assert Angle.parse(str(a)) == a


@given(angles, angles)
def test_addition_commutes(a, b):
    p, q = PlanarIsometry(a), PlanarIsometry(b)
    assert p.compose(q) == q.compose(p)


@given(angles)
def test_additive_inverse(a):
    assert PlanarIsometry(a).compose(
        PlanarIsometry(Angle(-a.numerator, a.denominator))) == IDENTITY


@given(angles)
def test_scale_by_twice_denominator_is_zero(a):
    assert PlanarIsometry(
        Fraction(*a.as_integer_ratio()) * 2 * a.denominator) == IDENTITY


@settings(max_examples=200)
@given(angles)
def test_pythagorean_identity(a):
    c, s = a.cos_sin()
    assert c * c + s * s == pytest.approx(1.0, abs=1e-12)


def test_an_angle_is_text_with_no_arithmetic():
    # an Angle is its two ints in lowest terms, not a number: it equals no
    # int or Fraction, and a tuple's + and * are no angle arithmetic
    a = Angle(2, 8)
    assert tuple(a) == a.as_integer_ratio() == (1, 4)
    assert (a.numerator, a.denominator) == (1, 4)
    assert not isinstance(a, numbers.Rational)
    assert Angle(0) != 0 and a != Fraction(1, 4)
    for operation in (lambda: a + a, lambda: 2 * a, lambda: a * 2,
                      lambda: -a, lambda: a % 1, lambda: float(a)):
        with pytest.raises(TypeError):
            operation()


def test_order_is_the_order_of_the_fields():
    # as for every value: (1, 2) < (1, 4), though pi/2 > pi/4
    assert Angle(1, 2) < Angle(1, 4)
    assert sorted([Angle(1, 4), Angle(-1, 2), Angle(1, 2)]) == [
        Angle(-1, 2), Angle(1, 2), Angle(1, 4)]


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_values_pickle_by_their_fields(protocol):
    # rebuilt from the fields, without the public __new__, whose arguments
    # differ from them
    for x in (Angle(-3, 8), PlanarIsometry(Angle(9, 4), True),
              CoinState(Angle(5, 4)), IDENTITY):
        again = pickle.loads(pickle.dumps(x, protocol))
        assert type(again) is type(x) and again == x and str(again) == str(x)
        assert copy.copy(x) == copy.deepcopy(x) == x
