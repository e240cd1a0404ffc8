import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pennyflip.angles import Angle
from pennyflip.dihedral import FLIP, HADAMARD, IDENTITY, isometries
from pennyflip.errors import ExactArithmeticOverflow
from pennyflip.orbits import basis_indices
from pennyflip.states import (KET_MINUS, KET_ONE, KET_PLUS, KET_ZERO,
                              CoinState, difference_probability,
                              win_probability)


def image(p, phi):
    """The angle a move sends *phi* to, a plain ``Fraction``: a rotor adds
    its angle a, a reflector sends phi to 2a - phi."""
    return 2 * p.angle - phi if p.reflect else phi + p.angle


def act(p, x):
    """The ``Fraction`` action on a projective state: the oracle of the
    package's integer maps on grid indices, ``PlanarIsometry.act`` and
    ``DihedralElement.act``."""
    return CoinState(image(p, x.phi))


def basis_states(n):
    return tuple(CoinState.at(j, 2 * n) for j in basis_indices(n))


def test_named_states():
    assert KET_ZERO.phi == Angle(0)
    assert KET_PLUS.phi == Angle(1, 4)
    assert KET_ONE.phi == Angle(1, 2)
    assert KET_MINUS.phi == Angle(3, 4)


def test_antipodal_identification():
    assert CoinState.of(5, 4) == KET_PLUS
    assert CoinState.of(-1, 4) == KET_MINUS


def test_names_match_the_lookup_on_every_grid():
    # the name of every j*pi/(2n) with n <= 64, against a ket-name lookup
    # made for each state
    names = {KET_ZERO: "|0⟩", KET_PLUS: "|+⟩", KET_ONE: "|1⟩",
             KET_MINUS: "|−⟩"}
    for n in range(1, 65):
        for j in range(2 * n):
            x = CoinState.of(j, 2 * n)
            assert str(x) == names.get(
                x, f"cos({x.phi})|0⟩+sin({x.phi})|1⟩")


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
        domain = basis_states(n)
        pool = isometries(n)
        for p, q in itertools.product(pool, repeat=2):
            for x in domain:
                assert act(p.compose(q), x) == act(p, act(q, x))


def test_action_stays_projective():
    for p in isometries(16):
        for x in basis_states(16):
            phi = act(p, x).phi
            assert 0 <= phi < 1


def test_reflector_involution():
    for k in range(8):
        refl = isometries(8)[8 + k]
        for x in basis_states(8):
            assert act(refl, act(refl, x)) == x


def inner_product_oracle(a: CoinState, b: CoinState) -> float:
    va = np.array(a.phi.cos_sin())
    vb = np.array(b.phi.cos_sin())
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
            for x in basis_states(n):
                total = (win_probability(x, KET_ZERO)
                         + win_probability(x, KET_ONE))
                assert total == pytest.approx(1.0, abs=1e-12)


def win_probability_oracle(final: CoinState, target: CoinState) -> float:
    """The Fraction formula: the difference mod pi, the pi/4 table, else
    the cosine of the reduced angle."""
    d = (final.phi - target.phi) % 1
    if d.denominator == 1:
        return 1.0
    if d.denominator == 2:
        return 0.0
    if d.denominator == 4:
        return 0.5
    c, _ = Angle(d).cos_sin()
    return c * c


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=10**9)


class TestWinProbabilityOracle:
    @given(rationals, rationals)
    def test_bit_equal_to_the_fraction_formula(self, a, b):
        final, target = CoinState(Angle(a)), CoinState(Angle(b))
        got = win_probability(final, target)
        assert got.hex() == win_probability_oracle(final, target).hex()

    def test_literal_on_the_quarter_grid(self):
        for i, k in itertools.product(range(-4, 9), repeat=2):
            got = win_probability(CoinState.of(i, 4), CoinState.of(k, 4))
            expected = (1.0, 0.5, 0.0, 0.5)[(i - k) % 4]
            assert got == expected and type(got) is float

    def test_builds_no_angle(self, monkeypatch):
        states = [x for n in (5, 12, 64) for x in basis_states(n)]
        want = [win_probability_oracle(x, y) for x in states
                for y in (KET_ZERO, KET_PLUS, states[1])]
        built = []
        new = Angle.__new__

        def counting(cls, *args):
            built.append(args)
            return new(cls, *args)

        monkeypatch.setattr(Angle, "__new__", staticmethod(counting))
        got = [win_probability(x, y) for x in states
               for y in (KET_ZERO, KET_PLUS, states[1])]
        assert built == []
        assert [p.hex() for p in got] == [p.hex() for p in want]

    def test_over_wide_difference_overflows_like_the_oracle(self):
        # two 62-bit prime denominators: each state fits in 64 bits, their
        # difference does not
        final = CoinState.of(1, 2**62 - 57)
        target = CoinState.of(1, 2**61 - 1)
        for probability in (win_probability, win_probability_oracle):
            with pytest.raises(ExactArithmeticOverflow):
                probability(final, target)


class TestDifferenceCore:
    """``difference_probability`` on index pairs, bit for bit against
    ``win_probability`` on the states and against the Fraction oracle."""

    @staticmethod
    def assert_bit_equal(got, x, target):
        assert got.hex() == win_probability(x, target).hex()
        assert got.hex() == win_probability_oracle(x, target).hex()

    def test_every_basis_orbit_state_up_to_128(self):
        for n in range(3, 129):
            size = 2 * n
            for j in basis_indices(n):
                x = CoinState.of(j, size)
                self.assert_bit_equal(difference_probability(j, size),
                                      x, KET_ZERO)
                self.assert_bit_equal(
                    difference_probability((j - n) % size, size), x, KET_ONE)

    @pytest.mark.parametrize("p, q", [(1, 3), (2, 7), (5, 59), (7, 16),
                                      (3, 1000), (1, 2**40 + 1)])
    def test_off_grid_states(self, p, q):
        x = CoinState.of(p, q)
        self.assert_bit_equal(difference_probability(p, q), x, KET_ZERO)
        # p/q - 1/2 = (2p - q)/(2q)
        self.assert_bit_equal(difference_probability(2 * p - q, 2 * q),
                              x, KET_ONE)


def built(make, *args):
    """The state *make* builds from *args*, with its Angle's type, terms,
    hash and text, or the text of the overflow it raises."""
    try:
        x = make(*args)
    except ExactArithmeticOverflow as exc:
        return str(exc)
    return x, type(x.phi), x.phi.as_integer_ratio(), hash(x), str(x)


class TestGridIndexState:
    """``CoinState.at`` skips Fraction's constructor; ``CoinState.of`` is
    its oracle."""

    def test_every_index_up_to_size_128(self):
        for size in range(1, 129):
            for j in range(size):
                assert built(CoinState.at, j, size) == \
                    built(CoinState.of, j, size), (j, size)

    @given(st.integers(min_value=1, max_value=2**66).flatmap(
        lambda size: st.tuples(st.integers(0, size - 1), st.just(size))))
    def test_past_64_bits(self, args):
        assert built(CoinState.at, *args) == built(CoinState.of, *args)

    def test_its_angle_takes_part_in_arithmetic(self):
        x, y = CoinState.at(3, 8), CoinState.of(3, 8)
        assert act(HADAMARD, x) == act(HADAMARD, y) == CoinState.of(7, 8)
        assert x.phi + Angle(1, 8) == Angle(1, 2)
        assert x.phi * 2 == Angle(3, 4)


def reduced_by_hand(value) -> CoinState:
    """The state whose phi is the explicit reduction Angle(value % 1),
    built without CoinState's own reduction."""
    return tuple.__new__(CoinState, (Angle(Fraction(value) % 1),))


fractions = st.fractions(min_value=-50, max_value=50, max_denominator=10**9)


@given(st.one_of(st.integers(-10**6, 10**6), fractions, fractions.map(Angle),
                 st.fractions(min_value=0, max_value=1,
                              max_denominator=10**9).filter(
                     lambda f: f < 1).map(Angle)))
def test_state_angle_is_an_angle_in_the_unit_interval(value):
    x = CoinState(value)
    assert type(x.phi) is Angle
    assert 0 <= x.phi < 1
    expected = reduced_by_hand(value)
    assert x == expected and hash(x) == hash(expected)


def test_over_wide_state_angle_still_overflows():
    with pytest.raises(ExactArithmeticOverflow):
        CoinState(Fraction(1, 2**63))


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
