import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pennyflip.angles import Angle
from pennyflip.config import N_MAX
from pennyflip import dihedral
from pennyflip.dihedral import FLIP, IDENTITY, DihedralElement, represent
from pennyflip.errors import FNotInGroup
from pennyflip.orbits import (basis_indices, fixed_set, index_orbit,
                              index_stabilizer, orbit, stabilizer)
from pennyflip.states import KET_MINUS, KET_ONE, KET_PLUS, KET_ZERO, CoinState
from test_dihedral import compose
from test_states import act


def rot(n, k):
    return DihedralElement(n, k % n)


def ref(n, k):
    return DihedralElement(n, k % n, True)


def basis_states(n):
    return tuple(CoinState.at(j, 2 * n) for j in basis_indices(n))


def bfs_orbit(n, x):
    """Independent oracle: closure of x under generator actions."""
    gens = [represent(rot(n, 1)), represent(ref(n, 0))]
    seen = {x}
    frontier = [x]
    while frontier:
        fresh = []
        for s in frontier:
            for g in gens:
                t = act(g, s)
                if t not in seen:
                    seen.add(t)
                    fresh.append(t)
        frontier = fresh
    return seen


class TestOrbit:
    def test_d8_basis_orbit(self):
        assert orbit(8, KET_ZERO) == (KET_ZERO, KET_PLUS, KET_ONE, KET_MINUS)
        assert orbit(8, KET_ONE) == orbit(8, KET_ZERO)

    def test_d4_degenerates_to_coin_toss(self):
        assert orbit(4, KET_ZERO) == (KET_ZERO, KET_ONE)
        assert basis_indices(4) == [0, 4]

    def test_d12_orbit_angles(self):
        expected = tuple(CoinState.of(k, 6) for k in range(6))
        assert orbit(12, KET_ZERO) == expected

    def test_d6_basis_orbit_splits(self):
        orb0 = set(orbit(6, KET_ZERO))
        orb1 = set(orbit(6, KET_ONE))
        assert orb0 == {CoinState.of(0), CoinState.of(1, 3), CoinState.of(2, 3)}
        assert orb1 == {CoinState.of(1, 2), CoinState.of(5, 6), CoinState.of(1, 6)}
        assert not orb0 & orb1
        assert set(basis_states(6)) == orb0 | orb1

    def test_matches_bfs_closure(self):
        off_grid = (CoinState.of(1, 5), CoinState.of(1, 3), CoinState.of(2, 7))
        for n in range(3, 25):
            for x in (KET_ZERO, KET_ONE, *off_grid):
                assert set(orbit(n, x)) == bfs_orbit(n, x)


def act_orbit(n, j, size):
    """Oracle: the orbit of index j enumerated through every element."""
    return {g.act(j, size) for g in dihedral.elements(n)}


def test_index_orbit_matches_act_enumeration_exhaustively():
    # Every j of an enumerated orbit must give that orbit back (the orbits
    # partition Z_size), and every j lies in one, so each closed form is
    # checked against the enumeration of its own orbit.
    for n in range(3, 65):
        for b in range(1, 13):
            size = math.lcm(2 * n, b)
            unseen = set(range(size))
            while unseen:
                expected = act_orbit(n, min(unseen), size)
                for j in expected:
                    assert index_orbit(n, j, size) == expected, (n, size, j)
                unseen -= expected


@given(st.integers(3, N_MAX), st.integers(1, 10**4), st.data())
def test_index_orbit_matches_act_enumeration_off_grid(n, b, data):
    size = math.lcm(2 * n, b)
    j = data.draw(st.integers(0, size - 1))
    assert index_orbit(n, j, size) == act_orbit(n, j, size)


def act_stabilizer(n, j, size):
    """Oracle: the stabilizer of index j enumerated through every element."""
    return tuple(g for g in dihedral.elements(n) if g.act(j, size) == j)


def test_index_stabilizer_matches_act_enumeration_exhaustively():
    # tuple equality pins the canonical order as well as the elements
    for n in range(3, 65):
        for size in {math.lcm(2 * n, b) for b in range(1, 13)}:
            for j in range(size):
                assert (index_stabilizer(n, j, size)
                        == act_stabilizer(n, j, size)), (n, size, j)


@given(st.integers(3, N_MAX), st.integers(1, 10**4), st.data())
def test_index_stabilizer_matches_act_enumeration_off_grid(n, b, data):
    size = math.lcm(2 * n, b)
    j = data.draw(st.integers(0, size - 1))
    assert index_stabilizer(n, j, size) == act_stabilizer(n, j, size)


@given(st.integers(3, N_MAX), st.data())
def test_integer_action_matches_fraction_oracle(n, data):
    """DihedralElement.act on grid indices agrees with the Fraction act."""
    g = DihedralElement(n, data.draw(st.integers(0, n - 1)),
                        data.draw(st.booleans()))
    on_grid = CoinState.of(data.draw(st.integers(0, 2 * n - 1)), 2 * n)
    off_grid = CoinState(Angle(data.draw(
        st.fractions(min_value=-4, max_value=4, max_denominator=10**6))))
    for x in (on_grid, off_grid):
        size = math.lcm(2 * n, x.phi.denominator)
        assert (CoinState.of(g.act(x.index(size), size), size)
                == act(represent(g), x))


class TestStabilizer:
    def test_d8_plus(self):
        assert set(stabilizer(8, KET_PLUS)) == {
            rot(8, 0), rot(8, 4), ref(8, 2), ref(8, 6)}

    def test_d8_zero(self):
        assert set(stabilizer(8, KET_ZERO)) == {
            rot(8, 0), rot(8, 4), ref(8, 0), ref(8, 4)}

    def test_d6_zero(self):
        # brute force over the 12 elements gives {I, R_pi, S_0, S_{pi/2}}
        assert set(stabilizer(6, KET_ZERO)) == {
            rot(6, 0), rot(6, 3), ref(6, 0), ref(6, 3)}

    def test_stabilizers_are_subgroups(self):
        for n in (6, 8, 12, 16):
            for x in basis_states(n):
                stab = set(stabilizer(n, x))
                for g in stab:
                    # r^k inverts to r^-k; every reflection to itself
                    assert (g if g.reflect else rot(n, -g.k)) in stab
                    for h in stab:
                        assert compose(g, h) in stab

    @pytest.mark.parametrize("n", [2, 1, 0, -3])
    def test_below_three_raises_as_the_group_does(self, n):
        # candidates are built without DihedralElement's checks, so the
        # stabilizer keeps D_n's own n >= 3 check
        with pytest.raises(ValueError) as group:
            DihedralElement(n, 0)
        with pytest.raises(ValueError) as found:
            stabilizer(n, KET_ZERO)
        assert str(found.value) == str(group.value)


class TestFixedSet:
    def test_d8_flip_fixed_states(self):
        assert fixed_set(8, [IDENTITY, FLIP]) == (KET_PLUS, KET_MINUS)

    def test_identity_fixes_everything(self):
        assert fixed_set(8, [IDENTITY]) == basis_states(8)

    def test_d12_flip_fixes_nothing(self):
        assert fixed_set(12, [IDENTITY, FLIP]) == ()

    def test_flip_absent_raises(self):
        with pytest.raises(FNotInGroup):
            fixed_set(7, [IDENTITY, FLIP])
