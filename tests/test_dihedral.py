import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pennyflip import dihedral, games, verify
from pennyflip.angles import Angle
from pennyflip.config import Config
from pennyflip.dihedral import (FLIP, HADAMARD, IDENTITY, DihedralElement,
                                PlanarIsometry, closure, contains_isometry,
                                element_for_isometry, elements, isometries,
                                represent, satisfies_relations,
                                verify_presentation)
from pennyflip.errors import ExactArithmeticOverflow, FNotInGroup
from pennyflip.games import (PQG, GameSpec, Strategy,
                             brute_force_extended_check, decide_extended_game,
                             is_dominant, is_winning_strategy, play_out,
                             state_path, synthesize_by_intermediate_states,
                             verify_characteristic_properties,
                             winning_classes)
from pennyflip.orbits import fixed_set
from pennyflip.states import KET_ONE, KET_ZERO
from test_states import EDGES, fields_of, fraction, image, in_fields


def rot(n, k):
    return DihedralElement(n, k % n)


def ref(n, k):
    return DihedralElement(n, k % n, True)


def compose(g, h):
    """The normal-form product of two elements of one D_n, under r^n = 1,
    s^2 = 1 and s r = r^-1 s: r^k s * r^m s^l = r^(k - m) s^(1 + l).  The
    library never multiplies elements; this is the oracle's product."""
    assert g.n == h.n
    if g.reflect:
        return DihedralElement(g.n, (g.k - h.k) % g.n, not h.reflect)
    return DihedralElement(g.n, (g.k + h.k) % g.n, h.reflect)


def inverse(g):
    """r^k inverts to r^-k; every reflection is its own inverse."""
    return g if g.reflect else rot(g.n, -g.k)


class TestElements:
    def test_flip_times_hadamard_is_r(self):
        # F is r^2 s and H is r s in D_8; their product is the rotation r
        assert compose(ref(8, 2), ref(8, 1)) == rot(8, 1)

    def test_identity_law(self):
        e = rot(8, 0)
        for g in elements(8):
            assert compose(e, g) == g
            assert compose(g, e) == g

    def test_reflections_are_involutions(self):
        for n in (3, 8, 12):
            for k in range(n):
                assert compose(ref(n, k), ref(n, k)) == rot(n, 0)
                assert inverse(ref(n, k)) == ref(n, k)

    def test_rotation_inverse(self):
        assert inverse(rot(8, 3)) == rot(8, 5)
        assert inverse(rot(8, 0)) == rot(8, 0)

    def test_enumeration_is_2n_distinct(self):
        for n in (3, 8, 16):
            elems = list(elements(n))
            assert len(elems) == 2 * n == len(set(elems))

    def test_group_axioms_small_range(self):
        for n in range(3, 65):
            e = rot(n, 0)
            gs = list(elements(n))
            for g in gs:
                assert compose(g, inverse(g)) == e
        # closure + associativity on random triples for a few n
        rng = random.Random(0)
        for n in (8, 12, 16):
            gs = list(elements(n))
            gset = set(gs)
            for _ in range(10_000):
                a, b, c = (rng.choice(gs) for _ in range(3))
                assert compose(a, b) in gset
                assert compose(compose(a, b), c) == compose(a, compose(b, c))


def matmul_oracle(p: PlanarIsometry, q: PlanarIsometry) -> np.ndarray:
    return np.array(p.matrix()) @ np.array(q.matrix())


class TestIsometries:
    def test_named_constants(self):
        assert IDENTITY == PlanarIsometry(Angle(0))
        assert FLIP == PlanarIsometry(Angle(1, 4), True)
        assert HADAMARD == PlanarIsometry(Angle(1, 8), True)

    def test_flip_hadamard_product_is_eighth_rotation(self):
        assert FLIP.compose(HADAMARD) == PlanarIsometry(Angle(1, 4))

    def test_rotor_identity_neutral(self):
        p = PlanarIsometry(Angle(2, 7))
        assert p.compose(IDENTITY) == p

    def test_hadamard_squared_is_identity(self):
        assert HADAMARD.compose(HADAMARD) == IDENTITY

    def test_compose_matches_matrix_product(self):
        pool = isometries(8) + isometries(12)
        for p, q in itertools.product(pool, repeat=2):
            exact = np.array(p.compose(q).matrix())
            assert np.max(np.abs(exact - matmul_oracle(p, q))) <= 1e-12

    def test_flip_matrix_entries(self):
        assert FLIP.matrix() == ((0.0, 1.0), (1.0, 0.0))

    def test_rendering(self):
        assert str(IDENTITY) == "I"
        assert str(FLIP) == "F"
        assert str(HADAMARD) == "H"
        assert str(PlanarIsometry(Angle(1, 4))) == "R_{2π/8}"
        assert str(PlanarIsometry(Angle(1, 6))) == "R_{1/6·π}"


class TestRepresentation:
    def test_named_images_in_d8(self):
        assert represent(ref(8, 2)) == FLIP
        assert represent(ref(8, 1)) == HADAMARD
        assert represent(rot(8, 0)) == IDENTITY

    def test_faithful_up_to_64(self):
        for n in range(3, 65):
            images = {represent(g) for g in elements(n)}
            assert len(images) == 2 * n

    def test_contains_flip(self):
        assert not contains_isometry(7, FLIP)
        assert contains_isometry(4, FLIP)
        assert not contains_isometry(6, FLIP)
        assert contains_isometry(8, HADAMARD)
        assert not contains_isometry(12, HADAMARD)

    def test_element_for_isometry_inverts_represent(self):
        for g in elements(12):
            assert element_for_isometry(12, represent(g)) == g


def reduced(angle, reflect):
    """The angle an isometry holds, by ``Fraction`` arithmetic: the value
    reduced ``% period``."""
    return Fraction(*angle.as_integer_ratio()) % (1 if reflect else 2)


def name_of(angle, reflect):
    """The name read off ``angle * 8``, as before the integer ratio: I, F
    and H by letter, R_π and S_0, the eighth grid, else the exact angle."""
    letters = {(0, False): "I", (Fraction(1, 4), True): "F",
               (Fraction(1, 8), True): "H"}
    if (angle, reflect) in letters:
        return letters[angle, reflect]
    letter = "S" if reflect else "R"
    m = angle * 8
    if m.denominator != 1:
        return f"{letter}_{{{Angle(angle)}}}"
    if angle in (0, 1):
        return f"{letter}_{Angle(angle)}"
    return f"{letter}_{{{m}π/8}}"


def element_of(n, angle, reflect):
    """Membership read off ``angle * n``: r^k s at angle k/n·π, r^k at
    2k/n·π, else None."""
    k = angle * n if reflect else angle * n / 2
    if k.denominator != 1:
        return None
    return DihedralElement(n, int(k) % n, reflect)


@st.composite
def any_angles(draw):
    """A rational p/q, q up to 10^6, often negative or at or above every
    period, whole turns of pi among them, as an ``Angle``, a plain
    ``Fraction`` or, whole, an ``int``."""
    den = draw(st.integers(min_value=1, max_value=10**6))
    num = draw(st.one_of(st.integers(-3 * den, 3 * den),
                         st.integers(-3, 3).map(lambda turns: turns * den)))
    kind = draw(st.sampled_from([Angle, Fraction, int]))
    return num // den if kind is int else kind(num, den)


@example(Angle(2), False, 8)
@example(Angle(1), True, 8)
@example(Fraction(3, 8), True, 8)
@given(any_angles(), st.booleans(), st.integers(min_value=3, max_value=1024))
def test_isometry_matches_the_fraction_forms(angle, reflect, n):
    p, expected = PlanarIsometry(angle, reflect), reduced(angle, reflect)
    assert type(p.angle) is Angle and p.reflect is reflect
    assert p.angle.as_integer_ratio() == expected.as_integer_ratio()
    assert str(p) == name_of(expected, reflect)
    for m in {n, expected.denominator}:     # D_q holds S_{p/q·π}
        if 3 <= m <= 1024:
            assert element_for_isometry(m, p) == element_of(m, expected,
                                                            reflect)


def product_angle(a, b, r, s):
    """The angle of ``(a, r) @ (b, s)`` by the composition identities on
    ``Fraction``s, reduced into its period."""
    a, b = fraction(a), fraction(b)
    angle = (2 * (a - b) if r and s else a - b / 2 if r else b + a / 2 if s
             else a + b)
    return angle % (1 if r != s else 2)


#: An angle as an int, a Fraction or an Angle, small or at the width.
WIDE_ANGLES = st.one_of(
    any_angles(),
    st.builds(Fraction, st.integers(-3 * 2**64, 3 * 2**64), EDGES))


class TestIntPairsAgainstFraction:
    """Every int operation of an isometry against ``Fraction`` arithmetic,
    including the width boundary at INT_MAX."""

    @given(WIDE_ANGLES, st.booleans())
    def test_reduction_into_the_period(self, angle, reflect):
        fields = fields_of(PlanarIsometry, angle, reflect)
        want = in_fields(fraction(angle) % (1 if reflect else 2))
        assert fields == (want if want is ExactArithmeticOverflow
                          else (*want, reflect))

    @given(WIDE_ANGLES, WIDE_ANGLES, st.booleans(), st.booleans())
    def test_compose(self, a, b, r, s):
        try:
            p, q = PlanarIsometry(a, r), PlanarIsometry(b, s)
        except ExactArithmeticOverflow:
            return
        want = in_fields(product_angle(p.angle, q.angle, r, s))
        assert fields_of(p.compose, q) == (
            want if want is ExactArithmeticOverflow else (*want, r != s))

    @given(any_angles(), st.booleans(), st.integers(1, 6), st.data())
    def test_act(self, angle, reflect, m, data):
        # on a grid Z_size that holds the angle, each index goes where the
        # Fraction action sends its angle j/size·π
        p = PlanarIsometry(angle, reflect)
        size = p.q * m * data.draw(st.sampled_from([1, 2, 3]))
        j = data.draw(st.integers(0, size - 1))
        assert Fraction(p.act(j, size), size) == image(p, Fraction(j, size)) % 1

    @example(2**63 - 1)
    @example(2**63)
    @given(st.integers(3, 2**64))
    def test_represent_at_the_width(self, n):
        # r s of D_n is S_{1/n·π}, as wide as n; r^(n-1) is R_{2(n-1)/n·π}
        for g, angle in ((DihedralElement(n, 1, True), Fraction(1, n)),
                         (DihedralElement(n, n - 1), Fraction(2 * n - 2, n))):
            want = in_fields(angle)
            assert fields_of(represent, g) == (
                want if want is ExactArithmeticOverflow
                else (*want, g.reflect))


def fractions_built(monkeypatch, call) -> int:
    """How many ``Fraction``s, ``Angle``s among them, *call* builds."""
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(cls)
        return new(cls, *args, **kwargs)
    with monkeypatch.context() as patch:
        patch.setattr(Fraction, "__new__", counting)
        call()
    return len(built)


HH = Strategy("Q", (HADAMARD, HADAMARD))
QPQPQ_01 = GameSpec.from_string("QPQPQ", KET_ZERO, KET_ONE)
WITNESS_01 = decide_extended_game(QPQPQ_01).strategy
R_THIRD = PlanarIsometry(Angle(1, 3))       # off the grid of D_8
D8 = isometries(8)


# An isometry of D_n is built, named and placed in D_n on integers: each
# count is of the Fractions one call builds, inputs built beforehand.  The
# values hold int pairs, so no call builds one: the names keep the counts
# of Fraction-backed angles, one Angle per represent and so one per witness
# move and 2n per pool, which are now 0.
class TestFractionWork:
    def test_represent_builds_none(self, monkeypatch):
        for g in (*elements(8), *elements(12)[5::6], ref(1024, 1000)):
            assert fractions_built(monkeypatch, lambda: represent(g)) == 0

    def test_naming_an_isometry_in_its_period_builds_none(self, monkeypatch):
        for angle, reflect in ((Angle(0), False), (Angle(1), False),
                               (Angle(1, 4), True), (Angle(1, 8), True),
                               (Angle(0), True), (Angle(7, 4), False),
                               (Angle(3, 8), True), (Angle(5, 12), True),
                               (Angle(13, 7), False)):
            assert fractions_built(monkeypatch, lambda: str(
                PlanarIsometry(angle, reflect))) == 0

    def test_placing_an_isometry_builds_none(self, monkeypatch):
        for n in (6, 8, 12, 1024):
            for p in (FLIP, HADAMARD, IDENTITY, *isometries(24)[::5]):
                assert fractions_built(
                    monkeypatch, lambda: element_for_isometry(n, p)) == 0
        assert fractions_built(
            monkeypatch, lambda: fixed_set(16, (HADAMARD, FLIP))) == 0

    def test_decision_builds_none(self, monkeypatch):
        for target in (KET_ZERO, KET_ONE):
            spec = GameSpec.from_string("QPQPQ", KET_ZERO, target)
            assert fractions_built(
                monkeypatch, lambda: decide_extended_game(spec)) == 0

    @pytest.mark.parametrize("turns, n", [("QPQPQ", 16), ("QPQ", 8),
                                          ("QPQPQPQ", 1024), ("PQPQ", 8)])
    def test_brute_force_builds_none(self, monkeypatch, turns, n):
        games._pool.cache_clear()
        games._images.cache_clear()
        spec = GameSpec.from_string(turns, KET_ZERO, KET_ONE)
        assert fractions_built(
            monkeypatch, lambda: brute_force_extended_check(spec, n)) == 0

    # play walks indices of one grid Z_N, a state built only when returned
    @pytest.mark.parametrize("call", [
        lambda: play_out(PQG, HH, Strategy("P", (FLIP,))),
        lambda: is_winning_strategy(QPQPQ_01, WITNESS_01),
        lambda: state_path(Strategy("Q", (R_THIRD, HADAMARD)), KET_ZERO),
        lambda: verify_characteristic_properties(PQG, HH),
        lambda: is_dominant(PQG, HH, D8),
    ], ids=["play_out", "is_winning_strategy", "state_path",
            "verify_characteristic_properties", "is_dominant"])
    def test_play_builds_none(self, monkeypatch, call):
        assert fractions_built(monkeypatch, call) == 0

    @pytest.mark.parametrize("n", [8, 16, 24])
    def test_synthesis_builds_none(self, monkeypatch, n):
        # the pool isometries(n) builds its 2n angles as int pairs
        assert fractions_built(monkeypatch, lambda: (
            synthesize_by_intermediate_states(PQG, n))) == 0


# Every entry point that needs a move in D_n asks the one membership guard,
# which names the first missing move.
@pytest.mark.parametrize("call, message", [
    (lambda: winning_classes(PQG, 6), "F ∉ D_6"),
    (lambda: synthesize_by_intermediate_states(PQG, 6), "F ∉ D_6"),
    (lambda: brute_force_extended_check(GameSpec.from_string("QPQP"), 12),
     "H ∉ D_12"),
    (lambda: fixed_set(7, [FLIP]), "F ∉ D_7"),
], ids=["enumerate", "synthesize", "brute-force", "fixed-set"])
def test_entry_points_name_the_missing_move(call, message):
    with pytest.raises(FNotInGroup) as excinfo:
        call()
    assert str(excinfo.value) == message


class TestParseIsometry:
    def test_named(self):
        assert PlanarIsometry.parse("I") == IDENTITY
        assert PlanarIsometry.parse("F") == FLIP
        assert PlanarIsometry.parse("H") == HADAMARD
        assert PlanarIsometry.parse("i") == IDENTITY
        assert PlanarIsometry.parse("f") == FLIP
        assert PlanarIsometry.parse("h") == HADAMARD

    def test_angled(self):
        assert (PlanarIsometry.parse("R_{2/8·π}")
                == PlanarIsometry(Angle(1, 4)))
        assert (PlanarIsometry.parse("S_5/8·π")
                == PlanarIsometry(Angle(5, 8), True))

    def test_garbage(self):
        # braces are one pair around the whole angle, or none
        for token in ("Z_9", "R_", "S_{}", "r_pi", "R_{1/4·π", "R_1/4π}",
                      "R_{{1/4π}}", "S_}1/8π{"):
            with pytest.raises(ValueError):
                PlanarIsometry.parse(token)

    @given(st.booleans(), st.integers(min_value=-200, max_value=200),
           st.integers(min_value=1, max_value=64))
    def test_str_roundtrip(self, reflect, numerator, denominator):
        p = PlanarIsometry(Angle(numerator, denominator), reflect)
        assert PlanarIsometry.parse(str(p)) == p

    def test_str_roundtrip_on_every_group(self):
        for n in range(3, 65):
            for p in isometries(n):
                assert PlanarIsometry.parse(str(p)) == p


def bfs_closure(generators):
    """Two-sided BFS: multiply every new element by every element found,
    on both sides, until nothing new appears.  The oracle of ``closure``."""
    found = set(generators)
    frontier = list(found)
    while frontier:
        fresh = []
        for p in frontier:
            for q in list(found):
                for prod in (p.compose(q), q.compose(p)):
                    if prod not in found:
                        found.add(prod)
                        fresh.append(prod)
        frontier = fresh
    return found


@st.composite
def generator_sets(draw):
    """One to three isometries of one D_n, n <= 24, at times rotors only."""
    n = draw(st.integers(min_value=3, max_value=24))
    pool = isometries(n)
    if draw(st.booleans()):
        pool = pool[:n]                 # the rotations come first
    return draw(st.sets(st.sampled_from(pool), min_size=1, max_size=3))


@example({FLIP, HADAMARD})
@example({PlanarIsometry(Angle(1, 4)), PlanarIsometry(Angle(1, 6))})
@given(generator_sets())
def test_closure_matches_bfs(generators):
    assert closure(generators) == bfs_closure(generators)


#: Prints what a set of isometries hashes and iterates by.
HASH_PROBE = """
from pennyflip.dihedral import FLIP, HADAMARD, closure
print(hash(FLIP), [str(p) for p in closure({FLIP, HADAMARD})])
"""


def test_isometry_hashes_do_not_depend_on_the_hash_seed():
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = [subprocess.run(
        [sys.executable, "-c", HASH_PROBE], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed),
        timeout=60, check=True).stdout for seed in ("1", "2")]
    assert outputs[0] == outputs[1]


class TestPresentation:
    def test_flip_hadamard_present_d8(self):
        # verify_presentation uses S_0 and S_{pi/8}; F and H lie pi/8 apart too
        assert verify_presentation(8)
        assert satisfies_relations(FLIP, HADAMARD, 8)
        assert closure({FLIP, HADAMARD}) == set(isometries(8))

    def test_adjacent_axes_present_small_n(self):
        for n in (3, 5, 6, 12, 16, 24, 32):
            assert verify_presentation(n)


def pair_table(n):
    """The pairs of D_n whose product ``represent`` does not send to the
    product of their images, over all 4n^2 pairs: empty iff ``represent``
    is a homomorphism.  The oracle of the presentation check."""
    image = dihedral.represent
    return [(g, h) for g in elements(n) for h in elements(n)
            if image(compose(g, h)) != image(g).compose(image(h))]


# Each breaks the standard representation r^k -> R_{2pi k/n},
# r^k s -> S_{pi k/n} and is no homomorphism, so the pair table fails it.
MUTANTS = {
    "doubled-rotor": lambda g: (represent(g) if g.reflect
                                else PlanarIsometry(Angle(4 * g.k, g.n))),
    "rotor-off-by-one": lambda g: (represent(g) if g.reflect else
                                   PlanarIsometry(Angle(2 * g.k + 2, g.n))),
    "no-reflection-bit": lambda g: PlanarIsometry(Angle(2 * g.k, g.n)),
}


@pytest.mark.parametrize("mutant", [None, *MUTANTS])
def test_presentation_check_agrees_with_the_pair_table(monkeypatch, mutant):
    if mutant is not None:
        monkeypatch.setattr(dihedral, "represent", MUTANTS[mutant])
    standard = mutant is None
    for n in range(3, 25):
        assert verify._presented(n)[0] is standard
        assert (not pair_table(n)) is standard
    assert verify.check_representation(Config())[0] is standard


def test_presentation_check_pins_the_standard_images(monkeypatch):
    # r^k s -> S_{pi(k+1)/n} is a faithful homomorphism too, with the same
    # image set, so only the pinned S = S_0 tells it from the standard one
    monkeypatch.setattr(dihedral, "represent", lambda g: (
        PlanarIsometry(Angle(g.k + 1, g.n), True) if g.reflect
        else represent(g)))
    assert not pair_table(8)
    ok, details = verify.check_representation(Config())
    assert ok is False
    assert details["pairFailures"] == [
        "D_8: s", "D_8: r s", "D_8: r^2 s", "D_8: r^3 s", "D_8: r^4 s"]
