import cmath
import math
from dataclasses import replace

import numpy as np
import pytest

from pennyflip import dihedral, games, orbits, unitary, verify
from pennyflip.angles import Angle
from pennyflip.config import Config
from pennyflip.dihedral import isometries
from pennyflip.states import KET_MINUS, KET_PLUS, KET_ZERO
from test_states import act


# Each row breaks one claim helper; the check that owns it must then fail.
@pytest.mark.parametrize("module, helper, wrong, check", [
    (games, "verify_characteristic_properties", False,
     verify.check_winning_classes_d8),
    (games, "synthesize_by_intermediate_states", [],
     verify.check_winning_classes_d8),
    (games, "synthesize_by_intermediate_states", [],
     verify.check_winning_classes_stable),
    (games, "is_dominant", False, verify.check_winning_classes_d8),
    (games, "winning_classes", [], verify.check_winning_classes_d8),
    (games, "winning_classes", [], verify.check_winning_classes_stable),
    (dihedral, "verify_presentation", False, verify.check_representation),
    (orbits, "index_stabilizer", (), verify.check_orbit_structure),
    (orbits, "fixed_set", (), verify.check_fixed_set_dichotomy),
    (unitary, "winning_states", [None] * 100, verify.check_phase_families),
    (unitary, "winning_state", KET_PLUS, verify.check_u2_sampling),
], ids=["characteristic-d8", "synthesis-d8", "synthesis-stable",
        "dominance-d8", "fast-classes-d8", "fast-classes-stable",
        "presentation", "empty-stabilizers", "empty-fixed-sets",
        "no-winner-families", "all-winners-sampling"])
def test_check_fails_when_its_helper_is_wrong(monkeypatch, module, helper,
                                              wrong, check):
    assert check(Config())[0] is True
    monkeypatch.setattr(module, helper, lambda *args: wrong)
    assert check(Config())[0] is False


def test_extended_games_replay_the_brute_force_witness(monkeypatch):
    # a last move bent to I leaves every decision as it was, so only a
    # replay of brute force's own witness can see that it no longer wins
    real = games.brute_force_extended_check

    def bent(spec, n=8):
        decision = real(spec, n)
        if decision.strategy is None:
            return decision
        moves = (*decision.strategy.moves[:-1], dihedral.IDENTITY)
        return replace(decision, strategy=games.Strategy("Q", moves))
    monkeypatch.setattr(games, "brute_force_extended_check", bent)
    ok, details = verify.check_extended_games(Config())
    assert ok is False and details["failures"]
    assert all(f.endswith(" (witness)") for f in details["failures"])


def test_orbit_structure_fails_without_the_reflection_coset(monkeypatch):
    def rotation_coset(n, j, size):
        d = math.gcd(2 * size // n, size)
        return set(range(j % d, size, d))
    monkeypatch.setattr(orbits, "index_orbit", rotation_coset)
    assert verify.check_orbit_structure(Config())[0] is False


def test_orbit_structure_fails_when_one_reflection_misacts(monkeypatch):
    # r^2 s in D_8 sends j to 8 - j on Z_16; shifted by one, it fixes no
    # index, so only the stabilizer half of the check can see it
    real = dihedral.DihedralElement.act

    def misacting(g, j, size):
        moved = real(g, j, size)
        if (g.n, g.k, g.reflect) == (8, 2, True):
            return (moved + 1) % size
        return moved
    monkeypatch.setattr(dihedral.DihedralElement, "act", misacting)
    ok, details = verify.check_orbit_structure(Config())
    assert ok is False and details["failures"] == [8]


def test_orbit_structure_fails_when_one_reflection_misacts_beyond_64(
        monkeypatch):
    # r^4 s in D_72 sends j to 16 - j on Z_144 and fixes 8 and 80, which lie
    # in the basis orbit 4Z_144; shifted by one, it fixes no index.  (r^5 s
    # fixes only indices = 2 mod 4, which the check never visits.)
    real = dihedral.DihedralElement.act

    def misacting(g, j, size):
        moved = real(g, j, size)
        if (g.n, g.k, g.reflect) == (72, 4, True):
            return (moved + 1) % size
        return moved
    monkeypatch.setattr(dihedral.DihedralElement, "act", misacting)
    ok, details = verify.check_orbit_structure(Config(n_min=71, n_max=73))
    assert ok is False and details["failures"] == [72]


@pytest.mark.parametrize("n", [1023, 1024])
def test_orbit_structure_makes_linear_act_calls(monkeypatch, n):
    # counted, not timed: each distinct orbit costs one act call per
    # (state, stabilizer element) pair, 2n per orbit, 4n at these n; an
    # element-by-element stabilizer costs 2n per state
    real = dihedral.DihedralElement.act
    calls = 0

    def counting(g, j, size):
        nonlocal calls
        calls += 1
        return real(g, j, size)
    monkeypatch.setattr(dihedral.DihedralElement, "act", counting)
    assert verify.check_orbit_structure(Config(n_min=n, n_max=n))[0] is True
    assert calls <= 6 * n


def test_phase_families_fail_without_the_minus_class(monkeypatch):
    real = unitary.winning_states
    monkeypatch.setattr(unitary, "winning_states", lambda us, tol: [
        None if state == KET_MINUS else state for state in real(us, tol)])
    assert verify.check_phase_families(Config())[0] is False


#: Q's eight winning first moves in D_8 by name, for |+> and for |->.
FIRST_MOVE_NAMES = {
    KET_PLUS: {"H", "S_{5π/8}", "R_{2π/8}", "R_{10π/8}"},
    KET_MINUS: {"S_{3π/8}", "S_{7π/8}", "R_{6π/8}", "R_{14π/8}"},
}


def test_phase_families_read_the_first_moves_off_the_search():
    moves = verify._first_moves()
    assert [state for _, state in moves] == [KET_PLUS] * 4 + [KET_MINUS] * 4
    for state, names in FIRST_MOVE_NAMES.items():
        assert {str(m) for m, s in moves if s == state} == names
    assert all(act(m, KET_ZERO) == s for m, s in moves)


@pytest.fixture
def fresh_first_moves():
    verify._first_moves.cache_clear()
    yield
    verify._first_moves.cache_clear()


def test_phase_families_fail_on_a_short_search(monkeypatch,
                                               fresh_first_moves):
    # cut each class to its first member: two first moves, not eight
    real = games.winning_classes
    monkeypatch.setattr(games, "winning_classes", lambda spec, n: [
        games.StrategyClass(c.path, tuple(cs[:1] for cs in c.cosets))
        for c in real(spec, n)])
    ok, details = verify.check_phase_families(Config())
    assert ok is False and details == {"firstMoves": 2}


def per_matrix_phase_families(tol):
    """The phase-families check one member at a time, by the per-matrix
    ``winning_state``: the loop the batched check replaces.  Its bases are
    the isometries of D_8 that send |0> to |+>, then those that send it to
    |->, in the order ``isometries`` lists them."""
    bases = [p for state in (KET_PLUS, KET_MINUS) for p in isometries(8)
             if act(p, KET_ZERO) == state]
    failures = 0
    worst = 0.0
    for i in range(100):
        base = bases[i % 8]
        theta = (i * 2.0 * math.pi / 100.0 + 0.05) % (2.0 * math.pi)
        u = cmath.exp(1j * theta) * unitary.matrix(base)
        if unitary.winning_state(u, tol) != act(base, KET_ZERO):
            failures += 1
            continue
        found = cmath.phase(u[0, 0] / unitary.matrix(base)[0, 0])
        err = abs((found - theta + math.pi) % (2.0 * math.pi) - math.pi)
        worst = max(worst, err)
        if err > tol:
            failures += 1
    return failures == 0, {"gridPoints": 100, "failures": failures,
                           "maxThetaError": worst}


@pytest.mark.parametrize("tol", [1e-10, 1e-9, 5e-9, 1e-8, 0.5, 0.9])
def test_phase_families_match_the_per_matrix_loop(tol):
    assert (verify.check_phase_families(Config(tolerance=tol))
            == per_matrix_phase_families(tol))


def test_probability_identities_cover_n_above_64(monkeypatch):
    visited = []
    real = orbits.basis_indices

    def recording(n):
        visited.append(n)
        return real(n)

    monkeypatch.setattr(orbits, "basis_indices", recording)
    ok, _ = verify.check_probability_identities(Config(n_min=65, n_max=66))
    assert visited == [65, 66]
    assert ok is True


def test_probability_identities_build_no_angle_per_state(monkeypatch):
    # the basis orbit has 118 states at n = 59 and 590 at n = 590
    built = []
    new = Angle.__new__

    def counting(cls, *args):
        built.append(args)
        return new(cls, *args)

    monkeypatch.setattr(Angle, "__new__", staticmethod(counting))
    counts = []
    for n in (59, 590):
        built.clear()
        assert verify.check_probability_identities(Config(n_min=n, n_max=n))[0]
        counts.append(len(built))
    assert counts == [0, 0]


def test_representation_checks_the_d8_relations(monkeypatch):
    real = dihedral.satisfies_relations
    monkeypatch.setattr(dihedral, "satisfies_relations",
                        lambda s, t, n: n != 8 and real(s, t, n))
    assert verify.check_representation(Config())[0] is False


def test_u2_sampling_fails_on_a_winning_first_move(monkeypatch):
    cfg = Config(samples=50)
    assert verify.check_u2_sampling(cfg)[0] is True
    hadamard = unitary.matrix(dihedral.HADAMARD)
    monkeypatch.setattr(unitary, "draw", lambda rng, count:
                        np.broadcast_to(hadamard, (count, 2, 2)))
    ok, details = verify.check_u2_sampling(cfg)
    # the flip fixes H|0> = |+>, so only the hit count fails
    assert details["hits"] == 50 and details["stateMismatches"] == 0
    assert ok is False
