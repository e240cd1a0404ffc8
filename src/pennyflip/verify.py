"""The verification suite behind ``verify-all``.

Each check re-derives one of the library's headline claims by enumeration
and returns data, ``(ok, details)`` with ``ok`` None for a skip; ``reports``
builds the printed rows.  This is the one place that derives each claim: the
acceptance tests run these checks and pin their details.  Checks run in
canonical order and are deterministic for a fixed configuration and seed.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from time import perf_counter
from typing import Callable

import numpy as np

from . import dihedral, games, orbits, unitary
from .angles import Angle
from .config import TOL_RESIDUAL, Config
from .dihedral import (FLIP, HADAMARD, IDENTITY, DihedralElement,
                       PlanarIsometry, closure, isometries)
from .errors import FNotInGroup
from .games import GameSpec, decide_extended_game
from .states import (BASIS, KET_MINUS, KET_ONE, KET_PLUS, KET_ZERO,
                     CoinState, difference_probability, win_probability)

EXPECTED_PATHS = (
    (KET_ZERO, KET_PLUS, KET_ZERO),
    (KET_ZERO, KET_MINUS, KET_ZERO),
)


def _pqg_winners(n: int):
    """Q's winners of the three-round game in D_n, their replayed
    classes, and whether those take the two expected paths with 16 members
    each, equal :func:`games.winning_classes` and hold exactly the winners
    built from intermediate states."""
    spec = games.PQG
    listed = [(c.path, list(c.members)) for c in games.winning_classes(spec, n)]
    winners = [s for _, members in listed for s in members]
    classes = games.classify_strategies(winners, spec.initial)
    synthesized = games.synthesize_by_intermediate_states(spec, n)
    ok = (tuple(path for path, _ in classes) == EXPECTED_PATHS
          and all(len(members) == 16 for _, members in classes)
          and listed == classes
          and {s.moves for s in synthesized} == {s.moves for s in winners})
    return winners, classes, ok


def check_winning_classes_d8(cfg: Config):
    spec = games.PQG
    winners, classes, ok = _pqg_winners(8)
    ok = (ok and all(games.verify_characteristic_properties(spec, s)
                     for s in winners)
          and all(games.is_dominant(spec, members[0], isometries(8))
                  for _, members in classes))
    return ok, {"strategies": len(winners),
                "classSizes": [len(members) for _, members in classes],
                "paths": [[str(s) for s in path] for path, _ in classes]}


def check_winning_classes_stable(cfg: Config):
    base = {s.moves for c in games.winning_classes(games.PQG, 8)
            for s in c.members}
    details = {}
    ok = True
    for n in (16, 24, 32):
        winners, _, same = _pqg_winners(n)
        same = same and {s.moves for s in winners} == base
        details[f"D_{n}"] = {"strategies": len(winners), "identical": same}
        ok = ok and same
    return ok, details


def check_small_groups(cfg: Config):
    expected_flip = {3: False, 4: True, 5: False, 6: False, 7: False}
    details = {}
    ok = True
    for n, flip_expected in expected_flip.items():
        has_flip = dihedral.contains_isometry(n, FLIP)
        count = (sum(c.size for c in games.winning_classes(games.PQG, n))
                 if has_flip else 0)
        details[f"D_{n}"] = {"flipPresent": has_flip, "qWinning": count}
        ok = ok and has_flip == flip_expected and count == 0
    return ok, details


def check_fixed_set_dichotomy(cfg: Config):
    failures = []
    for n in range(cfg.n_min, cfg.n_max + 1):
        try:
            fix = orbits.fixed_set(n, [IDENTITY, FLIP])
        except FNotInGroup:
            fix = None      # expected exactly when F is not in D_n
        expected = (None if n % 4 else (KET_PLUS, KET_MINUS) if n % 8 == 0
                    else ())
        if fix != expected:
            failures.append(n)
    return not failures, {"nRange": [cfg.n_min, cfg.n_max],
                          "failures": failures}


def check_orbit_structure(cfg: Config):
    failures = []
    for n in range(cfg.n_min, cfg.n_max + 1):
        size = 2 * n
        orb0 = orbits.index_orbit(n, 0, size)
        orb1 = orbits.index_orbit(n, n, size)
        # n/2 states each for even n, n for odd; one orbit iff 4 | n
        shape_ok = (len(orb0) == len(orb1) == (n if n % 2 else n // 2)
                    and (orb0 == orb1 if n % 4 == 0 else not orb0 & orb1))
        # on each distinct orbit of the basis and of index 1, whose cosets
        # +-1 + dZ_2n differ
        distinct = {frozenset(orb) for orb in
                    (orb0, orb1, orbits.index_orbit(n, 1, size))}
        counting_ok = all(
            len(orb) * len(orbits.index_stabilizer(n, j, size)) == 2 * n
            for orb in distinct for j in orb)
        if not (shape_ok and counting_ok):
            failures.append(n)
    return not failures, {"nRange": [cfg.n_min, cfg.n_max],
                          "failures": failures}


def check_stabilizers_d8(cfg: Config):
    # {I, R_pi, S_0, S_{4pi/8}} and {I, R_pi, F, S_{6pi/8}} as elements of D_8
    rotations = {DihedralElement(8, 0), DihedralElement(8, 4)}
    expected_basis = rotations | {DihedralElement(8, 0, True),
                                  DihedralElement(8, 4, True)}
    expected_diag = rotations | {DihedralElement(8, 2, True),
                                 DihedralElement(8, 6, True)}
    got = {str(x): set(orbits.stabilizer(8, x))
           for x in (KET_ZERO, KET_ONE, KET_PLUS, KET_MINUS)}
    ok = (got["|0⟩"] == expected_basis and got["|1⟩"] == expected_basis
          and got["|+⟩"] == expected_diag and got["|−⟩"] == expected_diag)
    return ok, {name: sorted(str(g) for g in elems)
                for name, elems in got.items()}


def check_extended_games(cfg: Config):
    failures = []
    n_games = 0
    closings = (HADAMARD, FLIP.compose(HADAMARD))
    for turns, initial, target_q in itertools.product(
            games.alternating_turn_sequences(2, cfg.max_rounds), BASIS, BASIS):
        spec = GameSpec.from_string("".join(turns), initial, target_q)
        n_games += 1
        decided = decide_extended_game(spec)
        brute = games.brute_force_extended_check(spec, 8)
        label = f"{''.join(turns)}/{initial}->{target_q}"
        if (decided.q_wins != brute.q_wins
                or decided.q_wins != (turns[0] == "Q" == turns[-1])
                or decided.picard_wins or brute.picard_wins):
            failures.append(label)
            continue
        sigma = decided.strategy
        if decided.q_wins and not (
                games.is_winning_strategy(spec, sigma)
                and games.is_winning_strategy(spec, brute.strategy)
                and sigma.moves[0] == HADAMARD
                and sigma.moves[-1] in closings):
            failures.append(label + " (witness)")
    return not failures, {"games": n_games, "failures": failures}


def check_flip_eigensystem(cfg: Config):
    f = unitary.matrix(FLIP)
    pairs = ((1.0, unitary.PLUS), (-1.0, unitary.MINUS))
    max_residual = max(float(max(abs(c) for c in (f @ vec - lam * vec)))
                       for lam, vec in pairs)
    return max_residual <= TOL_RESIDUAL, {
        "eigenvalues": [lam for lam, _ in pairs], "maxResidual": max_residual}


@functools.cache
def _first_moves() -> tuple[tuple[PlanarIsometry, CoinState], ...]:
    """Q's winning first moves in D_8, each with the state it sends |0> to,
    read once off the exact search: every winning class gives its first
    coset and the middle of its path."""
    return tuple((move, cls.path[1])
                 for cls in games.winning_classes(games.PQG, 8)
                 for move in cls.cosets[0])


def check_phase_families(cfg: Config):
    # grid point i is e^{i theta_i} times first move i mod 8; play classes
    # each member by the state its move sends |0> to
    moves = _first_moves()
    if len(moves) != 8:
        return False, {"firstMoves": len(moves)}
    thetas = [(i * 2.0 * math.pi / 100.0 + 0.05) % (2.0 * math.pi)
              for i in range(100)]
    bases = np.stack([unitary.matrix(m) for m, _ in moves])[np.arange(100) % 8]
    phases = np.array([cmath.exp(1j * theta) for theta in thetas])
    members = phases[:, None, None] * bases
    found = unitary.winning_states(members, cfg.tolerance)
    failures = 0
    worst = 0.0
    for i, (theta, state) in enumerate(zip(thetas, found)):
        if state != moves[i % 8][1]:
            failures += 1
            continue
        phase = cmath.phase(members[i, 0, 0] / bases[i, 0, 0])
        err = abs((phase - theta + math.pi) % (2.0 * math.pi) - math.pi)
        worst = max(worst, err)
        if err > cfg.tolerance:
            failures += 1
    return failures == 0, {"gridPoints": 100, "failures": failures,
                           "maxThetaError": worst}


def check_u2_sampling(cfg: Config):
    if cfg.samples == 0:
        return None, {"skipped": "samples = 0"}
    unitary_hits, max_residual, state_mismatches = unitary.screen(
        cfg.seed, cfg.samples, cfg.tolerance)
    # a winning first move is a measure-zero event: no sample may hit one.
    # So that zero hits means something, play must still class the winner
    # [|+>, i|->], which no D_8 first move times a phase gives, and reject F
    probe = np.column_stack([unitary.PLUS, 1j * unitary.MINUS])
    ok = (unitary_hits == 0 and state_mismatches == 0
          and max_residual <= TOL_RESIDUAL
          and unitary.winning_state(probe, cfg.tolerance) == KET_PLUS
          and unitary.winning_state(unitary.matrix(FLIP),
                                    cfg.tolerance) is None)
    return ok, {"samples": cfg.samples, "hits": unitary_hits,
                "stateMismatches": state_mismatches,
                "maxResidual": max_residual}


def _presented(n: int) -> tuple[bool, list[str]]:
    """Whether ``represent`` is the faithful homomorphism D_n -> O(2) that
    r -> R = R_{2pi/n}, s -> S = S_0 gives, and the elements it sends
    elsewhere.  R^n = S^2 = (SR)^2 = I, so by von Dyck's theorem that map
    extends to a homomorphism, which sends r^k to R^k and r^k s to R^k S;
    it is faithful when these 2n images are distinct."""
    rotor, mirror = PlanarIsometry(Angle(2, n)), PlanarIsometry(Angle(0), True)
    forced = [IDENTITY]
    for _ in range(n - 1):
        forced.append(forced[-1].compose(rotor))
    forced += [p.compose(mirror) for p in forced]
    images = isometries(n)
    failures = [f"D_{n}: {g}" for g, image, want
                in zip(dihedral.elements(n), images, forced) if image != want]
    ok = (not failures and len(set(images)) == 2 * n
          and dihedral.satisfies_relations(mirror, mirror.compose(rotor), n))
    return ok, failures


def check_representation(cfg: Config):
    presented = [_presented(n) for n in (8, 12, 16)]
    failures = [f for _, fs in presented for f in fs]
    # the presentation of D_8 by F and H: the relations and this closure
    generated = closure({FLIP, HADAMARD})
    closure_ok = (len(generated) == 16 and generated == set(isometries(8)))
    ok = (all(ok for ok, _ in presented) and closure_ok
          and dihedral.satisfies_relations(FLIP, HADAMARD, 8)
          and all(dihedral.verify_presentation(n) for n in (12, 16)))
    return ok, {"pairFailures": failures[:5], "closureSize": len(generated),
                "closureMatchesD8": closure_ok}


def check_probability_identities(cfg: Config):
    if win_probability(KET_PLUS, KET_ZERO) != 0.5:
        return False, {"halfExact": False}
    # cos^2 to |0> plus cos^2 to |1>, at the indices 0 and n of Z_2n
    worst = max((abs(difference_probability(j, 2 * n)
                     + difference_probability(j - n, 2 * n) - 1.0)
                 for n in range(cfg.n_min, cfg.n_max + 1)
                 for j in orbits.basis_indices(n)), default=0.0)
    ok = (win_probability(KET_ZERO, KET_ZERO) == 1.0
          and win_probability(KET_ONE, KET_ZERO) == 0.0
          and worst <= 1e-12)
    return ok, {"halfExact": True, "maxSumError": worst}


CHECKS: list[tuple[str, str, Callable]] = [
    ("winning-classes-d8",
     "three-round game in D_8: 32 winning strategies, 2 classes of 16",
     check_winning_classes_d8),
    ("winning-classes-stable",
     "D_16/D_24/D_32 add no winning strategies beyond the D_8 set",
     check_winning_classes_stable),
    ("small-groups",
     "flip absent from D_3/D_5/D_6/D_7; D_4 playable but Q cannot win",
     check_small_groups),
    ("fixed-set-dichotomy",
     "Fix({I, F}) over the basis orbit is {|+⟩, |−⟩} iff 8 | n, else empty",
     check_fixed_set_dichotomy),
    ("orbit-structure",
     "basis orbit sizes per n mod 4 and |orbit|·|stabilizer| = 2n",
     check_orbit_structure),
    ("stabilizers-d8",
     "D_8 stabilizers of |0⟩, |1⟩, |+⟩, |−⟩",
     check_stabilizers_d8),
    ("extended-games",
     "Q wins iff first and last mover; classical player never wins",
     check_extended_games),
    ("flip-eigensystem",
     "flip eigenpairs (+1, |+⟩) and (−1, |−⟩)",
     check_flip_eigensystem),
    ("phase-families",
     "phase-family members classify back to their base and phase",
     check_phase_families),
    ("u2-sampling",
     "sampled states/unitaries confirm the flip-fixed characterization",
     check_u2_sampling),
    ("representation-homomorphism",
     "standard representation is a homomorphism; {F, H} closure is D_8",
     check_representation),
    ("probability-identities",
     "exact 0.5 at |+⟩ vs |0⟩ and complementary probabilities sum to 1",
     check_probability_identities),
]


def run_all(cfg: Config) -> list[tuple[str, str, bool | None, dict, float]]:
    """Run every check in canonical order; each gives (id, claim, ok, details, s)."""
    results = []
    for check_id, claim, fn in CHECKS:
        start = perf_counter()
        ok, details = fn(cfg)
        results.append((check_id, claim, ok, details, perf_counter() - start))
    return results


def failing(results) -> list[str]:
    return [check_id for check_id, _, ok, _, _ in results if ok is False]
