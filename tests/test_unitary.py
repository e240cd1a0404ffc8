import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pennyflip import unitary
from pennyflip.angles import Angle
from pennyflip.dihedral import (FLIP, HADAMARD, IDENTITY, PlanarIsometry,
                                isometries)
from pennyflip.errors import NotUnitary
from pennyflip.orbits import orbit_of_basis
from pennyflip.states import KET_MINUS, KET_PLUS, KET_ZERO, act
from pennyflip.unitary import (BASE_MATRICES, BLOCK, FIRST_MOVE_BASES, MINUS,
                               PLUS, TOL_MEMBERSHIP, draw, eigensystem_flip,
                               fixed_by_flip_projective, is_unitary, matrix,
                               phase_family, proportional, sample_state,
                               sample_unitary, screen, screen_unitaries,
                               unitarity_residual, unitarity_residuals,
                               winning_state, winning_states)

R2 = PlanarIsometry.rotor(Angle(1, 4))
KET0 = np.array([1.0, 0.0], dtype=complex)


def wins_qpq(a1: np.ndarray, a2: np.ndarray) -> bool:
    """Float play of QPQ from |0> to |0>: Q plays *a1*, then *a2*, and wins
    with certainty against both of the classical player's moves."""
    return all(abs(abs((a2 @ p @ a1 @ KET0)[0]) ** 2 - 1.0) <= 1e-12
               for p in (matrix(IDENTITY), matrix(FLIP)))


def embed(x) -> np.ndarray:
    """Complex embedding of a projective real state."""
    return np.array(x.phi.cos_sin(), dtype=complex)


class TestPhaseFamilies:
    def test_theta_zero_is_the_base(self):
        assert np.allclose(phase_family(HADAMARD, 0.0), matrix(HADAMARD))

    def test_theta_pi_is_projectively_equivalent(self):
        u = phase_family(HADAMARD, math.pi)
        assert np.allclose(u, -matrix(HADAMARD), atol=1e-12)
        assert proportional(u @ KET0, matrix(HADAMARD) @ KET0)

    def test_direct_multiplication_oracle(self):
        theta = math.pi / 3
        u = phase_family(R2, theta)
        expected = cmath.exp(1j * theta) * np.array(R2.matrix(), dtype=complex)
        assert np.max(np.abs(u - expected)) <= 1e-15

    def test_members_stay_unitary(self):
        for base in FIRST_MOVE_BASES:
            for theta in (0.0, 0.3, math.pi, 5.1):
                assert unitarity_residual(phase_family(base, theta)) <= 1e-12


class TestEigensystem:
    def test_flip_eigensystem_residuals(self):
        f = matrix(FLIP)
        for value, vector in eigensystem_flip():
            assert np.max(np.abs(f @ vector - value * vector)) <= 1e-12
            assert abs(np.linalg.norm(vector) - 1.0) <= 1e-12

    def test_eigenvalues_are_plus_minus_one(self):
        (v1, _), (v2, _) = eigensystem_flip()
        assert (v1, v2) == (1.0, -1.0)

    def test_matches_numpy_eigendecomposition(self):
        values = sorted(np.linalg.eigvalsh(matrix(FLIP)))
        assert values == pytest.approx([-1.0, 1.0], abs=1e-12)


class TestFixedByFlip:
    def test_plus_and_minus_are_fixed(self):
        assert fixed_by_flip_projective(PLUS)
        assert fixed_by_flip_projective(MINUS)

    def test_basis_states_are_not(self):
        assert not fixed_by_flip_projective(KET0)

    def test_circular_state_is_not(self):
        psi = np.array([1.0, 1.0j]) / math.sqrt(2)
        assert not fixed_by_flip_projective(psi)


class TestClassifier:
    def test_hadamard_itself(self):
        assert winning_state(matrix(HADAMARD)) == KET_PLUS
        assert wins_qpq(matrix(HADAMARD), matrix(HADAMARD))

    def test_phase_multiple_of_reflector(self):
        base = PlanarIsometry.reflector(Angle(5, 8))
        assert winning_state(phase_family(base, math.pi / 5)) == act(
            base, KET_ZERO)

    def test_flip_is_not_a_winning_first_move(self):
        assert winning_state(matrix(FLIP)) is None
        assert winning_state(matrix(IDENTITY)) is None

    def test_second_column_phase_keeps_the_class(self):
        # same first column as H, extra phase on the second column: the
        # coin passes through the same states, so it wins the same way
        u = matrix(HADAMARD).copy()
        u[:, 1] *= cmath.exp(0.7j)
        assert is_unitary(u)
        assert winning_state(u) == KET_PLUS
        assert wins_qpq(u, matrix(HADAMARD))

    def test_rejects_non_unitary(self):
        with pytest.raises(NotUnitary):
            winning_state(np.array([[1.0, 0.0], [0.0, 2.0]], dtype=complex))

    def test_theta_is_two_pi_periodic(self):
        for base in FIRST_MOVE_BASES:
            for theta in (0.0, 0.4, math.pi, 5.1):
                assert (winning_state(phase_family(base, theta))
                        == winning_state(phase_family(base,
                                                      theta + 2 * math.pi))
                        == act(base, KET_ZERO))

    def test_base_matrices_are_the_bases_read_only(self):
        assert list(BASE_MATRICES) == list(FIRST_MOVE_BASES)
        for base, b in BASE_MATRICES.items():
            assert b.tobytes() == matrix(base).tobytes()
            with pytest.raises(ValueError):
                b[0, 0] = 0.0

    def test_antipodal_pairs_negate(self):
        # the eight bases are four pairs b, -b, and play classes a pair alike
        for base in FIRST_MOVE_BASES:
            others = [o for o in FIRST_MOVE_BASES
                      if np.max(np.abs(matrix(o) + matrix(base))) <= 1e-12]
            assert len(others) == 1
            assert act(others[0], KET_ZERO) == act(base, KET_ZERO)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.0, 2 * math.pi), st.floats(0.0, 2 * math.pi),
           st.sampled_from([(KET_PLUS, PLUS, MINUS), (KET_MINUS, MINUS, PLUS)]),
           st.floats(1e-3, math.pi / 2 - 1e-3))
    def test_two_sided_on_the_winning_manifold(self, alpha, beta, side, eps):
        state, ket, other = side
        u = np.column_stack([cmath.exp(1j * alpha) * ket,
                             cmath.exp(1j * beta) * other])
        assert winning_state(u) == state
        # F fixes u|0> up to phase, so Q's second move u^dagger undoes the
        # first against both replies
        assert wins_qpq(u, u.conj().T)
        c, s = math.cos(eps), math.sin(eps)
        tilted = np.array([[c, -s], [s, c]], dtype=complex) @ u
        assert winning_state(tilted) is None


def rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


class TestSampling:
    def test_deterministic(self):
        assert np.array_equal(sample_unitary(rng(17)), sample_unitary(rng(17)))
        assert np.array_equal(sample_state(rng(17)), sample_state(rng(17)))

    def test_samples_are_unitary(self):
        gen_u, gen_psi = rng(0), rng(0)
        for _ in range(200):
            assert unitarity_residual(sample_unitary(gen_u)) <= 1e-9
            assert abs(np.linalg.norm(sample_state(gen_psi)) - 1.0) <= 1e-9

    def test_random_unitaries_classify_consistently(self):
        # winning first moves have Haar measure zero: play classes no sample
        gen = rng(0)
        for _ in range(500):
            assert winning_state(sample_unitary(gen)) is None

    def test_haar_moments(self):
        # for Haar U(2), |U00|^2 is uniform on [0, 1] and det U / |det U|
        # uniform on the circle; each bound is at least five standard errors
        assert haar_moments_hold(draw(rng(2007), 20_000)[0])

    def test_haar_moments_reject_a_real_orthogonal_draw(self):
        # dropping the imaginary normals leaves O(2) times a phase, whose
        # |U00|^2 = cos^2 has variance 1/8
        assert not haar_moments_hold(draw(RealGinibre(2007), 20_000)[0])


def haar_moments_hold(unitaries: np.ndarray) -> bool:
    p = np.abs(unitaries[:, 0, 0]) ** 2
    det = np.linalg.det(unitaries)
    return bool(abs(p.mean() - 1 / 2) <= 0.01 and abs(p.var() - 1 / 12) <= 0.01
                and abs(np.mean(det / np.abs(det))) < 0.03)


class RealGinibre:
    """A generator whose rows carry no imaginary normals."""

    def __init__(self, seed: int):
        self.gen = rng(seed)

    def standard_normal(self, shape):
        rows = self.gen.standard_normal(shape)
        rows[..., 4:8] = 0.0
        return rows


WINDOWS = st.sampled_from([0, 1, BLOCK - 1, BLOCK, BLOCK + 1])
SEED_BASES = st.integers(0, 10**12)
# from 1 - sqrt(2)/2 up every sample is a hit, and from 0.5 up states
# mismatch the flip test
TOLERANCES = st.sampled_from([TOL_MEMBERSHIP, 0.5, 0.9])
NON_UNITARY = pytest.mark.parametrize(
    "bad", [np.diag([1.0, 2.0]), np.full((2, 2), np.nan)],
    ids=["scaled", "nan"])
#: Wins QPQ with H as its last move, though its second-column phase puts it
#: off every e^{i theta} times one of the eight bases.
A1 = np.column_stack([PLUS, 1j * MINUS])


def per_sample_screen(unitaries: list[np.ndarray], states: list[np.ndarray],
                      tol: float) -> tuple[int, float, int]:
    """The loop ``screen`` replaces: one sample at a time, by the oracle."""
    hits = mismatches = 0
    max_residual = 0.0
    for u, psi in zip(unitaries, states):
        near_eigen = proportional(psi, PLUS, tol) or proportional(psi, MINUS,
                                                                  tol)
        mismatches += fixed_by_flip_projective(psi, tol) != near_eigen
        max_residual = max(max_residual, unitarity_residual(u))
        hits += winning_state(u, tol) is not None
    return hits, max_residual, mismatches


def rotated_hadamard(eps: float) -> np.ndarray:
    """H after a real rotation by *eps*: its first column leaves |+>."""
    c, s = math.cos(eps), math.sin(eps)
    return matrix(HADAMARD) @ np.array([[c, -s], [s, c]], dtype=complex)


def rephased_hadamard(eps: float) -> np.ndarray:
    """H with a phase *eps* on its second column: its first column stays."""
    u = matrix(HADAMARD)
    u[:, 1] *= cmath.exp(1j * eps)
    return u


class TestBatchedScreen:
    @settings(max_examples=6, deadline=None)
    @given(SEED_BASES, WINDOWS, TOLERANCES)
    def test_matches_the_per_sample_oracle_bit_for_bit(self, seed, k, tol):
        unitaries, states = draw(rng(seed), k)
        assert unitaries.shape == (k, 2, 2) and states.shape == (k, 2)
        gen_u, gen_psi = rng(seed), rng(seed)
        oracle_u = [sample_unitary(gen_u) for _ in range(k)]
        oracle_psi = [sample_state(gen_psi) for _ in range(k)]
        assert unitaries.tobytes() == b"".join(u.tobytes() for u in oracle_u)
        assert states.tobytes() == b"".join(p.tobytes() for p in oracle_psi)
        residuals = np.array([unitarity_residual(u) for u in oracle_u])
        assert unitarity_residuals(unitaries).tobytes() == residuals.tobytes()
        want = per_sample_screen(oracle_u, oracle_psi, tol)
        assert screen(seed, k, tol) == want
        # without states the same rows are drawn, and only the states go
        only_unitaries, no_states = draw(rng(seed), k, states=False)
        assert only_unitaries.tobytes() == unitaries.tobytes()
        assert no_states is None
        assert screen(seed, k, tol, states=False) == (*want[:2], None)

    @settings(max_examples=8, deadline=None)
    @given(SEED_BASES, st.integers(0, 2 * BLOCK + 1),
           st.sampled_from([TOL_MEMBERSHIP, 0.5]))
    def test_block_split_invariance(self, seed, k, tol):
        results = set()
        for block in (1, 7, 1024):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(unitary, "BLOCK", block)
                results.add(screen(seed, k, tol))
        assert len(results) == 1

    @pytest.mark.parametrize("tol, hits", [(TOL_MEMBERSHIP, 0), (0.5, 4000),
                                           (0.9, 4000)])
    def test_hits_match_play_per_sample(self, tol, hits):
        # from tol = 1 - sqrt(2)/2 every first column is near |+> or |->
        gen = rng(10**11)
        unitaries = [sample_unitary(gen) for _ in range(4000)]
        want = sum(winning_state(u, tol) is not None for u in unitaries)
        assert want == hits
        assert screen(10**11, 4000, tol)[0] == hits

    def test_probe_wins_by_play(self):
        assert winning_state(A1) == KET_PLUS
        assert wins_qpq(A1, matrix(HADAMARD))

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(0.0, 2 * math.pi), min_size=8, max_size=8),
           st.floats(0.0, 1e-5), st.sampled_from([TOL_MEMBERSHIP, 1e-6]),
           SEED_BASES)
    def test_never_drops_a_hit(self, thetas, eps, tol, seed):
        planted = [phase_family(base, theta)
                   for base, theta in zip(FIRST_MOVE_BASES, thetas)]
        planted += [A1, rotated_hadamard(eps), rephased_hadamard(eps)]
        unitaries, _ = draw(rng(seed), 3 * len(planted))
        unitaries[::3] = planted
        want = sum(winning_state(u, tol) is not None for u in unitaries)
        assert want >= len(planted)
        assert screen_unitaries(unitaries, tol)[0] == want

    @NON_UNITARY
    def test_raises_on_a_planted_non_unitary(self, bad):
        unitaries, _ = draw(rng(0), 7)
        unitaries[4] = bad
        with pytest.raises(NotUnitary):
            screen_unitaries(unitaries)


class TestWinningStates:
    @settings(max_examples=25, deadline=None)
    @given(SEED_BASES, WINDOWS,
           st.lists(st.floats(0.0, 2 * math.pi), min_size=8, max_size=8),
           st.floats(0.0, 1e-3),
           st.sampled_from([TOL_MEMBERSHIP, 1e-6, 0.5, 0.9]))
    def test_matches_the_per_matrix_oracle(self, seed, k, thetas, eps, tol):
        planted = [phase_family(base, theta)
                   for base, theta in zip(FIRST_MOVE_BASES, thetas)]
        planted += [A1, rotated_hadamard(eps), rephased_hadamard(eps)]
        unitaries = np.concatenate([draw(rng(seed), k)[0], planted])
        unitaries = unitaries[rng(seed).permutation(len(unitaries))]
        assert winning_states(unitaries, tol) == [winning_state(u, tol)
                                                  for u in unitaries]

    @NON_UNITARY
    def test_raises_on_a_planted_non_unitary(self, bad):
        unitaries, _ = draw(rng(0), 7)
        unitaries[4] = bad
        with pytest.raises(NotUnitary):
            winning_states(unitaries)


class TestExactComplexBridge:
    def test_action_agrees_with_matrix_vector_product(self):
        for p in isometries(8):
            for x in orbit_of_basis(8):
                exact = embed(act(p, x))
                numeric = matrix(p) @ embed(x)
                # equality is projective: the exact image may differ by sign
                assert abs(abs(np.vdot(exact, numeric)) - 1.0) <= 1e-12
