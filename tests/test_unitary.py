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


def proportional_oracle(u: np.ndarray, v: np.ndarray,
                        tol: float) -> np.ndarray:
    """``unitary._proportional`` before the elementwise screen: the BLAS
    dot on every row."""
    w = unitary._dot(u.conj(), v)
    return np.abs(np.hypot(w.real, w.imag) - 1.0) <= tol


def classes_oracle(unitaries: np.ndarray,
                   tol: float) -> tuple[np.ndarray, float]:
    """``unitary._classes`` before the elementwise screen: the BLAS oracles
    on every row."""
    residuals = unitarity_residuals(unitaries)
    if not np.all(residuals <= tol):
        raise NotUnitary("matrix fails the unitarity check")
    col = unitaries[:, :, 0]
    codes = np.where(proportional_oracle(col, PLUS, tol), 1,
                     2 * proportional_oracle(col, MINUS, tol))
    return codes, float(residuals.max(initial=0.0))


def assert_classes_like_the_oracle(unitaries: np.ndarray, tol: float):
    """Same codes, the same maximum bit for bit, or NotUnitary from both."""
    try:
        want = classes_oracle(unitaries, tol)
    except NotUnitary:
        with pytest.raises(NotUnitary):
            unitary._classes(unitaries, tol)
        return
    codes, max_residual = unitary._classes(unitaries, tol)
    assert codes.tolist() == want[0].tolist()
    assert max_residual.hex() == want[1].hex()


def assert_proportional_like_the_oracle(u: np.ndarray, v: np.ndarray,
                                        tol: float):
    assert (unitary._proportional(u, v, tol).tolist()
            == proportional_oracle(u, v, tol).tolist())


SCREEN_TOLERANCES = [1e-12, TOL_MEMBERSHIP, 0.05, 0.5, 0.9]


def planted(rows: list[np.ndarray], seed: int = 0) -> np.ndarray:
    """A window of ``draw`` with *rows* planted in it, evenly spaced."""
    unitaries, _ = draw(rng(seed), 3 * len(rows))
    unitaries[1::3] = rows
    return unitaries


class TestElementwiseScreen:
    """The elementwise estimates with their error bound decide exactly what
    the BLAS oracles decide: the same hits, the same maximum residual and
    the same NotUnitary."""

    @settings(max_examples=20, deadline=None)
    @given(SEED_BASES, WINDOWS, st.sampled_from(SCREEN_TOLERANCES))
    def test_draw_windows_match_the_oracle(self, seed, k, tol):
        unitaries, states = draw(rng(seed), k)
        assert_classes_like_the_oracle(unitaries, tol)
        for v in (PLUS, MINUS):
            assert_proportional_like_the_oracle(unitaries[:, :, 0], v, tol)
            assert_proportional_like_the_oracle(states, v, tol)
        assert_proportional_like_the_oracle(states[:, ::-1], states, tol)

    @pytest.mark.parametrize("tol", SCREEN_TOLERANCES)
    def test_empty_and_single_row_stacks(self, tol):
        unitaries, _ = draw(rng(5), 2)
        for stack in (unitaries[:0], unitaries[:1], np.stack([A1])):
            assert_classes_like_the_oracle(stack, tol)
        assert unitary._classes(unitaries[:0], tol)[1] == 0.0

    @pytest.mark.parametrize("view", [
        lambda us: us[::2], lambda us: us[::-1],
        lambda us: us.transpose(0, 2, 1)], ids=["step", "reversed", "T"])
    def test_non_contiguous_views(self, view):
        unitaries, _ = draw(rng(11), 2 * BLOCK + 3)
        stack = view(unitaries)
        assert not stack.flags.c_contiguous
        for tol in SCREEN_TOLERANCES:
            assert_classes_like_the_oracle(stack, tol)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("tol", [TOL_MEMBERSHIP, 0.9])
    @pytest.mark.parametrize("bad", [
        np.full((2, 2), np.nan), np.full((2, 2), np.inf),
        np.array([[np.inf, 0.0], [0.0, 1.0]]),
        np.array([[1.0, 0.0], [0.0, np.nan]]),
        np.array([[1.0, -np.inf], [0.0, 1.0]]),
        1e200 * matrix(HADAMARD)],
        ids=["nan", "inf", "one-inf", "one-nan", "off-diagonal-inf", "huge"])
    def test_non_finite_rows_raise(self, bad, tol):
        stack = planted([bad])
        assert_classes_like_the_oracle(stack, tol)
        with pytest.raises(NotUnitary):
            unitary._classes(stack, tol)

    def test_column_norms_near_one_plus_tol(self):
        # at tol 0.9 a column of squared norm about 1.9 sits on the edge
        tol = 0.9
        scale = math.sqrt(1.0 + tol)
        u, _ = draw(rng(13), 1)
        for steps in range(-6, 7):
            a = scale + steps * math.ulp(scale)
            for row in (np.diag([a, 1.0]).astype(complex), a * u[0]):
                assert_classes_like_the_oracle(planted([row]), tol)

    def test_residual_a_few_ulps_either_side_of_tol(self):
        unitaries, _ = draw(rng(17), BLOCK)
        residuals = unitarity_residuals(unitaries)
        for tol in (residuals.max(), residuals[0], residuals[1]):
            for steps in range(-3, 4):
                edge = tol + steps * math.ulp(tol)
                assert_classes_like_the_oracle(unitaries, edge)
                assert_classes_like_the_oracle(unitaries[:2], edge)

    def test_estimates_ranked_against_the_exact_residuals(self):
        # elementwise, row 0 estimates the larger residual (2.69e-16 against
        # 2.22e-16), but the BLAS residual of row 10 is the larger (4.44e-16
        # against 3.33e-16): the maximum must still come from row 10
        unitaries, _ = draw(rng(3), 11)
        pair = unitaries[[0, 10]]
        residuals = unitarity_residuals(pair)
        assert residuals[1] > residuals[0]
        for stack in (pair, pair[::-1], planted(list(pair), 3)):
            assert_classes_like_the_oracle(stack, TOL_MEMBERSHIP)
            assert (unitary._classes(stack, TOL_MEMBERSHIP)[1]
                    == residuals.max())

    def test_overlap_a_few_ulps_either_side_of_tol(self):
        # each row's BLAS overlap |1 - |<u|v>||, and one ulp below it, as the
        # tolerance: the rows the estimate differs from the oracle on must
        # go to the oracle
        unitaries, states = draw(rng(19), 64)
        for u, v in ((unitaries[:, :, 0], PLUS), (unitaries[:, :, 0], MINUS),
                     (states[:, ::-1], states)):
            w = unitary._dot(u.conj(), v)
            off = np.abs(np.hypot(w.real, w.imag) - 1.0)
            vs = np.broadcast_to(v, u.shape)
            for i, edge in enumerate(off.tolist()):
                for tol in (edge, math.nextafter(edge, 0.0),
                            math.nextafter(edge, 1.0)):
                    assert_proportional_like_the_oracle(u[i:i + 1],
                                                        vs[i:i + 1], tol)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_the_oracles_see_few_rows(seed, monkeypatch):
    # the gain of the elementwise screen rests on this: at the default
    # tolerance the residual oracle sees at most 1 % of the rows, and the
    # first-column tests send none to the BLAS dot
    residual_rows = []
    dot_rows = []
    in_draw = []
    residuals, dot, draw_ = (unitary.unitarity_residuals, unitary._dot,
                             unitary.draw)

    def counting_residuals(unitaries):
        residual_rows.append(len(unitaries))
        return residuals(unitaries)

    def counting_dot(a, b):
        if not in_draw:
            dot_rows.append(len(a))
        return dot(a, b)

    def marked_draw(*args):
        in_draw.append(True)
        try:
            return draw_(*args)
        finally:
            in_draw.pop()

    monkeypatch.setattr(unitary, "unitarity_residuals", counting_residuals)
    monkeypatch.setattr(unitary, "_dot", counting_dot)
    monkeypatch.setattr(unitary, "draw", marked_draw)
    hits, max_residual, _ = screen(seed, 4000, states=False)
    assert hits == 0 and max_residual > 0.0
    assert 0 < sum(residual_rows) <= 40
    assert dot_rows == []


@pytest.mark.parametrize("tol, want", [
    (TOL_MEMBERSHIP, (0, 1.748407006014211e-14, 0)),
    (0.05, (2001, 1.748407006014211e-14, 1433)),
    (0.5, (10000, 1.748407006014211e-14, 4996)),
    (0.9, (10000, 1.748407006014211e-14, 997))])
def test_screen_values_are_pinned(tol, want):
    # the mismatches from 0.05 up are the distance-scale defect of the flip
    # test, kept as they are until the U(2) tolerance becomes an angle
    assert screen(0, 10000, tol) == want
