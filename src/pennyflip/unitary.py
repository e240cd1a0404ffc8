"""Complex 2x2 unitary layer.

Everything the exact dihedral machinery cannot express lives here: the
eigen-structure of the coin flip, phase families e^{i*theta} * A, the
classification of winning first moves inside U(2), and a seeded sampling
harness used to falsify the existence of winning first moves outside the
known families.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .angles import Angle
from .dihedral import FLIP, HADAMARD, PlanarIsometry
from .errors import NotUnitary
from .states import CoinState

#: Membership / unitarity tolerance.
TOL_MEMBERSHIP = 1e-9
#: Algebraic residual tolerance.
TOL_RESIDUAL = 1e-12

SQRT2_HALF = math.sqrt(2.0) / 2.0

PLUS = np.array([SQRT2_HALF, SQRT2_HALF], dtype=complex)
MINUS = np.array([SQRT2_HALF, -SQRT2_HALF], dtype=complex)
KET0 = np.array([1.0, 0.0], dtype=complex)

#: The eight first moves occurring in winning strategies: four send |0> to
#: |+> and four send |0> to |->.
FIRST_MOVE_BASES: tuple[PlanarIsometry, ...] = (
    HADAMARD,                                # S_{pi/8}
    PlanarIsometry.rotor(Angle(1, 4)),       # R_{2pi/8}
    PlanarIsometry.reflector(Angle(5, 8)),   # S_{5pi/8}
    PlanarIsometry.rotor(Angle(5, 4)),       # R_{10pi/8}
    PlanarIsometry.reflector(Angle(7, 8)),   # S_{7pi/8}
    PlanarIsometry.rotor(Angle(7, 4)),       # R_{14pi/8}
    PlanarIsometry.reflector(Angle(3, 8)),   # S_{3pi/8}
    PlanarIsometry.rotor(Angle(3, 4)),       # R_{6pi/8}
)


@dataclass(frozen=True)
class PhaseFamilyTag:
    """Identifies a unitary as e^{i*theta} times one of the named bases."""

    base: PlanarIsometry
    theta: float


def matrix(p: PlanarIsometry) -> np.ndarray:
    """Complex evaluation of an exact isometry."""
    return np.array(p.matrix(), dtype=complex)


def embed(x: CoinState) -> np.ndarray:
    """Complex embedding of a projective real state."""
    c, s = x.amplitudes()
    return np.array([c, s], dtype=complex)


def is_unitary(u: np.ndarray, tol: float = TOL_MEMBERSHIP) -> bool:
    return bool(np.max(np.abs(u.conj().T @ u - np.eye(2))) <= tol)


def phase_family(base: PlanarIsometry, theta: float) -> np.ndarray:
    """The family member e^{i*theta} * base."""
    return cmath.exp(1j * theta) * matrix(base)


def proportional(u: np.ndarray, v: np.ndarray,
                 tol: float = TOL_MEMBERSHIP) -> bool:
    """Whether two normalized vectors agree up to a global complex phase."""
    return bool(abs(abs(np.vdot(u, v)) - 1.0) <= tol)


def eigensystem_flip() -> tuple[tuple[float, np.ndarray], tuple[float, np.ndarray]]:
    """Closed-form eigen-decomposition of the coin flip.

    The characteristic polynomial is lambda^2 - 1, so the eigenvalues are
    +1 and -1 with eigenvectors |+> and |->.
    """
    return ((1.0, PLUS.copy()), (-1.0, MINUS.copy()))


def fixed_by_flip_projective(psi: np.ndarray,
                             tol: float = TOL_MEMBERSHIP) -> bool:
    """True iff the flip maps *psi* to a phase multiple of itself."""
    return proportional(matrix(FLIP) @ psi, psi, tol)


def first_column_winning(u: np.ndarray, tol: float = TOL_MEMBERSHIP) -> bool:
    """The weaker condition: U|0> is a phase multiple of |+> or |->.

    A unitary can satisfy this while carrying an independent phase on its
    second column, which puts it outside the named one-phase families; the
    full classifier below reports None for such matrices.
    """
    col = u @ KET0
    return proportional(col, PLUS, tol) or proportional(col, MINUS, tol)


def classify_winning_first_move(u: np.ndarray,
                                tol: float = TOL_MEMBERSHIP
                                ) -> PhaseFamilyTag | None:
    """Match *u* against the eight named families, recovering the phase.

    The phase is taken from the (0, 0) entry (nonzero for every base) and
    canonicalized to [0, 2*pi); full-matrix membership within *tol* is
    required, not just the first-column condition.
    """
    if not is_unitary(u, tol):
        raise NotUnitary("matrix fails the unitarity check")
    if not first_column_winning(u, tol):
        return None
    for base in FIRST_MOVE_BASES:
        b = matrix(base)
        theta = cmath.phase(u[0, 0] / b[0, 0]) % (2 * math.pi)
        if np.max(np.abs(u - cmath.exp(1j * theta) * b)) <= tol:
            return PhaseFamilyTag(base, theta)
    return None


def antipode(base: PlanarIsometry) -> PlanarIsometry:
    """The isometry whose matrix is the negation of *base*.

    The named families overlap in antipodal pairs (e.g. S_{5pi/8} = -H), so
    e^{i*theta} * base also carries the tag (antipode(base), theta + pi).
    """
    if base.is_rotor:
        return PlanarIsometry.rotor(base.angle + 1)
    return PlanarIsometry.reflector(base.angle + Angle(1, 2))


def sample_unitary(seed: int) -> np.ndarray:
    """A deterministic approximately Haar-distributed unitary.

    Four complex standard normals, first column normalized, second column
    orthogonalized against the first and normalized, then a random global
    phase.
    """
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    c0 = z[:, 0] / np.linalg.norm(z[:, 0])
    c1 = z[:, 1] - np.vdot(c0, z[:, 1]) * c0
    c1 = c1 / np.linalg.norm(c1)
    u = np.column_stack([c0, c1])
    return np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)) * u


def sample_state(seed: int) -> np.ndarray:
    """A deterministic normalized complex state."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return z / np.linalg.norm(z)


def unitarity_residual(u: np.ndarray) -> float:
    return float(np.max(np.abs(u.conj().T @ u - np.eye(2))))
