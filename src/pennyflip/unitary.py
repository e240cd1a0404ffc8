"""Complex 2x2 unitary layer.

Everything the exact dihedral machinery cannot express lives here: the
flip's eigenvectors |+> and |->, the test that decides a winning first move
inside U(2) by play, and a seeded sampling harness that finds no such move
among Haar-random unitaries.  The layer holds no D_8 move of its own: the
``phase-families`` check takes its bases, Q's winning first moves, from the
exact search in ``games`` and classes their multiples e^{i*theta} * A here.

A first move U wins when U|0> is a phase multiple of |+> or |->: the flip
fixes both up to phase, so Q's second move then reaches any target.  That
state is the move's class, the middle of its state path, whatever phases
U carries.  ``winning_states`` decides it for a stack of matrices in one
array pass; it is the one batched classifier, behind both the sampling
screen and the ``phase-families`` check, and the one place that holds the
distance to |+> and |->.  ``winning_state`` decides one matrix and stays
its per-sample oracle.  The batched classifier estimates each row's
unitarity residual and first-column overlaps with plain elementwise
arithmetic, each within a derived error bound of the BLAS products the
oracle takes; the BLAS oracles ``unitarity_residuals`` and ``_dot`` run
only on the rows that bound leaves open, so every class, maximum residual
and NotUnitary is still the oracle's, bit for bit.

Sampling draws a window from one generator, ``np.random.default_rng(seed)``:
sample ``k`` is the Haar unitary U of row ``k`` of a ``(samples, ROW)`` array
of standard normals.  The row's first eight values are the real and the
imaginary parts of U's 2x2 complex Ginibre draw, its last two a complex
normal ``w`` whose direction ``w/|w|`` is the global phase.  ``screen``
draws the window in blocks of ``BLOCK`` rows and does the rest in
whole-array numpy; the rows of one stream are the same however many are
drawn at a time, so a window's result does not depend on ``BLOCK``.  Its
state half tests the claim on U|0>, the first column the hit test reads:
the flip fixes it up to phase exactly when U is a hit.  ``sample-u2``
skips only that flip test.  ``winning_state`` stays as the per-sample
oracle ``screen`` matches bit for bit; the tests hold the rest of it, a
sampler that reads one row at a time and the flip test on one state.
"""

from __future__ import annotations

import math

import numpy as np

from .config import TOL_MEMBERSHIP
from .dihedral import PlanarIsometry
from .errors import NotUnitary
from .states import KET_MINUS, KET_PLUS, CoinState

#: Rows drawn and screened at a time, so memory stays flat for any window.
BLOCK = 1024
#: Standard normals per sample: eight for the 2x2 complex draw, two for the
#: global phase.
ROW = 10

SQRT2_HALF = math.sqrt(2.0) / 2.0

#: The flip's eigenvectors: |+> for +1 and |-> for -1.
PLUS = np.array([SQRT2_HALF, SQRT2_HALF], dtype=complex)
MINUS = np.array([SQRT2_HALF, -SQRT2_HALF], dtype=complex)


def matrix(p: PlanarIsometry) -> np.ndarray:
    """Complex evaluation of an exact isometry."""
    return np.array(p.matrix(), dtype=complex)


def is_unitary(u: np.ndarray, tol: float = TOL_MEMBERSHIP) -> bool:
    return unitarity_residual(u) <= tol


def proportional(u: np.ndarray, v: np.ndarray,
                 tol: float = TOL_MEMBERSHIP) -> bool:
    """Whether two normalized vectors agree up to a global complex phase."""
    return bool(abs(abs(np.vdot(u, v)) - 1.0) <= tol)


def winning_state(u: np.ndarray,
                  tol: float = TOL_MEMBERSHIP) -> CoinState | None:
    """The state a winning first move *u* sends |0> to, or None.

    *u* wins when its first column is within *tol* of a phase multiple of
    |+> or |->, tried in that order; the second column plays no part.
    """
    if not is_unitary(u, tol):
        raise NotUnitary("matrix fails the unitarity check")
    for state, ket in ((KET_PLUS, PLUS), (KET_MINUS, MINUS)):
        if proportional(u[:, 0], ket, tol):
            return state
    return None


def unitarity_residual(u: np.ndarray) -> float:
    return float(np.max(np.abs(u.conj().T @ u - np.eye(2))))


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise sum of a * b as stacked (1, 2) @ (2, 1) products.

    matmul hands each pair to the BLAS dot that ``np.dot``, ``np.vdot`` and
    ``np.linalg.norm`` call on single vectors, so each result equals the
    oracle's bit for bit; an elementwise sum differs in the last bits.
    """
    return np.matmul(a[:, None, :], b[..., None])[:, 0, 0]


def _norm(z: np.ndarray) -> np.ndarray:
    """Row-wise ``np.linalg.norm``: real and imaginary dots, then sqrt."""
    return np.sqrt(_dot(z.real, z.real) + _dot(z.imag, z.imag))


# Error bound of the elementwise estimates below against their BLAS oracles.
# Each real or imaginary part of a two-term complex inner product <a|b> is a
# four-term real dot product.  For any summation order, with or without
# FMA, its computed value lies within gamma_4 * P of the exact one, where
# P = |a_0||b_0| + |a_1||b_1| <= ||a|| ||b||, gamma_4 = 4u / (1 - 4u) and
# u = 2**-53 (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
# ed., 3.1).  Estimate and oracle each carry that error, so as complex
# numbers they lie within 2 * sqrt(2) * gamma_4 * P < 11.32u * P of each
# other.  Each side then rounds once in ``hypot`` (by under one ulp, at most
# 2u times its value, which is at most P + r for the result r) and once in
# ``- 1`` (by at most u * r; not at all when the value lies in [1/2, 2]).
# So the two results differ by at most 15.32u * P + 6u * r < 16u * (P + r),
# and the slack covers the rounding of P and r themselves.  The bound
# scales with the row's entries, not with the tolerance, so it holds at
# every tolerance; underflow stays far below it, since a row whose column
# norms are small has a residual near 1.
_ERR = 2.0 ** -49       # 16u


def _proportional(u: np.ndarray, v: np.ndarray, tol: float) -> np.ndarray:
    """Row-wise ``proportional``: |abs(vdot(u, v)) - 1| within *tol*.

    An elementwise estimate decides each row that its error bound leaves on
    one side of *tol*; the BLAS oracle ``_dot`` decides the rest, NaN rows
    included.
    """
    g = u.conj() * v
    a = np.abs(g)
    off = np.abs(np.abs(g[:, 0] + g[:, 1]) - 1.0)
    near = off <= tol
    bound = _ERR * (a[:, 0] + a[:, 1] + off)
    open_ = ~(np.abs(off - tol) > bound)
    if open_.any():
        w = _dot(u[open_].conj(), np.broadcast_to(v, u.shape)[open_])
        near[open_] = np.abs(np.hypot(w.real, w.imag) - 1.0) <= tol
    return near


def draw(rng: np.random.Generator, count: int) -> np.ndarray:
    """The Haar unitaries of the next *count* rows of *rng*, stacked: per
    row, the first column of the Ginibre draw normalized, the second
    orthogonalized against it and normalized, and the phase w/|w|."""
    rows = rng.standard_normal((count, ROW))
    z = (rows[:, :4] + 1j * rows[:, 4:8]).reshape(-1, 2, 2)
    c0 = z[:, :, 0] / _norm(z[:, :, 0])[:, None]
    c1 = z[:, :, 1] - _dot(c0.conj(), z[:, :, 1])[:, None] * c0
    c1 = c1 / _norm(c1)[:, None]
    w = rows[:, 8:] / _norm(rows[:, 8:])[:, None]
    phases = w[:, 0] + 1j * w[:, 1]
    return phases[:, None, None] * np.stack([c0, c1], axis=2)


def unitarity_residuals(unitaries: np.ndarray) -> np.ndarray:
    """Row-wise ``unitarity_residual`` of stacked 2x2 matrices."""
    return np.abs(unitaries.conj().transpose(0, 2, 1) @ unitaries
                  - np.eye(2)).max(axis=(1, 2))


#: The state each class code of ``_classes`` stands for.
_CLASS_STATES = (None, KET_PLUS, KET_MINUS)


def _classes(unitaries: np.ndarray,
             tol: float) -> tuple[np.ndarray, float]:
    """Class codes (indices into ``_CLASS_STATES``) and the largest
    unitarity residual of stacked 2x2 matrices; raises NotUnitary as
    ``winning_state`` does.

    Every row's residual is estimated elementwise; P of each Gram entry is
    at most the larger squared column norm.  The oracle
    ``unitarity_residuals`` then runs on the row estimated largest, and on
    each row whose bound reaches that row's exact residual, NaN and inf
    rows included: the maximum is among them, and every row passes *tol*
    exactly when the maximum does.
    """
    if len(unitaries) == 0:
        return np.zeros(0, dtype=int), 0.0
    c0, c1 = unitaries[:, :, 0], unitaries[:, :, 1]
    g = c0.conj() * c1
    sq = unitaries.real * unitaries.real + unitaries.imag * unitaries.imag
    n0 = sq[:, 0, 0] + sq[:, 1, 0]
    n1 = sq[:, 0, 1] + sq[:, 1, 1]
    estimate = np.maximum(np.maximum(np.abs(n0 - 1.0), np.abs(n1 - 1.0)),
                          np.abs(g[:, 0] + g[:, 1]))
    bound = _ERR * (np.maximum(n0, n1) + estimate)
    top = int(np.argmax(estimate))
    floor = unitarity_residuals(unitaries[top:top + 1])
    open_ = ~(estimate + bound < floor[0])
    residuals = np.concatenate([floor, unitarity_residuals(unitaries[open_])])
    if not np.all(residuals <= tol):
        raise NotUnitary("matrix fails the unitarity check")
    codes = np.where(_proportional(c0, PLUS, tol), 1,
                     2 * _proportional(c0, MINUS, tol))
    return codes, float(residuals.max())


def winning_states(unitaries: np.ndarray,
                   tol: float = TOL_MEMBERSHIP) -> list[CoinState | None]:
    """``winning_state`` of each matrix of a stack, in one array pass.

    Raises NotUnitary when any of them fails the unitarity check.
    """
    codes, _ = _classes(unitaries, tol)
    return [_CLASS_STATES[code] for code in codes.tolist()]


def screen(seed: int, samples: int, tol: float = TOL_MEMBERSHIP,
           states: bool = True) -> tuple[int, float, int | None]:
    """(hits, max residual, state mismatches) over the first *samples* rows
    of ``np.random.default_rng(seed)``, ``BLOCK`` rows at a time.

    A hit is a unitary ``winning_states`` classes; raises NotUnitary as it
    does.  A mismatch is a sample on which the hit test and the flip test
    of its state U|0> disagree.  With *states* false the flip test is
    skipped and the mismatch count reads None.
    """
    rng = np.random.default_rng(seed)
    hits = 0
    max_residual = 0.0
    mismatches = 0 if states else None
    for start in range(0, samples, BLOCK):
        unitaries = draw(rng, min(BLOCK, samples - start))
        codes, r = _classes(unitaries, tol)
        hits += int(np.count_nonzero(codes))
        max_residual = max(max_residual, r)
        if states:
            c0 = unitaries[:, :, 0]
            # the flip swaps the two amplitudes, exactly as matrix(FLIP) @ c0
            fixed = _proportional(c0[:, ::-1], c0, tol)
            mismatches += int(np.count_nonzero(fixed != (codes != 0)))
        del codes   # held across the next draw, it slows a block by ~5 %
    return hits, max_residual, mismatches
