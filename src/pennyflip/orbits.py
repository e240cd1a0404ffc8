"""Orbits, stabilizers and fixed sets for D_n acting on coin states.

A state phi = a/b (in units of pi) is the index j = phi*N on Z_N with
N = lcm(2n, b), where D_n acts by integer arithmetic; the basis orbit lies
on N = 2n, with |0> at 0 and |1> at n.  An orbit is two cosets of dZ_N,
d = gcd(2N/n, N): j + dZ_N from the rotations, -j + dZ_N from the
reflections.  A stabilizer solves k*step = c (mod N), step = 2N/n, for
k in [0, n): c = 0 for the rotations r^k and c = 2j for the reflections
r^k s; d and (step/d)^-1 mod N/d are found once per (n, N).  Each k < n is
built without a range check and kept only if :meth:`DihedralElement.act`
fixes j, so the action still decides it and |orbit|*|stabilizer| = 2n stays
a check.  States are built only at the end, by :meth:`CoinState.at`, one
per index returned; ``probability-identities`` reads :func:`basis_indices`.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

from . import dihedral
from .dihedral import DihedralElement, PlanarIsometry
from .states import CoinState
from .values import build


def index_orbit(n: int, j: int, size: int) -> set[int]:
    """Indices reachable from *j* on Z_size: the cosets +-j + dZ_size."""
    d = math.gcd(2 * size // n, size)
    return {*range(j % d, size, d), *range(-j % d, size, d)}


@functools.lru_cache(maxsize=16)
def _congruence(n: int, size: int) -> tuple[int, int, int]:
    """d = gcd(step, size), the period size/d and (step/d)^-1 mod it."""
    if n < 3:
        DihedralElement(n, 0)           # raises D_n's ValueError
    d = math.gcd(step := 2 * size // n, size)
    return d, size // d, pow(step // d, -1, size // d)


def index_stabilizer(n: int, j: int, size: int) -> tuple[DihedralElement, ...]:
    """Elements fixing the index *j* on Z_size, in canonical order: each k
    in [0, n) with k*step = c (mod size), c = 0 for r^k and 2j for r^k s,
    that :meth:`DihedralElement.act` confirms."""
    d, period, inverse = _congruence(n, size)
    found = []
    for reflect, c in ((False, 0), (True, 2 * j)):
        if c % d == 0:
            for k in range(c // d * inverse % period, n, period):
                g = build(DihedralElement, (n, k, reflect))
                if g.act(j, size) == j:
                    found.append(g)
    return tuple(found)


def _on_grid(n: int, x: CoinState) -> tuple[int, int]:
    size = math.lcm(2 * n, x.q)
    return x.index(size), size


def orbit(n: int, x: CoinState) -> tuple[CoinState, ...]:
    """States reachable from *x* under all 2n elements, in ascending angle order."""
    j, size = _on_grid(n, x)
    return tuple(CoinState.at(i, size) for i in sorted(index_orbit(n, j, size)))


def basis_indices(n: int) -> list[int]:
    """The union of the |0> and |1> orbits as ascending indices on Z_2n."""
    return sorted(index_orbit(n, 0, 2 * n) | index_orbit(n, n, 2 * n))


def stabilizer(n: int, x: CoinState) -> tuple[DihedralElement, ...]:
    """Elements whose action fixes *x* projectively, in canonical order."""
    return index_stabilizer(n, *_on_grid(n, x))


def fixed_set(n: int, ps: Sequence[PlanarIsometry]) -> tuple[CoinState, ...]:
    """States in the basis orbit fixed by every isometry in *ps*; each must
    lie in D_n (the flip needs 4 | n), else :class:`FNotInGroup` is raised."""
    gs = dihedral.require(n, ps)
    return tuple(CoinState.at(j, 2 * n) for j in basis_indices(n)
                 if all(g.act(j, 2 * n) == j for g in gs))
