"""Orbits, stabilizers and fixed sets for D_n acting on coin states.

All computations enumerate the 2n group elements and compare states
exactly.  Fixed sets are taken over the finite domain reachable from the
computational basis, which keeps the operation decidable by enumeration.
"""

from __future__ import annotations

from typing import Sequence

from . import dihedral
from .dihedral import DihedralElement, PlanarIsometry, represent
from .states import BASIS, CoinState, act


def orbit(n: int, x: CoinState) -> tuple[CoinState, ...]:
    """States reachable from *x* under all 2n elements, in ascending angle order."""
    return tuple(sorted({act(represent(g), x) for g in dihedral.elements(n)}))


def orbit_of_basis(n: int) -> tuple[CoinState, ...]:
    """Union of the |0> and |1> orbits."""
    reached = set()
    for b in BASIS:
        reached.update(orbit(n, b))
    return tuple(sorted(reached))


def stabilizer(n: int, x: CoinState) -> tuple[DihedralElement, ...]:
    """Elements whose action fixes *x* projectively, in canonical order."""
    return tuple(g for g in dihedral.elements(n) if act(represent(g), x) == x)


def fixed_set(n: int, ps: Sequence[PlanarIsometry]) -> tuple[CoinState, ...]:
    """States in the basis orbit fixed by every isometry in *ps*.

    Each isometry must belong to D_n (in particular the coin flip requires
    4 | n), otherwise :class:`FNotInGroup` is raised.
    """
    dihedral.require(n, ps)
    return tuple(x for x in orbit_of_basis(n)
                 if all(act(p, x) == x for p in ps))
