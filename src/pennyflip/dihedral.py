"""The dihedral group D_n and its exact planar matrix representation.

Elements are kept in the normal form ``r^k s^l`` and only act, on integer
state indices for orbits and game search; they are never multiplied.  Their
2x2 matrix images are kept symbolically as rotors/reflectors holding their
exact angle p/q·π as two ints in lowest terms: a product is built from its
factors' ints with one gcd, so it is exact, and names and membership read p/q.
Floating matrices exist only for cross-checking and for the complex layer.
Membership in D_n, the canonical element order, and the name of each
isometry and its parsing back from that name are decided here only.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from typing import Iterable, Sequence

from .angles import Angle, lowest_terms
from .errors import FNotInGroup
from .values import Value, build


class DihedralElement(Value, namedtuple("DihedralElement", "n k reflect")):
    """An element r^k s^l of D_n, with ``reflect`` standing for the s factor."""

    __slots__ = ()

    def __new__(cls, n: int, k: int, reflect: bool = False):
        if not 0 <= k < n >= 3:
            if n < 3:
                raise ValueError(
                    f"dihedral order parameter must be >= 3, got {n}")
            raise ValueError(f"rotation exponent {k} out of range [0, {n})")
        return build(cls, (n, k, reflect))

    def act(self, j: int, size: int) -> int:
        """Act on the index j of the state j*pi/size, with step = 2*size/n an
        integer: r^k sends j to j + k*step and r^k s to k*step - j, mod size."""
        shift = self.k * 2 * size // self.n
        return (shift - j if self.reflect else j + shift) % size

    def __str__(self) -> str:
        if self.reflect:
            return "s" if self.k == 0 else f"r^{self.k} s" if self.k > 1 else "r s"
        if self.k == 0:
            return "e"
        return "r" if self.k == 1 else f"r^{self.k}"


@functools.lru_cache(maxsize=8)
def elements(n: int) -> tuple[DihedralElement, ...]:
    """All 2n elements: rotations by ascending k, then reflections by ascending k."""
    return tuple(DihedralElement(n, k, reflect)
                 for reflect in (False, True) for k in range(n))


class PlanarIsometry(Value, namedtuple("PlanarIsometry", "p q reflect")):
    """A rotor R_a, or with ``reflect`` a reflector S_a, of a = p/q·π.

    The isometry owns the period of its angle, anything with
    ``as_integer_ratio()``, and reduces it into that period once, when
    built: a rotation angle into [0, 2*pi), a reflection axis into [0, pi).
    """

    __slots__ = ()

    def __new__(cls, angle: Angle, reflect: bool = False):
        return build(cls, (*lowest_terms(*angle.as_integer_ratio(),
                                         1 if reflect else 2), reflect))

    @property
    def angle(self) -> Angle:
        return build(Angle, self[:2])

    @classmethod
    def parse(cls, text: str) -> "PlanarIsometry":
        """Inverse of ``str``: a letter I, F or H in either case, or
        ``R_a`` / ``S_a`` with one pair of braces around the angle optional."""
        token = text.strip()
        named = _NAMED.get(token.upper() if len(token) == 1 else token)
        if named is not None:
            return named
        letter, _, rest = token.partition("_")
        rest = rest.strip()
        if rest[:1] == "{" and rest[-1:] == "}":
            rest = rest[1:-1]
        if letter in ("R", "S") and rest:
            return cls(Angle.parse(rest), letter == "S")
        raise ValueError(f"cannot parse isometry {token!r}")

    def compose(self, other: "PlanarIsometry") -> "PlanarIsometry":
        """Exact product ``self @ other`` (apply *other* first).

        Uses the composition identities
        R(a)R(b) = R(a+b), S(a)S(b) = R(2a-2b),
        R(a)S(b) = S(b + a/2), S(b)R(a) = S(b - a/2);
        these are taken as the definition of the product, the floating
        matrix product serves only as a test oracle.
        """
        (a, b, r), (c, d, s) = self, other
        if r != s:      # S(a - b/2) or S(b + a/2), mod pi
            return build(PlanarIsometry, (*lowest_terms(
                2 * a * d - c * b if r else 2 * c * b + a * d, 2 * b * d, 1),
                True))
        # R(2a - 2b) or R(a + b), mod 2*pi
        return build(PlanarIsometry, (*lowest_terms(
            2 * (a * d - c * b) if r else a * d + c * b, b * d, 2), False))

    def act(self, j: int, size: int) -> int:
        """Act on the index j of j*pi/size by the angle a = p/q, q | size:
        R_a sends j to j + a*size and S_a to 2a*size - j, mod size."""
        shift = self.p * size // self.q
        return (2 * shift - j if self.reflect else j + shift) % size

    def matrix(self) -> tuple[tuple[float, float], tuple[float, float]]:
        """Floating 2x2 matrix; evaluation boundary only."""
        if self.reflect:
            c, s = Angle(2 * self.p, self.q).cos_sin()
            return ((c, s), (s, -c))
        c, s = self.angle.cos_sin()
        return ((c, -s), (s, c))

    def __str__(self) -> str:
        """Octagon-style name: I, F and H by letter, R_π and S_0,
        R_{mπ/8} / S_{mπ/8} on the eighth grid, else the exact angle."""
        p, q, reflect = self
        name = _LETTERS.get((p, q, reflect))
        if name is not None:
            return name
        letter = "S" if reflect else "R"
        m, r = divmod(8 * p, q)
        if r:
            return f"{letter}_{{{self.angle}}}"
        if m in (0, 8):
            return f"{letter}_{self.angle}"
        return f"{letter}_{{{m}π/8}}"


IDENTITY = PlanarIsometry(0)
#: The coin flip, a reflection about the line at pi/4.
FLIP = PlanarIsometry(Angle(1, 4), True)
#: The Hadamard transform, a reflection about the line at pi/8.
HADAMARD = PlanarIsometry(Angle(1, 8), True)
_NAMED = {"I": IDENTITY, "F": FLIP, "H": HADAMARD}
_LETTERS = {tuple(p): name for name, p in _NAMED.items()}


def represent(g: DihedralElement) -> PlanarIsometry:
    """Standard representation: r^k -> R_{2*pi*k/n}, r^k s -> S_{pi*k/n},
    each angle already in its period."""
    if g.reflect:
        return build(PlanarIsometry, (*lowest_terms(g.k, g.n), True))
    return build(PlanarIsometry, (*lowest_terms(2 * g.k, g.n), False))


def isometries(n: int) -> list[PlanarIsometry]:
    """The represented image of D_n in canonical element order."""
    return [represent(g) for g in elements(n)]


def element_for_isometry(n: int, p: PlanarIsometry) -> DihedralElement | None:
    """The unique element of D_n represented by *p*, or None if absent."""
    k, r = divmod(p.p * n, p.q if p.reflect else 2 * p.q)
    return None if r else DihedralElement(n, k, p.reflect)


def contains_isometry(n: int, p: PlanarIsometry) -> bool:
    """Whether *p* lies in the image of the standard representation of D_n:
    the flip F iff 4 | n and the Hadamard move H iff 8 | n."""
    return element_for_isometry(n, p) is not None


def require(n: int, ps: Sequence[PlanarIsometry]
            ) -> tuple[DihedralElement, ...]:
    """The elements *ps* represent; FNotInGroup names the first not in D_n."""
    gs = tuple(element_for_isometry(n, p) for p in ps)
    if None in gs:
        raise FNotInGroup(f"{ps[gs.index(None)]} ∉ D_{n}")
    return gs


def closure(generators: Iterable[PlanarIsometry]) -> set[PlanarIsometry]:
    """All finite products of the generators: the fixpoint of multiplying
    each new element on the right by each generator.  Every angle here is
    rational, so every isometry has finite order and the inverses are
    products of the generators too."""
    found = set(generators)
    gens, frontier = tuple(found), found
    while frontier:
        frontier = {p.compose(g) for p in frontier for g in gens} - found
        found |= frontier
    return found


def satisfies_relations(s: PlanarIsometry, t: PlanarIsometry, n: int) -> bool:
    """Whether s^2 = t^2 = (s t)^n = identity."""
    st = s.compose(t)
    power = IDENTITY
    for _ in range(n):
        power = power.compose(st)
    return s.compose(s) == t.compose(t) == power == IDENTITY


def verify_presentation(n: int) -> bool:
    """Check that the reflections S_0 and S_{pi/n}, whose axes lie pi/n
    apart, present D_n: they satisfy the relations and their closure is the
    image of D_n."""
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    s, t = PlanarIsometry(0, True), PlanarIsometry(Angle(1, n), True)
    return (satisfies_relations(s, t, n)
            and closure({s, t}) == set(isometries(n)))
