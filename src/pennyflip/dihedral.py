"""The dihedral group D_n and its exact planar matrix representation.

Elements are kept in the normal form ``r^k s^l`` and only act, on integer
state indices for orbits and game search; they are never multiplied.  Their
2x2 matrix images are kept symbolically as rotors/reflectors carrying an
exact angle, so products are exact.  An isometry reduces only an angle
outside its period, and names and membership read its integer ratio.
Floating matrices exist only for cross-checking and for the complex layer.
Membership in D_n, the canonical element order, and the name of each
isometry and its parsing back from that name are decided here only.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .angles import Angle
from .errors import FNotInGroup


@dataclass(frozen=True)
class DihedralElement:
    """An element r^k s^l of D_n, with ``reflect`` standing for the s factor."""

    n: int
    k: int
    reflect: bool = False

    def __post_init__(self) -> None:
        if self.n < 3:
            raise ValueError(f"dihedral order parameter must be >= 3, got {self.n}")
        if not 0 <= self.k < self.n:
            raise ValueError(f"rotation exponent {self.k} out of range [0, {self.n})")

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


@dataclass(frozen=True)
class PlanarIsometry:
    """A rotor R_a, or with ``reflect`` a reflector S_a, in exact angle form.

    The isometry owns the period of its angle and reduces the angle once,
    when built: a rotation angle into [0, 2*pi), a reflection axis
    inclination into [0, pi).  Any rational value may be passed in; an
    ``Angle`` already in its period, as :func:`represent` gives, stays.
    """

    angle: Angle
    reflect: bool = False

    def __post_init__(self) -> None:
        angle, period = self.angle, 1 if self.reflect else 2
        if not (type(angle) is Angle
                and 0 <= angle.numerator < period * angle.denominator):
            object.__setattr__(self, "angle", Angle(angle % period))

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
        a, b = self.angle, other.angle
        if self.reflect:
            if other.reflect:
                return PlanarIsometry(2 * (a - b))
            return PlanarIsometry(a - b / 2, True)
        if other.reflect:
            return PlanarIsometry(b + a / 2, True)
        return PlanarIsometry(a + b)

    def act(self, j: int, size: int) -> int:
        """Act on the index j of j*pi/size by the angle a = p/q, q | size:
        R_a sends j to j + a*size and S_a to 2a*size - j, mod size."""
        shift = self.angle.numerator * size // self.angle.denominator
        return (2 * shift - j if self.reflect else j + shift) % size

    def matrix(self) -> tuple[tuple[float, float], tuple[float, float]]:
        """Floating 2x2 matrix; evaluation boundary only."""
        if self.reflect:
            c, s = Angle(2 * self.angle).cos_sin()
            return ((c, s), (s, -c))
        c, s = self.angle.cos_sin()
        return ((c, -s), (s, c))

    def __str__(self) -> str:
        return self._name

    @functools.cached_property
    def _name(self) -> str:
        """Octagon-style name, built once: I, F and H by letter, R_π and
        S_0, R_{mπ/8} / S_{mπ/8} on the eighth grid, else the exact angle."""
        p, q = self.angle.as_integer_ratio()
        name = _LETTERS.get((p, q, self.reflect))
        if name is not None:
            return name
        letter = "S" if self.reflect else "R"
        m, r = divmod(8 * p, q)
        if r:
            return f"{letter}_{{{self.angle}}}"
        if m in (0, 8):
            return f"{letter}_{self.angle}"
        return f"{letter}_{{{m}π/8}}"


IDENTITY = PlanarIsometry(Angle(0))
#: The coin flip, a reflection about the line at pi/4.
FLIP = PlanarIsometry(Angle(1, 4), True)
#: The Hadamard transform, a reflection about the line at pi/8.
HADAMARD = PlanarIsometry(Angle(1, 8), True)
_NAMED = {"I": IDENTITY, "F": FLIP, "H": HADAMARD}
_LETTERS = {(*p.angle.as_integer_ratio(), p.reflect): name
            for name, p in _NAMED.items()}


def represent(g: DihedralElement) -> PlanarIsometry:
    """Standard representation: r^k -> R_{2*pi*k/n}, r^k s -> S_{pi*k/n}."""
    if g.reflect:
        return PlanarIsometry(Angle(g.k, g.n), True)
    return PlanarIsometry(Angle(2 * g.k, g.n))


def isometries(n: int) -> list[PlanarIsometry]:
    """The represented image of D_n in canonical element order."""
    return [represent(g) for g in elements(n)]


def element_for_isometry(n: int, p: PlanarIsometry) -> DihedralElement | None:
    """The unique element of D_n represented by *p*, or None if absent."""
    num, den = p.angle.as_integer_ratio()
    k, r = divmod(num * n, den if p.reflect else 2 * den)
    return None if r else DihedralElement(n, k, p.reflect)


def contains_isometry(n: int, p: PlanarIsometry) -> bool:
    """Whether *p* lies in the image of the standard representation of D_n.

    The flip F lies in D_n iff 4 | n and the Hadamard move H iff 8 | n.
    """
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
    s, t = PlanarIsometry(Angle(0), True), PlanarIsometry(Angle(1, n), True)
    return (satisfies_relations(s, t, n)
            and closure({s, t}) == set(isometries(n)))
