"""Projective real qubit states and the dihedral action on them.

A coin state cos(phi)|0> + sin(phi)|1> is identified with its antipode, so
the carrier is a single exact angle phi that lives mod pi, like a
reflection axis.  :class:`CoinState` owns that period: it reduces phi into
[0, pi) once, when built.  The whole dihedral action is real, which makes
exactness free: a rotor adds its angle and a reflector sends phi to
2*beta - phi, both as plain fractions that the new state reduces.  Orbits
and game search act on grid indices instead (:meth:`CoinState.index`);
:func:`act` serves play-out and is the oracle of that integer kernel.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .angles import INT_MAX, Angle
from .dihedral import PlanarIsometry
from .errors import ExactArithmeticOverflow


@dataclass(frozen=True)
class CoinState:
    """A projective state; any rational phi is reduced into [0, pi)."""

    phi: Angle

    def __post_init__(self) -> None:
        phi = self.phi      # an Angle in [0, 1), as each grid index gives, stays
        if not (type(phi) is Angle and 0 <= phi.numerator < phi.denominator):
            object.__setattr__(self, "phi", Angle(phi % 1))

    @classmethod
    def of(cls, numerator: int, denominator: int = 1) -> "CoinState":
        return cls(Angle(numerator, denominator))

    def index(self, size: int) -> int:
        """The j with ``CoinState.of(j, size) == self``; size must be a
        multiple of phi's denominator."""
        return self.phi.numerator * (size // self.phi.denominator)

    def __str__(self) -> str:
        # every named state is a multiple of pi/4; hashing any other state
        # to find that out costs a Fraction hash
        if self.phi.denominator <= 4:
            named = _NAMES.get(self)
            if named is not None:
                return named
        angle = str(self.phi)
        return f"cos({angle})|0⟩+sin({angle})|1⟩"

    @classmethod
    def parse(cls, text: str) -> "CoinState":
        """Parse a ket name, the ``cos(a)|0⟩+sin(a)|1⟩`` form that ``str``
        writes, or a bare angle ``a``."""
        text = text.strip()
        for state, name in _NAMES.items():
            if text in (name, name[1:-1]):  # with or without the ket decoration
                return state
        m = _AMPLITUDES_RE.fullmatch(text)
        if m is None:
            return cls(Angle.parse(text))
        phi = Angle.parse(m["cos"])
        if Angle.parse(m["sin"]) != phi:
            raise ValueError(f"cosine and sine angles differ in {text!r}")
        return cls(phi)


_AMPLITUDES_RE = re.compile(
    r"cos\((?P<cos>.+)\)\|0⟩\+sin\((?P<sin>.+)\)\|1⟩")


KET_ZERO = CoinState.of(0)
KET_PLUS = CoinState.of(1, 4)
KET_ONE = CoinState.of(1, 2)
KET_MINUS = CoinState.of(3, 4)

BASIS = (KET_ZERO, KET_ONE)

_NAMES = {
    KET_ZERO: "|0⟩",
    KET_PLUS: "|+⟩",
    KET_ONE: "|1⟩",
    KET_MINUS: "|−⟩",
}


def act(p: PlanarIsometry, x: CoinState) -> CoinState:
    """Apply an isometry to a projective state."""
    if p.is_rotor:
        return CoinState(x.phi + p.angle)
    return CoinState(2 * p.angle - x.phi)


def win_probability(final: CoinState, target: CoinState) -> float:
    """cos^2 of the projective angle between *final* and *target*.

    The difference mod pi is taken on integer numerators and denominators;
    the differences that actually occur in game analysis (multiples of
    pi/4) return literal 1.0, 0.5 or 0.0 rather than approximations.
    """
    a, b = final.phi.as_integer_ratio()
    c, d = target.phi.as_integer_ratio()
    num = (a * d - c * b) % (b * d)     # the difference mod pi, over b*d
    g = math.gcd(num, b * d)
    den = b * d // g
    if den == 1:                        # difference 0 mod pi
        return 1.0
    if den == 2:                        # difference pi/2
        return 0.0
    if den == 4:                        # odd multiple of pi/4
        return 0.5
    if den > INT_MAX:                   # as Angle(num // g, den) would
        raise ExactArithmeticOverflow(
            f"angle {num // g}/{den} exceeds 64-bit width")
    # the cosine Angle.cos_sin takes: a true division, then the float pi
    c = math.cos(num // g / den * math.pi)
    return c * c
