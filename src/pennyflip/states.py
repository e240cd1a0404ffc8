"""Projective real qubit states, their grid indices and win probabilities.

A coin state cos(phi)|0> + sin(phi)|1> is identified with its antipode, so
the carrier is a single exact angle phi that lives mod pi, like a
reflection axis.  :class:`CoinState` owns that period: it reduces phi into
[0, pi) once, when built.  The whole dihedral action is real, which makes
exactness free: a rotor adds its angle and a reflector sends phi to
2*beta - phi.  The package acts on grid indices only: phi = j/N is index j
of Z_N (:meth:`CoinState.index`, :meth:`CoinState.at`), moved by integer
maps; the tests keep the ``Fraction`` action as their oracle.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple

from .angles import INT_MAX, Angle, pi_text
from .errors import ExactArithmeticOverflow
from .values import Value, build


class CoinState(Value, namedtuple("CoinState", "phi")):
    """A projective state; any rational phi is reduced into [0, pi)."""

    __slots__ = ()

    def __new__(cls, phi: Angle):
        # an Angle in [0, 1), as each grid index gives, stays
        if not (type(phi) is Angle and 0 <= phi.numerator < phi.denominator):
            phi = Angle(phi % 1)
        return build(cls, (phi,))

    @classmethod
    def of(cls, numerator: int, denominator: int = 1) -> "CoinState":
        return cls(Angle(numerator, denominator))

    @classmethod
    def at(cls, j: int, size: int) -> "CoinState":
        """``CoinState.of(j, size)`` for a grid index 0 <= j < size, built
        with one gcd and without Fraction's constructor or the reduction,
        the way Python 3.12's ``Fraction._from_coprime_ints`` builds."""
        g = math.gcd(j, size)
        if size // g > INT_MAX:
            return cls.of(j, size)      # which raises ExactArithmeticOverflow
        phi = object.__new__(Angle)
        phi._numerator, phi._denominator = j // g, size // g
        return build(cls, (phi,))

    def index(self, size: int) -> int:
        """The j with ``CoinState.of(j, size) == self``; size must be a
        multiple of phi's denominator."""
        return self.phi.numerator * (size // self.phi.denominator)

    def __str__(self) -> str:
        return state_text(*self.phi.as_integer_ratio())

    @classmethod
    def parse(cls, text: str) -> "CoinState":
        """Parse a ket name, the ``cos(a)|0⟩+sin(a)|1⟩`` form that ``str``
        writes, or a bare angle ``a``."""
        text = text.strip()
        for name, state in _KETS.items():
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

_KETS = {"|0⟩": KET_ZERO, "|+⟩": KET_PLUS, "|1⟩": KET_ONE, "|−⟩": KET_MINUS}
_NAMES = {x.phi.as_integer_ratio(): name for name, x in _KETS.items()}


def state_text(p: int, q: int) -> str:
    """``str(CoinState.of(p, q))`` for p/q in lowest terms in [0, 1)."""
    if q <= 4 and (p, q) in _NAMES:
        return _NAMES[p, q]
    angle = pi_text(p, q)
    return f"cos({angle})|0⟩+sin({angle})|1⟩"


def win_probability(final: CoinState, target: CoinState) -> float:
    """cos^2 of the projective angle between *final* and *target*."""
    a, b = final.phi.as_integer_ratio()
    c, d = target.phi.as_integer_ratio()
    return difference_probability(a * d - c * b, b * d)


def difference_probability(num: int, den: int) -> float:
    """cos^2 of the difference ``num/den·π`` (den > 0), reduced mod pi on
    the integers; the differences that occur in game analysis (multiples
    of pi/4) return literal 1.0, 0.5 or 0.0 rather than approximations."""
    num %= den
    g = math.gcd(num, den)
    den //= g
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
