"""Projective real qubit states, their grid indices and win probabilities.

A coin state cos(phi)|0> + sin(phi)|1> is identified with its antipode, so
the carrier is one exact angle phi = p/q·π mod pi, like a reflection axis:
:class:`CoinState` holds ``(p, q)``, ints in lowest terms reduced into
[0, pi) once, when built.  The whole dihedral action is real, so exactness
is free: a rotor adds its angle, a reflector sends phi to 2*beta - phi.
The package acts on grid indices only: phi = j/N is index j of Z_N
(:meth:`CoinState.index`, :meth:`CoinState.at`), moved by integer maps; the
tests keep the ``Fraction`` action as their oracle.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple

from .angles import INT_MAX, Angle, lowest_terms, pi_text
from .values import Value, build


class CoinState(Value, namedtuple("CoinState", "p q")):
    """A projective state phi = p/q·π; any rational phi, anything with
    ``as_integer_ratio()``, is reduced into [0, pi)."""

    __slots__ = ()

    def __new__(cls, phi: Angle):
        return build(cls, lowest_terms(*phi.as_integer_ratio(), 1))

    #: phi as an ``Angle``, which holds the same two ints
    phi = property(Angle._make)

    @classmethod
    def of(cls, numerator: int, denominator: int = 1) -> "CoinState":
        return cls(Angle(numerator, denominator))

    @classmethod
    def at(cls, j: int, size: int) -> "CoinState":
        """``CoinState.of(j, size)`` for a grid index 0 <= j < size, built
        with one gcd and without the reduction."""
        g = math.gcd(j, size)
        if size // g > INT_MAX:
            return cls.of(j, size)      # which raises ExactArithmeticOverflow
        return build(cls, (j // g, size // g))

    def index(self, size: int) -> int:
        """The j with ``CoinState.of(j, size) == self``; size must be a
        multiple of q."""
        return self.p * (size // self.q)

    def __str__(self) -> str:
        return state_text(*self)

    @classmethod
    def parse(cls, text: str) -> "CoinState":
        """Parse a ket name, the ``cos(a)|0⟩+sin(a)|1⟩`` form that ``str``
        writes, or a bare angle ``a``."""
        text = text.strip()
        if text in _KET_SPELLINGS:
            return _KET_SPELLINGS[text]
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
_NAMES = {tuple(x): name for name, x in _KETS.items()}
#: Each ket name, with or without its decoration: |0⟩ or 0, |+⟩ or +, ...
_KET_SPELLINGS = {**_KETS, **{name[1:-1]: x for name, x in _KETS.items()}}


def state_text(p: int, q: int, angle: str | None = None) -> str:
    """``str(CoinState.of(p, q))`` for p/q in lowest terms in [0, 1);
    *angle*, when given, is ``pi_text(p, q)``."""
    if q <= 4 and (p, q) in _NAMES:
        return _NAMES[p, q]
    angle = angle or pi_text(p, q)
    return f"cos({angle})|0⟩+sin({angle})|1⟩"


def win_probability(final: CoinState, target: CoinState) -> float:
    """cos^2 of the projective angle between *final* and *target*."""
    (a, b), (c, d) = final, target
    return difference_probability(a * d - c * b, b * d)


def difference_probability(num: int, den: int) -> float:
    """cos^2 of the difference ``num/den·π`` (den > 0), reduced mod pi on
    the integers; the differences that occur in game analysis (multiples
    of pi/4) return literal 1.0, 0.5 or 0.0 rather than approximations."""
    num, den = lowest_terms(num, den, 1)
    if den == 1:                        # difference 0 mod pi
        return 1.0
    if den == 2:                        # difference pi/2
        return 0.0
    if den == 4:                        # odd multiple of pi/4
        return 0.5
    # the cosine Angle.cos_sin takes: a true division, then the float pi
    c = math.cos(num / den * math.pi)
    return c * c
