"""Exact rational multiples of pi, as text.

An :class:`Angle` is the pair ``(p, q)`` of coprime ints, ``q > 0``, for
``(p/q) * pi`` radians, with text (``str``/``parse``) and float evaluation
and no arithmetic: the exact values hold their angle as int fields and
compute on those.  The type holding an angle owns its period and reduces
into it once, when built, with :func:`lowest_terms`: rotors mod 2*pi,
reflection axes and coin states mod pi.  So membership and equality are
exact; floats appear only at the trigonometric evaluation boundary.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple

from .errors import ExactArithmeticOverflow
from .values import Value, build

#: Checked integer width.  Everything in this problem domain stays tiny, so
#: blowing past 64 bits means something went wrong; fail loudly.
INT_MAX = 2**63 - 1

_SQRT2_HALF = math.sqrt(2.0) / 2.0

# cos/sin at multiples of pi/4, indexed by the eighth-turn count.
_EIGHTH_TABLE = ((1.0, 0.0), (_SQRT2_HALF, _SQRT2_HALF), (0.0, 1.0),
                 (-_SQRT2_HALF, _SQRT2_HALF), (-1.0, 0.0),
                 (-_SQRT2_HALF, -_SQRT2_HALF), (0.0, -1.0),
                 (_SQRT2_HALF, -_SQRT2_HALF))


def lowest_terms(num: int, den: int, period: int = 0) -> tuple[int, int]:
    """``num/den`` (den > 0) in lowest terms by one gcd, first reduced into
    [0, period) if *period*; a part past INT_MAX is ExactArithmeticOverflow."""
    if period:
        num %= period * den
    g = math.gcd(num, den)
    num, den = num // g, den // g
    if abs(num) > INT_MAX or den > INT_MAX:
        raise ExactArithmeticOverflow(f"angle {num}/{den} exceeds 64-bit width")
    return num, den


def pi_text(p: int, q: int) -> str:
    """``str(Angle(p, q))`` for p/q in lowest terms, without building it."""
    if q == 1:
        return "0" if p == 0 else "π" if p == 1 else f"{p}·π"
    return f"{p}/{q}·π"


class Angle(Value, namedtuple("Angle", "numerator denominator")):
    """A rational multiple of pi, in lowest terms; *numerator* is anything
    with ``as_integer_ratio()``, *denominator* a nonzero int."""

    __slots__ = ()
    # a tuple's concatenation and repetition are no angle arithmetic
    __add__ = __mul__ = __rmul__ = None

    def __new__(cls, numerator=0, denominator: int = 1):
        if denominator == 0:
            raise ZeroDivisionError(f"Angle({numerator}, 0)")
        p, q = numerator.as_integer_ratio()
        if denominator < 0:
            p, denominator = -p, -denominator
        return build(cls, lowest_terms(p, q * denominator))

    def as_integer_ratio(self) -> tuple[int, int]:
        return tuple(self)

    def cos_sin(self) -> tuple[float, float]:
        """Cosine and sine: denominators 1, 2 and 4 read the exact table,
        so 0, +-1 and +-sqrt(2)/2 are bit-stable; the rest take floats."""
        p, q = self
        if q in (1, 2, 4):
            return _EIGHTH_TABLE[p * 4 // q % 8]
        r = p / q * math.pi
        return math.cos(r), math.sin(r)

    def __str__(self) -> str:
        return pi_text(*self)

    def __format__(self, spec: str) -> str:
        return format(str(self), spec)

    _PARSE_RE = re.compile(
        r"^\s*(?P<sign>-?)(?P<num>\d*)\s*(?P<pi>[·*]?\s*(?:π|pi))?\s*"
        r"(?:/\s*(?P<den>\d+))?\s*(?P<pi_last>[·*]?\s*(?:π|pi))?\s*$",
        re.IGNORECASE,
    )

    @classmethod
    def parse(cls, text: str) -> "Angle":
        """Parse ``str()``'s form, e.g. ``3/4·π``, ASCII ones like ``3/4*pi``
        and ``pi``, and ones with π before the denominator like ``3π/4`` and
        ``-pi/4``; the value comes back as written, not reduced."""
        m = cls._PARSE_RE.match(text)
        has_pi = m is not None and bool(m["pi"] or m["pi_last"])
        if (m is None or (m["pi"] and m["pi_last"])
                or not (m["num"] or has_pi) or int(m["den"] or 1) == 0):
            raise ValueError(f"cannot parse angle: {text!r}")
        num = int(m["sign"] + (m["num"] or "1"))
        if not has_pi and num != 0:
            raise ValueError(f"cannot parse angle: {text!r}")
        return cls(num, int(m["den"] or 1))
