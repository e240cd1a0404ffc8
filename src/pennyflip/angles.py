"""Exact rational multiples of pi.

An :class:`Angle` is a :class:`~fractions.Fraction` ``p/q`` whose value is
``(p/q) * pi`` radians.  It adds only text (``str``/``parse``) and float
evaluation to the fraction; arithmetic is plain ``Fraction`` arithmetic.
An angle has no period of its own: the type that holds it owns the period
and reduces into it once, when built.  Rotors reduce mod 2*pi and
reflection axes mod pi (:class:`~pennyflip.dihedral.PlanarIsometry`),
coin states mod pi (:class:`~pennyflip.states.CoinState`).  So set
membership and equality tests are exact; floats only appear at the
trigonometric evaluation boundary.
"""

from __future__ import annotations

import copyreg
import math
import re
from fractions import Fraction
from operator import methodcaller

from .errors import ExactArithmeticOverflow

#: Checked integer width.  Everything in this problem domain stays tiny, so
#: blowing past 64 bits means something went wrong; fail loudly.
INT_MAX = 2**63 - 1

_SQRT2_HALF = math.sqrt(2.0) / 2.0

# cos/sin at multiples of pi/4, indexed by the eighth-turn count.
_EIGHTH_TABLE = {
    0: (1.0, 0.0),
    1: (_SQRT2_HALF, _SQRT2_HALF),
    2: (0.0, 1.0),
    3: (-_SQRT2_HALF, _SQRT2_HALF),
    4: (-1.0, 0.0),
    5: (-_SQRT2_HALF, -_SQRT2_HALF),
    6: (0.0, -1.0),
    7: (_SQRT2_HALF, -_SQRT2_HALF),
}


def pi_text(p: int, q: int) -> str:
    """``str(Angle(p, q))`` for p/q in lowest terms, without building it."""
    if q == 1:
        return "0" if p == 0 else "π" if p == 1 else f"{p}·π"
    return f"{p}/{q}·π"


class Angle(Fraction):
    """A rational multiple of pi, in lowest terms."""

    __slots__ = ()
    # pickled as Angle(p, q): 3.10's Fraction pickles by str, which has a π
    __reduce__ = object.__reduce__
    __getnewargs__ = Fraction.as_integer_ratio

    def __new__(cls, numerator=0, denominator=None):
        self = super().__new__(cls, numerator, denominator)
        if abs(self.numerator) > INT_MAX or self.denominator > INT_MAX:
            raise ExactArithmeticOverflow(
                f"angle {self.numerator}/{self.denominator} exceeds 64-bit width"
            )
        return self

    # -- evaluation --------------------------------------------------------

    def cos_sin(self) -> tuple[float, float]:
        """Cosine and sine of the angle.

        Denominators 1, 2 and 4 hit the exact table so that 0, +-1 and
        +-sqrt(2)/2 come back bit-stable; everything else goes through the
        float path.
        """
        if self.denominator in (1, 2, 4):
            return _EIGHTH_TABLE[self.numerator * 4 // self.denominator % 8]
        r = float(self) * math.pi
        return math.cos(r), math.sin(r)

    # -- text --------------------------------------------------------------

    def __str__(self) -> str:
        return pi_text(*self.as_integer_ratio())

    def __format__(self, spec: str) -> str:
        # Fraction's own __format__ (Python 3.13+) would drop the π.
        return format(str(self), spec)

    _PARSE_RE = re.compile(
        r"^\s*(?P<sign>-?)(?P<num>\d*)\s*(?P<pi>[·*]?\s*(?:π|pi))?\s*"
        r"(?:/\s*(?P<den>\d+))?\s*(?P<pi_last>[·*]?\s*(?:π|pi))?\s*$",
        re.IGNORECASE,
    )

    @classmethod
    def parse(cls, text: str) -> "Angle":
        """Parse the textual form produced by ``str()``, e.g. ``3/4·π``.

        ASCII spellings like ``3/4*pi`` and ``pi``, and spellings with π
        before the denominator like ``3π/4`` and ``-pi/4``, are accepted too.
        The value comes back as written, not reduced into any period.
        """
        m = cls._PARSE_RE.match(text)
        has_pi = m is not None and bool(m["pi"] or m["pi_last"])
        if (m is None or (m["pi"] and m["pi_last"])
                or not (m["num"] or has_pi) or int(m["den"] or 1) == 0):
            raise ValueError(f"cannot parse angle: {text!r}")
        num = int(m["sign"] + (m["num"] or "1"))
        if not has_pi and num != 0:
            raise ValueError(f"cannot parse angle: {text!r}")
        return cls(num, int(m["den"] or 1))


copyreg.pickle(Angle, methodcaller("__reduce_ex__", 2))  # protocols 0 and 1
