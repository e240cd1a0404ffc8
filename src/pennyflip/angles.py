"""Exact arithmetic on rational multiples of pi.

An :class:`Angle` stores a reduced fraction ``p/q`` whose value is
``(p/q) * pi`` radians.  All group-level computation in this package is done
on these fractions, so set membership and equality tests are exact; floats
only appear at the trigonometric evaluation boundary.
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import ExactArithmeticOverflow

#: Checked integer width.  Everything in this problem domain stays tiny, so
#: blowing past 64 bits means something went wrong; fail loudly.
_INT_MAX = 2**63 - 1

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


class CanonicalRange(enum.Enum):
    """Normalization mode for angle values.

    Rotation angles live mod 2*pi; reflection axes, and projective state
    angles with them, mod pi.  A single normalizer parametrized by the
    period avoids a copy of the same code per range.
    """

    FULL_TURN = Fraction(2)
    AXIS = Fraction(1)

    @property
    def period(self) -> Fraction:
        return self.value


@dataclass(frozen=True)
class Angle:
    """A reduced rational multiple of pi."""

    numerator: int
    denominator: int = 1

    def __lt__(self, other: "Angle") -> bool:
        return self.fraction < other.fraction

    def __le__(self, other: "Angle") -> bool:
        return self.fraction <= other.fraction

    def __post_init__(self) -> None:
        if self.denominator == 0:
            raise ZeroDivisionError("angle denominator must be nonzero")
        f = Fraction(self.numerator, self.denominator)
        object.__setattr__(self, "numerator", f.numerator)
        object.__setattr__(self, "denominator", f.denominator)
        if abs(self.numerator) > _INT_MAX or self.denominator > _INT_MAX:
            raise ExactArithmeticOverflow(
                f"angle {self.numerator}/{self.denominator} exceeds 64-bit width"
            )

    # -- construction ------------------------------------------------------

    @classmethod
    def from_fraction(cls, f: Fraction, mode: CanonicalRange | None = None) -> "Angle":
        if mode is not None:
            f %= mode.period
        return cls(f.numerator, f.denominator)

    @classmethod
    def of(cls, numerator: int, denominator: int = 1,
           mode: CanonicalRange = CanonicalRange.FULL_TURN) -> "Angle":
        """Build ``numerator/denominator * pi`` normalized into *mode*."""
        return cls.from_fraction(Fraction(numerator, denominator), mode)

    # -- arithmetic --------------------------------------------------------

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)

    def normalized(self, mode: CanonicalRange) -> "Angle":
        return Angle.from_fraction(self.fraction, mode)

    def add(self, other: "Angle",
            mode: CanonicalRange = CanonicalRange.FULL_TURN) -> "Angle":
        return Angle.from_fraction(self.fraction + other.fraction, mode)

    def sub(self, other: "Angle",
            mode: CanonicalRange = CanonicalRange.FULL_TURN) -> "Angle":
        return Angle.from_fraction(self.fraction - other.fraction, mode)

    def negate(self, mode: CanonicalRange = CanonicalRange.FULL_TURN) -> "Angle":
        return Angle.from_fraction(-self.fraction, mode)

    def scale(self, k: int,
              mode: CanonicalRange = CanonicalRange.FULL_TURN) -> "Angle":
        return Angle.from_fraction(self.fraction * k, mode)

    def half(self, mode: CanonicalRange = CanonicalRange.FULL_TURN) -> "Angle":
        return Angle.from_fraction(self.fraction / 2, mode)

    def double(self, mode: CanonicalRange = CanonicalRange.FULL_TURN) -> "Angle":
        return Angle.from_fraction(self.fraction * 2, mode)

    # -- evaluation --------------------------------------------------------

    @property
    def radians(self) -> float:
        return float(self.fraction) * math.pi

    def cos_sin(self) -> tuple[float, float]:
        """Cosine and sine of the angle.

        Denominators 1, 2 and 4 hit the exact table so that 0, +-1 and
        +-sqrt(2)/2 come back bit-stable; everything else goes through the
        float path.
        """
        f = self.fraction % 2
        if f.denominator in (1, 2, 4):
            eighths = int(f * 4) % 8
            return _EIGHTH_TABLE[eighths]
        return math.cos(self.radians), math.sin(self.radians)

    # -- text --------------------------------------------------------------

    def __str__(self) -> str:
        if self.numerator == 0:
            return "0"
        if self.denominator == 1:
            return "π" if self.numerator == 1 else f"{self.numerator}·π"
        return f"{self.numerator}/{self.denominator}·π"

    _PARSE_RE = re.compile(
        r"^\s*(?P<sign>-?)(?P<num>\d*)\s*(?P<pi>[·*]?\s*(?:π|pi))?\s*"
        r"(?:/\s*(?P<den>\d+))?\s*(?P<pi_last>[·*]?\s*(?:π|pi))?\s*$",
        re.IGNORECASE,
    )

    @classmethod
    def parse(cls, text: str,
              mode: CanonicalRange = CanonicalRange.FULL_TURN) -> "Angle":
        """Parse the textual form produced by ``str()``, e.g. ``3/4·π``.

        ASCII spellings like ``3/4*pi`` and ``pi``, and spellings with π
        before the denominator like ``3π/4`` and ``-pi/4``, are accepted too.
        """
        m = cls._PARSE_RE.match(text)
        has_pi = m is not None and bool(m["pi"] or m["pi_last"])
        if (m is None or (m["pi"] and m["pi_last"])
                or not (m["num"] or has_pi)):
            raise ValueError(f"cannot parse angle: {text!r}")
        num = int(m["sign"] + (m["num"] or "1"))
        den = int(m["den"] or 1)
        if not has_pi:
            if num != 0:
                raise ValueError(f"cannot parse angle: {text!r}")
            return cls.of(0, 1, mode)
        return cls.of(num, den, mode)


ZERO = Angle(0)
