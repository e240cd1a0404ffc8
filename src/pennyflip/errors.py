"""Exception types shared across the package."""


class PennyflipError(Exception):
    """Base class for all domain errors."""


class ExactArithmeticOverflow(PennyflipError):
    """A rational angle exceeded the configured integer width."""


class FNotInGroup(PennyflipError):
    """A move, such as the coin flip, is not an element of the given D_n."""


class LengthMismatch(PennyflipError):
    """Strategy length does not match the player's turn count."""


class SearchBudgetExceeded(PennyflipError):
    """A game search asked for more rounds than the bound allows."""


class NotUnitary(PennyflipError):
    """A complex 2x2 matrix failed the unitarity check."""
