"""Exact dihedral-group analysis of the quantum penny flip game."""

import sys

from .angles import Angle
from .dihedral import (FLIP, HADAMARD, IDENTITY, DihedralElement,
                       PlanarIsometry, closure, contains_isometry, elements,
                       isometries, represent, verify_presentation)
from .errors import (ExactArithmeticOverflow, FNotInGroup, LengthMismatch,
                     NotUnitary, PennyflipError, SearchBudgetExceeded)
from .games import (PICARD_POOL, PQG, Decision, GameSpec, Strategy,
                    StrategyClass, brute_force_extended_check,
                    classify_strategies, decide_extended_game, is_dominant,
                    is_winning_strategy, play_out, state_path,
                    synthesize_by_intermediate_states,
                    verify_characteristic_properties, winning_classes)
from .orbits import fixed_set, orbit, stabilizer
from .states import (BASIS, KET_MINUS, KET_ONE, KET_PLUS, KET_ZERO, CoinState,
                     win_probability)

if sys.version_info < (3, 10):      # requires-python in pyproject.toml
    raise ImportError("pennyflip requires Python 3.10 or later")

__version__ = "0.1.0"

__all__ = [
    "Angle",
    "FLIP", "HADAMARD", "IDENTITY", "DihedralElement",
    "PlanarIsometry", "closure", "contains_isometry", "elements",
    "isometries", "represent", "verify_presentation",
    "ExactArithmeticOverflow", "FNotInGroup",
    "LengthMismatch", "NotUnitary",
    "PennyflipError", "SearchBudgetExceeded",
    "PICARD_POOL", "PQG", "Decision", "GameSpec", "Strategy",
    "StrategyClass", "brute_force_extended_check", "classify_strategies",
    "decide_extended_game", "is_dominant", "is_winning_strategy", "play_out",
    "state_path", "synthesize_by_intermediate_states",
    "verify_characteristic_properties", "winning_classes",
    "fixed_set", "orbit", "stabilizer",
    "BASIS", "KET_MINUS", "KET_ONE", "KET_PLUS", "KET_ZERO", "CoinState",
    "win_probability",
    "__version__",
]
