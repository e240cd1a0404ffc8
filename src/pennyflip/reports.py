"""JSON and Markdown renderings of sets, strategy classes and game reports.

JSON is the canonical format; Markdown is a rendering of the same payload.
All emitters are deterministic for a given input so reports can be compared
byte for byte.
"""

from __future__ import annotations

import json
from typing import Iterable, Sequence

from .dihedral import DihedralElement, PlanarIsometry, represent
from .games import Decision, GameSpec, Strategy, StrategyClass
from .states import CoinState

SCHEMA_VERSION = "1"


# -- naming ----------------------------------------------------------------

def isometry_name(p: PlanarIsometry) -> str:
    """Octagon-style name when the angle is a multiple of pi/8.

    I, F and H keep their letters; R_pi and S_0 match the usual shorthand;
    everything else renders as R_{m pi/8} / S_{m pi/8}, falling back to the
    exact-fraction form for angles outside the eighth grid.
    """
    special = str(p)
    if special in ("I", "F", "H"):
        return special
    m = p.angle * 8
    if m.denominator != 1:
        return special
    m = int(m)
    if p.is_rotor:
        return "R_π" if m == 8 else f"R_{{{m}π/8}}"
    return "S_0" if m == 0 else f"S_{{{m}π/8}}"


def strategy_name(sigma: Strategy) -> str:
    return "(" + ", ".join(isometry_name(m) for m in sigma.moves) + ")"


def path_name(path: Sequence[CoinState]) -> str:
    return "(" + ", ".join(str(s) for s in path) + ")"


def state_set_name(states: Iterable[CoinState]) -> str:
    return "{" + ", ".join(str(s) for s in states) + "}"


def element_set_name(elems: Iterable[DihedralElement]) -> str:
    return "{" + ", ".join(isometry_name(represent(g)) for g in elems) + "}"


# -- JSON payloads ---------------------------------------------------------

def state_set_json(states: Iterable[CoinState]) -> list[dict]:
    return [{"phi": str(s.phi), "name": str(s)} for s in states]


def element_set_json(elems: Iterable[DihedralElement]) -> list[dict]:
    return [dict(g.to_json(), name=isometry_name(represent(g))) for g in elems]


def class_json(cls: StrategyClass) -> dict:
    return {
        "path": [str(s) for s in cls.path],
        "size": cls.size,
        "representative": strategy_name(cls.representative),
    }


def game_report(spec: GameSpec, decision: Decision | None,
                classes: Sequence[StrategyClass],
                strategy_count: int) -> dict:
    return {
        "schemaVersion": SCHEMA_VERSION,
        "turns": "".join(spec.turns),
        "initial": str(spec.initial),
        "targets": {"Q": str(spec.target_q), "P": str(spec.target_p)},
        "decision": decision.summary if decision is not None else None,
        "strategyCount": strategy_count,
        "classes": [class_json(c) for c in classes],
    }


def dump_json(payload) -> str:
    return json.dumps(payload, ensure_ascii=False, indent=2, sort_keys=True)


# -- Markdown tables -------------------------------------------------------

def _md_table(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    lines = ["| " + " | ".join(header) + " |",
             "| " + " | ".join("---" for _ in header) + " |"]
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines) + "\n"


def table_winning_classes(classes: Sequence[StrategyClass],
                          turns: Sequence[str]) -> str:
    """One row per class with all member strategies and the state after each
    turn; the opponent's turns repeat the previous state of the class path."""
    header = ["Strategies", "Initial state"] + [
        f"Round {i}" for i in range(1, len(turns) + 1)]
    rows = []
    for cls in classes:
        members = sorted(cls.members, key=strategy_name)
        cells = [", ".join(strategy_name(m) for m in members),
                 str(cls.path[0])]
        step = 0
        for turn in turns:
            step += turn == cls.representative.owner
            cells.append(str(cls.path[step]))
        rows.append(cells)
    return _md_table(header, rows)
