"""Every stdout key and text of the CLI, and its Markdown rendering.

The ``verify-all`` row envelope, the decision texts and the element keys are
built here; a check's own ``details`` are its result.  Markdown renders the
parsed JSON payload, except ``enumerate``'s table, which names each class's
members from its cosets.  All emitters are deterministic so reports compare
byte for byte.  ``dump_json`` writes ``json.dumps``' indented form byte for
byte, without running the standard library's pure-Python encoder or
importing the ``json`` package: strings are escaped by the C function that
``json.encoder`` re-exports.
"""

from __future__ import annotations

import itertools
from _json import encode_basestring as _quote
from typing import Iterable, Sequence

from .angles import pi_text
from .dihedral import DihedralElement, represent
from .games import Decision, GameSpec, StrategyClass
from .states import CoinState, state_text

SCHEMA_VERSION = "1"


# -- JSON payloads ---------------------------------------------------------

def state_set_json(states: Iterable[CoinState]) -> list[dict]:
    terms = (s.phi.as_integer_ratio() for s in states)
    return [{"phi": pi_text(p, q), "name": state_text(p, q)} for p, q in terms]


def element_set_json(elems: Iterable[DihedralElement]) -> list[dict]:
    return [{"n": g.n, "k": g.k, "reflect": g.reflect,
             "name": str(represent(g))} for g in elems]


def class_json(cls: StrategyClass) -> dict:
    return {
        "path": [str(s) for s in cls.path],
        "size": cls.size,
        "representative": str(next(cls.members)),
    }


def decision_text(decision: Decision) -> str:
    return ("Q wins" if decision.q_wins else "P wins" if decision.picard_wins
            else "no winning strategy for either player")


def game_report(spec: GameSpec, decision: Decision | None,
                classes: Sequence[StrategyClass] | None = None) -> dict:
    """The game's payload: its decision, and its listing when *classes*
    are given (a decision alone lists nothing)."""
    payload = {
        "schemaVersion": SCHEMA_VERSION,
        "turns": "".join(spec.turns),
        "initial": str(spec.initial),
        "targets": {"Q": str(spec.target_q), "P": str(spec.target_p)},
        "decision": decision_text(decision) if decision is not None else None,
    }
    if classes is not None:
        payload["strategyCount"] = sum(c.size for c in classes)
        payload["classes"] = [class_json(c) for c in classes]
    return payload


def decision_json(spec: GameSpec, decision: Decision,
                  brute: Decision | None = None) -> dict:
    """The decision, Q's witness, and whether a brute-force run agrees."""
    payload = game_report(spec, decision)
    if decision.strategy is not None:
        payload["strategy"] = str(decision.strategy)
    if brute is not None:
        payload["bruteForceAgrees"] = (brute.q_wins == decision.q_wins
                                       and not brute.picard_wins)
    return payload


def sampling_json(samples: int, hits: int, max_residual: float) -> dict:
    return {"samples": samples, "hits": hits, "maxResidual": max_residual}


def check_rows(results: Iterable[tuple], timings: bool = False) -> list[dict]:
    """``verify.run_all``'s results as rows; ``elapsedMs`` 0 unless *timings*."""
    return [{"checkId": check_id, "claimRef": claim, "details": details,
             "status": "skipped" if ok is None else ("pass" if ok else "fail"),
             "elapsedMs": int(seconds * 1000) if timings else 0}
            for check_id, claim, ok, details, seconds in results]


def dump_json(payload) -> str:
    """The text of ``json.dumps(payload, ensure_ascii=False, indent=2,
    sort_keys=True)``; a key that is not a ``str`` raises ``TypeError``."""
    out: list[str] = []
    _emit(payload, out, "\n")
    return "".join(out)


#: Each leaf type's text, in the order ``json`` tests for them.
_LEAVES = {str: _quote, type(None): lambda _: "null",
           bool: lambda b: "true" if b else "false", int: int.__repr__,
           float: lambda x: "NaN" if x != x
           else float.__repr__(x).replace("inf", "Infinity")}
#: The types written; a subclass is written as the first one it is.
_KINDS = dict.fromkeys((*_LEAVES, list, tuple, dict))


def _emit(o, out: list[str], nl: str) -> None:
    """Append *o* to *out*; *nl* is a newline and the indent of its line."""
    kind = type(o)
    if kind not in _KINDS:
        kind = next((k for k in _KINDS if isinstance(o, k)), None)
        if kind is None:
            raise TypeError(f"{type(o).__name__} is not JSON serializable")
    if kind in _LEAVES:
        out.append(_LEAVES[kind](o))
    elif not o:
        out.append("{}" if kind is dict else "[]")
    else:
        inner, is_dict = nl + "  ", kind is dict
        sep, comma = ("{" if is_dict else "[") + inner, "," + inner
        for key in sorted(o) if is_dict else o:
            value = o[key] if is_dict else key
            head = f"{sep}{_quote(key)}: " if is_dict else sep
            leaf = _LEAVES.get(type(value))     # a leaf is written in place
            out.append(head if leaf is None else head + leaf(value))
            if leaf is None:
                _emit(value, out, inner)
            sep = comma
        out.append(nl + ("}" if is_dict else "]"))


# -- Markdown renderings ---------------------------------------------------

def names_markdown(rows: Sequence[dict]) -> str:
    return "{" + ", ".join(row["name"] for row in rows) + "}\n"


def classes_markdown(classes: Sequence[dict]) -> str:
    return "".join(f"({', '.join(c['path'])}): {c['size']} strategies, "
                   f"e.g. {c['representative']}\n" for c in classes)


def decision_markdown(report: dict) -> str:
    witness = f" with {report['strategy']}" if "strategy" in report else ""
    check = {True: "; brute force agrees", False: "; brute force disagrees"}
    brute = check.get(report.get("bruteForceAgrees"), "")
    return f"{report['turns']}: {report['decision']}{witness}{brute}\n"


def checks_markdown(results: Sequence[dict]) -> str:
    return "".join(f"[{r['status']}] {r['checkId']} — {r['claimRef']}\n"
                   for r in results)


def _md_table(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    lines = ["| " + " | ".join(header) + " |",
             "| " + " | ".join("---" for _ in header) + " |"]
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines) + "\n"


def table_winning_classes(classes: Sequence[StrategyClass],
                          turns: Sequence[str]) -> str:
    """One row per class with all member strategies and the state after each
    turn; the opponent's turns repeat the previous state of the class path.
    Names are prefix-free: sorted members are the product of sorted cosets."""
    header = ["Strategies", "Initial state"] + [
        f"Round {i}" for i in range(1, len(turns) + 1)]
    rows = []
    for cls in classes:
        names = [sorted(map(str, coset)) for coset in cls.cosets]
        cells = [", ".join(f"({', '.join(moves)})"
                           for moves in itertools.product(*names)),
                 str(cls.path[0])]
        step = 0
        for turn in turns:
            step += turn == "Q"
            cells.append(str(cls.path[step]))
        rows.append(cells)
    return _md_table(header, rows)
