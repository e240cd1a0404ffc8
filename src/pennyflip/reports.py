"""Every stdout key and text of the CLI, and its Markdown rendering.

The ``verify-all`` row envelope, the decision texts and the element keys are
built here; a check's own ``details`` are its result.  A set of states or
elements is written from its rows, one template per row shape; Markdown
renders every other payload parsed, except ``enumerate``'s table, which names
each class's members from its cosets.  Every emitter is deterministic and
writes ``json.dumps``' indented form byte for byte, without the ``json``
package: strings are escaped by the C function ``json.encoder`` re-exports,
and ``dump_json`` caches a dict's sorted, quoted keys by its keys and indent.
"""

from __future__ import annotations

import functools
import itertools
from _json import encode_basestring as _quote
from typing import Iterable, Sequence

from .angles import pi_text
from .dihedral import DihedralElement, represent
from .games import Decision, GameSpec, StrategyClass
from .states import CoinState, state_text

SCHEMA_VERSION = "1"


# -- Row sets and JSON payloads -------------------------------------------

def state_set_text(states: Iterable[CoinState], fmt: str) -> str:
    rows = [(state_text(p, q, phi := pi_text(p, q)), phi)
            for p, q in states]
    if fmt != "json":
        return "{" + ", ".join([name for name, _ in rows]) + "}\n"
    # each row's JSON in the list, keys sorted, by an f-string: % takes
    # about three times as long to build these rows
    texts = [f'\n  {{\n    "name": {_quote(name)},\n    "phi": {_quote(phi)}'
             '\n  }' for name, phi in rows]
    return "[" + ",".join(texts) + "\n]\n" if texts else "[]\n"


def element_set_text(elems: Iterable[DihedralElement], fmt: str) -> str:
    rows = [(g.k, g.n, str(represent(g)), g.reflect) for g in elems]
    if fmt != "json":
        return "{" + ", ".join([name for _, _, name, _ in rows]) + "}\n"
    texts = [f'\n  {{\n    "k": {k:d},\n    "n": {n:d},\n    "name": '
             f'{_quote(name)},\n    "reflect": '
             f'{"true" if r else "false"}\n  }}' for k, n, name, r in rows]
    return "[" + ",".join(texts) + "\n]\n" if texts else "[]\n"


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


@functools.lru_cache(maxsize=64)
def _object_heads(keys: tuple, nl: str) -> tuple[tuple, str]:
    """The sorted *keys*, each with the text before its value, and the
    closing text of a dict at the indent *nl*."""
    inner = nl + "  "
    return tuple([(key, f"{',' if i else '{'}{inner}{_quote(key)}: ")
                  for i, key in enumerate(sorted(keys))]), nl + "}"


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
    elif kind is dict:
        pairs, close = _object_heads(tuple(o), nl)
        for key, head in pairs:
            # a leaf is written in place, in one piece with its head
            leaf = _LEAVES.get(type(value := o[key]))
            out.append(head if leaf is None else head + leaf(value))
            if leaf is None:
                _emit(value, out, nl + "  ")
        out.append(close)
    else:
        inner = nl + "  "
        head, comma = "[" + inner, "," + inner
        for value in o:
            leaf = _LEAVES.get(type(value))
            out.append(head if leaf is None else head + leaf(value))
            if leaf is None:
                _emit(value, out, inner)
            head = comma
        out.append(nl + "]")


# -- Markdown renderings ---------------------------------------------------

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
