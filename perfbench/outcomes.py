"""Expected outcomes of benchmark jobs, and the check of each result.

Expected values come from the paper's closed forms where it gives one and
from ``expected_qpqpq.json`` otherwise.  Orbits, stabilizers and fixed sets
are checked against an integer model of the ``D_n`` action that shares no
code with the program: every state in play is ``phi = j*pi/(2n)`` with
``j`` in ``Z_2n``, the rotation ``r^k`` sends ``j`` to ``j + 4k`` and the
reflection ``r^k s`` sends ``j`` to ``4k - j``, both mod ``2n``.

A check returns ``None`` when the result is right and a one-line reason
when it is not.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

KETS = {Fraction(0): "|0⟩", Fraction(1, 4): "|+⟩", Fraction(1, 2): "|1⟩",
        Fraction(3, 4): "|−⟩"}
PAIRS = (("0", "0"), ("0", "1"), ("1", "0"), ("1", "1"))
RESIDUAL_MAX = 1e-12

EXPECTED_QPQPQ = {
    (e["n"], e["initial"], e["target"]): e
    for e in json.loads((Path(__file__).parent / "expected_qpqpq.json")
                        .read_text(encoding="utf-8"))}


# -- integer model of D_n on the states j*pi/(2n) ----------------------------

def act(n: int, k: int, reflect: bool, j: int) -> int:
    return (4 * k - j if reflect else j + 4 * k) % (2 * n)


def orbit(n: int, j: int) -> list[int]:
    return sorted({act(n, k, r, j) for k in range(n) for r in (False, True)})


def stabilizer(n: int, j: int) -> list[tuple[int, bool]]:
    return [(k, r) for r in (False, True) for k in range(n)
            if act(n, k, r, j) == j]


def fixed_set(n: int, elems: list[tuple[int, bool]]) -> list[int]:
    domain = sorted(set(orbit(n, 0)) | set(orbit(n, n)))
    return [j for j in domain if all(act(n, k, r, j) == j for k, r in elems)]


def phi_text(n: int, j: int) -> str:
    """``str(Angle)`` of ``j*pi/(2n)``, which is always below pi."""
    f = Fraction(j, 2 * n)
    return "0" if f == 0 else f"{f.numerator}/{f.denominator}·π"


def state_name(n: int, j: int) -> str:
    phi = phi_text(n, j)
    return KETS.get(Fraction(j, 2 * n), f"cos({phi})|0⟩+sin({phi})|1⟩")


def ket(label: str) -> str:
    return "|" + label + "⟩"


# -- closed forms for the games ----------------------------------------------

def q_wins(turns: str) -> bool:
    """Q has a winning strategy iff Q moves first and last."""
    return turns[0] == "Q" and turns[-1] == "Q"


def expected_classes(turns: str, n: int, initial: str,
                     target: str) -> list[dict] | None:
    """Winning classes as ``{"path", "size"[, "representative"]}``.

    Three rounds: 32 QPQ winners in two classes of 16, routed through |+⟩
    and |−⟩, iff 8 | n.  No other game of three or four rounds has a
    winner.  QPQPQ values are stored.  ``None`` means no stored value.
    """
    if turns == "QPQPQ":
        entry = EXPECTED_QPQPQ.get((n, initial, target))
        return None if entry is None else entry["classes"]
    if turns == "QPQ" and n % 8 == 0:
        return [{"path": [ket(initial), mid, ket(target)], "size": 16}
                for mid in ("|+⟩", "|−⟩")]
    return []


# -- result checks -----------------------------------------------------------

def _json(stdout: str):
    try:
        return json.loads(stdout)
    except json.JSONDecodeError:
        return None


def _same_classes(got: list, want: list) -> bool:
    if len(got) != len(want):
        return False
    return all(all(g.get(key) == value for key, value in w.items())
               for g, w in zip(got, want))


def table_cells(line: str) -> list[str]:
    """Cells of one Markdown table row; ket names contain ``|``, so split on
    `` | `` only."""
    return line.strip()[2:-2].split(" | ")


def check_table(stdout: str, rows: int) -> str | None:
    lines = stdout.strip("\n").split("\n")
    if len(lines) != rows + 2:
        return f"table has {len(lines) - 2} rows, expected {rows}"
    width = len(table_cells(lines[0]))
    for line in lines[1:]:
        if len(table_cells(line)) != width:
            return (f"table has {width} header cells and "
                    f"{len(table_cells(line))} in a row")
    return None


def check_cli(dims: dict, code: int, stdout: str) -> str | None:
    """Check one CLI job's exit code and output against its dimensions."""
    command = dims["command"]
    want_code = expected_exit(dims)
    if code != want_code:
        return f"exit code {code}, expected {want_code}"
    if want_code != 0:
        return None if stdout == "" else "output on a domain error"
    checker = _CLI_CHECKS[command]
    return checker(dims, stdout)


def expected_exit(dims: dict) -> int:
    n = dims.get("n")
    if dims["command"] in ("enumerate", "classify") and n % 4:
        return 3
    if dims["command"] == "fixed-set" and "F" in dims["elems"] and n % 4:
        return 3
    return 0


def _check_orbit(dims: dict, stdout: str) -> str | None:
    n, j = dims["n"], dims["j"]
    want = [{"phi": phi_text(n, i), "name": state_name(n, i)}
            for i in orbit(n, j)]
    return None if _json(stdout) == want else "orbit differs"


def _check_stabilizer(dims: dict, stdout: str) -> str | None:
    n, j = dims["n"], dims["j"]
    got = _json(stdout)
    want = stabilizer(n, j)
    if not isinstance(got, list) or len(got) * len(orbit(n, j)) != 2 * n:
        return "|orbit|·|stabilizer| != 2n"
    if [(g.get("k"), g.get("reflect")) for g in got] != want:
        return "stabilizer differs"
    return None


def _element(n: int, token) -> tuple[int, bool]:
    """``(k, reflect)`` for ``r^k s^reflect``; ``F`` is ``S_{pi/4}``."""
    if token == "I":
        return 0, False
    if token == "F":
        return n // 4, True
    return token


def _check_fixed_set(dims: dict, stdout: str) -> str | None:
    n = dims["n"]
    elems = [_element(n, t) for t in dims["elems"]]
    want = [{"phi": phi_text(n, j), "name": state_name(n, j)}
            for j in fixed_set(n, elems)]
    if dims["elems"] == ("I", "F"):
        # Fix({I, F}) = {|+⟩, |−⟩} iff 8 | n, else empty
        names = [s["name"] for s in want]
        if names != (["|+⟩", "|−⟩"] if n % 8 == 0 else []):
            return "Fix({I, F}) contradicts the 8 | n dichotomy"
    return None if _json(stdout) == want else "fixed set differs"


def _check_game(dims: dict, stdout: str) -> str | None:
    turns, n, fmt = dims["turns"], dims["n"], dims["format"]
    initial, target = dims["initial"], dims["target"]
    want = expected_classes(turns, n, initial, target)
    if want is None:
        return f"no expected value for {turns} at n = {n}"
    if fmt == "markdown":
        if dims["command"] == "enumerate":
            return check_table(stdout, len(want))
        lines = [ln for ln in stdout.split("\n") if ln]
        sizes = [ln.split(": ")[1].split(" strategies")[0] for ln in lines]
        ok = sizes == [str(w["size"]) for w in want]
        return None if ok else "class listing differs"
    got = _json(stdout)
    if dims["command"] == "classify":
        return None if _same_classes(got or [], want) else "classes differ"
    if not isinstance(got, dict):
        return "not a JSON report"
    if (got.get("turns") != turns or got.get("initial") != ket(initial)
            or got.get("targets", {}).get("Q") != ket(target)
            or got.get("strategyCount") != sum(w["size"] for w in want)):
        return "report header or strategy count differs"
    return None if _same_classes(got["classes"], want) else "classes differ"


def _check_analyze(dims: dict, stdout: str) -> str | None:
    turns = dims["turns"]
    got = _json(stdout)
    if not isinstance(got, dict) or got.get("bruteForceAgrees") is not True:
        return "brute force disagrees with the decision"
    if q_wins(turns):
        idle = "I, " * (turns.count("Q") - 2)
        close = "H" if dims["initial"] == dims["target"] else "R_{2π/8}"
        want = ("Q wins", f"(H, {idle}{close})")
    else:
        want = ("no winning strategy for either player", None)
    if (got.get("decision"), got.get("strategy")) != want:
        return "decision or witness differs"
    return None


def _check_sample_u2(dims: dict, stdout: str) -> str | None:
    got = _json(stdout)
    if not isinstance(got, dict) or got.get("samples") != dims["samples"]:
        return "sample count differs"
    if got.get("hits") != 0 or not got.get("maxResidual", 1) <= RESIDUAL_MAX:
        return "a sampled unitary hit a family or failed unitarity"
    return None


_CLI_CHECKS = {
    "orbit": _check_orbit,
    "stabilizer": _check_stabilizer,
    "fixed-set": _check_fixed_set,
    "enumerate": _check_game,
    "classify": _check_game,
    "analyze": _check_analyze,
    "sample-u2": _check_sample_u2,
}


def check_verify(dims: dict, ok, details: dict) -> str | None:
    """Check one ``verify.check_*`` result."""
    check = dims["command"]
    if ok is not True:
        return f"{check} reported failure"
    if check in ("check_orbit_structure", "check_fixed_set_dichotomy"):
        good = details.get("failures") == [] and \
            details.get("nRange") == [dims["n"], dims["n"]]
    elif check == "check_probability_identities":
        good = details.get("halfExact") is True and \
            details.get("maxSumError", 1) <= RESIDUAL_MAX
    elif check == "check_u2_sampling":
        good = (details.get("samples") == dims["samples"]
                and details.get("hits") == 0
                and details.get("stateMismatches") == 0
                and details.get("maxResidual", 1) <= RESIDUAL_MAX)
    elif check == "check_phase_families":
        good = (details.get("failures") == 0
                and details.get("maxThetaError", 1) <= dims["tolerance"])
    else:
        return f"unknown check {check}"
    return None if good else f"{check} details differ"


def known_defect(dims: dict) -> str | None:
    """The recorded program defect this job runs into, if any.

    ``enumerate --format markdown`` writes a column per state of the path
    but fills only the three-round layout, so a QPQPQ table with rows has
    six header cells and five per row.  The job is counted as failed.
    """
    if (dims["command"] == "enumerate" and dims.get("format") == "markdown"
            and dims.get("turns") == "QPQPQ" and dims["n"] % 8 == 0):
        return "QPQPQ Markdown table: 6 header cells, 5 per row"
    return None
