"""The work of the default ``verify-all`` and of sample command lines,
counted and pinned in a golden.

One child process, with ``PENNYFLIP_CONFIG`` unset, runs the checks of
``verify.CHECKS`` at the default configuration in canonical order, as
``run_all`` does, then each line of ``COMMANDS`` through ``cli.main``, all
under ``sys.setprofile``.  A line runs after the checks and the lines before
it, and finds the caches they filled.  Per check and per line it counts
two things: calls into functions whose code lies under ``src/pennyflip``,
and calls of ``Fraction.__new__``.  The hook matches frames by directory
and names no function, so a refactor moves a count where it shows rather
than breaking the counter.  A count repeats exactly from run to run, so a
change that saves or adds work shows without a timer.  The counts belong to
one CPython minor version, which the golden records.

After a change that moves a count on purpose, re-record the golden with::

    python3 tests/test_work_counts.py

which prints each moved row, recorded and now, on stderr; list each move,
with its reason, beside the change.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
GOLDEN = Path(__file__).resolve().parent / "golden" / "work_counts.json"

#: One command line of each command that runs a search or prints states,
#: each taken from the spec of a golden in ``tests/golden/``.
COMMANDS = [
    ["orbit", "--n", "64", "--state", "3/7*pi"],
    ["stabilizer", "--n", "1024", "--state", "1/5*pi", "--format",
     "markdown"],
    ["fixed-set", "--n", "64", "--elems", "I,F"],
    ["enumerate", "--n", "24", "--turns", "QPQPQ", "--initial", "0",
     "--target-q", "1"],
    ["classify", "--n", "8", "--turns", "QPQPQPQPQPQ", "--initial", "1",
     "--target-q", "1", "--format", "markdown"],
    ["analyze", "--turns", "QPQPQPQPQPQP", "--initial", "1", "--target-q",
     "0", "--check", "--pool-n", "24"],
    ["sample-u2", "--samples", "1024", "--seed", "2007"],
]

#: Prints ``{"checks": {check id: {"calls": ..., "fractions": ...}},
#: "commands": {line: {...}}}``: the checks at the default configuration in
#: canonical order, then the command lines of argv[1].
CHILD = """
import contextlib, io, json, os, sys
from fractions import Fraction
from pennyflip import cli, verify
from pennyflip.config import default_config
package = os.path.dirname(verify.__file__)
new = Fraction.__new__.__code__
row = None

def profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if code is new:
            row["fractions"] += 1
        elif os.path.dirname(code.co_filename) == package:
            row["calls"] += 1

cfg = default_config()
counts = {"checks": {}, "commands": {}}
for check_id, _, fn in verify.CHECKS:
    row = counts["checks"][check_id] = {"calls": 0, "fractions": 0}
    sys.setprofile(profile)
    fn(cfg)
    sys.setprofile(None)
for argv in json.loads(sys.argv[1]):
    row = counts["commands"][" ".join(argv)] = {"calls": 0, "fractions": 0}
    with contextlib.redirect_stdout(io.StringIO()):
        sys.setprofile(profile)
        cli.main(argv)
        sys.setprofile(None)
print(json.dumps(counts))
"""


def python_version() -> str:
    return "{}.{}".format(*sys.version_info)


def work_counts(hashseed: str = "random") -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PENNYFLIP_CONFIG"}
    child = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(COMMANDS)],
        capture_output=True, text=True,
        timeout=60, env=dict(env, PYTHONPATH=str(SRC),
                             PYTHONHASHSEED=hashseed))
    assert child.returncode == 0, child.stderr
    return {"python": python_version(), **json.loads(child.stdout)}


def moved(golden: dict, counts: dict) -> dict:
    """Each row whose counts differ, or that only one side has, by name:
    its recorded counts and its counts now (None where it is absent)."""
    return {row: (golden.get(part, {}).get(row), counts[part].get(row))
            for part in ("checks", "commands")
            for row in {**golden.get(part, {}), **counts[part]}
            if golden.get(part, {}).get(row) != counts[part].get(row)}


@pytest.mark.parametrize("hashseed", ["0", "random"])
def test_default_verify_all_does_the_recorded_work(hashseed):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    if golden["python"] != python_version():
        pytest.skip(f"counts recorded on CPython {golden['python']}")
    counts = work_counts(hashseed)
    assert counts == golden, f"moved (recorded, now): {moved(golden, counts)}"


if __name__ == "__main__":
    counts = work_counts()
    recorded = (json.loads(GOLDEN.read_text(encoding="utf-8"))
                if GOLDEN.exists() else {})
    for row, (was, now) in moved(recorded, counts).items():
        print(f"{row}: {was} -> {now}", file=sys.stderr)
    GOLDEN.write_text(json.dumps(counts, indent=2) + "\n", encoding="utf-8")
