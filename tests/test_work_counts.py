"""The work of the default ``verify-all``, counted and pinned in a golden.

One child process, with ``PENNYFLIP_CONFIG`` unset, runs the checks of
``verify.CHECKS`` at the default configuration in canonical order, as
``run_all`` does, under ``sys.setprofile``.  Per check it counts two things:
calls into functions whose code lies under ``src/pennyflip``, and calls of
``Fraction.__new__``.  The hook matches frames by directory and names no
function, so a refactor moves a count where it shows rather than breaking
the counter.  A count repeats exactly from run to run, so a change that
saves or adds work shows without a timer.  The counts belong to one
CPython minor version, which the golden records.

After a change that moves a count on purpose, re-record the golden with::

    python3 tests/test_work_counts.py

and list each moved count, with its reason, beside the change.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
GOLDEN = Path(__file__).resolve().parent / "golden" / "work_counts.json"

#: Prints ``{check id: {"calls": ..., "fractions": ...}}`` for the default
#: configuration, checks in canonical order.
CHILD = """
import json, os, sys
from fractions import Fraction
from pennyflip import verify
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
counts = {}
for check_id, _, fn in verify.CHECKS:
    row = counts[check_id] = {"calls": 0, "fractions": 0}
    sys.setprofile(profile)
    fn(cfg)
    sys.setprofile(None)
print(json.dumps(counts))
"""


def python_version() -> str:
    return "{}.{}".format(*sys.version_info)


def work_counts(hashseed: str = "random") -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PENNYFLIP_CONFIG"}
    child = subprocess.run(
        [sys.executable, "-c", CHILD], capture_output=True, text=True,
        timeout=60, env=dict(env, PYTHONPATH=str(SRC),
                             PYTHONHASHSEED=hashseed))
    assert child.returncode == 0, child.stderr
    return {"python": python_version(), "checks": json.loads(child.stdout)}


@pytest.mark.parametrize("hashseed", ["0", "random"])
def test_default_verify_all_does_the_recorded_work(hashseed):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    if golden["python"] != python_version():
        pytest.skip(f"counts recorded on CPython {golden['python']}")
    assert work_counts(hashseed) == golden


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(work_counts(), indent=2) + "\n",
                      encoding="utf-8")
