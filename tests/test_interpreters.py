"""The numpy-free goldens, replayed under every other CPython on the machine.

``pyproject.toml`` admits CPython from its ``requires-python`` floor up,
but the rest of the suite runs on one interpreter.  This module looks for
others, without installing anything into them:

- ``python3.10`` … ``python3.14`` in each directory on ``PATH``, keeping
  those that run (a pyenv shim refuses a version that is not global);
- ``versions/*/bin/python`` under ``$PYENV_ROOT``, or under ``pyenv root``
  when ``pyenv`` is on ``PATH``;
- the paths of ``PENNYFLIP_PYTHONS``, separated by ``os.pathsep``.

Each one at or above the floor runs the package from ``src`` through
``PYTHONPATH`` and recomputes the digests of ``orbit_cli``,
``stabilizer_large_n`` and ``game_cli``, which must equal the goldens'.
It runs the ``verify-all`` lines of ``usage_cli``, whose stdout, stderr and
exit code must equal this interpreter's line by line, and checks that the
value classes are tuples that compare within their class only and that
``CoinState.at``'s write into ``Fraction``'s private slots builds the state
``CoinState.of`` builds.  An interpreter below the floor must fail to
import the package.
"""

import glob
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TESTS = ROOT / "tests"
GOLDEN = TESTS / "golden"
FLOOR = tuple(map(int, re.search(
    r'requires-python\s*=\s*">=(\d+)\.(\d+)"',
    (ROOT / "pyproject.toml").read_text(encoding="utf-8")).groups()))

#: Prints its interpreter's version and real path.
WHO = ("import os, sys; sys.stdout.write('%d.%d.%d %s' % (sys.version_info"
       "[:3] + (os.path.realpath(sys.executable),)))")


def candidates() -> list[str]:
    paths = [p for p in os.environ.get("PENNYFLIP_PYTHONS", "").split(
        os.pathsep) if p]
    for folder in os.environ.get("PATH", "").split(os.pathsep):
        paths += [os.path.join(folder, f"python3.{minor}")
                  for minor in range(10, 15)]
    root = os.environ.get("PYENV_ROOT")
    if not root and shutil.which("pyenv"):
        root = subprocess.run(["pyenv", "root"], capture_output=True,
                              text=True, timeout=10).stdout.strip()
    if root:
        paths += sorted(glob.glob(os.path.join(root, "versions", "*", "bin",
                                               "python")))
    return [p for p in paths if os.path.isfile(p) and os.access(p, os.X_OK)]


def interpreters() -> dict[str, tuple[tuple[int, ...], str]]:
    """Each other CPython that runs, by version: its version and path."""
    found, seen = {}, {os.path.realpath(sys.executable)}
    for path in candidates():
        try:
            who = subprocess.run([path, "-c", WHO], capture_output=True,
                                 text=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            continue
        if who.returncode != 0 or not who.stdout.strip():
            continue
        version, real = who.stdout.split(maxsplit=1)
        if real.strip() in seen:
            continue
        seen.add(real.strip())
        key = version if version not in found else f"{version}-{len(found)}"
        found[key] = (tuple(map(int, version.split("."))), path)
    return found


FOUND = interpreters()
ADMITTED = [pytest.param(path, id=key) for key, (v, path) in FOUND.items()
            if v >= FLOOR]
REFUSED = [pytest.param(path, id=key) for key, (v, path) in FOUND.items()
           if v < FLOOR]


def when_none(params, what):
    return params or [pytest.param(None, marks=pytest.mark.skip(
        reason=f"no other CPython {what} found on PATH, under pyenv or in "
               f"PENNYFLIP_PYTHONS"))]


#: Runs in the interpreter under test, in a directory holding the usage
#: golden's config files; prints one JSON object.
CHILD = """
import copy, json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import cli_goldens
from cli_goldens import Runner
from pennyflip.angles import Angle
from pennyflip.cli import main
from pennyflip.config import Config
from pennyflip.dihedral import FLIP, DihedralElement
from pennyflip.games import PQG, Decision, Strategy, StrategyClass
from pennyflip.states import KET_PLUS, CoinState

golden, runner = Path(sys.argv[2]), Runner()
digests = {}
for name, digest in [("orbit_cli", cli_goldens.orbit_cli_digest),
                     ("stabilizer_large_n", cli_goldens.stabilizer_cli_digest),
                     ("game_cli", cli_goldens.game_cli_digest)]:
    spec = json.loads((golden / f"{name}.json").read_text(encoding="utf-8"))
    digests[name] = digest(runner, spec)
usage = json.loads((golden / "usage_cli.json").read_text(encoding="utf-8"))
lines = {" ".join(argv): runner.invoke(main, argv)
         for argv in usage["lines"] if argv[:1] == ["verify-all"]}

values = [DihedralElement(8, 3, True), FLIP, KET_PLUS, PQG,
          Strategy("Q", (FLIP,)), StrategyClass((KET_PLUS,), ((FLIP,),)),
          Decision(True, Strategy("Q", (FLIP,))), Config()]
faults = []
for x in values:
    kind, fields = type(x).__name__, tuple(x)
    try:
        setattr(x, x._fields[0], None)
        faults.append(f"{kind} takes a field")
    except AttributeError:
        pass
    if x == fields or fields == x or not x != fields:
        faults.append(f"{kind} equals its field tuple")
    if hash(x) != hash(fields) or copy.copy(x) != x:
        faults.append(f"{kind} hashes or copies apart from its fields")
    if any(x == y for y in values if y is not x):
        faults.append(f"{kind} equals another class's value")
for size in range(1, 65):
    for j in range(size):
        x, y = CoinState.at(j, size), CoinState.of(j, size)
        if (x, hash(x), str(x), x.phi + Angle(1, 8)) != (
                y, hash(y), str(y), y.phi + Angle(1, 8)):
            faults.append(f"CoinState.at({j}, {size}) is not CoinState.of")
print(json.dumps({"digests": digests, "faults": faults, "usage": {
    line: [r.exit_code, r.stdout, r.stderr] for line, r in lines.items()}}))
"""


def clean_env(**extra) -> dict:
    """This environment with ``src`` alone on ``PYTHONPATH``, no config
    file and no bytecode written for another interpreter."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONHOME", "PYTHONSTARTUP", "PENNYFLIP_CONFIG")}
    return dict(env, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1",
                **extra)


def replay(python: str, cwd: Path) -> dict:
    for name, text in json.loads((GOLDEN / "usage_cli.json").read_text(
            encoding="utf-8"))["configFiles"].items():
        (cwd / name).write_text(text)
    child = subprocess.run(
        [python, "-s", "-c", CHILD, str(TESTS), str(GOLDEN)], cwd=cwd,
        env=clean_env(COLUMNS="80"), capture_output=True, text=True,
        timeout=60)
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout)


@pytest.fixture(scope="module")
def here(tmp_path_factory) -> dict:
    """The replay under this interpreter, which the others must match."""
    return replay(sys.executable, tmp_path_factory.mktemp("here"))


@pytest.mark.parametrize("python", when_none(ADMITTED, "at the floor"))
def test_goldens_replay_under(python, here, tmp_path):
    there = replay(python, tmp_path)
    assert there["faults"] == []
    assert there["digests"] == {
        name: json.loads((GOLDEN / f"{name}.json").read_text(
            encoding="utf-8"))["sha256"] for name in there["digests"]}
    assert len(there["usage"]) >= 10
    for line, got in there["usage"].items():
        assert got == here["usage"][line], line


@pytest.mark.parametrize("python", when_none(REFUSED, "below the floor"))
def test_interpreter_below_the_floor_fails_to_import(python, tmp_path):
    child = subprocess.run(
        [python, "-s", "-c", "import pennyflip.cli"], cwd=tmp_path,
        env=clean_env(), capture_output=True, text=True, timeout=30)
    assert child.returncode != 0, (
        f"{python} imports pennyflip below requires-python "
        f">={'.'.join(map(str, FLOOR))}")
    assert "Error" in child.stderr
