"""Every function under ``src/pennyflip`` runs under some command line.

One child process installs a profiler before ``pennyflip.cli`` is imported,
so that the calls made at import count too, runs ``COMMANDS`` in process
and reports the code objects it saw called.  Each function and lambda that
``ast`` finds in the sources must be among them, unless ``ALLOWLIST`` names
it with the ROADMAP item that removes it; a listed function that runs, or
that no longer exists, fails too, so the list only shrinks.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "pennyflip"

#: Functions that only the tests reach, with the ROADMAP item removing each.
ALLOWLIST: dict[str, str] = {}

#: Every command in both formats, a config file (``{config}``) and each
#: exit code but 1, which only a failing check gives, with its code.
COMMANDS = [
    (0, ["--help"]),
    (0, ["orbit", "--n", "8"]),
    (0, ["orbit", "--n", "12", "--state", "1/5*pi", "--format", "markdown"]),
    (0, ["stabilizer", "--n", "8", "--state", "+", "--format", "markdown"]),
    (0, ["stabilizer", "--n", "12", "--state", "1"]),
    (0, ["fixed-set", "--n", "8", "--elems", "I,F", "--format", "markdown"]),
    (0, ["fixed-set", "--n", "16", "--elems", "S_{1/8·π},R_π,h"]),
    (0, ["enumerate", "--n", "8"]),
    (0, ["enumerate", "--n", "8", "--turns", "QPQPQ", "--target-q", "1",
         "--format", "markdown"]),
    (0, ["classify", "--n", "8"]),
    (0, ["classify", "--n", "8", "--format", "markdown"]),
    (0, ["analyze", "--turns", "QPQPQ", "--check"]),
    (0, ["analyze", "--turns", "PQP", "--initial", "1", "--target-q", "0",
         "--check", "--pool-n", "16", "--format", "markdown"]),
    (0, ["sample-u2", "--samples", "1000", "--seed", "3"]),
    (0, ["verify-all", "--samples", "200"]),
    (0, ["verify-all", "--config", "{config}", "--timings",
         "--format", "markdown"]),
    (2, []),
    (2, ["orbit", "--n", "2"]),
    (2, ["orbit", "--n", "8", "--state", "sideways"]),
    (2, ["fixed-set", "--n", "8", "--elems", "Z_9"]),
    (2, ["verify-all", "--n-range", "9..3"]),
    (2, ["verify-all", "--config", "{config}.missing"]),
    (3, ["fixed-set", "--n", "7"]),
    (3, ["enumerate", "--n", "6"]),
    (3, ["analyze", "--turns", "QPQ", "--check", "--pool-n", "12"]),
]

#: The file that ``{config}`` names.
CONFIG = "n-range = 3..16\nsamples = 200\nseed = 7\n"

#: Runs the command lines of argv[1] under a profiler; prints their exit
#: codes and the (file, first line, name) of every code object called.
CHILD = """
import contextlib, io, json, sys
called = set()
sys.setprofile(lambda frame, event, arg: event == "call"
               and called.add(frame.f_code))
from pennyflip import cli
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        try:
            cli.main(argv)
            codes.append(0)
        except SystemExit as exc:
            codes.append(exc.code or 0)
sys.setprofile(None)
print(json.dumps({"codes": codes, "called": sorted(
    (c.co_filename, c.co_firstlineno, c.co_name) for c in called)}))
"""


def defined_functions() -> dict[tuple[str, int, str], str]:
    """Each function and lambda in the package, keyed as its code object
    is, by file, first line (the first decorator's, if any) and name, with
    its dotted name, ``module.Class.method``."""
    found = {}

    def visit(node, path, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, ast.Lambda):
                inner = f"{scope}.<lambda>@{child.lineno}"
                found[(str(path), child.lineno, "<lambda>")] = inner
            elif isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}"
                if isinstance(child, ast.FunctionDef):
                    first = (child.decorator_list or [child])[0].lineno
                    found[(str(path), first, child.name)] = inner
            visit(child, path, inner)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, path.stem)
    return found


def test_every_function_runs_under_some_command(tmp_path):
    config = tmp_path / "verify.cfg"
    config.write_text(CONFIG)
    argvs = [[arg.replace("{config}", str(config)) for arg in argv]
             for _, argv in COMMANDS]
    child = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(argvs)],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert child.returncode == 0, child.stderr
    report = json.loads(child.stdout)
    assert report["codes"] == [code for code, _ in COMMANDS]
    called = {(file, line, name) for file, line, name in report["called"]}
    defined = defined_functions()
    unreached = {dotted for key, dotted in defined.items()
                 if key not in called}
    assert sorted(unreached - set(ALLOWLIST)) == [], "no command runs these"
    assert sorted(set(ALLOWLIST) - unreached) == [], "reached, or gone"
