"""Command lines run in process, and the digests of the goldens whose
commands need no numpy: ``orbit_cli``, ``stabilizer_large_n`` and
``game_cli``.  This module imports only the standard library and
``pennyflip``, so that any CPython the package admits can replay them."""

import contextlib
import hashlib
import io
from dataclasses import dataclass

from pennyflip import games
from pennyflip.cli import main


@dataclass
class Result:
    exit_code: int
    stdout: str
    stderr: str

    output = property(lambda self: self.stdout + self.stderr)
    stdout_bytes = property(lambda self: self.stdout.encode())
    stderr_bytes = property(lambda self: self.stderr.encode())


class Runner:
    """Runs a command line in process: stdout and stderr captured and the
    exit code read off ``SystemExit``; any other exception propagates."""

    def invoke(self, main, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                main(argv)
                code = 0
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else int(
                    exc.code is not None)
        return Result(code, out.getvalue(), err.getvalue())


def invoke(runner, *args):
    return runner.invoke(main, list(args))


def orbit_cli_digest(runner, spec):
    """sha256 over every ``orbit``/``stabilizer``/``fixed-set`` run that
    *spec* names: per run, its argv and exit code, then its stdout."""
    digest = hashlib.sha256()
    lo, hi = spec["nRange"]
    runs = ([("orbit", "--state", s) for s in spec["states"]]
            + [("stabilizer", "--state", s) for s in spec["states"]]
            + [("fixed-set", "--elems", e) for e in spec["elems"]])
    for n in range(lo, hi + 1):
        for fmt in spec["formats"]:
            for command, option, value in runs:
                argv = [command, "--n", str(n), option, value,
                        "--format", fmt]
                result = invoke(runner, *argv)
                digest.update(f"{' '.join(argv)} -> {result.exit_code}\n"
                              .encode())
                digest.update(result.stdout_bytes)
    return digest.hexdigest()


def stabilizer_cli_digest(runner, spec):
    """sha256 over every ``stabilizer`` run that *spec* names, as in
    :func:`orbit_cli_digest`; ``{2n}`` in a state stands for 2n, so
    ``1/{2n}*pi`` is the index 1 of the basis grid Z_2n."""
    digest = hashlib.sha256()
    for n in spec["n"]:
        states = [s.replace("{2n}", str(2 * n)) for s in spec["states"]]
        for fmt in spec["formats"]:
            for state in states + spec["extraStates"].get(str(n), []):
                argv = ["stabilizer", "--n", str(n), "--state", state,
                        "--format", fmt]
                result = invoke(runner, *argv)
                digest.update(f"{' '.join(argv)} -> {result.exit_code}\n"
                              .encode())
                digest.update(result.stdout_bytes)
    return digest.hexdigest()


def game_cli_digest(runner, spec):
    """sha256 over every ``enumerate``/``classify``/``analyze --check`` run
    that *spec* names: per run, its argv and exit code, then its stdout and
    its stderr."""
    digest = hashlib.sha256()
    lo, hi = spec["rounds"]
    for n in spec["n"]:
        for turns in games.alternating_turn_sequences(lo, hi):
            for initial, target in spec["pairs"]:
                game = ("--turns", "".join(turns), "--initial", initial,
                        "--target-q", target)
                for argv in (("enumerate", "--n", str(n), *game),
                             ("classify", "--n", str(n), *game,
                              "--format", "markdown"),
                             ("analyze", *game, "--check",
                              "--pool-n", str(n))):
                    result = invoke(runner, *argv)
                    digest.update(f"{' '.join(argv)} -> {result.exit_code}\n"
                                  .encode())
                    digest.update(result.stdout_bytes)
                    digest.update(b"\0")
                    digest.update(result.stderr_bytes)
    return digest.hexdigest()
