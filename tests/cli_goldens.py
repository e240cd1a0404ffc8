"""Command lines run in process, and the goldens whose commands need no
numpy: the digests of ``orbit_cli``, ``stabilizer_large_n`` and
``game_cli``, the lines of ``markdown_cli`` but its ``verify-all`` ones,
and the eight n = 8 QPQPQ listings.  This module imports only the standard
library and ``pennyflip``, so that any CPython the package admits can
replay them."""

import contextlib
import hashlib
import io
from dataclasses import dataclass
from pathlib import Path

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


#: The (command, format, target) of each pinned n = 8 QPQPQ listing.
LISTINGS = [(command, fmt, target) for command in ("enumerate", "classify")
            for fmt in ("json", "markdown") for target in ("0", "1")]


def game_listing(command, fmt, target):
    return (command, "--n", "8", "--turns", "QPQPQ", "--initial", "0",
            "--target-q", target, "--format", fmt)


def listing_golden(command, fmt, target):
    """The pinned stdout of :func:`game_listing`, as rendered when the
    listings classified winners by the ``Fraction`` replay of
    :func:`pennyflip.games.classify_strategies`."""
    ext = "json" if fmt == "json" else "md"
    name = f"{command}_n8_QPQPQ_0to{target}.{ext}"
    return (Path(__file__).parent / "golden" / name).read_bytes()


def markdown_cli_lines(spec):
    """The ``analyze --format markdown`` (with and without ``--check``) and
    ``classify`` JSON lines of the ``markdown_cli`` *spec*, in digest order;
    its ``verify-all`` lines, which need numpy, are not among them."""
    lo, hi = spec["rounds"]
    pool = ("--check", "--pool-n", str(spec["poolN"]))
    runs = []
    for turns in games.alternating_turn_sequences(lo, hi):
        for initial, target in spec["pairs"]:
            game = ("--turns", "".join(turns), "--initial", initial,
                    "--target-q", target)
            runs += [("analyze", *game, "--format", "markdown"),
                     ("analyze", *game, *pool, "--format", "markdown")]
            runs += [("classify", "--n", str(n), *game) for n in spec["n"]]
    return runs


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
