"""Command-line surface; each command writes the text ``reports`` builds.

The grammar is data: each option is a flag and its argparse keywords, and
``_command`` records each spelling as a plain tuple, off which ``_read``
reads a valid line in one pass.  argparse, built from the same options by
``_parser``, loads only to write a help page or to refuse a line that
``_read`` declines.  Exit codes: 0 success, 1 verification failure, 2
usage error, 3 domain error (e.g. asking for the flip in a group that lacks
it), 4 output fault (stdout cannot take the text), 130 interrupt.
"""

from __future__ import annotations

import functools
import sys

from . import games, orbits, reports
from .config import N_MAX, default_config, load_config_file, parse_n_range
from .dihedral import PlanarIsometry
from .errors import PennyflipError
from .games import GameSpec
from .states import CoinState


def _int_range(lo: int, hi: float = float("inf")):
    def integer(text: str) -> int:
        if lo <= (value := int(text)) <= hi:
            return value
        from argparse import ArgumentTypeError  # argparse reports the line
        raise ArgumentTypeError(f"{value} is not in {lo}..{hi}")
    return integer


#: Per command: its function; its options; each spelling's plain tuple
#: (keyword, converter, choices, the value it sets, None if it takes one);
#: and a bare line's keywords, all but the required options'.
_COMMANDS: dict[str, tuple] = {}


def _command(*options: tuple[str, dict]):
    """Record the decorated function as the command of its name, with
    ``_`` as ``-``; each option is a flag and its argparse keywords, where
    ``action="pair"`` makes ``--x`` set True and ``--no-x`` False."""
    def register(fn):
        spellings, kwargs = {}, {"command": fn}
        for flag, kw in options:
            dest = kw.get("dest", flag[2:].replace("-", "_"))
            for s, value in zip((flag, "--no-" + flag[2:]),
                                (True, False) if "action" in kw else [None]):
                spellings[s] = (dest, kw.get("type"), kw.get("choices"), value)
            if not kw.get("required"):
                kwargs[dest] = kw.get("default")
        _COMMANDS[fn.__name__.replace("_", "-")] = (fn, options, spellings,
                                                    kwargs)
        return fn
    return register


def _read(argv: list[str]) -> dict | None:
    """argparse's keywords but ``parser`` for a command and its own options,
    a value option taking the text after ``=``, else the next token, even
    ``-pi/4``; None for any other line and any line argparse refuses."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, options, spellings, kwargs = _COMMANDS[argv[0]]
    kwargs, tokens = dict(kwargs), iter(argv[1:])
    for token in tokens:
        entry = spellings.get(token)
        if entry is None:               # --option=value; a flag takes none
            flag, eq, text = token.partition("=")
            entry = spellings.get(flag) if eq else None
            if entry is None or entry[3] is not None:
                return None
        elif entry[3] is None:          # the next token, whatever it is;
            text = next(tokens, "--")   # at the end, "--", which is no value
        dest, convert, choices, value = entry
        if value is None:
            if text == "--":
                return None
            try:
                value = convert(text) if convert else text
            except Exception:   # argparse converts it again, and reports it
                return None
            if choices and value not in choices:
                return None
        kwargs[dest] = value
    # each option fills one keyword: by default, or else read (if required)
    return kwargs if len(kwargs) > len(options) else None


@functools.cache
def _parser():
    """argparse's reading of the tables, built on the first help page or
    refused line; it reads each command's subparser as ``parser``."""
    import argparse

    class HelpFormatter(argparse.HelpFormatter):
        def add_usage(self, usage, actions, groups, prefix=None):
            # prefix="" builds a subparser's prog, which takes no "Usage:"
            super().add_usage(usage, actions, groups,
                              "Usage: " if prefix is None else prefix)

    # No abbreviated options and no -h; subparsers inherit neither setting.
    style = {"formatter_class": HelpFormatter, "allow_abbrev": False,
             "add_help": False}
    show = {"action": "help", "help": "Show this message and exit."}
    parser = argparse.ArgumentParser(prog="pennyflip", **style, description=(
        "Exact dihedral-group analysis of the quantum penny flip game."))
    parser.add_argument("--help", **show)
    commands = parser.add_subparsers(title="commands", metavar="COMMAND",
                                     required=True)
    for name, (run, options, *_) in _COMMANDS.items():
        sub = commands.add_parser(name, **style, help=run.__doc__,
                                  description=run.__doc__)
        sub.register("action", "pair", argparse.BooleanOptionalAction)
        for flag, kw in options:
            if "default" in kw and "action" not in kw:  # shown in the help
                shown = f"{kw.get('help', '')} [default: %(default)s]"
                kw = dict(kw, help=shown.lstrip())
            sub.add_argument(flag, **kw)
        sub.add_argument("--help", **show)
        sub.set_defaults(command=run, parser=sub)
    parser.commands = commands.choices      # each subparser, by its name
    return parser


_GROUP_ORDER = _int_range(3, N_MAX)   # D_n needs n >= 3; Config caps n too
_N = ("--n", dict(type=_GROUP_ORDER, required=True))
_STATE = ("--state", dict(default="0"))
_FORMAT = ("--format", dict(dest="fmt", choices=["json", "markdown"],
                            default="json", help="Output format."))
_GAME = (("--initial", dict(default="0")), ("--target-q", dict()))
_FLAG = dict(action="pair", default=False)


def main(args: list[str] | None = None, standalone_mode: bool = True) -> None:
    """Run one command line, ``sys.argv[1:]`` by default.  Every exit but a
    command's success raises ``SystemExit``.  *standalone_mode* changes
    nothing: it keeps callers of ``main(argv, standalone_mode=False)``."""
    argv = sys.argv[1:] if args is None else args
    if (kwargs := _read(argv)) is None:
        # each value option joined to the next token, which is its value
        tokens, line, values = iter(argv), [], {
            s for _, _, spellings, *_ in _COMMANDS.values()
            for s, entry in spellings.items() if entry[3] is None}
        for token in tokens:
            value = next(tokens, None) if token in values else None
            line.append(token if value is None else f"{token}={value}")
        kwargs = vars(_parser().parse_args(line))
        if [] in kwargs.values():   # argparse 3.11 reads --x=-- as x=[]
            kwargs["parser"].error("-- is not a value")
    run, parser = kwargs.pop("command"), kwargs.pop("parser", None)
    try:
        run(**kwargs)
    except PennyflipError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(3)
    except ValueError as exc:       # a value the command refuses
        (parser or _parser().commands[argv[0]]).error(str(exc))
    except KeyboardInterrupt:
        sys.exit(130)


def _write(text: str) -> None:
    """Write *text* to stdout and flush it; a stream that cannot take it
    ends the line with one ``error:`` line and exit 4."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except (OSError, UnicodeEncodeError) as exc:
        print(f"error: cannot write the output: {exc}", file=sys.stderr)
        sys.exit(4)


def _echo(payload, fmt: str = "json", render=None) -> None:
    """Write *payload* as JSON, or as its Markdown rendering *render*."""
    _write(reports.dump_json(payload) + "\n" if fmt == "json"
           else render(payload))


@_command(_N, _STATE, _FORMAT)
def orbit(n: int, state: str, fmt: str) -> None:
    """States reachable from STATE under all of D_n."""
    states = orbits.orbit(n, CoinState.parse(state))
    _write(reports.state_set_text(states, fmt))


@_command(_N, _STATE, _FORMAT)
def stabilizer(n: int, state: str, fmt: str) -> None:
    """Elements of D_n fixing STATE."""
    elems = orbits.stabilizer(n, CoinState.parse(state))
    _write(reports.element_set_text(elems, fmt))


@_command(_N, ("--elems", dict(default="I,F", help="Comma-separated "
                               "isometries, e.g. I,F or S_0,R_π.")), _FORMAT)
def fixed_set(n: int, elems: str, fmt: str) -> None:
    """States in the basis orbit fixed by every listed isometry."""
    isometries = [PlanarIsometry.parse(t) for t in elems.split(",") if t.strip()]
    states = orbits.fixed_set(n, isometries)
    _write(reports.state_set_text(states, fmt))


def _game_spec(turns: str, initial: str, target_q: str | None) -> GameSpec:
    """The game named by ``--turns``, ``--initial`` and ``--target-q``."""
    init = CoinState.parse(initial)
    target = CoinState.parse(target_q) if target_q is not None else init
    return GameSpec.from_string(turns, init, target)


@_command(_N, ("--turns", dict(default="QPQ")), *_GAME, _FORMAT)
def enumerate(n: int, fmt: str, **game) -> None:
    """Exhaustively enumerate and classify Q's winning strategies in D_n."""
    spec = _game_spec(**game)
    classes = games.winning_classes(spec, n)
    payload = (reports.game_report(spec, None, classes) if fmt == "json"
               else None)       # the table reads the classes, not a payload
    _echo(payload, fmt,
          lambda _: reports.table_winning_classes(classes, spec.turns))


@_command(_N, ("--turns", dict(default="QPQ")), *_GAME, _FORMAT)
def classify(n: int, fmt: str, **game) -> None:
    """Equivalence classes of the winning strategies, with state paths."""
    spec = _game_spec(**game)
    classes = games.winning_classes(spec, n)
    _echo([reports.class_json(c) for c in classes], fmt,
          reports.classes_markdown)


@_command(("--turns", dict(required=True)), *_GAME,
          ("--check", dict(_FLAG, help="Cross-check against the finite "
                                       "brute-force search.")),
          ("--pool-n", dict(type=_GROUP_ORDER, default=8)), _FORMAT)
def analyze(check: bool, pool_n: int, fmt: str, **game) -> None:
    """Decide an extended alternating game."""
    spec = _game_spec(**game)
    decision = games.decide_extended_game(spec)
    brute = games.brute_force_extended_check(spec, pool_n) if check else None
    _echo(reports.decision_json(spec, decision, brute), fmt,
          reports.decision_markdown)


@_command(("--samples", dict(type=_int_range(0), default=10_000)),
          ("--seed", dict(type=_int_range(0), default=0)))
def sample_u2(samples: int, seed: int) -> None:
    """Sample unitaries and count winning first moves (a measure-zero event)."""
    from . import unitary
    hits, max_residual, _ = unitary.screen(seed, samples, states=False)
    _echo(reports.sampling_json(samples, hits, max_residual))


@_command(("--n-range", dict(help="e.g. 3..64")),
          ("--max-rounds", dict(type=int)), ("--samples", dict(type=int)),
          ("--seed", dict(type=int)), ("--tolerance", dict(type=float)),
          ("--config", dict(help="key=value config file; flags win.")),
          ("--timings", dict(_FLAG, help="Include wall-clock timings (breaks "
                                         "byte determinism).")), _FORMAT)
def verify_all(n_range: str | None, config: str | None, timings: bool,
               fmt: str, **flags) -> None:
    """Run the whole verification suite; exit 1 on any failure."""
    cfg = default_config() if config is None else load_config_file(config)
    updates = {k: v for k, v in flags.items() if v is not None}
    if n_range is not None:
        updates["n_min"], updates["n_max"] = parse_n_range(n_range)
    cfg = cfg.replace(**updates)
    from . import verify        # numpy loads only once the line is valid
    results = verify.run_all(cfg)
    _echo(reports.check_rows(results, timings), fmt, reports.checks_markdown)
    if failing := verify.failing(results):
        print("failing checks: " + ", ".join(failing), file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
