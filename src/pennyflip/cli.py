"""Command-line surface; each command prints the text ``reports`` writes.

argparse declares the grammar and writes every help page and usage error;
``_read`` reads a valid line off its command's option table.  Exit codes:
0 success, 1 verification failure, 2 usage error, 3 domain error (e.g.
asking for the flip in a group that lacks it).
"""

from __future__ import annotations

import argparse
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
        raise argparse.ArgumentTypeError(f"{value} is not in {lo}..{hi}")
    return integer


class _HelpFormatter(argparse.HelpFormatter):
    def add_usage(self, usage, actions, groups, prefix=None):
        # prefix="" builds a subparser's prog, which takes no "Usage:"
        super().add_usage(usage, actions, groups,
                          "Usage: " if prefix is None else prefix)


# No abbreviated options and no -h; subparsers inherit neither setting.
_STYLE = {"formatter_class": _HelpFormatter, "allow_abbrev": False,
          "add_help": False}
_HELP = {"action": "help", "help": "Show this message and exit."}
_parser = argparse.ArgumentParser(prog="pennyflip", **_STYLE, description=(
    "Exact dihedral-group analysis of the quantum penny flip game."))
_parser.add_argument("--help", **_HELP)
_commands = _parser.add_subparsers(title="commands", metavar="COMMAND",
                                   required=True)

#: Options taking a value: the next token is the value, even ``-pi/4``.
_VALUE_OPTIONS: set[str] = set()
#: Per command: each option string's action, and a bare line's keywords.
_TABLES: dict[str, tuple[dict[str, argparse.Action], dict]] = {}


def _command(*options):
    """Register the decorated function as the subcommand of its name, with
    ``_`` as ``-``; each option is a flag and its ``add_argument`` keywords."""
    def register(fn):
        name = fn.__name__.replace("_", "-")
        sub = _commands.add_parser(name, **_STYLE, help=fn.__doc__,
                                   description=fn.__doc__)
        table, defaults = {}, {"command": fn, "parser": sub}
        for flag, kwargs in options:
            if "action" not in kwargs:          # a flag pair takes no value
                _VALUE_OPTIONS.add(flag)
                if "default" in kwargs:         # shown in the help
                    shown = f"{kwargs.get('help', '')} [default: %(default)s]"
                    kwargs = dict(kwargs, help=shown.lstrip())
            action = sub.add_argument(flag, **kwargs)
            table.update(dict.fromkeys(action.option_strings, action))
            defaults[action.dest] = action.default
        sub.add_argument("--help", **_HELP)
        sub.set_defaults(command=fn, parser=sub)
        _TABLES[name] = table, defaults
        return fn
    return register


def _read(argv: list[str]) -> dict | None:
    """``vars(_parser.parse_args(argv))`` for a command followed only by
    ``--option=value`` (a value other than ``--``) and bare ``--flag`` or
    ``--no-flag`` tokens; None for any other line, which argparse reads."""
    table, kwargs = _TABLES.get(argv[0] if argv else None, (None, None))
    if table is None:
        return None
    kwargs, seen = dict(kwargs), set()
    for token in argv[1:]:
        flag, eq, text = token.partition("=")
        action = table.get(flag)
        if (action is None or bool(eq) != (flag in _VALUE_OPTIONS)
                or text == "--"):
            return None
        value = flag == action.option_strings[0]
        if eq:
            try:
                value = action.type(text) if action.type else text
            except (TypeError, ValueError, argparse.ArgumentTypeError):
                return None
            if action.choices is not None and value not in action.choices:
                return None
        kwargs[action.dest] = value
        seen.add(action)
    if any(a.required and a not in seen for a in table.values()):
        return None
    return kwargs


_GROUP_ORDER = _int_range(3, N_MAX)   # D_n needs n >= 3; Config caps n too
_N = ("--n", dict(type=_GROUP_ORDER, required=True))
_STATE = ("--state", dict(default="0"))
_FORMAT = ("--format", dict(dest="fmt", choices=["json", "markdown"],
                            default="json", help="Output format."))
_GAME = (("--initial", dict(default="0")), ("--target-q", dict()))
_FLAG = dict(action=argparse.BooleanOptionalAction, default=False)


def main(args: list[str] | None = None, standalone_mode: bool = True) -> None:
    """Run one command line, ``sys.argv[1:]`` by default.  Every exit but a
    command's success raises ``SystemExit``.  *standalone_mode* changes
    nothing: it keeps callers of ``main(argv, standalone_mode=False)``."""
    tokens, argv = iter(sys.argv[1:] if args is None else args), []
    for token in tokens:
        value = next(tokens, None) if token in _VALUE_OPTIONS else None
        argv.append(token if value is None else f"{token}={value}")
    kwargs = _read(argv) or vars(_parser.parse_args(argv))
    run, parser = kwargs.pop("command"), kwargs.pop("parser")
    if [] in kwargs.values():       # argparse 3.11 reads --x=-- as x=[]
        parser.error("-- is not a value")
    try:
        run(**kwargs)
    except PennyflipError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(3)
    except ValueError as exc:
        parser.error(str(exc))


def _echo(payload, fmt: str = "json", render=None) -> None:
    """Print *payload* as JSON, or as its Markdown rendering *render*."""
    if fmt == "json":
        print(reports.dump_json(payload))
    else:
        sys.stdout.write(render(payload))


@_command(_N, _STATE, _FORMAT)
def orbit(n: int, state: str, fmt: str) -> None:
    """States reachable from STATE under all of D_n."""
    states = orbits.orbit(n, CoinState.parse(state))
    sys.stdout.write(reports.state_set_text(states, fmt))


@_command(_N, _STATE, _FORMAT)
def stabilizer(n: int, state: str, fmt: str) -> None:
    """Elements of D_n fixing STATE."""
    elems = orbits.stabilizer(n, CoinState.parse(state))
    sys.stdout.write(reports.element_set_text(elems, fmt))


@_command(_N, ("--elems", dict(default="I,F", help="Comma-separated "
                               "isometries, e.g. I,F or S_0,R_π.")), _FORMAT)
def fixed_set(n: int, elems: str, fmt: str) -> None:
    """States in the basis orbit fixed by every listed isometry."""
    isometries = [PlanarIsometry.parse(t) for t in elems.split(",") if t.strip()]
    states = orbits.fixed_set(n, isometries)
    sys.stdout.write(reports.state_set_text(states, fmt))


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
