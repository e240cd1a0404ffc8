"""Command-line surface; ``_echo`` prints each command's ``reports`` payload.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 domain
error (e.g. asking for the flip in a group that lacks it).
"""

from __future__ import annotations

import functools
import sys
from dataclasses import replace

import click

from . import games, orbits, reports
from .angles import Angle
from .config import N_MAX, default_config, load_config_file, parse_n_range
from .dihedral import FLIP, HADAMARD, IDENTITY, PlanarIsometry
from .errors import PennyflipError
from .games import GameSpec
from .states import CoinState

_NAMED_ISOMETRIES = {str(p): p for p in (IDENTITY, FLIP, HADAMARD)}

#: Group order parameter n: D_n needs n >= 3, and Config caps n the same way.
_GROUP_ORDER = click.IntRange(3, N_MAX)


def parse_isometry(token: str) -> PlanarIsometry:
    token = token.strip()
    named = _NAMED_ISOMETRIES.get(token.upper() if len(token) == 1 else token)
    if named is not None:
        return named
    kind, _, rest = token.partition("_")
    angle_text = rest.strip().strip("{}")
    if kind in ("R", "S") and angle_text:
        angle = Angle.parse(angle_text)
        if kind == "R":
            return PlanarIsometry.rotor(angle)
        return PlanarIsometry.reflector(angle)
    raise ValueError(f"cannot parse isometry {token!r}")


def domain_errors_exit_3(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except PennyflipError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(3)
        except ValueError as exc:
            raise click.UsageError(str(exc)) from exc
    return wrapper


def _echo(payload, fmt: str, render) -> None:
    """Print *payload* as JSON, or as its Markdown rendering *render*."""
    if fmt == "json":
        click.echo(reports.dump_json(payload))
    else:
        click.echo(render(payload), nl=False)


format_option = click.option(
    "--format", "fmt", type=click.Choice(["json", "markdown"]),
    default="json", show_default=True, help="Output format.")


@click.group()
def main() -> None:
    """Exact dihedral-group analysis of the quantum penny flip game."""


@main.command()
@click.option("--n", type=_GROUP_ORDER, required=True)
@click.option("--state", "state_text", default="0", show_default=True)
@format_option
@domain_errors_exit_3
def orbit(n: int, state_text: str, fmt: str) -> None:
    """States reachable from STATE under all of D_n."""
    states = orbits.orbit(n, CoinState.parse(state_text))
    _echo(reports.state_set_json(states), fmt, reports.names_markdown)


@main.command()
@click.option("--n", type=_GROUP_ORDER, required=True)
@click.option("--state", "state_text", default="0", show_default=True)
@format_option
@domain_errors_exit_3
def stabilizer(n: int, state_text: str, fmt: str) -> None:
    """Elements of D_n fixing STATE."""
    elems = orbits.stabilizer(n, CoinState.parse(state_text))
    _echo(reports.element_set_json(elems), fmt, reports.names_markdown)


@main.command("fixed-set")
@click.option("--n", type=_GROUP_ORDER, required=True)
@click.option("--elems", "elems_text", default="I,F", show_default=True,
              help="Comma-separated isometries, e.g. I,F or S_0,R_π.")
@format_option
@domain_errors_exit_3
def fixed_set(n: int, elems_text: str, fmt: str) -> None:
    """States in the basis orbit fixed by every listed isometry."""
    elems = [parse_isometry(tok) for tok in elems_text.split(",") if tok.strip()]
    states = orbits.fixed_set(n, elems)
    _echo(reports.state_set_json(states), fmt, reports.names_markdown)


def _game_spec(turns: str, initial: str, target_q: str | None) -> GameSpec:
    init = CoinState.parse(initial)
    target = CoinState.parse(target_q) if target_q is not None else init
    return GameSpec.from_string(turns, init, target)


@main.command()
@click.option("--n", type=_GROUP_ORDER, required=True)
@click.option("--turns", default="QPQ", show_default=True)
@click.option("--initial", default="0", show_default=True)
@click.option("--target-q", default=None)
@format_option
@domain_errors_exit_3
def enumerate(n: int, turns: str, initial: str, target_q: str | None,
              fmt: str) -> None:
    """Exhaustively enumerate and classify Q's winning strategies in D_n."""
    spec = _game_spec(turns, initial, target_q)
    classes = games.winning_classes(spec, n)
    _echo(reports.game_report(spec, None, classes), fmt,
          lambda _: reports.table_winning_classes(classes, spec.turns))


@main.command()
@click.option("--n", type=_GROUP_ORDER, required=True)
@click.option("--turns", default="QPQ", show_default=True)
@click.option("--initial", default="0", show_default=True)
@click.option("--target-q", default=None)
@format_option
@domain_errors_exit_3
def classify(n: int, turns: str, initial: str, target_q: str | None,
             fmt: str) -> None:
    """Equivalence classes of the winning strategies, with state paths."""
    spec = _game_spec(turns, initial, target_q)
    classes = games.winning_classes(spec, n)
    _echo([reports.class_json(c) for c in classes], fmt,
          reports.classes_markdown)


@main.command()
@click.option("--turns", required=True)
@click.option("--initial", default="0", show_default=True)
@click.option("--target-q", default=None)
@click.option("--check/--no-check", default=False,
              help="Cross-check against the finite brute-force search.")
@click.option("--pool-n", type=_GROUP_ORDER, default=8, show_default=True)
@format_option
@domain_errors_exit_3
def analyze(turns: str, initial: str, target_q: str | None, check: bool,
            pool_n: int, fmt: str) -> None:
    """Decide an extended alternating game."""
    spec = _game_spec(turns, initial, target_q)
    decision = games.decide_extended_game(spec)
    brute = games.brute_force_extended_check(spec, pool_n) if check else None
    _echo(reports.decision_json(spec, decision, brute), fmt,
          reports.decision_markdown)


@main.command("sample-u2")
@click.option("--samples", type=click.IntRange(min=0), default=10_000,
              show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0,
              show_default=True)
@domain_errors_exit_3
def sample_u2(samples: int, seed: int) -> None:
    """Sample unitaries and count winning first moves (a measure-zero event)."""
    from . import unitary
    hits, max_residual, _ = unitary.screen(seed, samples, states=False)
    click.echo(reports.dump_json(
        reports.sampling_json(samples, hits, max_residual)))


@main.command("verify-all")
@click.option("--n-range", default=None, help="e.g. 3..64")
@click.option("--max-rounds", type=int, default=None)
@click.option("--samples", type=int, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--tolerance", type=float, default=None)
@click.option("--config", "config_path", type=click.Path(exists=True),
              default=None, help="key=value config file; flags win.")
@click.option("--timings/--no-timings", default=False,
              help="Include wall-clock timings (breaks byte determinism).")
@format_option
@domain_errors_exit_3
def verify_all(n_range: str | None, max_rounds: int | None,
               samples: int | None, seed: int | None,
               tolerance: float | None, config_path: str | None,
               timings: bool, fmt: str) -> None:
    """Run the whole verification suite; exit 1 on any failure."""
    from . import verify
    cfg = load_config_file(config_path) if config_path else default_config()
    flags = {"max_rounds": max_rounds, "samples": samples, "seed": seed,
             "tolerance": tolerance}
    updates = {k: v for k, v in flags.items() if v is not None}
    if n_range is not None:
        updates["n_min"], updates["n_max"] = parse_n_range(n_range)
    if updates:
        cfg = replace(cfg, **updates)
    results = verify.run_all(cfg)
    _echo(reports.check_rows(results, timings), fmt, reports.checks_markdown)
    if failing := verify.failing(results):
        click.echo("failing checks: " + ", ".join(failing), err=True)
        sys.exit(1)


if __name__ == "__main__":
    main()
