"""Run configuration for the verification suite and CLI defaults."""

from __future__ import annotations

import os
import re
from collections import namedtuple
from pathlib import Path

from .values import Value, build

ENV_CONFIG_PATH = "PENNYFLIP_CONFIG"

#: Largest group order parameter n accepted anywhere.
N_MAX = 1024

#: Most rounds of a game whose winners are listed (``enumerate``, ``classify``),
#: and the ceiling of ``max_rounds``; decisions run at any length.
ROUNDS_MAX = 12

#: Membership / unitarity tolerance, the default ``tolerance``.
TOL_MEMBERSHIP = 1e-9
#: Algebraic residual tolerance, and the least ``tolerance`` (see ``Config``).
TOL_RESIDUAL = 1e-12

_RANGE_RE = re.compile(r"^\s*(\d+)\s*\.\.\s*(\d+)\s*$")


class Config(Value, namedtuple(
        "Config", "n_min n_max max_rounds samples seed tolerance")):
    __slots__ = ()

    def __new__(cls, n_min: int = 3, n_max: int = 64, max_rounds: int = 9,
                samples: int = 10_000, seed: int = 0,
                tolerance: float = TOL_MEMBERSHIP):
        if not 3 <= n_min <= n_max <= N_MAX:
            raise ValueError(
                f"n range [{n_min}, {n_max}] outside [3, {N_MAX}]")
        if not 2 <= max_rounds <= ROUNDS_MAX:
            raise ValueError(
                f"max_rounds {max_rounds} outside [2, {ROUNDS_MAX}]")
        if samples < 0 or seed < 0:
            raise ValueError("samples and seed must be nonnegative")
        # below TOL_RESIDUAL the unitarity test fails samples u2-sampling
        # accepts; from 1 up every proportionality test passes; NaN fails too
        if not TOL_RESIDUAL <= tolerance < 1:
            raise ValueError(f"tolerance {tolerance} outside "
                             f"[{TOL_RESIDUAL}, 1)")
        return build(cls, (n_min, n_max, max_rounds, samples, seed,
                           tolerance))

    def replace(self, **changes) -> Config:
        """This configuration with *changes*, checked as a new one is."""
        return Config(**dict(self._asdict(), **changes))


def parse_n_range(text: str) -> tuple[int, int]:
    m = _RANGE_RE.match(text)
    if m is None:
        raise ValueError(f"expected a range like 3..64, got {text!r}")
    return int(m.group(1)), int(m.group(2))


def load_config_file(path: str | Path) -> Config:
    """Read a ``key=value`` config file; unknown keys are an error.

    Keys may be spelled with ``_`` or ``-``; a bad line is named by its
    ``path:line``.  An unreadable file is a ``ValueError`` like any other bad
    input.  Flags always win over file values, so callers apply the file first.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(
            f"cannot read config file {path}: {exc.strerror}") from exc
    cfg = Config()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if "=" not in line:
                raise ValueError(f"expected key=value, got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            field = key.replace("-", "_")
            if field == "n_range":
                lo, hi = parse_n_range(value)
                cfg = cfg.replace(n_min=lo, n_max=hi)
            elif field in ("max_rounds", "samples", "seed"):
                cfg = cfg.replace(**{field: int(value)})
            elif field == "tolerance":
                cfg = cfg.replace(tolerance=float(value))
            else:
                raise ValueError(f"unknown key {key!r}")
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return cfg


def default_config() -> Config:
    """The built-in defaults, overlaid with the env-var config file if set."""
    path = os.environ.get(ENV_CONFIG_PATH)
    if path:
        return load_config_file(path)
    return Config()
