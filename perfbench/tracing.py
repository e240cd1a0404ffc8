"""Per-layer tracing of pennyflip from outside the program.

The tracer wraps the layers' functions and methods and rebinds each
wrapper in every ``pennyflip`` module that imported the function (the
package uses ``from .x import y``), so ``src/`` stays untouched.  The
public functions of ``orbits``, ``games``, ``reports`` and ``verify``
record a span: name, start, end and parent.  Functions called once per
state, play or sample (the primitives of ``angles``, ``dihedral`` and
``states``, the strategy checks of ``games``, the samplers and
classifier of ``unitary`` and the naming helpers of ``reports``) keep a
call count and accumulated time only, since millions of spans would not
fit in memory.  Every wrapped call adds its time to its layer, minus the
time of the wrapped calls inside it, which gives each layer's self time.
``fractions.Fraction.__new__`` and ``numpy.random.default_rng`` are
counted, not timed.

Everything stays in memory until the run ends.
"""

from __future__ import annotations

import enum
import importlib
import inspect
import pkgutil
from collections import Counter
from fractions import Fraction
from time import perf_counter

import numpy

LAYERS = ("angles", "dihedral", "states", "orbits", "games", "unitary",
          "reports", "verify")
SPAN_LAYERS = ("orbits", "games", "reports", "verify")
#: Functions of span layers called per strategy, play, sample or name.
HOT = {
    "games.is_winning_strategy", "games.play_out", "games.state_path",
    "games.picard_strategies",
    "reports.isometry_name", "reports.strategy_name", "reports.path_name",
    "reports.state_set_name", "reports.element_set_name",
}
METHOD_DUNDERS = ("__init__", "__lt__", "__le__", "__str__")
SEARCH = "games.brute_force_extended_check"


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter = Counter()     # function -> calls
        self.busy: Counter = Counter()      # function -> seconds, inclusive
        self.self_s: Counter = Counter()    # layer -> seconds, exclusive
        self.extra: Counter = Counter()     # counts taken inside calls
        self.spans: list[tuple] = []        # (id, parent, name, start, end)
        self.depth: Counter = Counter()     # open calls per layer or span
        self._frames: list[list[float]] = []  # child time of open calls
        self._open: list[int] = []          # open span ids
        self._origin = perf_counter()
        self._patches = self._build_patches()

    # -- installation -------------------------------------------------------

    def _build_patches(self) -> list[tuple]:
        import pennyflip
        modules = [importlib.import_module(f"pennyflip.{m.name}")
                   for m in pkgutil.iter_modules(pennyflip.__path__)]
        modules.append(pennyflip)
        patches = []
        for mod in modules:
            layer = mod.__name__.rpartition(".")[2]
            if layer not in LAYERS:
                continue
            for attr, obj in vars(mod).items():
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not attr.startswith("_"):
                    name = f"{layer}.{attr}"
                    span = layer in SPAN_LAYERS and name not in HOT
                    wrapped = self.wrap(layer, name, obj, span)
                    patches += [(m, a, obj, wrapped) for m in modules
                                for a, o in vars(m).items() if o is obj]
                elif (inspect.isclass(obj) and not issubclass(obj, enum.Enum)
                      and not issubclass(obj, BaseException)):
                    patches += self._method_patches(layer, obj)
        new = vars(Fraction)["__new__"]
        patches.append((Fraction, "__new__", new,
                        staticmethod(self.count("fractions.Fraction.__new__",
                                                new.__func__))))
        rng = numpy.random.default_rng
        patches.append((numpy.random, "default_rng", rng,
                        self.count("numpy.random.default_rng", rng)))
        return patches

    def _method_patches(self, layer: str, cls: type) -> list[tuple]:
        patches = []
        for attr, member in vars(cls).items():
            if attr.startswith("_") and attr not in METHOD_DUNDERS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(member, (classmethod, staticmethod)):
                wrapped = type(member)(
                    self.wrap(layer, name, member.__func__, False))
            elif inspect.isfunction(member):
                wrapped = self.wrap(layer, name, member, False)
            else:
                continue
            patches.append((cls, attr, member, wrapped))
        return patches

    def install(self) -> None:
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    # -- wrappers -----------------------------------------------------------

    def count(self, name: str, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    def wrap(self, layer: str, name: str, fn, span: bool):
        """``fn`` with its calls counted and timed, and recorded as a span
        if ``span``."""
        frames, depth, self_s = self._frames, self.depth, self.self_s
        calls, busy = self.calls, self.busy
        after = _AFTER.get(name) or _AFTER.get(layer)

        def traced(*args, **kwargs):
            outermost = not depth[layer]
            depth[layer] += 1
            if span:
                depth[name] += 1
                sid = len(self.spans)
                self.spans.append(None)
                parent = self._open[-1] if self._open else None
                self._open.append(sid)
            frame = [0.0]
            frames.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                frames.pop()
                elapsed = end - start
                self_s[layer] += elapsed - frame[0]
                if frames:
                    frames[-1][0] += elapsed
                calls[name] += 1
                busy[name] += elapsed
                depth[layer] -= 1
                if span:
                    depth[name] -= 1
                    self._open.pop()
                    self.spans[sid] = (sid, parent, name,
                                       start - self._origin,
                                       end - self._origin)
            if after is not None:
                after(self, result, outermost)
            return result
        return traced

    # -- results ------------------------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as ``name: (value, unit)``."""
        c, b, x = self.calls, self.busy, self.extra

        def per_call_us(*names):
            n = sum(c[k] for k in names)
            return ratio(sum(b[k] for k in names), n) * 1e6

        compose = ("dihedral.PlanarIsometry.compose",
                   "dihedral.DihedralElement.compose")
        samplers = ("unitary.sample_unitary", "unitary.sample_state")
        classify = "unitary.classify_winning_first_move"
        return {
            "angles.fraction_new": (c["fractions.Fraction.__new__"], "count"),
            "angles.angle_new": (c["angles.Angle.__init__"], "count"),
            "angles.self_s": (self.self_s["angles"], "s"),
            "dihedral.represent": (c["dihedral.represent"], "count"),
            "dihedral.represent_us": (per_call_us("dihedral.represent"), "us"),
            "dihedral.compose": (sum(c[k] for k in compose), "count"),
            "dihedral.compose_us": (per_call_us(*compose), "us"),
            "dihedral.self_s": (self.self_s["dihedral"], "s"),
            "states.act": (c["states.act"], "count"),
            "states.act_us": (per_call_us("states.act"), "us"),
            "states.win_probability": (c["states.win_probability"], "count"),
            "states.self_s": (self.self_s["states"], "s"),
            "orbits.calls": (sum(v for k, v in c.items()
                                 if k.startswith("orbits.")), "count"),
            "orbits.acts_per_state": (ratio(x["orbits.acts"],
                                            x["orbits.returned"]), "ratio"),
            "orbits.self_s": (self.self_s["orbits"], "s"),
            "games.strategies_scanned": (c["games.is_winning_strategy"],
                                         "count"),
            "games.plays": (c["games.play_out"], "count"),
            "games.win_ratio": (ratio(x["games.winners"],
                                      c["games.is_winning_strategy"]),
                                "ratio"),
            "games.search_acts": (x["games.search_acts"], "count"),
            "games.self_s": (self.self_s["games"], "s"),
            "unitary.samples": (sum(c[k] for k in samplers), "count"),
            "unitary.sample_us": (per_call_us(*samplers), "us"),
            "unitary.rng_new": (c["numpy.random.default_rng"], "count"),
            "unitary.classify": (c[classify], "count"),
            "unitary.classify_us": (per_call_us(classify), "us"),
            "unitary.hit_ratio": (ratio(x["unitary.hits"], c[classify]),
                                  "ratio"),
            "unitary.self_s": (self.self_s["unitary"], "s"),
            "reports.bytes": (x["reports.bytes"], "B"),
            "reports.self_s": (self.self_s["reports"], "s"),
            "verify.self_s": (self.self_s["verify"], "s"),
            "cli.self_s": (self.self_s["cli"], "s"),
        }

    def record(self) -> dict:
        """Spans and counters, for the trace file."""
        return {
            "spanFields": ["id", "parent", "name", "start", "end"],
            "spans": self.spans,
            "calls": dict(sorted(self.calls.items())),
            "busySeconds": dict(sorted(self.busy.items())),
            "selfSeconds": dict(sorted(self.self_s.items())),
            "counts": dict(sorted(self.extra.items())),
        }


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


# -- counts taken from a call's result or context ----------------------------

def _after_act(tracer: Tracer, result, outermost: bool) -> None:
    if tracer.depth["orbits"]:
        tracer.extra["orbits.acts"] += 1
    if tracer.depth[SEARCH]:
        tracer.extra["games.search_acts"] += 1


def _after_orbits(tracer: Tracer, result, outermost: bool) -> None:
    if outermost:
        tracer.extra["orbits.returned"] += len(result)


def _after_winning(tracer: Tracer, result, outermost: bool) -> None:
    tracer.extra["games.winners"] += bool(result)


def _after_classify(tracer: Tracer, result, outermost: bool) -> None:
    tracer.extra["unitary.hits"] += result is not None


def _after_reports(tracer: Tracer, result, outermost: bool) -> None:
    if outermost and isinstance(result, str):
        tracer.extra["reports.bytes"] += len(result.encode("utf-8"))


_AFTER = {
    "states.act": _after_act,
    "orbits": _after_orbits,
    "games.is_winning_strategy": _after_winning,
    "unitary.classify_winning_first_move": _after_classify,
    "reports": _after_reports,
}
