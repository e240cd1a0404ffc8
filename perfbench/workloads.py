"""Seeded job lists for the four workloads.

A job is one call of a public entry point: a ``pennyflip`` CLI command,
given as its argument list, or one ``verify.check_*`` on a one-slice
``Config``.  The generators take the workload seed and use nothing from
the program, so the program sees only the generated arguments.  No job
repeats within a list, and no two game jobs share a game and a group, so
a result cache cannot stand in for the work.

Each list has a fixed make-up of job sizes for every seed; the seed picks
the states, elements, initial/target pairs, output formats, sample
windows and the order.  That keeps the percentiles comparable across
seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from outcomes import PAIRS

N_RANGE = range(3, 65)              # the n range verify-all uses by default
GAME_NS = range(4, 33, 4)
ROUND_GAMES = ("QPQ", "PQP", "QPQP", "PQPQ")
QPQPQ_NS = (8, 12, 16)
POOL_NS = (8, 16, 24, 32)
COMBOS = (("enumerate", "json"), ("enumerate", "markdown"),
          ("classify", "json"), ("classify", "markdown"))


@dataclass(frozen=True)
class Job:
    """A job; ``dims`` holds its dimensions as sorted (name, value) pairs."""

    dims: tuple

    @classmethod
    def of(cls, **dims) -> "Job":
        return cls(tuple(sorted(dims.items())))

    @property
    def d(self) -> dict:
        return dict(self.dims)

    @property
    def is_cli(self) -> bool:
        return not self.d["command"].startswith("check_")

    def argv(self) -> list[str]:
        """The CLI arguments of a CLI job."""
        d = self.d
        command = d["command"]
        if command in ("orbit", "stabilizer"):
            return [command, "--n", str(d["n"]),
                    "--state", angle_arg(Fraction(d["j"], 2 * d["n"]))]
        if command == "fixed-set":
            elems = ",".join(element_arg(d["n"], e) for e in d["elems"])
            return [command, "--n", str(d["n"]), "--elems", elems]
        if command in ("enumerate", "classify"):
            return [command, "--n", str(d["n"]), "--turns", d["turns"],
                    "--initial", d["initial"], "--target-q", d["target"],
                    "--format", d["format"]]
        if command == "analyze":
            return [command, "--turns", d["turns"], "--initial", d["initial"],
                    "--target-q", d["target"], "--check",
                    "--pool-n", str(d["pool_n"])]
        if command == "sample-u2":
            return [command, "--samples", str(d["samples"]),
                    "--seed", str(d["seed"])]
        raise ValueError(f"{command} is not a CLI job")

    def config(self) -> dict:
        """The ``Config`` fields of a verify job."""
        d = self.d
        if "n" in d:
            return {"n_min": d["n"], "n_max": d["n"]}
        if "samples" in d:
            return {"samples": d["samples"], "seed": d["seed"]}
        return {"tolerance": d["tolerance"]}

    def label(self) -> str:
        return " ".join(self.argv()) if self.is_cli else \
            f"{self.d['command']} {self.config()}"


def angle_arg(f: Fraction) -> str:
    """A multiple of pi as the CLI parses it."""
    if f == 0:
        return "0"
    return f"{f.numerator}/{f.denominator}*pi"


def element_arg(n: int, elem) -> str:
    """``r^k`` is ``R_{2k*pi/n}``, ``r^k s`` is ``S_{k*pi/n}``."""
    if isinstance(elem, str):
        return elem
    k, reflect = elem
    if reflect:
        return "S_{" + angle_arg(Fraction(k, n)) + "}"
    return "R_{" + angle_arg(Fraction(2 * k, n)) + "}"


def orbits_jobs(rng: random.Random) -> list[Job]:
    """Orbit checks over n = 3..64 and the orbit CLI commands.

    ``check_orbit_structure`` costs about n^2, and 3x that at odd n, and
    takes most of the time.  It runs at every n up to 32 and, above, at
    one n of each pair {n, n + 2}, chosen by the seed.  The two cheap
    checks and the three commands run at every n, ``orbit`` and
    ``stabilizer`` on two states each, so that p90 falls among many jobs
    of like size rather than on a few orbit checks.  The seed picks the
    states and elements; the element count and the ``I,F`` jobs (the
    8 | n dichotomy, exit 3 when 4 ∤ n) are fixed, and so are the sizes.
    """
    jobs = []
    for n in N_RANGE:
        for check in ("check_fixed_set_dichotomy",
                      "check_probability_identities"):
            jobs.append(Job.of(command=check, n=n))
        if n <= 32:
            jobs.append(Job.of(command="check_orbit_structure", n=n))
        elif (n - 33) // 2 % 2 == 0:
            pair = [m for m in (n, n + 2) if m in N_RANGE]
            jobs.append(Job.of(command="check_orbit_structure",
                               n=rng.choice(pair)))
        for command in ("orbit", "stabilizer"):
            jobs += [Job.of(command=command, n=n, j=j)
                     for j in rng.sample(range(2 * n), 2)]
        group = [(k, r) for r in (False, True) for k in range(n)]
        elems = ("I", "F") if n % 3 == 0 else tuple(rng.sample(group, n % 3))
        jobs.append(Job.of(command="fixed-set", n=n, elems=elems))
    rng.shuffle(jobs)
    return jobs


def enumerate_jobs(rng: random.Random) -> list[Job]:
    """Exhaustive scans of three- and four-round games with 4 | n <= 32,
    QPQPQ at n = 8, 12, 16, and a few n with 4 ∤ n, which exit 3.

    Every game/group cell gets distinct initial/target pairs, each with
    its own command and format.  Cells up to n = 16, and the cheap PQP
    cells, take all four pairs; larger cells and QPQPQ at 12 and 16 take
    one, to fit the run.
    """
    cells = [(t, n, 4 if n <= 16 or t == "PQP" else 1)
             for t in ROUND_GAMES for n in GAME_NS]
    cells += [("QPQPQ", n, 4 if n == 8 else 1) for n in QPQPQ_NS]
    jobs = []
    for turns, n, width in cells:
        pairs = rng.sample(PAIRS, width)
        combos = rng.sample(COMBOS, width)
        for (initial, target), (command, fmt) in zip(pairs, combos):
            jobs.append(Job.of(command=command, format=fmt, n=n, turns=turns,
                               initial=initial, target=target))
    odd_ns = [n for n in range(3, 33) if n % 4]
    for n in rng.sample(odd_ns, 16):
        command, fmt = rng.choice(COMBOS)
        initial, target = rng.choice(PAIRS)
        jobs.append(Job.of(command=command, format=fmt, n=n,
                           turns=rng.choice(ROUND_GAMES + ("QPQPQ",)),
                           initial=initial, target=target))
    rng.shuffle(jobs)
    return jobs


def decide_jobs(rng: random.Random) -> list[Job]:
    """``analyze --check`` on every alternating game of 2 to 9 rounds and
    every initial/target pair, at pool n = 8 and 16; at 24 and 32 each
    game takes two pairs, split between the two by the seed."""
    jobs = []
    for length in range(2, 10):
        for first, second in (("P", "Q"), ("Q", "P")):
            turns = "".join((first, second)[i % 2] for i in range(length))
            pairs = rng.sample(PAIRS, 4)
            split = {8: pairs, 16: pairs, 24: pairs[:2], 32: pairs[2:]}
            for pool_n in POOL_NS:
                for initial, target in split[pool_n]:
                    jobs.append(Job.of(command="analyze", turns=turns,
                                       initial=initial, target=target,
                                       pool_n=pool_n))
    rng.shuffle(jobs)
    return jobs


def u2_jobs(rng: random.Random) -> list[Job]:
    """``sample-u2`` and ``check_u2_sampling`` on disjoint sample windows
    from a seed-chosen base, and ``check_phase_families`` at seed-chosen
    tolerances."""
    sizes = ([("sample-u2", s) for s in (1000, 2000, 3000, 4000)] * 15
             + [("check_u2_sampling", s) for s in (250, 500, 1000)] * 10)
    rng.shuffle(sizes)
    start = rng.randrange(10**9)
    jobs = []
    for command, samples in sizes:
        jobs.append(Job.of(command=command, samples=samples, seed=start))
        start += samples
    tolerances = [10 ** rng.uniform(-10, -8) for _ in range(30)]
    jobs += [Job.of(command="check_phase_families", tolerance=t)
             for t in tolerances]
    rng.shuffle(jobs)
    return jobs


WORKLOADS = {
    "orbits": orbits_jobs,
    "enumerate": enumerate_jobs,
    "decide": decide_jobs,
    "u2": u2_jobs,
}


def jobs_for(workload: str, seed: int) -> list[Job]:
    return WORKLOADS[workload](random.Random(seed))


#: Run in every traced run after the workload's jobs, so that each layer
#: metric has a value on every workload.  The same on every workload.
PROBE = (
    Job.of(command="orbit", n=8, j=0),
    Job.of(command="enumerate", format="markdown", n=8, turns="QPQ",
           initial="0", target="0"),
    Job.of(command="analyze", turns="QPQ", initial="0", target="1",
           pool_n=8),
    Job.of(command="sample-u2", samples=20, seed=0),
    Job.of(command="check_phase_families", tolerance=1e-9),
    Job.of(command="check_probability_identities", n=8),
)
