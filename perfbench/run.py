"""The pennyflip benchmark.

    python3 perfbench/run.py --workload orbits --seed 1 --seconds 30 --trace 0

Runs one workload's seeded jobs in this process and thread, one after
another (a closed loop with one client), and checks every result.  With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it runs
half of the jobs traced, each followed by the same job untraced, and
prints the per-layer metrics.  ``--workload all`` runs the four
workloads, each in its own process.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  See README.md.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"      # pin BLAS to one thread before numpy loads

import argparse
import contextlib
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

import outcomes
import workloads
from speed import SpeedClock
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPS = 7
#: ``python -I -S -c pass`` on an idle core of a 2-core Xeon VM.
BARE_START_S = 0.015


def import_program():
    """Import pennyflip from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "pennyflip" / "__init__.py").is_file():
        sys.exit(f"error: no pennyflip sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import click
    import pennyflip.cli
    import pennyflip.config
    import pennyflip.verify
    if Path(pennyflip.__file__).resolve().parent != SRC / "pennyflip":
        sys.exit(f"error: imported pennyflip from {pennyflip.__file__}")
    return click, pennyflip


# -- jobs --------------------------------------------------------------------

class Runner:
    """Runs jobs against the program imported from ``src/``."""

    def __init__(self) -> None:
        self.click, self.pennyflip = import_program()

    def run(self, job, tracer=None):
        """The job's result: ``(exit code, stdout)`` for a CLI job,
        ``(ok, details)`` for a verify job, or the exception it raised."""
        try:
            if job.is_cli:
                return self._cli(job.argv(), tracer)
            check = getattr(self.pennyflip.verify, job.d["command"])
            return check(self.pennyflip.config.Config(**job.config()))
        except Exception as exc:        # a traceback a user would see
            return exc

    def _cli(self, argv: list[str], tracer) -> tuple[int, str]:
        main = self.pennyflip.cli.main
        if tracer is not None:
            main = tracer.wrap("cli", "cli.main", main, True)
        out = io.StringIO()
        code = 0
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                main(argv, standalone_mode=False)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except (self.click.exceptions.Exit,
                    self.click.ClickException) as exc:
                code = exc.exit_code
        return code, out.getvalue()


def failure(job, result) -> str | None:
    """Why the job's result is wrong, or None."""
    if isinstance(result, Exception):
        return f"raised {type(result).__name__}: {result}"
    if job.is_cli:
        return outcomes.check_cli(job.d, *result)
    return outcomes.check_verify(job.d, *result)


def tally(jobs, results) -> tuple[int, bool]:
    """Failed job count, and whether every failure is a recorded defect.
    Each failure is described on stderr."""
    failed, expected = 0, True
    for job, result in zip(jobs, results):
        reason = failure(job, result)
        if reason is None:
            continue
        failed += 1
        defect = outcomes.known_defect(job.d)
        expected = expected and defect is not None
        note = f" (known defect: {defect})" if defect else ""
        print(f"failed: {job.label()}: {reason}{note}", file=sys.stderr)
    return failed, expected


# -- measurements ------------------------------------------------------------

def setup_seconds() -> float:
    """Median time of a fresh interpreter running ``--help``.

    Interpreter starts slow down with the host's load in a way the speed
    kernel does not follow, so each start is scaled by ``BARE_START_S``
    over the mean of a bare start (``python -I -S -c pass``, which runs
    nothing of the program) just before and after it.  One untimed start
    first byte-compiles the sources."""
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def start(*args: str) -> float:
        begin = perf_counter()
        proc = subprocess.run([sys.executable, *args], env=env, cwd=ROOT,
                              capture_output=True, timeout=60)
        if proc.returncode != 0 or (args[0] == "-m"
                                    and b"Usage:" not in proc.stdout):
            sys.exit(f"error: `python {' '.join(args)}` failed")
        return perf_counter() - begin

    help_args = ("-m", "pennyflip.cli", "--help")
    start(*help_args)
    before = start("-I", "-S", "-c", "pass")
    times = []
    for _ in range(SETUP_REPS):
        wall = start(*help_args)
        after = start("-I", "-S", "-c", "pass")
        times.append(wall * 2 * BARE_START_S / (before + after))
        before = after
    return statistics.median(times)


def end_to_end(runner: Runner, jobs, seconds: float) -> dict:
    """Run the jobs until done or out of time, timing each one in wall and
    in reference seconds (see ``speed.py``)."""
    setup = setup_seconds()
    spans, results = [], []
    with SpeedClock() as clock:
        deadline = perf_counter() + seconds
        for job in jobs:
            if perf_counter() >= deadline:
                break
            start = perf_counter()
            results.append(runner.run(job))
            spans.append((start, perf_counter()))
    walls, ref = zip(*(clock.times(*span) for span in spans))
    done = jobs[:len(results)]
    failed, expected = tally(done, results)
    print(f"jobs: {len(done)} of {len(jobs)}, {sum(walls):.3f} s wall, "
          f"{sum(ref):.3f} reference s, p50 {statistics.median(walls):.5f} s "
          f"wall", file=sys.stderr)
    metrics = {
        "jobs_per_s": (len(done) / sum(ref), "1/ref-s"),
        "job_s.p50": (statistics.median(ref), "ref-s"),
        "job_s.p90": (statistics.quantiles(ref, n=10,
                                           method="inclusive")[8], "ref-s"),
        "ok_ratio": (1 - failed / len(done), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
        "setup_s": (setup, "s"),
    }
    return {"correct": expected, "attempted": len(done), "failed": failed,
            "metrics": metrics}


def traced(runner: Runner, jobs, workload: str, seed: int) -> dict:
    """Every other job and the probe, each run traced and then untraced."""
    tracer = Tracer()
    chosen = jobs[::2] + list(workloads.PROBE)
    results, traced_s, plain_s = [], 0.0, 0.0
    for job in chosen:
        tracer.install()
        try:
            t0 = perf_counter()
            results.append(runner.run(job, tracer))
            traced_s += perf_counter() - t0
        finally:
            tracer.uninstall()
        t0 = perf_counter()
        runner.run(job)
        plain_s += perf_counter() - t0
    failed, expected = tally(chosen, results)
    metrics = tracer.layer_metrics()
    attributed = sum(tracer.self_s.values())
    metrics["trace.overhead_ratio"] = (traced_s / plain_s, "ratio")
    metrics["trace.unattributed_s"] = (traced_s - attributed, "s")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload}-{seed}.json"
    path.write_text(json.dumps(
        {"workload": workload, "seed": seed, "environment": environment(),
         "jobs": [job.label() for job in chosen], **tracer.record()}))
    print(f"trace: {len(tracer.spans)} spans in {path}", file=sys.stderr)
    return {"correct": expected, "attempted": len(chosen), "failed": failed,
            "metrics": metrics}


# -- environment -------------------------------------------------------------

def environment() -> dict:
    import numpy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "click": metadata.version("click"),
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of this checkout, read from ``.git`` without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# -- output ------------------------------------------------------------------

def emit(result: dict) -> None:
    """Metric lines, then the result object as the last line."""
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in result["metrics"].items()}
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(json.dumps(dict(result, metrics=metrics)))


def run_all(args) -> int:
    """Each workload in its own process; metrics prefixed with its name."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = (m["value"], m["unit"])
    emit(total)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    runner = Runner()
    print(json.dumps({"environment": environment()}))
    jobs = workloads.jobs_for(args.workload, args.seed)
    if args.trace:
        result = traced(runner, jobs, args.workload, args.seed)
    else:
        result = end_to_end(runner, jobs, args.seconds)
    emit(result)
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Sets of enum-keyed values iterate in hash order, and the number
        # of comparisons a sort makes depends on it; fix it so that the
        # per-layer counts repeat.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
