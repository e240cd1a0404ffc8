"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import outcomes  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import Job  # noqa: E402


@pytest.fixture(scope="module")
def runner():
    return run.Runner()


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_one_seed_gives_one_job_list(name):
    assert workloads.jobs_for(name, 7) == workloads.jobs_for(name, 7)
    assert workloads.jobs_for(name, 7) != workloads.jobs_for(name, 8)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_jobs_are_distinct_and_leave_ten_beyond_p90(name):
    jobs = workloads.jobs_for(name, 3)
    assert len(set(jobs)) == len(jobs) >= 100


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_job_sizes_do_not_depend_on_the_seed(name):
    def size(job):
        d = job.d
        if d["command"] in ("enumerate", "classify"):
            return ("scan", d["turns"], d["n"]) if d["n"] % 4 == 0 else ()
        return (d["command"], d.get("turns"), d.get("pool_n"),
                d.get("samples"))

    def sizes(seed):
        return sorted(size(job) for job in workloads.jobs_for(name, seed))
    assert sizes(1) == sizes(2)


def test_game_jobs_share_no_scan():
    for name in ("enumerate", "decide"):
        games = [(j.d["turns"], j.d.get("n"), j.d.get("pool_n"),
                  j.d["initial"], j.d["target"])
                 for j in workloads.jobs_for(name, 5)]
        assert len(set(games)) == len(games)


def test_sample_windows_are_disjoint():
    windows = sorted((j.d["seed"], j.d["seed"] + j.d["samples"])
                     for j in workloads.jobs_for("u2", 5) if "seed" in j.d)
    assert all(a[1] <= b[0] for a, b in zip(windows, windows[1:]))


def test_integer_model_gives_the_closed_forms():
    for n in range(3, 65):
        assert len(outcomes.orbit(n, 0)) == (n if n % 2 else n // 2)
        for j in range(2 * n):
            assert (len(outcomes.orbit(n, j))
                    * len(outcomes.stabilizer(n, j))) == 2 * n
        if n % 4 == 0:
            fixed = outcomes.fixed_set(n, [(0, False), (n // 4, True)])
            names = [outcomes.state_name(n, j) for j in fixed]
            assert names == (["|+⟩", "|−⟩"] if n % 8 == 0 else [])


def test_integer_model_matches_the_program():
    from pennyflip import orbits
    from pennyflip.states import CoinState
    for n in (5, 6, 8, 12):
        for j in range(2 * n):
            x = CoinState.parse(workloads.angle_arg(Fraction(j, 2 * n)))
            assert [str(s.phi) for s in orbits.orbit(n, x)] == \
                [outcomes.phi_text(n, i) for i in outcomes.orbit(n, j)]
            assert [(g.k, g.reflect) for g in orbits.stabilizer(n, x)] == \
                outcomes.stabilizer(n, j)


def test_table_check_splits_cells_around_kets():
    table = ("| Strategies | Initial state | Round 1 |\n| --- | --- | --- |\n"
             "| (H, H) | |0⟩ | |+⟩ |\n")
    assert outcomes.check_table(table, 1) is None
    assert outcomes.check_table(table.replace(" | |+⟩", ""), 1) is not None


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_first_jobs_pass(runner, name):
    jobs = sorted(workloads.jobs_for(name, 9), key=_cost)[:20]
    results = [runner.run(job) for job in jobs]
    assert run.tally(jobs, results) == (0, True)


def _cost(job):
    d = job.d
    return (d.get("n", 0) if d["command"] != "check_orbit_structure" else 99,
            d.get("pool_n", 0), d.get("samples", 0))


def test_qpqpq_markdown_table_is_the_known_defect(runner):
    job = Job.of(command="enumerate", format="markdown", n=8, turns="QPQPQ",
                 initial="0", target="1")
    failed, expected = run.tally([job], [runner.run(job)])
    assert (failed, expected) == (1, True)
    assert outcomes.known_defect(job.d)


def test_corrupted_result_raises_the_failed_share(runner, monkeypatch):
    from pennyflip import orbits
    jobs = [job for job in workloads.jobs_for("orbits", 4)
            if job.d["command"] == "orbit" and job.d["n"] < 20]
    monkeypatch.setattr(run, "setup_seconds", lambda: 1.0)
    clean = run.end_to_end(runner, jobs, 60)
    assert clean["failed"] == 0 and clean["metrics"]["ok_ratio"][0] == 1.0
    original = orbits.orbit
    monkeypatch.setattr(orbits, "orbit", lambda n, x: original(n, x)[1:])
    broken = run.end_to_end(runner, jobs, 60)
    assert broken["failed"] == len(jobs) and not broken["correct"]
    assert broken["metrics"]["ok_ratio"][0] == 0.0


def test_trace_counts_repeat_and_originals_come_back(runner):
    from pennyflip import games, orbits, states
    before = (states.act, orbits.act, games.act, vars(Fraction)["__new__"])
    jobs = [Job.of(command="check_orbit_structure", n=6),
            *workloads.PROBE]
    seen = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            assert run.tally(jobs, [runner.run(j, tracer) for j in jobs]) \
                == (0, True)
        finally:
            tracer.uninstall()
        metrics = tracer.layer_metrics()
        seen.append({k: v for k, (v, unit) in metrics.items()
                     if unit in ("count", "B")})
        spans = {s[0]: s for s in tracer.spans}
        parents = {spans[s[1]][2] for s in tracer.spans
                   if s[2] == "orbits.orbit" and s[1] is not None}
        assert "verify.check_orbit_structure" in parents
        assert all(v > 0 for v in seen[-1].values())
        assert all(value > 0 for value, _ in metrics.values())
    assert seen[0] == seen[1]
    assert (states.act, orbits.act, games.act,
            vars(Fraction)["__new__"]) == before
