import ast
import contextlib
import hashlib
import io
import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from pennyflip import cli, games, orbits, reports, unitary
from pennyflip.angles import Angle
from pennyflip.cli import main
from pennyflip.dihedral import HADAMARD
from pennyflip.states import CoinState

from cli_goldens import (Runner, game_cli_digest, game_listing, invoke,
                         listing_golden, markdown_cli_lines, orbit_cli_digest,
                         stabilizer_cli_digest)
from test_reachability import COMMANDS, CONFIG
from test_reports import names_markdown


@pytest.fixture
def runner():
    return Runner()


class TestOrbitCommands:
    def test_orbit_markdown(self, runner):
        result = invoke(runner, "orbit", "--n", "8", "--format", "markdown")
        assert result.exit_code == 0
        assert result.output.strip() == "{|0⟩, |+⟩, |1⟩, |−⟩}"

    def test_orbit_json(self, runner):
        result = invoke(runner, "orbit", "--n", "4")
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert [row["name"] for row in payload] == ["|0⟩", "|1⟩"]

    def test_stabilizer_markdown(self, runner):
        result = invoke(runner, "stabilizer", "--n", "8", "--state", "+",
                        "--format", "markdown")
        assert result.exit_code == 0
        assert result.output.strip() == "{I, R_π, F, S_{6π/8}}"

    def test_fixed_set(self, runner):
        result = invoke(runner, "fixed-set", "--n", "8", "--elems", "I,F",
                        "--format", "markdown")
        assert result.exit_code == 0
        assert result.output.strip() == "{|+⟩, |−⟩}"

    def test_fixed_set_flip_absent_is_domain_error(self, runner):
        result = invoke(runner, "fixed-set", "--n", "7", "--elems", "I,F")
        assert result.exit_code == 3
        assert "D_7" in result.output


def orbit_oracle(n, state):
    """``orbit``'s stdout by format, rendered the slow way: each state
    built by ``CoinState.of`` (Fraction's constructor), each row by
    ``str``."""
    x = CoinState.parse(state)
    size = math.lcm(2 * n, x.phi.denominator)
    states = [CoinState.of(i, size)
              for i in sorted(orbits.index_orbit(n, x.index(size), size))]
    rows = [{"phi": str(s.phi), "name": str(s)} for s in states]
    return {"json": reports.dump_json(rows) + "\n",
            "markdown": names_markdown(rows)}


def test_orbit_matches_the_slow_rendering(runner):
    # j*pi/(4n) for j <= 8 meets every orbit on its grid (d divides 8);
    # on the grids of j*pi/(2n+1), Z_2n(2n+1), most indices reduce
    for n in range(3, 65):
        states = [f"{j}/{m}*pi" for m in (4 * n, 2 * n + 1) for j in range(9)]
        for state in states:
            for fmt, stdout in orbit_oracle(n, state).items():
                result = invoke(runner, "orbit", "--n", str(n), "--state",
                                state, "--format", fmt)
                assert (result.exit_code, result.stdout) == (0, stdout), (
                    n, state, fmt)


@pytest.mark.parametrize("argv", [
    ("orbit", "--n", "12", "--state", "1/5*pi"),
    ("fixed-set", "--n", "8", "--elems", "I,F"),
    ("stabilizer", "--n", "8", "--state", "+")])
def test_a_row_set_prints_what_its_orbits_function_returns(
        runner, monkeypatch, argv):
    # an item dropped by orbits.orbit, .fixed_set or .stabilizer drops its
    # row, so a corrupted result shows in the output and is not rebuilt
    clean = invoke(runner, *argv)
    name = argv[0].replace("-", "_")
    original = getattr(orbits, name)
    monkeypatch.setattr(orbits, name, lambda n, x: original(n, x)[1:])
    broken = invoke(runner, *argv)
    assert clean.exit_code == broken.exit_code == 0
    rows = json.loads(clean.stdout)
    assert len(rows) >= 2 and json.loads(broken.stdout) == rows[1:]


def angles_built(monkeypatch, run) -> int:
    """How many times *run* calls ``Angle.__new__``, which normalises
    through Fraction's constructor."""
    built = []
    new = Angle.__new__

    def counting(cls, *args):
        built.append(args)
        return new(cls, *args)

    with monkeypatch.context() as patch:
        patch.setattr(Angle, "__new__", staticmethod(counting))
        run()
    return len(built)


def test_orbit_runs_no_fraction_constructor_per_state(runner, monkeypatch):
    # the orbit of 5*pi/59 has 59 states in D_59 and D_118, 295 in D_590;
    # each is built by CoinState.at, which skips Angle.__new__
    counts = {n: angles_built(monkeypatch, lambda: invoke(
        runner, "orbit", "--n", str(n), "--state", "5/59*pi"))
        for n in (59, 118, 590)}
    assert counts[59] == counts[118] == counts[590] <= 2, counts


def test_orbit_commands_match_golden(runner):
    # stdout and exit codes of the orbit commands, pinned byte for byte
    spec = json.loads((Path(__file__).parent / "golden"
                       / "orbit_cli.json").read_text())
    assert orbit_cli_digest(runner, spec) == spec["sha256"]


def test_stabilizer_beyond_orbit_golden_matches(runner):
    # stabilizers past the orbit golden's n <= 64, up to N_MAX, and on a
    # grid Z_N with N past 2**63
    spec = json.loads((Path(__file__).parent / "golden"
                       / "stabilizer_large_n.json").read_text())
    assert stabilizer_cli_digest(runner, spec) == spec["sha256"]


def test_game_commands_match_golden(runner):
    # stdout, stderr and exit codes of the game commands, pinned byte for byte
    spec = json.loads((Path(__file__).parent / "golden"
                       / "game_cli.json").read_text())
    assert game_cli_digest(runner, spec) == spec["sha256"]


def markdown_cli_digest(runner, spec):
    """sha256 over every run of :func:`markdown_cli_lines` and every
    ``verify-all --format markdown`` run that *spec* names: per run, its
    argv and exit code, then its stdout and its stderr."""
    digest = hashlib.sha256()
    runs = markdown_cli_lines(spec) + [
        ("verify-all", *args, "--format", "markdown")
        for args in spec["verifyAll"]]
    for argv in runs:
        result = invoke(runner, *argv)
        digest.update(f"{' '.join(argv)} -> {result.exit_code}\n".encode())
        digest.update(result.stdout_bytes)
        digest.update(b"\0")
        digest.update(result.stderr_bytes)
    return digest.hexdigest()


def test_markdown_commands_match_golden(runner):
    # Markdown of analyze and verify-all, and classify JSON, byte for byte
    spec = json.loads((Path(__file__).parent / "golden"
                       / "markdown_cli.json").read_text())
    assert markdown_cli_digest(runner, spec) == spec["sha256"]


def test_no_command_runs_the_pure_python_json_encoder(runner, monkeypatch):
    # json.dumps(..., indent=2) runs the standard library's pure-Python
    # encoder; reports.dump_json writes the same bytes without it.  The
    # exact commands must print their goldens; sample-u2 and verify-all,
    # whose floats vary with the BLAS kernel, what json.dumps prints for
    # the same payload
    def banned(*args, **kwargs):
        raise AssertionError("the pure-Python JSON encoder ran")

    golden = Path(__file__).parent / "golden"
    monkeypatch.delenv("PENNYFLIP_CONFIG", raising=False)
    with monkeypatch.context() as patch:
        patch.setattr(json.encoder, "_make_iterencode", banned)
        patch.setattr(json.JSONEncoder, "iterencode", banned)
        for name, digest in (("orbit_cli.json", orbit_cli_digest),
                             ("game_cli.json", game_cli_digest)):
            spec = json.loads((golden / name).read_text())
            assert digest(runner, spec) == spec["sha256"], name
        for command in ("enumerate", "classify"):
            result = invoke(runner, *game_listing(command, "json", "0"))
            assert result.stdout_bytes == listing_golden(command, "json", "0")
        floats = [invoke(runner, "sample-u2", "--samples", "1000"),
                  invoke(runner, "verify-all")]
    for result in floats:
        assert result.exit_code == 0
        assert result.stdout == json.dumps(
            json.loads(result.stdout), ensure_ascii=False, indent=2,
            sort_keys=True) + "\n"


#: The Markdown renderer of each command's JSON payload.
RENDERERS = {"orbit": names_markdown,
             "stabilizer": names_markdown,
             "fixed-set": names_markdown,
             "classify": reports.classes_markdown,
             "analyze": reports.decision_markdown,
             "verify-all": reports.checks_markdown}


def rendered_runs():
    for n in ("6", "8", "12"):
        for state in ("0", "+", "1/5*pi"):
            yield "orbit", "--n", n, "--state", state
            yield "stabilizer", "--n", n, "--state", state
        yield "fixed-set", "--n", n, "--elems", "S_0,R_π"
        yield "fixed-set", "--n", n, "--elems", "S_0"
    # the brute-force pool needs H, so 8 | n
    for n, pool_n in (("8", "8"), ("12", "16")):
        for turns in ("QPQ", "PQP", "QPQPQ"):
            yield "classify", "--n", n, "--turns", turns
            yield "analyze", "--turns", turns, "--check", "--pool-n", pool_n
    yield "verify-all", *TestVerifyAll.ARGS[1:]


def test_markdown_renders_the_json_payload(runner):
    # --format markdown is the command's renderer applied to its JSON stdout
    for argv in rendered_runs():
        as_json = invoke(runner, *argv, "--format", "json")
        as_markdown = invoke(runner, *argv, "--format", "markdown")
        assert as_json.exit_code == as_markdown.exit_code == 0, argv
        payload = json.loads(as_json.stdout)
        assert (RENDERERS[argv[0]](payload).encode()
                == as_markdown.stdout_bytes), argv


def test_every_markdown_output_ends_in_one_newline(runner):
    # an empty listing prints nothing; every other output ends its last line
    enumerate_runs = [("enumerate", "--n", "8", "--turns", turns)
                      for turns in ("QPQ", "QPQPQ")]
    for argv in (*rendered_runs(), *enumerate_runs):
        out = invoke(runner, *argv, "--format", "markdown").stdout
        assert out == "" or (out.endswith("\n")
                             and not out.endswith("\n\n")), argv


class TestGameCommands:
    def test_enumerate_json(self, runner):
        result = invoke(runner, "enumerate", "--n", "8")
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["strategyCount"] == 32
        assert [c["size"] for c in payload["classes"]] == [16, 16]

    def test_enumerate_without_flip_names_it(self, runner):
        result = invoke(runner, "enumerate", "--n", "6")
        assert result.exit_code == 3
        assert result.stdout == ""
        assert result.stderr == "error: F ∉ D_6\n"

    def test_enumerate_d4_is_empty(self, runner):
        result = invoke(runner, "enumerate", "--n", "4")
        assert result.exit_code == 0
        assert json.loads(result.output)["strategyCount"] == 0

    def test_classify_markdown(self, runner):
        result = invoke(runner, "classify", "--n", "8",
                        "--format", "markdown")
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0].startswith("(|0⟩, |+⟩, |0⟩): 16 strategies")
        assert lines[1].startswith("(|0⟩, |−⟩, |0⟩): 16 strategies")

    @pytest.mark.parametrize("command", ["enumerate", "classify"])
    @pytest.mark.parametrize("fmt", ["json", "markdown"])
    @pytest.mark.parametrize("target", ["0", "1"])
    def test_listing_matches_golden(self, runner, command, fmt, target):
        result = invoke(runner, *game_listing(command, fmt, target))
        assert result.exit_code == 0
        assert result.stdout_bytes == listing_golden(command, fmt, target)

    def test_listings_without_members_build_one_strategy_per_class(
            self, runner, monkeypatch):
        built = []
        real = games.Strategy

        def counting(*args):
            built.append(args)
            return real(*args)
        monkeypatch.setattr(games, "Strategy", counting)
        largest = ("--n", "1024", "--turns", "QPQPQPQPQPQ")
        for command, fmt in (("enumerate", "json"), ("classify", "json"),
                             ("classify", "markdown"),
                             ("enumerate", "markdown")):
            runs = [(game_listing(command, fmt, target),
                     listing_golden(command, fmt, target))
                    for target in ("0", "1")]
            runs.append(((command, *largest, "--format", fmt), None))
            for args, golden in runs:
                built.clear()
                result = invoke(runner, *args)
                assert result.exit_code == 0
                assert golden is None or result.stdout_bytes == golden
                # the Markdown table names members from the cosets, and
                # below its two header lines has one row per class
                table = fmt == "markdown" and command == "enumerate"
                if fmt == "markdown":
                    rows = result.output.splitlines()
                    classes = len(rows[2:] if table else rows)
                else:
                    payload = json.loads(result.output)
                    classes = len(payload["classes"] if command == "enumerate"
                                  else payload)
                assert classes > 0, args
                assert len(built) == (0 if table else classes), args
                if golden is None:
                    assert classes == 32

    def test_largest_listing_the_round_bound_admits(self, runner):
        turns = ("--turns", "QPQPQPQPQPQ")
        large = invoke(runner, "enumerate", "--n", "1024", *turns)
        small = invoke(runner, "enumerate", "--n", "8", *turns)
        assert large.exit_code == small.exit_code == 0
        assert large.stdout_bytes == small.stdout_bytes
        payload = json.loads(large.output)
        assert payload["strategyCount"] == 131072 == 2 ** (3 * 6 - 1)
        assert [c["size"] for c in payload["classes"]] == [4096] * 32

    def test_analyze_markdown(self, runner):
        result = invoke(runner, "analyze", "--turns", "QPQ",
                        "--format", "markdown")
        assert result.exit_code == 0
        assert result.output.strip() == "QPQ: Q wins with (H, H)"

    def test_analyze_picard_cannot_win(self, runner):
        result = invoke(runner, "analyze", "--turns", "PQP",
                        "--format", "markdown")
        assert result.exit_code == 0
        assert "no winning strategy for either player" in result.output

    def test_last_check_flag_wins(self, runner):
        game = ("analyze", "--turns", "QPQP")
        checked = invoke(runner, *game, "--no-check", "--check")
        unchecked = invoke(runner, *game, "--check", "--no-check")
        assert checked.exit_code == unchecked.exit_code == 0
        assert json.loads(checked.output)["bruteForceAgrees"] is True
        assert "bruteForceAgrees" not in json.loads(unchecked.output)

    def test_analyze_with_brute_force_check(self, runner):
        result = invoke(runner, "analyze", "--turns", "QPQP", "--check")
        assert result.exit_code == 0
        assert json.loads(result.output)["bruteForceAgrees"] is True

    def test_analyze_checks_up_to_the_round_bound(self, runner):
        result = invoke(runner, "analyze", "--turns", "QPQPQPQPQPQ",
                        "--check", "--pool-n", "1024")
        assert result.exit_code == 0
        assert json.loads(result.output)["bruteForceAgrees"] is True

    # the round bound is on listings only; a decision runs at any length
    @pytest.mark.parametrize("turns, pool_n", [
        pytest.param("QP" * 6 + "Q", "8", id="analyze-13-rounds-check"),
        pytest.param("QP" * 600 + "Q", "1024", id="analyze-1201-rounds-check"),
    ])
    def test_analyze_checks_past_the_round_bound(self, runner, turns, pool_n):
        result = invoke(runner, "analyze", "--turns", turns, "--check",
                        "--pool-n", pool_n)
        assert result.exit_code == 0
        assert json.loads(result.output)["bruteForceAgrees"] is True


def sample_u2_digest(runner, spec):
    """sha256 over every ``sample-u2`` run that *spec* names: per run, its
    argv and exit code, then its stdout."""
    digest = hashlib.sha256()
    for seed in spec["seeds"]:
        for samples in spec["samples"]:
            argv = ["sample-u2", "--samples", str(samples), "--seed", str(seed)]
            result = invoke(runner, *argv)
            digest.update(f"{' '.join(argv)} -> {result.exit_code}\n".encode())
            digest.update(result.stdout_bytes)
    return digest.hexdigest()


class TestSampleU2:
    def test_matches_golden(self, runner):
        # stdout pinned byte for byte; seed 872001724 holds a Haar sample
        # near |+> (row 3557) that counts as a hit at the default tolerance
        spec = json.loads((Path(__file__).parent / "golden"
                           / "sample_u2_cli.json").read_text())
        assert sample_u2_digest(runner, spec) == spec["sha256"]

    def test_small_run(self, runner):
        result = invoke(runner, "sample-u2", "--samples", "50", "--seed", "1")
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["samples"] == 50
        assert payload["hits"] == 0
        assert payload["maxResidual"] <= 1e-9

    def test_deterministic(self, runner):
        a = invoke(runner, "sample-u2", "--samples", "20").output
        b = invoke(runner, "sample-u2", "--samples", "20").output
        assert a == b

    def test_counts_a_winning_first_move(self, runner, monkeypatch):
        hadamard = unitary.matrix(HADAMARD)
        real = unitary.screen
        calls = []

        def spy(*args, **kwargs):
            calls.append(kwargs)
            return real(*args, **kwargs)
        monkeypatch.setattr(unitary, "draw", lambda rng, count:
                            np.broadcast_to(hadamard, (count, 2, 2)))
        monkeypatch.setattr(unitary, "screen", spy)
        result = invoke(runner, "sample-u2", "--samples", "50")
        assert result.exit_code == 0
        assert json.loads(result.output)["hits"] == 50
        assert calls == [{"states": False}]     # sample-u2 skips the flip test


class TestVerifyAll:
    ARGS = ("verify-all", "--n-range", "3..16", "--max-rounds", "4",
            "--samples", "200")

    def test_missing_config_file_is_usage_error(self, runner, tmp_path):
        result = invoke(runner, "verify-all", "--config",
                        str(tmp_path / "absent.cfg"))
        assert result.exit_code == 2
        assert "absent.cfg" in result.stderr

    def test_reduced_run_passes(self, runner):
        result = invoke(runner, *self.ARGS)
        assert result.exit_code == 0
        statuses = {r["status"] for r in json.loads(result.output)}
        assert statuses == {"pass"}

    def test_markdown_listing(self, runner):
        result = invoke(runner, *self.ARGS, "--format", "markdown")
        assert result.exit_code == 0
        assert result.output.count("[pass]") == 12

    def test_samples_zero_skips_sampling_check(self, runner):
        result = invoke(runner, "verify-all", "--n-range", "3..8",
                        "--max-rounds", "3", "--samples", "0")
        assert result.exit_code == 0
        by_id = {r["checkId"]: r for r in json.loads(result.output)}
        assert by_id["u2-sampling"]["status"] == "skipped"

    def test_default_run_matches_golden(self, runner, monkeypatch):
        # the default stdout, pinned byte for byte
        monkeypatch.delenv("PENNYFLIP_CONFIG", raising=False)
        result = invoke(runner, "verify-all")
        assert result.exit_code == 0
        golden = Path(__file__).parent / "golden" / "verify_all.json"
        assert result.stdout_bytes == golden.read_bytes()

    def test_byte_identical_reruns(self, runner):
        a = invoke(runner, *self.ARGS).output
        b = invoke(runner, *self.ARGS).output
        assert a == b

    def test_config_file_with_flag_override(self, runner, tmp_path):
        cfg = tmp_path / "verify.cfg"
        cfg.write_text("n_range=3..8\nmax_rounds=3\nsamples=100\n")
        result = invoke(runner, "verify-all", "--config", str(cfg),
                        "--samples", "0")
        assert result.exit_code == 0
        by_id = {r["checkId"]: r for r in json.loads(result.output)}
        # the flag wins over the file's samples=100
        assert by_id["u2-sampling"]["status"] == "skipped"

    def test_unknown_config_key_is_usage_error(self, runner, tmp_path):
        cfg = tmp_path / "verify.cfg"
        cfg.write_text("output_format=json\n")
        result = invoke(runner, "verify-all", "--config", str(cfg))
        assert result.exit_code == 2
        assert "unknown key" in result.output

    @pytest.mark.parametrize("line", ["samples=abc", "tolerance=x",
                                      "n_range=abc"])
    def test_bad_config_value_names_its_line(self, runner, tmp_path, line):
        cfg = tmp_path / "verify.cfg"
        cfg.write_text(f"seed=1\n{line}\n")
        result = invoke(runner, "verify-all", "--config", str(cfg))
        assert result.exit_code == 2
        assert f"{cfg}:2: " in result.output
        assert "Traceback" not in result.output

    def test_env_config_accepts_dashed_keys(self, runner, tmp_path,
                                            monkeypatch):
        cfg = tmp_path / "verify.cfg"
        cfg.write_text("n-range=3..8\nmax-rounds=3\nsamples=0\n")
        monkeypatch.setenv("PENNYFLIP_CONFIG", str(cfg))
        result = invoke(runner, "verify-all")
        assert result.exit_code == 0
        by_id = {r["checkId"]: r for r in json.loads(result.output)}
        assert by_id["u2-sampling"]["status"] == "skipped"

    def test_missing_env_config_is_usage_error(self, runner, tmp_path,
                                               monkeypatch):
        monkeypatch.setenv("PENNYFLIP_CONFIG", str(tmp_path / "absent.cfg"))
        result = invoke(runner, "verify-all")
        assert result.exit_code == 2
        assert "cannot read config file" in result.output

    def test_timings_flag_fills_elapsed(self, runner):
        result = invoke(runner, "verify-all", "--n-range", "3..8",
                        "--max-rounds", "3", "--samples", "0", "--timings")
        assert result.exit_code == 0
        rows = json.loads(result.output)
        assert any(r["elapsedMs"] > 0 for r in rows)

    def test_last_timings_flag_wins(self, runner):
        args = ("verify-all", "--n-range", "3..8", "--max-rounds", "3",
                "--samples", "0", "--timings", "--no-timings")
        result = invoke(runner, *args)
        assert result.exit_code == 0
        assert all(r["elapsedMs"] == 0 for r in json.loads(result.output))


NAN_CFG = "<config file with tolerance=nan>"
INF_CFG = "<config file with tolerance=inf>"
TINY_CFG = "<config file with tolerance=1e-16>"
CONFIG_FILES = {NAN_CFG: "tolerance=nan\n", INF_CFG: "tolerance=inf\n",
                TINY_CFG: "tolerance=1e-16\n"}


# Every invalid input exits with its contract code and no traceback:
# 2 for usage errors, 3 for domain errors.
INVALID_INPUTS = [
    pytest.param(["enumerate", "--n", "7"], 3, id="enumerate-odd-n"),
    pytest.param(["analyze", "--turns", "QQQ"], 2, id="analyze-bad-turns"),
    pytest.param(["orbit", "--n", "8", "--state", "1/0pi"], 2,
                 id="orbit-zero-denominator"),
    pytest.param(["fixed-set", "--n", "8", "--elems", "R_{1/0pi}"], 2,
                 id="fixed-set-zero-denominator"),
    pytest.param(["fixed-set", "--n", "8", "--elems", "R_{1/4·π"], 2,
                 id="fixed-set-unbalanced-brace"),
    pytest.param(["orbit", "--n", "12", "--state",
                  "cos(1/6·π)|0⟩+sin(1/3·π)|1⟩"], 2,
                 id="orbit-state-angles-differ"),
    pytest.param(["enumerate", "--n", "0"], 2, id="enumerate-n-0"),
    pytest.param(["enumerate", "--n", "-4"], 2, id="enumerate-n-negative"),
    pytest.param(["enumerate", "--n", "2"], 2, id="enumerate-n-2"),
    pytest.param(["classify", "--n", "0"], 2, id="classify-n-0"),
    # listings stop at 12 rounds; 1201 rounds once overflowed the recursion
    pytest.param(["enumerate", "--n", "8", "--turns", "QP" * 6 + "Q"], 3,
                 id="enumerate-13-rounds"),
    pytest.param(["classify", "--n", "8", "--turns", "QP" * 6 + "Q"], 3,
                 id="classify-13-rounds"),
    pytest.param(["enumerate", "--n", "8", "--turns", "QP" * 600 + "Q"], 3,
                 id="enumerate-1201-rounds"),
    pytest.param(["classify", "--n", "8", "--turns", "QP" * 600 + "Q"], 3,
                 id="classify-1201-rounds"),
    pytest.param(["stabilizer", "--n", "0"], 2, id="stabilizer-n-0"),
    pytest.param(["fixed-set", "--n", "0"], 2, id="fixed-set-n-0"),
    pytest.param(["orbit", "--n", "1025"], 2, id="orbit-n-above-max"),
    pytest.param(["analyze", "--turns", "QPQ", "--check", "--pool-n", "0"], 2,
                 id="analyze-pool-n-0"),
    pytest.param(["sample-u2", "--samples", "-1"], 2,
                 id="sample-u2-negative-samples"),
    pytest.param(["sample-u2", "--seed", "-1"], 2, id="sample-u2-negative-seed"),
    pytest.param(["verify-all", "--tolerance", "nan"], 2,
                 id="verify-all-nan-tolerance"),
    pytest.param(["verify-all", "--tolerance", "-1"], 2,
                 id="verify-all-negative-tolerance"),
    pytest.param(["verify-all", "--config", NAN_CFG], 2,
                 id="verify-all-nan-tolerance-in-config"),
    # from 1 up every proportionality test passes and u2-sampling sees nothing
    pytest.param(["verify-all", "--tolerance", "1"], 2,
                 id="verify-all-tolerance-1"),
    pytest.param(["verify-all", "--tolerance", "inf"], 2,
                 id="verify-all-inf-tolerance"),
    pytest.param(["verify-all", "--config", INF_CFG], 2,
                 id="verify-all-inf-tolerance-in-config"),
    # below the residual bound the unitarity test rejects accepted samples
    pytest.param(["verify-all", "--tolerance", "1e-14"], 2,
                 id="verify-all-tolerance-below-residual-bound"),
    pytest.param(["verify-all", "--config", TINY_CFG], 2,
                 id="verify-all-tolerance-below-residual-bound-in-config"),
    # options are never abbreviated, and a command is required
    pytest.param(["analyze", "--turns", "QPQ", "--pool", "8"], 2,
                 id="analyze-abbreviated-option"),
    pytest.param(["orbit", "--n", "8", "--form", "json"], 2,
                 id="orbit-abbreviated-option"),
    pytest.param([], 2, id="no-command"),
    pytest.param(["bogus"], 2, id="unknown-command"),
    pytest.param(["orbit", "--n", "8", "-h"], 2, id="orbit-short-help"),
    pytest.param(["orbit", "--n=8"], 0, id="orbit-n-equals"),
    pytest.param(["analyze", "--turns", "QPQ", "--check", "--no-check"], 0,
                 id="analyze-check-then-no-check"),
    # the token after a value option is its value, even if it starts with -
    pytest.param(["orbit", "--n", "8", "--state", "-pi/4"], 0,
                 id="orbit-negative-state"),
    pytest.param(["orbit", "--n", "8", "--state", "--format"], 2,
                 id="orbit-state-named-like-an-option"),
]


@pytest.mark.parametrize("argv, code", INVALID_INPUTS)
def test_invalid_input_exit_code(runner, tmp_path, argv, code):
    def arg(a):
        if a not in CONFIG_FILES:
            return a
        path = tmp_path / "bad.cfg"
        path.write_text(CONFIG_FILES[a])
        return str(path)

    result = runner.invoke(main, [arg(a) for a in argv])
    assert result.exit_code == code
    assert "Traceback" not in result.output


#: The config placeholders of the usage lines, as files in the working
#: directory, so that no temporary path reaches stderr.
USAGE_CONFIGS = {NAN_CFG: "nan.cfg", INF_CFG: "inf.cfg", TINY_CFG: "tiny.cfg",
                 "{config}": "verify.cfg"}


def usage_lines():
    """Every row of ``INVALID_INPUTS``, then each exit-2 line of the
    reachability guard that is not among them, placeholders renamed."""
    lines = []
    for argv in ([p.values[0] for p in INVALID_INPUTS]
                 + [argv for code, argv in COMMANDS if code == 2]):
        for placeholder, name in USAGE_CONFIGS.items():
            argv = [a.replace(placeholder, name) for a in argv]
        if argv not in lines:
            lines.append(argv)
    return lines


def usage_cli_digest(runner, spec):
    """sha256 over every line of *spec*, run in a directory holding its
    config files: per run, its argv and exit code, then its stdout and its
    stderr."""
    for name, text in spec["configFiles"].items():
        Path(name).write_text(text)
    digest = hashlib.sha256()
    for argv in spec["lines"]:
        result = runner.invoke(main, argv)
        digest.update(f"{' '.join(argv)} -> {result.exit_code}\n".encode())
        digest.update(result.stdout_bytes)
        digest.update(b"\0")
        digest.update(result.stderr_bytes)
    return digest.hexdigest()


def test_usage_errors_match_golden(runner, tmp_path, monkeypatch):
    # the bytes of every usage error, help text wrapped at 80 columns
    spec = json.loads((Path(__file__).parent / "golden"
                       / "usage_cli.json").read_text())
    assert spec["lines"] == usage_lines()
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    assert usage_cli_digest(runner, spec) == spec["sha256"]


#: The flag pairs, which take no value; every other option takes one.
FLAG_PAIRS = {"--check", "--no-check", "--timings", "--no-timings"}


def joined(argv):
    """The line ``main`` hands argparse: each value option of any command
    joined to the token after it by ``=``."""
    values = {o for options in COMMAND_OPTIONS.values()
              for o in options} - FLAG_PAIRS
    tokens, line = iter(argv), []
    for token in tokens:
        value = next(tokens, None) if token in values else None
        line.append(token if value is None else f"{token}={value}")
    return line


def argparse_keywords(line):
    """``vars(_parser().parse_args(line))`` without the subparser, or None
    if argparse ends the line with help or a usage error."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            parsed = vars(cli._parser().parse_args(line))
        except SystemExit:
            return None
    parsed.pop("parser")
    return parsed


class CountingRunner(Runner):
    """A ``Runner`` that requires ``main`` to call the cached parser's
    ``parse_args`` once on a line that argparse ends with help or a usage
    error, and never on any other line; ``lines`` counts the lines of each
    kind."""

    def __init__(self, monkeypatch):
        self.calls, self.lines = [], {True: 0, False: 0}
        parser = cli._parser()
        parse_args = parser.parse_args
        monkeypatch.setattr(parser, "parse_args", lambda argv: (
            self.calls.append(argv), parse_args(argv))[1])

    def invoke(self, main, argv):
        ends = argparse_keywords(joined(argv)) is None   # one counted call
        before = len(self.calls)
        result = super().invoke(main, argv)
        assert len(self.calls) - before == ends, argv
        assert not ends or result.exit_code == 2 or "--help" in argv, argv
        self.lines[ends] += 1
        return result


def test_argparse_reads_only_help_and_usage_errors(tmp_path, monkeypatch):
    # every golden line, the usage lines and the reachability guard's lines
    runner = CountingRunner(monkeypatch)
    golden = Path(__file__).parent / "golden"
    for name, digest in [("orbit_cli.json", orbit_cli_digest),
                         ("stabilizer_large_n.json", stabilizer_cli_digest),
                         ("game_cli.json", game_cli_digest),
                         ("markdown_cli.json", markdown_cli_digest),
                         ("sample_u2_cli.json", sample_u2_digest)]:
        spec = json.loads((golden / name).read_text())
        assert digest(runner, spec) == spec["sha256"], name
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    spec = json.loads((golden / "usage_cli.json").read_text())
    assert usage_cli_digest(runner, spec) == spec["sha256"]
    Path("verify.cfg").write_text(CONFIG)
    for code, argv in COMMANDS:
        argv = [a.replace("{config}", "verify.cfg") for a in argv]
        assert runner.invoke(main, argv).exit_code == code
    assert runner.lines[True] >= 15 and runner.lines[False] >= 3000


# States whose grid Z_N, N = lcm(2n, b), passes 2**63 before reduction: the
# exit code follows the reduced states that reach the output.
@pytest.mark.parametrize("argv, code", [
    pytest.param(["orbit", "--n", "1024", "--state",
                  "1/9007199254740991pi"], 0, id="orbit-reduced-fits"),
    pytest.param(["orbit", "--n", "8", "--state",
                  "1/9223372036854775807pi"], 3, id="orbit-reduced-overflows"),
    pytest.param(["stabilizer", "--n", "8", "--state",
                  "1/9223372036854775807pi"], 0,
                 id="stabilizer-prints-no-state"),
])
def test_64_bit_edge_exit_code(runner, argv, code):
    result = runner.invoke(main, argv)
    assert result.exit_code == code
    assert "Traceback" not in result.output


def test_orbit_overflow_names_the_first_reduced_angle(runner):
    result = invoke(runner, "orbit", "--n", "8", "--state",
                    "1/9223372036854775807pi")
    assert (result.exit_code, result.stdout, result.stderr) == (
        3, "", "error: angle 9223372036854775803/36893488147419103228 "
               "exceeds 64-bit width\n")


#: Runs each argument as one command line in a single process, then fails
#: if anything it ran imported numpy, or if click was imported at all.
NUMPY_PROBE = """
import sys
from pennyflip.cli import main
for line in sys.argv[1:]:
    main(line.split(), standalone_mode=False)
sys.exit(", ".join(m for m in ("numpy", "click") if m in sys.modules) or None)
"""


def test_exact_commands_do_not_import_numpy():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    commands = ["orbit --n 8", "stabilizer --n 8 --state +",
                "fixed-set --n 8", "enumerate --n 8", "classify --n 8",
                "analyze --turns QPQ --check"]
    proc = subprocess.run([sys.executable, "-c", NUMPY_PROBE, *commands],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


#: Runs each argument, its tokens joined by "\x1f", as one command line in
#: a single process, and prints, per line, its exit code, its stderr and
#: which of the modules it must not load are loaded; it imports nothing more.
MODULES_PROBE = """
import contextlib, io, sys
from pennyflip.cli import main
rows = []
for line in sys.argv[1:]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(err):
        try:
            main(line.split("\\x1f") if line else [])
            code = 0
        except SystemExit as exc:
            code = exc.code
    rows.append((code, err.getvalue(), [
        m for m in ("numpy", "dataclasses", "inspect", "json", "fractions",
                    "decimal", "argparse", "gettext", "locale")
        if m in sys.modules]))
print(repr(rows))
"""
#: Modules that only help pages and usage errors load.
HELP_MODULES = ["argparse", "gettext", "locale"]


def probe_modules(lines, cwd):
    """``MODULES_PROBE``'s rows for *lines*, run in one fresh process."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", MODULES_PROBE,
         *("\x1f".join(argv) for argv in lines)],
        env=dict(os.environ, PYTHONPATH=src, COLUMNS="80"), cwd=cwd,
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout)


def test_numpy_free_commands_load_no_dataclasses_inspect_or_json(tmp_path):
    # every line of the usage golden and of the reachability guard but
    # sample-u2 and a verify-all that runs; verify-all reads its config and
    # flags before it imports the numpy layer, so its usage errors need none.
    # The exact values hold int pairs, so fractions and decimal stay out too;
    # and argparse, gettext and locale load only for help and usage errors,
    # so a second process runs every other line, the numpy ones too
    spec = json.loads((Path(__file__).parent / "golden"
                       / "usage_cli.json").read_text())
    for name, text in spec["configFiles"].items():
        (tmp_path / name).write_text(text)
    (tmp_path / "verify.cfg").write_text(CONFIG)
    lines = spec["lines"] + [
        [a.replace("{config}", "verify.cfg") for a in argv]
        for code, argv in COMMANDS
        if argv[:1] != ["sample-u2"]
        and (argv[:1], code) != (["verify-all"], 0)]
    rows = probe_modules(lines, tmp_path)
    assert [(argv, [m for m in loaded if m not in HELP_MODULES])
            for argv, (_, _, loaded) in zip(lines, rows)
            if set(loaded) - set(HELP_MODULES)] == []
    usage = [(argv, code, err) for argv, (code, err, _) in zip(lines, rows)
             if argv[:1] == ["verify-all"]]
    assert len(usage) >= 10
    for argv, code, err in usage:
        assert (code, err.count("error:")) == (2, 1), (argv, err)
        assert err.splitlines()[-1].startswith("pennyflip verify-all: error:")
    reachable = [[a.replace("{config}", "verify.cfg") for a in argv]
                 for code, argv in COMMANDS if code != 2]
    valid = [argv for argv, (code, _, _) in zip(lines, rows)
             if code != 2 and "--help" not in argv] + [
        argv for argv in reachable if argv not in lines]
    assert len(valid) >= 20
    assert [(argv, help_modules) for argv, (_, _, loaded)
            in zip(valid, probe_modules(valid, tmp_path))
            if (help_modules := set(loaded) & set(HELP_MODULES))] == []


#: One line of each command, each quick; verify-all's checks all pass.
EVERY_COMMAND = [
    ["orbit", "--n", "8"], ["stabilizer", "--n", "8", "--state", "+"],
    ["fixed-set", "--n", "8", "--format", "markdown"],
    ["enumerate", "--n", "8", "--format", "markdown"], ["classify", "--n", "8"],
    ["analyze", "--turns", "QPQ", "--check"],
    ["sample-u2", "--samples", "10"],
    ["verify-all", "--n-range", "3..4", "--max-rounds", "2", "--samples", "0"],
]


def run_cold(argv, stdout=subprocess.PIPE, **env):
    """*argv* run as ``python -m pennyflip.cli`` in a fresh process, with
    *env* added to the environment."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    base = {k: v for k, v in os.environ.items() if k != "PENNYFLIP_CONFIG"}
    return subprocess.run(
        [sys.executable, "-m", "pennyflip.cli", *argv],
        env=dict(base, PYTHONPATH=src, **env), stdout=stdout,
        stderr=subprocess.PIPE, text=True, timeout=60)


def assert_output_fault(proc):
    """One ``error:`` line on stderr, no traceback and exit 4."""
    assert (proc.returncode, proc.stderr.count("\n")) == (4, 1), proc.stderr
    assert proc.stderr.startswith("error: cannot write the output: ")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv", EVERY_COMMAND, ids=lambda a: a[0])
def test_a_full_device_is_an_output_fault(argv):
    with open("/dev/full", "w") as full:
        assert_output_fault(run_cold(argv, stdout=full))


@pytest.mark.parametrize("argv", [["orbit", "--n", "8"],
                                  ["verify-all", "--samples", "0"]],
                         ids=lambda a: a[0])
def test_an_ascii_stdout_is_an_output_fault_not_a_usage_error(argv):
    # the output holds ⟩ and —, which ASCII cannot encode
    proc = run_cold(argv, PYTHONIOENCODING="ascii")
    assert_output_fault(proc)
    assert "codec can't encode" in proc.stderr and proc.stdout == ""


#: Imports the CLI, says so on stderr, then runs a full-range verify-all.
INTERRUPTED = """
import sys
from pennyflip.cli import main
sys.stderr.write("ready\\n")
sys.stderr.flush()
main(["verify-all", "--n-range", "3..1024", "--samples", "0"])
"""


def test_an_interrupt_exits_130_without_a_traceback():
    # the run takes seconds; SIGINT reaches it inside main, mid-check
    proc = subprocess.Popen(
        [sys.executable, "-c", INTERRUPTED],
        env=dict({k: v for k, v in os.environ.items()
                  if k != "PENNYFLIP_CONFIG"}, PYTHONPATH=str(
            Path(__file__).resolve().parent.parent / "src")),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))
    assert proc.stderr.readline() == "ready\n"
    time.sleep(0.2)
    proc.send_signal(signal.SIGINT)
    out, err = proc.communicate(timeout=60)
    assert (proc.returncode, out, err) == (130, "", "")


#: Every option of each command, named independently of the parser.
COMMAND_OPTIONS = {
    "orbit": ["--n", "--state", "--format"],
    "stabilizer": ["--n", "--state", "--format"],
    "fixed-set": ["--n", "--elems", "--format"],
    "enumerate": ["--n", "--turns", "--initial", "--target-q", "--format"],
    "classify": ["--n", "--turns", "--initial", "--target-q", "--format"],
    "analyze": ["--turns", "--initial", "--target-q", "--check", "--no-check",
                "--pool-n", "--format"],
    "sample-u2": ["--samples", "--seed"],
    "verify-all": ["--n-range", "--max-rounds", "--samples", "--seed",
                   "--tolerance", "--config", "--timings", "--no-timings",
                   "--format"],
}


@pytest.mark.parametrize("command", [None, *COMMAND_OPTIONS])
def test_help_names_every_option(runner, command):
    argv = ["--help"] if command is None else [command, "--help"]
    result = invoke(runner, *argv)
    assert result.exit_code == 0
    usage = " ".join(["Usage: pennyflip", *argv[:-1]])
    assert result.stdout.startswith(usage + " ")
    assert result.stdout.count("Usage:") == 1
    names = (COMMAND_OPTIONS if command is None
             else COMMAND_OPTIONS[command])
    for name in ["--help", *names]:
        assert name in result.stdout, name


def test_help_shows_defaults(runner):
    out = invoke(runner, "analyze", "--help").stdout
    assert "[default: 0]" in out and "[default: 8]" in out
    assert "[default: json]" in out and "[default: False]" not in out
    assert "[default: 10000]" in invoke(runner, "sample-u2", "--help").stdout
