import argparse
import csv
import hashlib
import importlib.util
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from covertsim import cli, detectors, harness, model, theory
from covertsim.numerics import NumericalError

from conftest import awgn_scenario, fading_scenario


def write_config(tmp_path, scenario, name="config.json"):
    path = tmp_path / name
    model.save_scenario(scenario, path)
    return str(path)


def run_cli(args):
    return cli.main(args)


def child_env():
    # the child imports covertsim from this checkout, installed or not
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


class TestErrors:
    def test_missing_config(self, tmp_path, capsys):
        code = run_cli(["covertness", str(tmp_path / "nope.json"), "--trials", "10"])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_malformed_config(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        assert run_cli(["roc", str(path), "--trials", "10"]) == 2

    def test_invalid_field_value(self, tmp_path):
        data = awgn_scenario().to_dict()
        data["p"] = 2.0
        path = tmp_path / "bad_p.json"
        path.write_text(json.dumps(data))
        assert run_cli(["roc", str(path), "--trials", "10"]) == 2

    @pytest.mark.parametrize("field, value", [("n", True), ("jammer.power", "1")])
    def test_non_number_field_value(self, tmp_path, capsys, field, value):
        data = awgn_scenario().to_dict()
        owner, _, name = field.rpartition(".")
        (data[owner] if owner else data)[name] = value
        path = tmp_path / "bad_type.json"
        path.write_text(json.dumps(data))
        assert run_cli(["roc", str(path), "--trials", "10", "--out", str(tmp_path)]) == 2
        assert f"config error: {field} must be a number" in capsys.readouterr().err

    # d**-2 overflows a float at d = 1e-200 and rounds to 0 at d = 1e200
    @pytest.mark.parametrize("field, value, message", [
        ("d_jw", 1e-200, "path gain of distance 1e-200 at alpha 2.0 overflows a float"),
        ("d_aw", 1e200, "path gain of distance 1e+200 at alpha 2.0 underflows a float"),
    ], ids=["overflow", "underflow"])
    @pytest.mark.parametrize("command", ["covertness", "check"])
    def test_path_gain_out_of_float_range(self, tmp_path, capsys, command, field, value, message):
        data = fading_scenario(n=64).to_dict()
        data[field] = value
        path = tmp_path / "far.json"
        path.write_text(json.dumps(data))
        assert run_cli([command, str(path), "--out", str(tmp_path)]) == 2
        assert f"config error: {message}" in capsys.readouterr().err

    # jam power 1e308 and d_jw**-2 = 4 are floats, their product is not
    @pytest.mark.parametrize("command", ["covertness", "roc", "check"])
    def test_density_out_of_float_range(self, tmp_path, capsys, command):
        data = json.loads((Path(__file__).resolve().parents[1] / "configs"
                           / "fading_m2.json").read_text())
        data["d_jw"], data["jammer"]["power"] = 0.5, 1e308
        path = tmp_path / "loud.json"
        path.write_text(json.dumps(data))
        assert run_cli([command, str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "config error: zeta = jammer.power * d_jw**-alpha overflows a float" in err

    def test_rate_out_of_float_range(self, tmp_path, capsys):
        # P_f * SINR overflows to an infinite rate, whose bit count is no integer
        data = json.loads((Path(__file__).resolve().parents[1] / "configs"
                           / "awgn.json").read_text())
        data["d_ab"] = 0.5
        path = tmp_path / "near.json"
        path.write_text(json.dumps(data))
        argv = ["capacity", str(path), "--pf-list", "1e308", "--out", str(tmp_path / "out")]
        assert run_cli(argv) == 2
        assert "config error: rate must be nonnegative and finite, got inf" in capsys.readouterr().err

    def test_bad_n_list(self, tmp_path):
        cfgp = write_config(tmp_path, awgn_scenario(n=64))
        assert run_cli(["covertness", cfgp, "--n-list", "64,x", "--trials", "10"]) == 2

    @pytest.mark.parametrize("config, args, message", [
        ("bob", ["capacity", "--samples", "2000", "--pf-list", "0.1,abc"], "bad P_f list '0.1,abc'"),
        ("awgn", ["covertness", "--trials", "10", "--n-list", ","], "n list is empty"),
        ("awgn", ["covertness", "--trials", "10", "--n-list", ""], "n list is empty"),
        ("awgn", ["covertness", "--trials", "10", "--n-list", "1" + "0" * 400],
         "n is too large for a float"),
    ], ids=["pf_list_bad_item", "n_list_empty", "n_list_blank", "n_list_huge"])
    def test_bad_comma_list(self, tmp_path, capsys, config, args, message):
        scenario = {
            "awgn": awgn_scenario(n=64),
            "bob": fading_scenario(n=400, M=1, P_f=0.0125, ab="fading", jb="fading"),
        }[config]
        cfgp = write_config(tmp_path, scenario)
        assert run_cli([args[0], cfgp, *args[1:], "--out", str(tmp_path / "out")]) == 2
        assert f"config error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("scenario", [awgn_scenario(n=64), fading_scenario(n=64, M=1)],
                             ids=["awgn", "fading_m1"])
    def test_boundary_needs_multi_block(self, tmp_path, capsys, scenario):
        cfgp = write_config(tmp_path, scenario)
        assert run_cli(["boundary", cfgp, "--draws", "10", "--out", str(tmp_path)]) == 2
        assert "boundary mass needs a multi-block fading config (M > 1)" in capsys.readouterr().err

    def test_bad_workers(self, tmp_path):
        cfgp = write_config(tmp_path, awgn_scenario(n=64))
        assert run_cli(["covertness", cfgp, "--workers", "0", "--trials", "10"]) == 2

    def test_uncreatable_out_directory(self, tmp_path):
        # an --out naming an existing regular file is a usage problem
        blocker = tmp_path / "file"
        blocker.write_text("")
        proc = subprocess.run(
            [sys.executable, "-m", "covertsim.cli", "check", "configs/awgn.json",
             "--out", str(blocker)],
            cwd=Path(__file__).resolve().parents[1], capture_output=True, text=True,
            env=child_env(),
        )
        assert proc.returncode == 2
        assert "config error: cannot create output directory" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("args, blocked", [
        (["covertness", "configs/awgn.json", "--trials", "10"], "curve.csv"),
        (["check", "configs/awgn.json"], "manifest.json"),
    ], ids=["artifact", "manifest"])
    def test_unwritable_artifact(self, tmp_path, args, blocked):
        # a directory in an artifact's place is a usage problem, not a crash
        (tmp_path / blocked).mkdir()
        proc = subprocess.run(
            [sys.executable, "-m", "covertsim.cli", *args, "--out", str(tmp_path)],
            cwd=Path(__file__).resolve().parents[1], capture_output=True, text=True,
            env=child_env(),
        )
        assert proc.returncode == 2
        assert f"config error: cannot write {tmp_path / blocked}: Is a directory" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("config, args, message", [
        ("awgn", ["covertness", "--trials", "0"], "trials must be >= 1"),
        ("awgn", ["roc", "--trials", "0"], "trials must be >= 1"),
        ("awgn", ["roc", "--trials", "10", "--grid-points", "0"],
         "--grid-points must be >= 1, got 0"),
        ("awgn", ["roc", "--trials", "10", "--grid-points", "-3"],
         "--grid-points must be >= 1, got -3"),
        ("m2", ["boundary", "--draws", "0"], "draws must be >= 1"),
        *(("m2", ["boundary", "--draws", "10", "--eps", eps],
           "epsilon must lie in (0, 1)") for eps in ("1.5", "nan", "inf")),
        ("bob", ["capacity", "--samples", "10"], "need at least 1000 fading draws"),
        ("bob", ["capacity", "--samples", "2000", "--outage", "1.5"],
         "outage_prob must lie in (0, 1)"),
        ("bob", ["capacity", "--samples", "2000", "--pf-list", ","], "P_f list is empty"),
        ("m2", ["check", "--grid-points", "1"],
         "a monotonicity scan needs a grid of at least 2 points"),
    ], ids=["covertness_trials", "roc_trials", "roc_grid_points", "roc_grid_points_negative",
            "boundary_draws", "boundary_eps", "boundary_eps_nan", "boundary_eps_inf",
            "capacity_samples", "capacity_outage",
            "capacity_pf_list_empty", "check_grid_points"])
    def test_out_of_range_argument(self, tmp_path, capsys, config, args, message):
        scenario = {
            "awgn": awgn_scenario(n=64),
            "m2": fading_scenario(n=64, M=2, P_f=0.0125),
            "bob": fading_scenario(n=400, M=1, P_f=0.0125, ab="fading", jb="fading"),
        }[config]
        cfgp = write_config(tmp_path, scenario)
        argv = [args[0], cfgp, *args[1:], "--out", str(tmp_path / "out")]
        assert run_cli(argv) == 2
        assert f"config error: {message}" in capsys.readouterr().err


class TestCovertness:
    def test_writes_curve_and_manifest(self, tmp_path):
        cfgp = write_config(tmp_path, awgn_scenario(n=64))
        out = tmp_path / "run"
        code = run_cli([
            "covertness", cfgp, "--eps", "0.1", "--n-list", "64,128",
            "--trials", "200", "--seed", "3", "--out", str(out),
        ])
        assert code == 0
        lines = (out / "curve.csv").read_text().splitlines()
        assert lines[0] == "n,threshold,min_sum,ci_lo,ci_hi"
        assert len(lines) == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "covertness"
        assert manifest["seed"] == 3
        assert manifest["scenario"]["n"] == 64
        assert "curve.csv" in manifest["outputs"]

    def test_seed_repeatability_across_workers(self, tmp_path):
        cfgp = write_config(tmp_path, awgn_scenario(n=64))
        outs = []
        for tag, workers in (("a", "1"), ("b", "2")):
            out = tmp_path / tag
            assert run_cli([
                "covertness", cfgp, "--n-list", "64", "--trials", "120",
                "--seed", "5", "--workers", workers, "--out", str(out),
            ]) == 0
            outs.append((out / "curve.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_seed_changes_output(self, tmp_path):
        cfgp = write_config(tmp_path, awgn_scenario(n=64))
        bodies = []
        for seed in ("5", "6"):
            out = tmp_path / f"s{seed}"
            run_cli(["covertness", cfgp, "--n-list", "64", "--trials", "120",
                     "--seed", seed, "--out", str(out)])
            bodies.append((out / "curve.csv").read_bytes())
        assert bodies[0] != bodies[1]

    def test_default_scenario_stays_covert(self, tmp_path):
        # the bundled AWGN setting run through the CLI keeps the best
        # detector's error sum near the blind floor
        cfgp = write_config(tmp_path, awgn_scenario(n=1000, P_f=0.025))
        out = tmp_path / "floor"
        code = run_cli(["covertness", cfgp, "--eps", "0.1", "--n-list", "1000",
                        "--trials", "2000", "--seed", "21", "--out", str(out)])
        assert code == 0
        row = (out / "curve.csv").read_text().splitlines()[1].split(",")
        assert float(row[2]) >= 0.87

    def test_seed_defaults_to_zero_and_reads_no_environment(self, tmp_path, monkeypatch):
        cfgp = write_config(tmp_path, awgn_scenario(n=64))
        monkeypatch.setenv("COVERTSIM_SEED", "9")
        out_default, out_zero = tmp_path / "default", tmp_path / "zero"
        assert run_cli(["covertness", cfgp, "--n-list", "64", "--trials", "100",
                        "--out", str(out_default)]) == 0
        assert run_cli(["covertness", cfgp, "--n-list", "64", "--trials", "100",
                        "--seed", "0", "--out", str(out_zero)]) == 0
        assert (out_default / "curve.csv").read_bytes() == (out_zero / "curve.csv").read_bytes()
        assert json.loads((out_default / "manifest.json").read_text())["seed"] == 0


    @pytest.mark.parametrize("config", ["awgn", "fading_m1"])
    @pytest.mark.parametrize("command", [["covertness", "--n-list", "400,1000"], ["roc"]],
                             ids=["covertness", "roc"])
    def test_one_block_commands_bisect_nothing(self, tmp_path, monkeypatch, config, command):
        # the one-block power threshold is computed only when it is read,
        # and neither command reads it
        calls = []
        monkeypatch.setattr(harness, "bisect_monotone", lambda *args, **kw: calls.append(args))
        cfgp = Path(__file__).resolve().parents[1] / "configs" / f"{config}.json"
        assert run_cli([command[0], str(cfgp), *command[1:], "--trials", "200",
                        "--out", str(tmp_path)]) == 0
        assert calls == []


class TestRoc:
    def test_collects_statistics_once(self, tmp_path, monkeypatch):
        # the sweep reuses the sample set the grid was built from
        calls = []
        original = harness.collect_statistics

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(harness, "collect_statistics", counting)
        cfgp = write_config(tmp_path, fading_scenario(n=64, M=2, P_f=0.0125))
        code = run_cli(["roc", cfgp, "--trials", "40", "--grid-points", "11",
                        "--seed", "5", "--out", str(tmp_path / "roc")])
        assert code == 0
        assert len(calls) == 1

    def test_multi_block_statistic_sweep(self, tmp_path):
        cfgp = write_config(tmp_path, fading_scenario(n=64, M=4, P_f=0.0125))
        out = tmp_path / "roc4"
        code = run_cli(["roc", cfgp, "--trials", "100", "--grid-points", "11",
                        "--seed", "3", "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["statistic"] == "loglr"

    def test_indivisible_slot_length_rejected(self, tmp_path):
        cfgp = write_config(tmp_path, fading_scenario(n=64, M=4, P_f=0.0125))
        assert run_cli(["covertness", cfgp, "--n-list", "65",
                        "--trials", "20", "--out", str(tmp_path / "x")]) == 2

    def test_tied_statistic_moves_only_its_thresholds(self, tmp_path, monkeypatch):
        # two sample sets that differ in one statistic, made equal to its
        # sorted neighbour: only grid points taken at that statistic may move
        rng = np.random.default_rng(4)
        s0, s1 = rng.normal(0.0, 1.0, 200), rng.normal(0.5, 1.0, 200)
        pooled = np.sort(np.concatenate([s0, s1]))
        a, b = pooled[39], pooled[40]  # 21 grid points over 400 take index 39
        cfgp = write_config(tmp_path, awgn_scenario(n=64))
        bodies = []
        for h0, h1 in ((s0, s1), (np.where(s0 == a, b, s0), np.where(s1 == a, b, s1))):
            ss = harness.SampleSet(stats_h0=h0, stats_h1=h1, kind="power", cfg=None)
            monkeypatch.setattr(harness, "collect_statistics", lambda *args, ss=ss: ss)
            out = tmp_path / f"roc{len(bodies)}"
            assert run_cli(["roc", cfgp, "--trials", "200", "--grid-points", "21",
                            "--out", str(out)]) == 0
            bodies.append((out / "roc.csv").read_text().splitlines())
        assert len(bodies[0]) == len(bodies[1]) == 22
        moved = [r0 for r0, r1 in zip(bodies[0], bodies[1]) if r0 != r1]
        assert moved and all(float(r.split(",")[0]) == a for r in moved)

    @pytest.mark.parametrize("args", [
        ["roc", "--trials", "2000"], ["covertness", "--n-list", "4"],
    ], ids=["roc", "covertness"])
    def test_one_sample_per_block_under_strong_jammer(self, tmp_path, capsys, args):
        # n = M gives one sample per block, and a jam power of 30 sigma_w2
        # makes each block integral's exponent near flat up to a cliff
        data = json.loads((Path(__file__).resolve().parents[1] / "configs"
                           / "fading_m4.json").read_text())
        data["n"], data["jammer"]["power"] = 4, 30.0
        cfgp = tmp_path / "strong_jammer.json"
        cfgp.write_text(json.dumps(data))
        argv = [args[0], str(cfgp), *args[1:], "--seed", "1", "--out", str(tmp_path / "out")]
        assert run_cli(argv) == 0
        assert capsys.readouterr().err == ""

    def test_writes_monotone_roc(self, tmp_path):
        cfgp = write_config(tmp_path, awgn_scenario(n=64))
        out = tmp_path / "roc"
        code = run_cli(["roc", cfgp, "--trials", "150", "--grid-points", "21",
                        "--seed", "2", "--out", str(out)])
        assert code == 0
        lines = (out / "roc.csv").read_text().splitlines()
        assert lines[0].startswith("threshold,p_fa,p_md")
        rows = [list(map(float, ln.split(","))) for ln in lines[1:]]
        fa = [r[1] for r in rows]
        md = [r[2] for r in rows]
        assert all(a >= b for a, b in zip(fa, fa[1:]))
        assert all(a <= b for a, b in zip(md, md[1:]))


class TestCheck:
    def test_single_block_fading_report(self, tmp_path):
        cfgp = write_config(tmp_path, fading_scenario(n=200, M=1, P_f=0.0125))
        out = tmp_path / "check"
        code = run_cli(["check", cfgp, "--grid-points", "60", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "check.json").read_text())
        assert all(entry["passed"] for entry in report["checks"].values())
        assert "lrt_monotone_axis0" in report["checks"]

    def test_multi_block_reports_every_axis(self, tmp_path):
        cfgp = write_config(tmp_path, fading_scenario(n=64, M=2, P_f=0.0125))
        out = tmp_path / "check2"
        assert run_cli(["check", cfgp, "--grid-points", "40", "--out", str(out)]) == 0
        report = json.loads((out / "check.json").read_text())
        assert "lrt_monotone_axis1" in report["checks"]

    def test_needs_positive_power(self, tmp_path):
        cfgp = write_config(tmp_path, fading_scenario(n=64, M=1, P_f=0.0))
        assert run_cli(["check", cfgp, "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("config", ["awgn", "fading_m1", "fading_m4"])
    def test_worst_at_named_exactly_when_a_step_fell(self, tmp_path, config):
        cfgp = Path(__file__).resolve().parents[1] / "configs" / f"{config}.json"
        assert run_cli(["check", str(cfgp), "--out", str(tmp_path)]) == 0
        checks = json.loads((tmp_path / "check.json").read_text())["checks"]
        assert len(checks) >= 5
        for entry in checks.values():
            assert list(entry) == ["passed", "worst_violation", "worst_at"]
            assert (entry["worst_at"] is None) == (entry["worst_violation"] == 0.0)


    @pytest.mark.parametrize("config, digest", [
        ("awgn", "d1af0f75ee3f0c03e4c4ae1d9a1152d6d0bb16ba58d7215bf5d332ee2e02f846"),
        ("bob_fading", "f316f4eab5d558ed93101c15389042a21f0405bbbb1951f54dd5e67e831d43d5"),
        ("fading_m1", "f316f4eab5d558ed93101c15389042a21f0405bbbb1951f54dd5e67e831d43d5"),
        ("fading_m2", "40aab6c1d6fd2da90aa285451d9c35cb761a7071b4f0afa7316dbca5ea7e336f"),
        ("fading_m4", "9b897b228f7ba0fbd65ce428b2398275311fd32e02b07c4c373428cea7bf0a5c"),
    ])
    def test_report_pinned(self, tmp_path, config, digest):
        # check.json's SHA-256 on each shipped config at the default grid, so
        # a change to a density, a grid or the order of the entries shows
        cfgp = Path(__file__).resolve().parents[1] / "configs" / f"{config}.json"
        assert run_cli(["check", str(cfgp), "--out", str(tmp_path)]) == 0
        assert hashlib.sha256((tmp_path / "check.json").read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("bad", [math.nan, -math.inf], ids=["nan", "-inf"])
    def test_non_finite_step_written_as_null(self, tmp_path, monkeypatch, capsys, bad):
        # one value of the unshifted density is broken; strict JSON refuses
        # the bare tokens NaN and -Infinity, so the step is written as null
        shifted = theory.shifted_exponential_logdensity

        def broken(shift, mean):
            d = shifted(shift, mean)
            if shift:
                return d

            def fn(x):
                v = np.array(d.fn(x), dtype=float)
                v[v.size // 2] = bad
                return v
            return theory.LogDensity(fn=fn, lo=d.lo, hi=d.hi)

        monkeypatch.setattr(theory, "shifted_exponential_logdensity", broken)
        cfgp = Path(__file__).resolve().parents[1] / "configs" / "awgn.json"
        assert run_cli(["check", str(cfgp), "--out", str(tmp_path)]) == 3
        assert "lr_order_shifted_exponential: FAIL" in capsys.readouterr().out

        def refuse(token):
            raise ValueError(f"bare {token}")

        text = (tmp_path / "check.json").read_text()
        entry = json.loads(text, parse_constant=refuse)["checks"]["lr_order_shifted_exponential"]
        assert entry["passed"] is False and entry["worst_violation"] is None
        assert entry["worst_at"] > 0


    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 11: under a 1e-9 jammer each kernel row rounds at about 1e-7,"
        " far above the statistic's steps, so lrt_monotone_axis0 falls by -1.481e-9"))
    def test_weak_jammer_single_block(self, tmp_path):
        data = json.loads((Path(__file__).resolve().parents[1] / "configs"
                           / "fading_m1.json").read_text())
        data.update(n=1600, P_f=1.25e-11)  # P_f is the recipe's value
        data["jammer"]["power"] = 1e-9
        cfgp = tmp_path / "weak.json"
        cfgp.write_text(json.dumps(data))
        assert run_cli(["check", str(cfgp), "--out", str(tmp_path / "check")]) == 0


def _sweep_cases():
    """The domain sweep's runs: the faded-jammer construction (fading_m1.json
    at M = 1 and 16) and awgn.json's uniform jammer (M = 1 only), each at
    every jam power, n and sigma_w2 below; covertness and check on each,
    boundary too when M > 1.  The set was fixed before any run of it."""
    for base, blocks in (("fading_m1", (1, 16)), ("awgn", (1,))):
        for power in (1e-9, 1.0, 1e9):
            for M in blocks:
                for n in (16, 160_000):
                    for sigma_w2 in (1.0, 1e-6):
                        for command in ("covertness", "check", "boundary")[:2 + (M > 1)]:
                            yield pytest.param(
                                base, power, M, n, sigma_w2, command,
                                id=f"{base}-P{power:g}-M{M}-n{n}-w{sigma_w2:g}-{command}")


class TestDomainSweep:
    """Every construction across jam powers 1e-9 to 1e9, one and many blocks,
    short and long slots and a quiet warden, at the recipe P_f, through the
    CLI under the suite's warnings-as-errors: each run exits 0 and writes
    strict JSON whose every number is finite.  The one known failure (jam
    power 1e-9, M = 1, n = 1600) is TestCheck::test_weak_jammer_single_block."""

    ARGS = {"covertness": ["--trials", "100"], "check": ["--grid-points", "50"],
            "boundary": ["--draws", "100"]}

    @pytest.mark.parametrize("base, power, M, n, sigma_w2, command", _sweep_cases())
    def test_run_exits_0_with_finite_json(self, tmp_path, base, power, M, n, sigma_w2, command):
        data = json.loads((Path(__file__).resolve().parents[1] / "configs"
                           / f"{base}.json").read_text())
        data.update(M=M, n=n, sigma_w2=sigma_w2)
        data["jammer"]["power"] = power
        data["P_f"] = model.select_covert_params(model.Scenario.from_dict(data), 0.1).P_f
        cfgp = tmp_path / "sweep.json"
        cfgp.write_text(json.dumps(data))
        out = tmp_path / "out"
        argv = [command, str(cfgp), *self.ARGS[command], "--seed", "1", "--out", str(out)]
        assert run_cli(argv) == 0

        def refuse(token):
            raise AssertionError(f"non-strict JSON constant {token}")

        def numbers(node):
            if isinstance(node, dict):
                return [x for v in node.values() for x in numbers(v)]
            if isinstance(node, list):
                return [x for v in node for x in numbers(v)]
            return [node] if isinstance(node, (int, float)) else []

        written = sorted(out.glob("*.json"))
        assert "manifest.json" in [path.name for path in written]
        for path in written:
            values = numbers(json.loads(path.read_text(), parse_constant=refuse))
            assert all(math.isfinite(x) for x in values), path.name


class TestBoundary:
    def test_writes_mass_and_draws(self, tmp_path):
        cfgp = write_config(tmp_path, fading_scenario(n=64, M=2, P_f=0.0125))
        out = tmp_path / "bnd"
        code = run_cli(["boundary", cfgp, "--draws", "300", "--seed", "4",
                        "--out", str(out)])
        assert code == 0
        lines = (out / "boundary.csv").read_text().splitlines()
        assert lines[0] == "draw,x1,x2,in_region"
        assert len(lines) == 301
        report = json.loads((out / "boundary.json").read_text())
        assert report["delta"] == pytest.approx(0.025)
        hw = (report["ci"][1] - report["ci"][0]) / 2.0
        assert report["mass"] < 0.1 + hw
        assert report["spot_mismatches"] == 0

    def test_csv_streamed_in_slices_keeps_bytes(self, tmp_path):
        # one full slice of draws and a short one give the bytes of rows
        # built from the whole arrays at once
        draws = cli._CSV_SLICE + 7
        cfgp = write_config(tmp_path, fading_scenario(n=64, M=2, P_f=0.0125))
        out = tmp_path / "bnd"
        assert run_cli(["boundary", cfgp, "--draws", str(draws), "--seed", "4",
                        "--out", str(out)]) == 0
        cfg = detectors.config_for_scenario(model.load_scenario(cfgp)[0])
        delta = theory.delta_for_boundary_mass(0.1, cfg.M, cfg.zeta)
        region = theory.estimate_boundary_mass(cfg, delta, cfg.log_gamma, draws, 4)
        rows = [(i, *x, int(hit)) for i, (x, hit) in
                enumerate(zip(region.draw_x.tolist(), region.draw_in_region.tolist()))]
        want = "".join(",".join(map(str, row)) + "\n"
                       for row in [("draw", "x1", "x2", "in_region"), *rows])
        assert (out / "boundary.csv").read_text() == want

    def test_csv_rows_hold_one_slice_at_a_time(self, monkeypatch):
        # 20,000 draws on fading_m2: a 512-draw slice as Python lists traces
        # about 0.14 MB and peak memory grows with the slice, so the bound
        # holds one slice but not a 4096-draw one (1.08 MB)
        cfgp = Path(__file__).resolve().parents[1] / "configs" / "fading_m2.json"
        cfg = detectors.config_for_scenario(model.load_scenario(cfgp)[0])
        delta = theory.delta_for_boundary_mass(0.1, cfg.M, cfg.zeta)
        region = theory.estimate_boundary_mass(cfg, delta, cfg.log_gamma, 20_000, 1)

        def peak_while_consumed():
            tracemalloc.start()
            try:
                assert sum(1 for _ in cli._boundary_rows(region)) == 20_000
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak_while_consumed() <= 0.4e6
        monkeypatch.setattr(cli, "_CSV_SLICE", 4096)
        assert peak_while_consumed() > 0.4e6

    def test_worker_flag_does_not_change_output(self, tmp_path):
        cfgp = write_config(tmp_path, fading_scenario(n=64, M=2, P_f=0.0125))
        bodies = []
        for tag, workers in (("w1", "1"), ("w2", "2")):
            out = tmp_path / tag
            assert run_cli(["boundary", cfgp, "--draws", "200", "--seed", "4",
                            "--workers", workers, "--out", str(out)]) == 0
            bodies.append((out / "boundary.csv").read_bytes())
        assert bodies[0] == bodies[1]

    def test_falling_statistic_exits_3(self, tmp_path, monkeypatch, capsys):
        # a per-block term that falls along every axis breaks every spot
        # check; the corner test reads it too and finds no draw in the region
        monkeypatch.setattr(detectors, "log_lrt_block_term", lambda z, *args: -z)
        cfgp = write_config(tmp_path, fading_scenario(n=64, M=2, P_f=0.0125))
        out = tmp_path / "bnd"
        assert run_cli(["boundary", cfgp, "--draws", "50", "--seed", "3",
                        "--out", str(out)]) == 3
        assert "numerical failure" in capsys.readouterr().err
        # the artifacts are written before the run is failed
        assert json.loads((out / "boundary.json").read_text())["failures"] > 0
        assert len((out / "boundary.csv").read_text().splitlines()) == 51

    def test_nan_statistic_exits_3(self, tmp_path, monkeypatch, capsys):
        # a NaN statistic neither rises nor falls along an axis; the spot
        # checks count it as broken, as a NaN step fails a monotone scan
        monkeypatch.setattr(detectors, "log_lrt_block_term",
                            lambda z, *args: np.full(np.shape(z), np.nan))
        cfgp = write_config(tmp_path, fading_scenario(n=64, M=2, P_f=0.0125))
        out = tmp_path / "bnd"
        assert run_cli(["boundary", cfgp, "--draws", "50", "--seed", "3",
                        "--out", str(out)]) == 3
        # 50 draws, all spot-checked, on 2 axes each
        assert "fell along 100 spot-check axes" in capsys.readouterr().err
        assert json.loads((out / "boundary.json").read_text())["failures"] == 100

    def test_spot_check_mismatch_exits_3(self, tmp_path, monkeypatch, capsys):
        # every axis reported as crossing the boundary within delta, so
        # every draw outside the region mismatches
        def every_axis_crosses(cfg, X, delta, log_gamma):
            return np.ones(X.shape, dtype=bool), np.zeros(X.shape, dtype=bool)

        monkeypatch.setattr(theory, "_axis_crossings", every_axis_crosses)
        cfgp = write_config(tmp_path, fading_scenario(n=64, M=2, P_f=0.0125))
        out = tmp_path / "bnd"
        assert run_cli(["boundary", cfgp, "--draws", "50", "--seed", "3",
                        "--out", str(out)]) == 3
        assert "disagreed" in capsys.readouterr().err
        report = json.loads((out / "boundary.json").read_text())
        assert report["spot_mismatches"] > 0 and report["failures"] == 0
        assert len((out / "boundary.csv").read_text().splitlines()) == 51


class TestArtifactsMatchLibrary:
    def test_curve_rows_and_boundary_inputs(self, tmp_path):
        # curve.csv holds willie_min_error's held-out rates per slot length,
        # and boundary.json echoes the config and arguments it was run with
        cfgp = write_config(tmp_path, awgn_scenario(n=64))
        out = tmp_path / "curve"
        assert run_cli(["covertness", cfgp, "--eps", "0.1", "--n-list", "64,128",
                        "--trials", "200", "--seed", "3", "--out", str(out)]) == 0
        rows = [line.split(",") for line in (out / "curve.csv").read_text().splitlines()[1:]]
        scenario, _ = model.load_scenario(cfgp)
        base = model.with_updates(
            scenario, P_f=model.select_covert_params(scenario, 0.1).P_f)
        for n, row in zip([64, 128], rows, strict=True):
            sc = model.with_updates(base, n=n)
            rates = harness.willie_min_error(sc, detectors.config_for_scenario(sc), 200, 3).rates
            assert [int(row[0]), *map(float, row[1:])] == [
                n, rates.threshold, rates.sum, *rates.ci_sum]

        cfgp = write_config(tmp_path, fading_scenario(n=64, M=2, P_f=0.0125), "m2.json")
        out = tmp_path / "bnd"
        assert run_cli(["boundary", cfgp, "--draws", "300", "--seed", "4",
                        "--out", str(out)]) == 0
        report = json.loads((out / "boundary.json").read_text())
        cfg = detectors.config_for_scenario(model.load_scenario(cfgp)[0])
        delta = theory.delta_for_boundary_mass(0.1, cfg.M, cfg.zeta)
        assert [report[k] for k in ("M", "n", "delta", "log_gamma", "draws")] == [
            cfg.M, cfg.n, delta, cfg.log_gamma, 300]

    @pytest.mark.parametrize("args, artifact", [
        (["covertness", "awgn.json", "--n-list", "100,1000", "--trials", "200"], "curve.csv"),
        (["boundary", "fading_m2.json", "--draws", "300"], "boundary.csv"),
    ], ids=["covertness", "boundary"])
    def test_seed_taken_modulo_2_64(self, tmp_path, args, artifact):
        cfgp = Path(__file__).resolve().parents[1] / "configs" / args[1]
        bodies = []
        for seed in ("-1", str(2**64 - 1)):
            out = tmp_path / seed
            assert run_cli([args[0], str(cfgp), *args[2:], "--seed", seed, "--out", str(out)]) == 0
            bodies.append((out / artifact).read_bytes())
        assert bodies[0] == bodies[1]


def write_artifacts(out, artifacts):
    args = argparse.Namespace(out=str(out), command="test", seed=0)
    cli._write(args, awgn_scenario(), "0" * 64, artifacts)


class TestWriter:
    def test_full_precision_round_trip(self, tmp_path):
        values = [0.1 + 0.2, 1.0 / 3.0, 2.0**-52, 123456.789012345678]
        write_artifacts(tmp_path, {"vals.csv": (["x"], [(v,) for v in values])})
        lines = (tmp_path / "vals.csv").read_text().splitlines()
        assert lines[0] == "x"
        parsed = [float(s) for s in lines[1:]]
        assert parsed == values

    def test_numpy_scalar_cells_round_trip(self, tmp_path):
        # numpy 2 float scalars subclass float but repr as np.float64(...)
        rows = [(np.float64(0.1), np.int64(3)), (np.float64(1.0) / 3.0, np.int64(-7))]
        write_artifacts(tmp_path, {"np.csv": (["x", "k"], rows)})
        lines = (tmp_path / "np.csv").read_text().splitlines()
        assert lines[0] == "x,k"
        parsed = [(float(x), int(k)) for x, k in (ln.split(",") for ln in lines[1:])]
        assert parsed == [(float(x), int(k)) for x, k in rows]

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=20))
    @settings(max_examples=30, deadline=None)
    def test_round_trip_any_floats(self, values):
        with tempfile.TemporaryDirectory() as out:
            write_artifacts(out, {"v.csv": (["v"], [(v,) for v in values])})
            with open(os.path.join(out, "v.csv")) as fh:
                parsed = [float(s) for s in fh.read().splitlines()[1:]]
        assert parsed == values

    def test_json_artifact_and_manifest(self, tmp_path):
        write_artifacts(tmp_path, {"b.json": {"x": [1, 2.5]}, "a.csv": (["h"], iter([(1,)]))})
        assert (tmp_path / "b.json").read_text() == json.dumps({"x": [1, 2.5]}, indent=2)
        assert (tmp_path / "a.csv").read_text() == "h\n1\n"
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert list(manifest) == ["command", "scenario", "seed", "tool_version", "timestamp",
                                  "config_sha256", "outputs"]
        assert manifest["outputs"] == ["a.csv", "b.json"]

    def test_manifest_hashes_the_config_bytes(self, tmp_path):
        # the bytes on disk, hashed by the one reader the commands share
        cfgp = write_config(tmp_path, awgn_scenario(n=64))
        out = tmp_path / "out"
        assert run_cli(["check", cfgp, "--grid-points", "40", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        want = hashlib.sha256(Path(cfgp).read_bytes()).hexdigest()
        assert manifest["config_sha256"] == want == model.load_scenario(cfgp)[1]
        with pytest.raises(model.ConfigError, match="cannot read config"):
            model.load_scenario(tmp_path / "missing.json")

    @pytest.mark.parametrize("config, args", [
        ("awgn", ["covertness", "--n-list", "64", "--trials", "50"]),
        ("awgn", ["roc", "--trials", "50", "--grid-points", "11"]),
        ("m2", ["check", "--grid-points", "40"]),
        ("m2", ["boundary", "--draws", "100"]),
        ("bob", ["capacity", "--samples", "2000"]),
    ], ids=["covertness", "roc", "check", "boundary", "capacity"])
    def test_manifest_lists_every_artifact(self, tmp_path, config, args):
        scenario = {
            "awgn": awgn_scenario(n=64),
            "m2": fading_scenario(n=64, M=2, P_f=0.0125),
            "bob": fading_scenario(n=400, M=1, P_f=0.0125, ab="fading", jb="fading"),
        }[config]
        cfgp = write_config(tmp_path, scenario)
        out = tmp_path / "out"
        assert run_cli([args[0], cfgp, *args[1:], "--seed", "2", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == args[0]
        assert manifest["outputs"] == sorted(set(os.listdir(out)) - {"manifest.json"})


class TestCapacity:
    def test_silent_power_rows_zero(self, tmp_path):
        cfgp = write_config(tmp_path, fading_scenario(
            n=400, M=1, P_f=0.0125, ab="fading", jb="fading"))
        out = tmp_path / "cap"
        code = run_cli(["capacity", cfgp, "--pf-list", "0.0,0.0125",
                        "--samples", "2000", "--seed", "8", "--out", str(out)])
        assert code == 0
        lines = (out / "capacity.csv").read_text().splitlines()
        assert lines[0] == "P_f,P_j,outage_prob,R,bits"
        rows = [ln.split(",") for ln in lines[1:]]
        assert float(rows[0][3]) == 0.0 and rows[0][4] == "0"
        assert float(rows[1][3]) > 0.0

    def test_repeatable(self, tmp_path):
        cfgp = write_config(tmp_path, fading_scenario(
            n=400, M=1, P_f=0.0125, ab="fading", jb="fading"))
        bodies = []
        for tag in ("r1", "r2"):
            out = tmp_path / tag
            run_cli(["capacity", cfgp, "--samples", "2000", "--seed", "8",
                     "--out", str(out)])
            bodies.append((out / "capacity.csv").read_bytes())
        assert bodies[0] == bodies[1]

    def test_rates_pinned(self, tmp_path):
        # the rates of the benchmark's draw count at --seed 1, so a shifted
        # receiver stream or a different order statistic shows
        configs = Path(__file__).resolve().parents[1] / "configs"
        out = tmp_path / "cap"
        code = run_cli(["capacity", str(configs / "bob_fading.json"), "--samples", "100000",
                        "--pf-list", "0.0,0.0125,0.1", "--seed", "1", "--out", str(out)])
        assert code == 0
        with open(out / "capacity.csv", newline="") as fh:
            rates = [float(row["R"]).hex() for row in csv.DictReader(fh)]
        assert rates == ["0x0.0p+0", "0x1.e41fbdf29a3f0p-12", "0x1.e39525389df5dp-9"]


class TestConsoleEntry:
    def test_module_invocation(self, tmp_path):
        cfgp = write_config(tmp_path, awgn_scenario(n=64))
        out = tmp_path / "sub"
        proc = subprocess.run(
            [sys.executable, "-m", "covertsim.cli", "covertness", cfgp,
             "--n-list", "64", "--trials", "60", "--seed", "1", "--out", str(out)],
            capture_output=True, text=True, env=child_env(),
        )
        assert proc.returncode == 0
        assert (out / "curve.csv").exists()

    def test_import_leaves_scipy_out(self):
        # scipy is a test-only dependency; importing it would add about a
        # fifth of a second and 18 MB to every CLI process.  numpy.polynomial
        # would add 1.35 MB: the quadrature rule is a literal table instead.
        # numpy.random would add 7-10 ms and 2.6 MB to a command that draws
        # nothing (check): only the first draw may load it
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, covertsim.cli; print(sorted(m for m in sys.modules"
             " if m.split('.')[0] == 'scipy' or m.startswith('numpy.polynomial')"
             " or m.startswith('numpy.random')))"],
            capture_output=True, text=True, check=True, env=child_env(),
        )
        assert proc.stdout.strip() == "[]"

    def test_package_import_loads_no_submodule(self):
        # every caller imports the submodule it needs, so the package alone
        # must not pay for numpy
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, covertsim; print('numpy' in sys.modules,"
             " sorted(m for m in sys.modules if m.startswith('covertsim.')))"],
            capture_output=True, text=True, check=True, env=child_env(),
        )
        assert proc.stdout.strip() == "False []"

    def test_usage_error_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "covertsim.cli", "unknown-command"],
            capture_output=True, text=True, env=child_env(),
        )
        assert proc.returncode == 2


def perfbench_module(name):
    """perfbench/<name>.py, loaded once from its file without running its
    main; it is registered in sys.modules, where dataclasses look it up."""
    key = f"perfbench_{name}"
    if key not in sys.modules:
        path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
        spec = importlib.util.spec_from_file_location(key, path)
        sys.modules[key] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[key])
    return sys.modules[key]


class TestBenchmarkLauncher:
    """perfbench/launch.py times model.load_scenario as set-up, and its
    tracer swaps the positional f handed to numerics.bisect_monotone; both
    must keep working on this source tree.  Each benchmark invocation runs
    as perfbench/run.py passes it and must pass run.py's own output check."""

    def launch(self, tmp_path, flags, args):
        root = Path(__file__).resolve().parents[1]
        report = tmp_path / "report.json"
        proc = subprocess.run(
            [sys.executable, str(root / "perfbench" / "launch.py"), str(report), *flags,
             "--", *args],
            cwd=root, capture_output=True, text=True, env=child_env(), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(report.read_text())

    def run_invocation(self, tmp_path, workload, command, config):
        """A benchmark workload's invocation of command on config, launched
        with the flags run.py adds and checked by run.py's check for it."""
        invocations = perfbench_module("run").WORKLOADS[workload].invocations
        inv = next(inv for inv in invocations if inv.args[:2] == (command, config))
        out = tmp_path / "out"
        rep = self.launch(tmp_path, [], [
            *inv.args, "--seed", "1", "--workers", "1", "--out", str(out)])
        assert inv.check(out) == []
        return rep

    def test_setup_only(self, tmp_path):
        rep = self.launch(tmp_path, ["--setup-only"], ["covertness", "configs/awgn.json"])
        assert isinstance(rep["setup_s"], float) and rep["setup_s"] > 0

    def test_traced_covertness(self, tmp_path):
        # covertness never reads the one-block power threshold, so the trace
        # holds no bisection
        rep = self.launch(tmp_path, ["--trace"], [
            "covertness", "configs/awgn.json", "--n-list", "100", "--trials", "20",
            "--seed", "1", "--out", str(tmp_path / "out"),
        ])
        assert isinstance(rep["setup_s"], float)
        assert "numerics:bisect_monotone" not in rep["trace"]["absent"]
        assert rep["trace"]["f_evals"] == 0
        assert rep["trace"]["groups"]["harness.collect"]["calls"] == 1
        assert "numerics.bisect" not in rep["trace"]["groups"]

    def test_tracer_counts_the_power_threshold_bisection(self, monkeypatch):
        # no CLI command bisects any more; the tracer's swap of the f that
        # harness passes positionally is checked on the call in process
        tracer = perfbench_module("tracer").Tracer()
        monkeypatch.setattr(harness, "bisect_monotone", tracer._wrap(
            "numerics:bisect_monotone", "numerics.bisect", harness.bisect_monotone,
            NumericalError))
        cfg = detectors.config_for_scenario(awgn_scenario(n=100, P_f=0.025))
        z = harness.lrt_power_threshold(cfg, 1.0, 1000.0)
        monkeypatch.undo()
        assert z == harness.lrt_power_threshold(cfg, 1.0, 1000.0)
        assert tracer.f_evals > 2

    def test_covertness_workload(self, tmp_path):
        # the mc_awgn workload's invocation: both slot lengths above the floor
        self.run_invocation(tmp_path, "mc_awgn", "covertness", "configs/awgn.json")

    def test_capacity_workload(self, tmp_path):
        # the certify workload's capacity invocation: a positive rate per power
        rep = self.run_invocation(tmp_path, "certify", "capacity", "configs/bob_fading.json")
        assert isinstance(rep["setup_s"], float)

    def test_roc_workload(self, tmp_path):
        # the mc_mblock workload's invocation: 101 rows, monotone in both errors
        self.run_invocation(tmp_path, "mc_mblock", "roc", "configs/fading_m4.json")

    def test_boundary_workload(self, tmp_path):
        # the boundary workload's invocation: no mismatch or failure, and the
        # interval's low end under the analytic bound
        self.run_invocation(tmp_path, "boundary", "boundary", "configs/fading_m2.json")

    @pytest.mark.parametrize("config", ["awgn", "fading_m4"])
    def test_check_workload(self, tmp_path, config):
        # the certify workload's check invocations: every check passes
        self.run_invocation(tmp_path, "certify", "check", f"configs/{config}.json")


class TestReadme:
    def test_commands_parse_and_name_shipped_configs(self):
        # README is the only recipe for the experiments; it must not drift
        root = Path(__file__).resolve().parents[1]
        text = (root / "README.md").read_text()
        blocks = re.findall(r"^```[^\n]*\n(.*?)^```", text, flags=re.S | re.M)
        lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
        commands = [shlex.split(ln)[1:] for ln in lines if ln.startswith("covertsim ")]
        assert len(commands) >= 10
        parser = cli.build_parser()
        for argv in commands:
            args = parser.parse_args(argv)
            assert (root / args.config).is_file(), argv
