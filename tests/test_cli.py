"""CLI tests: exit codes, CSV schemas, determinism, format mirroring."""

import json
import math
import os
import re
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from bgrf import asymptotics, cli, fields, montecarlo
from bgrf.cli import main
from bgrf.pickands import discrete_pickands_h1, estimate_H_constant

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")


def src_env():
    """The environment with this checkout's src first on PYTHONPATH, for
    running bgrf in a subprocess."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)}


def write_config(tmp_path, name="cfg.json", **sections):
    base = {
        "model": {"nu1": 0.5, "nu2": 0.5, "nu12": 1.5, "rho": 0.4, "dim_N": 1},
    }
    base.update(sections)
    p = tmp_path / name
    p.write_text(json.dumps(base))
    return str(p)


# the touching-2d benchmark config
TOUCHING_2D = {
    "model": {"nu1": 0.5, "nu2": 0.75, "nu12": 1.5, "rho": 0.4, "dim_N": 2},
    "domain": {"A1": [[[0, 1], [0, 1]]], "A2": [[[0, 1], [1, 2]]], "split_M": 1},
    "grid": {"points_per_axis": 20},
    "estimation": {"reps": 50_000},
    "verify": {"riemann_T": 4.0},
}


def dump_tag(cfg):
    """The tag simulate writes for the loaded config cfg."""
    m = cli.build_model(cfg)
    g = fields.GridSpec(cli.build_domain(cfg, m), cfg["grid"]["points_per_axis"])
    return montecarlo.record_tag(m, g, cfg["estimation"]["seed"])


def read_rows(path):
    lines = open(path).read().splitlines()
    assert lines[0].startswith("# config_sha256=")
    header = lines[1].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[2:]]


class TestValidate:
    def test_passing_model_exits_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["validate", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_invalid_rho_exits_one(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, model={"nu1": 0.5, "nu2": 0.5, "nu12": 1.5, "rho": 0.6, "dim_N": 1}
        )
        assert main(["validate", "--config", cfg]) == 1
        assert "validity" in capsys.readouterr().out

    @pytest.mark.parametrize("change, code", [
        ({"nu1": 0.9, "rho": 0.1, "a1": 1e-6, "a2": 1e-6, "a12": 1e-6}, 0),
        ({"a1": 1e-3, "a2": 1e-3, "a12": 1e-3, "rho": 0.5}, 0),
        ({"rho": -0.3}, 1),
        ({"nu12": 0.8}, 1),
        ({"nu2": 1.5}, 1),
    ], ids=["small-scales", "scale-1e-3", "rho-negative", "nu12-below-one",
            "nu2-above-one"])
    def test_validate_and_expansion_agree(self, tmp_path, capsys, change, code):
        # on valid models, validate passes exactly when the theorem
        # commands evaluate, since both read check_assumptions
        cfg = write_config(tmp_path, model={
            "nu1": 0.5, "nu2": 0.5, "nu12": 1.5, "rho": 0.4, "dim_N": 1, **change})
        assert main(["validate", "--config", cfg]) == code
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 5 and lines[-1].startswith("[PASS] validity")
        assert main(["expansion", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == code
        failed = [line.split(": ", 1)[1] for line in lines if line.startswith("[FAIL]")]
        assert all(item in capsys.readouterr().err for item in failed)

    def test_malformed_json_exits_two(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["validate", "--config", str(p)]) == 2

    def test_config_not_utf8_exits_two(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_bytes(b'{"model": {"nu1": 0.5\xff}}')
        assert main(["validate", "--config", str(p)]) == 2
        assert capsys.readouterr().err.startswith("config error: cannot parse config")

    def test_unknown_key_exits_two(self, tmp_path):
        cfg = write_config(tmp_path, extra_section={"x": 1})
        assert main(["validate", "--config", cfg]) == 2

    def test_unknown_model_key_exits_two(self, tmp_path):
        cfg = write_config(
            tmp_path,
            model={"nu1": 0.5, "nu2": 0.5, "nu12": 1.5, "rho": 0.4, "typo": 1},
        )
        assert main(["validate", "--config", cfg]) == 2

    @pytest.mark.parametrize("section", ["model", "grid", "estimation"])
    @pytest.mark.parametrize("value", [3, [], None])
    def test_non_object_section_exits_two(self, tmp_path, capsys, section, value):
        cfg = write_config(tmp_path, **{section: value})
        assert main(["validate", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: section '{section}' must be a JSON object\n"

    @pytest.mark.parametrize("command, section, values, message", [
        ("mc-excursion", "thresholds", {"u": 3}, "thresholds.u must be a list of numbers"),
        ("mc-excursion", "thresholds", {"u": [2.0, "3"]}, "thresholds.u must be a list"),
        ("pickands", "estimation", {"T_list": 4}, "estimation.T_list must be a list"),
        ("pickands", "estimation", {"reps": "x"}, "estimation.reps must be an integer"),
        ("pickands", "estimation", {"reps": 4000.0}, "estimation.reps must be an integer"),
        ("pickands", "estimation", {"eta": "1/64"}, "estimation.eta must be a number"),
        ("pickands", "estimation", {"seed": True}, "estimation.seed must be an integer"),
        ("theorem", "estimation", {"H1": "1"}, "estimation.H1 must be a number"),
        ("riemann-check", "verify", {"riemann_T": [1]}, "verify.riemann_T must be a number"),
        ("verify", "verify", {"rate_tol": "10%"}, "verify.rate_tol must be a number"),
        ("simulate", "grid", {"points_per_axis": "10"},
         "grid.points_per_axis must be an integer"),
    ], ids=["u-scalar", "u-string", "T_list-scalar", "reps-string", "reps-float",
            "eta-string", "seed-bool", "H1-string", "riemann_T-list", "rate_tol-string",
            "points-string"])
    def test_wrong_value_type_exits_two(self, tmp_path, capsys, command, section,
                                        values, message):
        cfg = write_config(tmp_path, **{section: values})
        code = main([command, "--config", cfg, "--out-dir", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"config error: {message}") and "Traceback" not in err

    # a small config on which every command below would otherwise run
    SMALL = {
        "grid": {"points_per_axis": 5},
        "estimation": {"reps": 1000, "seed": 3, "eta": 0.125, "T_list": [1, 2, 4]},
        "thresholds": {"u": [1.0, 1.4, 1.8, 2.2]},
        "verify": {"rate_tol": 0.5, "riemann_u": [25.0]},
    }

    def small_config(self, tmp_path, section, values):
        sections = {k: dict(v) for k, v in self.SMALL.items()}
        sections.setdefault(section, {}).update(values)
        return write_config(tmp_path, **sections)

    # JSON as Python reads it: NaN and Infinity are accepted, and an
    # overflowing number is inf
    @pytest.mark.parametrize("command, section, values, message", [
        ("verify", "verify", {"riemann_band": math.inf},
         "verify.riemann_band must be a number, got inf"),
        ("verify", "verify", {"rate_tol": math.nan}, "verify.rate_tol must be a number, got nan"),
        ("theorem", "estimation", {"H1": math.nan},
         "estimation.H1 must be a number or null, got nan"),
        ("pickands", "estimation", {"T_list": [1, 2, "1e400"]},
         "estimation.T_list must be a list of numbers, got [1, 2, inf]"),
        ("riemann-check", "verify", {"riemann_u": [-math.inf]},
         "verify.riemann_u must be a list of numbers, got [-inf]"),
        ("theorem", "domain", {"split_M": True}, "domain.split_M must be an integer or null"),
        ("validate", "thresholds", {"u": 3}, "thresholds.u must be a list of numbers, got 3"),
        ("expansion", "verify", {"riemann_C": "auto"},
         "verify.riemann_C must be a number or null"),
    ], ids=["riemann_band-inf", "rate_tol-nan", "H1-nan", "T_list-inf", "riemann_u-inf",
            "split_M-bool", "validate-u-scalar", "unread-key"])
    def test_checked_at_load_for_every_command(self, tmp_path, capsys, command, section,
                                               values, message):
        cfg = self.small_config(tmp_path, section, values)
        Path(cfg).write_text(Path(cfg).read_text().replace('"1e400"', "1e400"))
        out = tmp_path / "o"
        code = main([command, "--config", cfg, "--out-dir", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith(f"config error: {message}")
        assert "Traceback" not in captured.err and captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("key", ["A1", "A2"])
    @pytest.mark.parametrize("box", [
        [[[0, math.nan]]], [[[0, math.inf]]], [[[False, True]]], [[["0", "1"]]],
        [[[0, 1, 7]]],
    ], ids=["nan", "inf", "bool", "string", "three-ends"])
    def test_domain_boxes_checked_at_load(self, tmp_path, capsys, key, box):
        domain = {"A1": [[[0, 1]]], "A2": [[[0, 1]]], "split_M": None, key: box}
        cfg = self.small_config(tmp_path, "domain", domain)
        out = tmp_path / "o"
        assert main(["theorem", "--config", cfg, "--out-dir", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"config error: domain.{key} must be a list of boxes "
                                f"of [lo, hi] pairs or null, got {box!r}\n")
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("command, flags, message", [
        ("theorem", ["--u", "nan"], "thresholds.u must be a list of numbers, got [nan]"),
        ("verify", ["--u", "1", "inf"], "thresholds.u must be a list of numbers, got [1.0, inf]"),
        ("riemann-check", ["--u=-inf"],
         "verify.riemann_u must be a list of numbers, got [-inf]"),
    ], ids=["theorem-nan", "verify-inf", "riemann-check-inf"])
    def test_flags_pass_the_same_check(self, tmp_path, capsys, command, flags, message):
        cfg = write_config(tmp_path, **self.SMALL)
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out-dir", str(out), *flags]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    def test_config_error_before_the_riemann_checks(self, tmp_path, monkeypatch, capsys):
        # a bad estimation.H1 beside a riemann_u over the cell budget: the
        # config error is found first, and nothing is summed or counted
        def unreachable(*args, **kwargs):
            raise AssertionError("Riemann cells counted before the config was checked")

        monkeypatch.setattr(cli, "riemann_cells", unreachable)
        cfg = write_config(tmp_path, **{
            **TOUCHING_2D, "estimation": {"reps": 50_000, "H1": "1", "H2": 1.0}})
        out = tmp_path / "o"
        assert main(["verify", "--config", cfg, "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: estimation.H1 must be a number or null, got '1'")
        assert not out.exists()

    @pytest.mark.parametrize("model, message", [
        ({"nu1": math.inf}, "nu1 must be finite and > 0, got inf"),
        ({"a12": math.inf}, "a12 must be finite and > 0, got inf"),
        ({"dim_N": True}, "dim_N must be a positive integer, got True"),
        ({"rho": False}, "rho must be in (-1, 1), got False"),
    ], ids=["nu1-inf", "a12-inf", "dim_N-bool", "rho-bool"])
    def test_invalid_model_exits_two(self, tmp_path, model, message):
        # in a subprocess with a timeout: an infinite nu once looped forever
        cfg = write_config(tmp_path, model={
            "nu1": 0.5, "nu2": 0.5, "nu12": 1.5, "rho": 0.4, "dim_N": 1, **model})
        proc = subprocess.run(
            [sys.executable, "-m", "bgrf.cli", "validate", "--config", cfg],
            capture_output=True, text=True, env=src_env(), timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stderr == f"config error: invalid model: {message}\n"

    @pytest.mark.parametrize("command, section, values, path", [
        ("verify", "verify", {"riemann_u": []}, "verify.riemann_u"),
        ("mc-excursion", "thresholds", {"u": []}, "thresholds.u"),
        ("theorem", "thresholds", {"u": []}, "thresholds.u"),
        ("riemann-check", "verify", {"riemann_u": []}, "verify.riemann_u"),
    ], ids=["verify", "mc-excursion", "theorem", "riemann-check"])
    def test_empty_thresholds_exit_two(self, tmp_path, capsys, command, section,
                                       values, path):
        cfg = write_config(tmp_path, **{section: values})
        out = tmp_path / "o"
        code = main([command, "--config", cfg, "--out-dir", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"config error: {path} must not be empty\n"
        assert "PASSED" not in captured.out
        assert not (out / f"{command}.csv").exists()

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_threads_below_one_is_a_usage_error(self, tmp_path, capsys, threads):
        cfg = write_config(tmp_path)
        with pytest.raises(SystemExit) as exit_:
            main(["pickands", "--config", cfg, "--threads", threads])
        assert exit_.value.code == 2
        assert f"--threads must be at least 1, got {threads}" in capsys.readouterr().err


class TestExpansion:
    def test_values(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["expansion", "--config", cfg, "--out-dir", str(out)]) == 0
        (row,) = read_rows(out / "expansion.csv")
        assert float(row["alpha1"]) == 1.0
        assert float(row["c1"]) == pytest.approx(1.0)
        assert float(row["r2_zero"]) == pytest.approx(0.4 * -1.0, rel=1e-9)


class TestPickands:
    def test_sequence_rows(self, tmp_path):
        cfg = write_config(
            tmp_path,
            estimation={"reps": 4000, "seed": 7, "eta": 0.0625, "T_list": [1, 2, 4]},
        )
        out = tmp_path / "out"
        assert main(["pickands", "--config", cfg, "--out-dir", str(out)]) == 0
        rows = read_rows(out / "pickands.csv")
        assert [float(r["T"]) for r in rows] == [1.0, 2.0, 4.0]
        values = [float(r["value"]) for r in rows]
        assert values[0] >= values[1] >= values[2]  # H(T)/T decreasing

    def test_threads_give_identical_bytes_on_odd_reps(self, tmp_path):
        # 12,289 paths are 6,145 noise columns, each a path and its mirror:
        # a full block, then a partial one whose last mirror is dropped
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "model": {"nu1": 0.5, "nu2": 0.5, "nu12": 1.5, "rho": 0.4, "dim_N": 1},
            "estimation": {"reps": 12289, "seed": 7, "eta": 0.015625,
                           "T_list": [1.0, 2.0, 4.0, 8.0]},
        }))
        for t in (1, 2):
            subprocess.run(
                [sys.executable, "-m", "bgrf.cli", "pickands", "--config", str(cfg),
                 "--out-dir", str(tmp_path / f"t{t}"), "--threads", str(t)],
                check=True, capture_output=True, env=src_env(),
            )
        csv1, csv2 = (tmp_path / f"t{t}" / "pickands.csv" for t in (1, 2))
        assert csv1.read_bytes() == csv2.read_bytes()

    @pytest.mark.parametrize("command, nu1, estimation, message", [
        ("pickands", 0.5, {"eta": 0}, "eta must be finite and positive, got 0.0"),
        ("pickands", 0.5, {"eta": -0.125}, "eta must be finite and positive, got -0.125"),
        ("theorem", 0.75, {"eta": 0}, "eta must be finite and positive, got 0.0"),
        ("verify", 0.75, {"eta": 0}, "eta must be finite and positive, got 0.0"),
    ], ids=["eta-zero", "eta-negative", "theorem-eta-zero", "verify-eta-zero"])
    def test_bad_eta_or_horizon_exits_one(self, tmp_path, capsys, command, nu1,
                                          estimation, message):
        cfg = write_config(
            tmp_path,
            model={"nu1": nu1, "nu2": 0.5, "nu12": 1.5, "rho": 0.4, "dim_N": 1},
            grid={"points_per_axis": 5},
            estimation={"reps": 1000, "seed": 3, **estimation},
            verify={"riemann_u": [25.0]},
        )
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err.endswith(f"error: {message}\n")
        assert not (out / f"{command}.csv").exists()


class TestTheorems:
    def overlap_cfg(self, tmp_path):
        return write_config(
            tmp_path,
            estimation={"reps": 1000, "seed": 1, "H1": 1.0, "H2": 1.0},
            thresholds={"u": [2.0, 3.0]},
        )

    def touching_cfg(self, tmp_path):
        return write_config(
            tmp_path,
            name="touch.json",
            domain={"A1": [[[0, 1]]], "A2": [[[1, 2]]], "split_M": 0},
            estimation={"reps": 1000, "seed": 1, "H1": 1.0, "H2": 1.0},
            thresholds={"u": [2.0, 3.0]},
        )

    def test_overlap_takes_M_equal_N(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main([
            "theorem", "--config", self.overlap_cfg(tmp_path), "--out-dir", str(out)
        ]) == 0
        assert capsys.readouterr().err.endswith(
            "case: M = 1, N = 1, mes_M = 1 (overlapping domains)\n")
        rows = read_rows(out / "theorem.csv")
        for r in rows:
            rebuilt = (
                float(r["constant"])
                * float(r["u"]) ** float(r["u_power"])
                * math.exp(float(r["exp_rate"]) * float(r["u"]) ** 2)
            )
            assert rebuilt == pytest.approx(float(r["value"]), rel=1e-12)

    def test_touching_domains_take_split_M(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main([
            "theorem", "--config", self.touching_cfg(tmp_path), "--out-dir", str(out)
        ]) == 0
        assert capsys.readouterr().err.endswith(
            "case: M = 0, N = 1, mes_M = 1 (touching domains)\n")
        rows = read_rows(out / "theorem.csv")
        assert float(rows[0]["u_power"]) == pytest.approx(0.0)

    def test_null_intersection_needs_split(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            domain={"A1": [[[0, 1]]], "A2": [[[1, 2]]], "split_M": None},
            estimation={"reps": 1000, "seed": 1, "H1": 1.0, "H2": 1.0},
        )
        out = tmp_path / "o"
        assert main(["theorem", "--config", cfg, "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: A1 and A2 meet in a null set, and Theorem 2 needs domain.split_M\n")
        assert not (out / "theorem.csv").exists()


class TestMcExcursion:
    def cfg(self, tmp_path):
        return write_config(
            tmp_path,
            grid={"points_per_axis": 10},
            estimation={"reps": 5000, "seed": 3},
            thresholds={"u": [1.0, 2.0]},
        )

    def test_schema_and_monotonicity(self, tmp_path):
        out = tmp_path / "out"
        assert main(["mc-excursion", "--config", self.cfg(tmp_path), "--out-dir", str(out)]) == 0
        rows = read_rows(out / "mc-excursion.csv")
        assert len(rows) == 2
        assert float(rows[0]["p_hat"]) >= float(rows[1]["p_hat"])
        for r in rows:
            assert int(r["hits"]) == round(float(r["p_hat"]) * int(r["reps"]))

    def test_byte_identical_rerun_and_threads(self, tmp_path):
        cfg = self.cfg(tmp_path)
        out1, out2, out3 = (tmp_path / n for n in ("o1", "o2", "o3"))
        main(["mc-excursion", "--config", cfg, "--out-dir", str(out1)])
        main(["mc-excursion", "--config", cfg, "--out-dir", str(out2)])
        main(["mc-excursion", "--config", cfg, "--out-dir", str(out3), "--threads", "4"])
        b1 = (out1 / "mc-excursion.csv").read_bytes()
        assert b1 == (out2 / "mc-excursion.csv").read_bytes()
        assert b1 == (out3 / "mc-excursion.csv").read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        cfg = self.cfg(tmp_path)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        main(["mc-excursion", "--config", cfg, "--out-dir", str(out1)])
        main(["mc-excursion", "--config", cfg, "--out-dir", str(out2), "--seed", "99"])
        assert (out1 / "mc-excursion.csv").read_bytes() != (out2 / "mc-excursion.csv").read_bytes()

    def test_json_format_mirrors_rows(self, tmp_path):
        cfg = self.cfg(tmp_path)
        out = tmp_path / "oj"
        main(["mc-excursion", "--config", cfg, "--out-dir", str(out), "--format", "json"])
        lines = (out / "mc-excursion.jsonl").read_text().splitlines()
        meta = json.loads(lines[0])
        assert "config_sha256" in meta["_meta"]
        rows = [json.loads(ln) for ln in lines[1:]]
        assert len(rows) == 2 and rows[0]["u"] == 1.0

    def test_cholesky_jitter_is_one_warning_line(self, tmp_path):
        # 400 nodes on [0, 1e-4] at nu = 0.99: the covariance factors only
        # with jitter, which the CLI names in one line of its own style. In
        # a subprocess, since pytest records warnings instead of printing
        cfg = write_config(
            tmp_path,
            model={"nu1": 0.99, "nu2": 0.99, "nu12": 1.5, "rho": 0.4, "dim_N": 1},
            domain={"A1": [[[0, 1e-4]]], "A2": [[[0, 1e-4]]]},
            grid={"points_per_axis": 400},
            estimation={"reps": 2000},
            thresholds={"u": [0.5, 1.0, 1.5]},
        )
        argv = ["mc-excursion", "--config", cfg, "--out-dir", str(tmp_path / "o")]
        proc = subprocess.run([sys.executable, "-m", "bgrf.cli", *argv],
                              capture_output=True, text=True, env=src_env(), timeout=120)
        assert proc.returncode == 0
        assert proc.stderr == "warning: Cholesky factor took jitter 1e-13 on the diagonal\n"
        # in process the warning stays a warning, and main leaves the
        # formatting as it found it
        before = warnings.formatwarning
        with pytest.warns(RuntimeWarning, match="jitter 1e-13 on the diagonal"):
            assert main(argv) == 0
        assert warnings.formatwarning is before


class TestSimulateAndReuse:
    def test_simulate_then_mc_from_dump(self, tmp_path):
        cfg = write_config(
            tmp_path,
            grid={"points_per_axis": 6},
            estimation={"reps": 2000, "seed": 5},
            thresholds={"u": [1.5]},
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out-dir", str(out)]) == 0
        dump = out / "samples.bgrf"
        assert dump.exists()
        out2 = tmp_path / "reuse"
        assert main([
            "mc-excursion", "--config", cfg, "--out-dir", str(out2),
            "--samples", str(dump),
        ]) == 0
        out3 = tmp_path / "live"
        main(["mc-excursion", "--config", cfg, "--out-dir", str(out3)])
        assert (out2 / "mc-excursion.csv").read_bytes() == (out3 / "mc-excursion.csv").read_bytes()

    # a record of R replicates stands in for any run of reps <= R: an odd
    # reps, a reps one replicate into the second block, and 300 + 300 nodes,
    # whose last panel is short
    @pytest.mark.parametrize("points, held, reps", [
        (10, 5000, 2001), (10, 20_001, 8193), (300, 9000, 8193),
    ], ids=["odd", "second-block", "600-nodes"])
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_record_read_at_fewer_reps_matches_fresh(self, tmp_path, points, held, reps,
                                                     threads):
        cfg = write_config(tmp_path, grid={"points_per_axis": points},
                           estimation={"reps": held, "seed": 5}, thresholds={"u": [1.0, 2.0]})
        common = ["--config", cfg, "--threads", threads]
        assert main(["simulate", *common, "--out-dir", str(tmp_path / "out")]) == 0
        for route, extra in (("reuse", ["--samples", str(tmp_path / "out" / "samples.bgrf")]),
                             ("live", [])):
            assert main(["mc-excursion", *common, "--reps", str(reps),
                         "--out-dir", str(tmp_path / route), *extra]) == 0
        got = (tmp_path / "reuse" / "mc-excursion.csv").read_bytes()
        assert got == (tmp_path / "live" / "mc-excursion.csv").read_bytes()
        assert [row["reps"] for row in read_rows(tmp_path / "reuse" / "mc-excursion.csv")] == [
            str(reps)] * 2

    def test_record_refused_above_its_reps(self, tmp_path, capsys):
        cfg = write_config(tmp_path, grid={"points_per_axis": 6},
                           estimation={"reps": 2000, "seed": 5}, thresholds={"u": [1.5]})
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out-dir", str(out)]) == 0
        capsys.readouterr()
        dump = out / "samples.bgrf"
        assert main(["mc-excursion", "--config", cfg, "--out-dir", str(tmp_path / "reuse"),
                     "--samples", str(dump), "--reps", "2001"]) == 1
        assert capsys.readouterr().err == (
            f"error: {dump} holds 2000 replicates; this run needs reps = 2001\n")
        assert not (tmp_path / "reuse" / "mc-excursion.csv").exists()

    @pytest.mark.parametrize("change, message", [
        # 5 + 5 nodes: the old reader would mix 3 X1 nodes into max2
        ({"grid": {"points_per_axis": 5}}, "give 5 + 5 nodes"),
        ({"model": {"nu1": 0.5, "nu2": 0.5, "nu12": 1.5, "rho": 0.3, "dim_N": 1}},
         "give 8 + 8 nodes"),
    ], ids=["other-grid", "other-model"])
    def test_dump_from_another_config_rejected(self, tmp_path, capsys, change, message):
        sections = {
            "grid": {"points_per_axis": 8},
            "estimation": {"reps": 2000, "seed": 5},
            "thresholds": {"u": [1.5]},
        }
        cfg = write_config(tmp_path, **sections)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out-dir", str(out)]) == 0
        other = write_config(tmp_path, name="other.json", **{**sections, **change})
        capsys.readouterr()
        assert main([
            "mc-excursion", "--config", other, "--out-dir", str(tmp_path / "reuse"),
            "--samples", str(out / "samples.bgrf"),
        ]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "reuse" / "mc-excursion.csv").exists()

    @pytest.mark.parametrize("spelling", [
        {"domain": {"A1": [[[0.0, 1.0]]], "A2": [[[1.0, 2.0]]]}},
        {"model": {"nu1": 0.5, "nu2": 0.5, "nu12": 1.5, "rho": 0.4, "dim_N": 1, "a1": 1}},
        {"domain": {"A1": [[[0, 1]]], "A2": [[[1, 2]]], "split_M": 0}},
    ], ids=["floats", "stated-default", "split_M"])
    def test_dump_tag_hashes_values(self, tmp_path, capsys, spelling):
        # a dump is what its rows depend on: the model's values, the nodes
        # and the seed, however the config spells them
        sections = {
            "domain": {"A1": [[[0, 1]]], "A2": [[[1, 2]]]},
            "grid": {"points_per_axis": 8},
            "estimation": {"reps": 2000, "seed": 5},
            "thresholds": {"u": [1.5]},
        }
        cfg = write_config(tmp_path, **sections)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out-dir", str(out)]) == 0
        main(["mc-excursion", "--config", cfg, "--out-dir", str(tmp_path / "live")])
        other = write_config(tmp_path, name="other.json", **{**sections, **spelling})
        reuse = tmp_path / "reuse"
        assert main([
            "mc-excursion", "--config", other, "--out-dir", str(reuse),
            "--samples", str(out / "samples.bgrf"),
        ]) == 0, capsys.readouterr().err
        want = (tmp_path / "live" / "mc-excursion.csv").read_bytes().split(b"\n", 1)[1]
        assert (reuse / "mc-excursion.csv").read_bytes().split(b"\n", 1)[1] == want

    def test_dump_under_another_seed_rejected(self, tmp_path, capsys):
        # the rows are replicates of the seed that wrote them; read under
        # another seed they would be reported as that seed's
        cfg = write_config(tmp_path, grid={"points_per_axis": 8},
                           estimation={"reps": 2000, "seed": 1}, thresholds={"u": [1.5]})
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out-dir", str(out)]) == 0
        tags = [dump_tag(cli.load_config(cfg))]
        cfg2 = cli.load_config(cfg)
        cfg2["estimation"]["seed"] = 2
        tags.append(dump_tag(cfg2))
        assert tags[0] != tags[1]
        capsys.readouterr()
        assert main([
            "mc-excursion", "--config", cfg, "--out-dir", str(tmp_path / "reuse"),
            "--samples", str(out / "samples.bgrf"), "--seed", "2",
        ]) == 1
        err = capsys.readouterr().err
        assert f"under tag {tags[0]:08x}" in err and f"and tag {tags[1]:08x}" in err
        assert not (tmp_path / "reuse" / "mc-excursion.csv").exists()

    @pytest.mark.parametrize("reps", ["0", "-3"])
    def test_failed_simulate_keeps_the_earlier_dump(self, tmp_path, capsys, reps):
        cfg = write_config(
            tmp_path, grid={"points_per_axis": 6}, estimation={"reps": 2000, "seed": 5}
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out-dir", str(out)]) == 0
        before = (out / "samples.bgrf").read_bytes()
        capsys.readouterr()
        assert main(["simulate", "--config", cfg, "--out-dir", str(out), "--reps", reps]) == 1
        assert "reps must be positive" in capsys.readouterr().err
        assert (out / "samples.bgrf").read_bytes() == before

    def test_empty_dump_exits_one(self, tmp_path, capsys):
        # a header for 40 + 40 nodes under this config's tag, and no replicates
        cfg = write_config(tmp_path, grid={"points_per_axis": 40})
        dump = tmp_path / "empty.bgrf"
        dump.write_bytes(struct.pack("<4sIII", b"BGRF", 80, 0,
                                     dump_tag(cli.load_config(cfg))))
        out = tmp_path / "o"
        assert main([
            "mc-excursion", "--config", cfg, "--out-dir", str(out), "--samples", str(dump),
        ]) == 1
        assert capsys.readouterr().err == (
            "error: empty dump: 80 nodes, 0 replicates\n")
        assert not (out / "mc-excursion.csv").exists()

    def test_missing_dump_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, estimation={"reps": 2000, "seed": 5})
        missing = tmp_path / "nothere.bgrf"
        assert main([
            "mc-excursion", "--config", cfg, "--out-dir", str(tmp_path / "o"),
            "--samples", str(missing),
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(missing) in err
        assert "Traceback" not in err


class TestRiemannCheckCommand:
    def test_rows(self, tmp_path):
        cfg = write_config(
            tmp_path,
            model={"nu1": 0.5, "nu2": 0.5, "nu12": 1.5, "rho": 0.5, "dim_N": 1},
            verify={"riemann_u": [25.0], "riemann_T": 1.0},
        )
        out = tmp_path / "out"
        assert main([
            "riemann-check", "--config", cfg, "--out-dir", str(out), "--both-cells"
        ]) == 0
        rows = read_rows(out / "riemann-check.csv")
        assert [r["cells"] for r in rows] == ["intersect", "subset"]
        for r in rows:
            assert 0.9 < float(r["ratio"]) < 1.05

    def test_budget_checked_for_every_u_first(self, tmp_path, monkeypatch, capsys):
        # the touching-2d benchmark config: u = 20 and 40 fit the cell
        # budget, u = 50 does not, so no pair may be tested at all
        def unreachable(*args, **kwargs):
            raise AssertionError("cell pairs summed before every u was checked")

        monkeypatch.setattr(asymptotics, "_band_pairs", unreachable)
        cfg = write_config(tmp_path, **TOUCHING_2D)
        out = tmp_path / "o"
        assert main(["riemann-check", "--config", cfg, "--out-dir", str(out),
                     "--u", "20", "40", "50"]) == 1
        assert "exceed the budget" in capsys.readouterr().err
        assert not (out / "riemann-check.csv").exists()


    def test_budget_checked_first_at_equal_cell_sides(self, tmp_path, monkeypatch, capsys):
        # the README model has d1 == d2, where pairs are counted per offset:
        # u = 20 fits the cell budget, u = 2000 does not, so nothing may be
        # counted by either route
        def unreachable(*args, **kwargs):
            raise AssertionError("cell pairs counted before every u was checked")

        monkeypatch.setattr(asymptotics, "_band_pairs", unreachable)
        monkeypatch.setattr(asymptotics, "_offset_counts", unreachable)
        cfg = write_config(
            tmp_path, model={"nu1": 0.5, "nu2": 0.5, "nu12": 1.5, "rho": 0.5, "dim_N": 1}
        )
        out = tmp_path / "o"
        assert main(["riemann-check", "--config", cfg, "--out-dir", str(out),
                     "--u", "20", "2000"]) == 1
        assert "exceed the budget" in capsys.readouterr().err
        assert not (out / "riemann-check.csv").exists()


class TestNodeBudget:
    def test_dense_covariance_refused(self, tmp_path, monkeypatch, capsys):
        # dim_N = 2 on the default unit squares at 100 points per axis:
        # 2 x 10^4 nodes, a 3.2 GB covariance
        def unreachable(*args):
            raise AssertionError("covariance assembled past the node budget")

        monkeypatch.setattr(fields, "_pairwise_dist", unreachable)
        cfg = write_config(tmp_path, model=TOUCHING_2D["model"])
        assert main(["simulate", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "20000 nodes exceed the node budget" in err
        assert "6.4 GB" in err

    def test_verify_refuses_before_any_sum_or_estimate(self, tmp_path, monkeypatch, capsys):
        # 5000 points on each of A1 = A2 = [0, 1]: 10^4 nodes
        def unreachable(*args, **kwargs):
            raise AssertionError("a sum or an estimate ran past the node budget")

        for name in ("riemann_sum_check", "estimate_H_constant", "field_maxima"):
            monkeypatch.setattr(cli, name, unreachable)
        cfg = write_config(
            tmp_path, model={"nu1": 0.5, "nu2": 0.75, "nu12": 1.5, "rho": 0.4, "dim_N": 1},
            grid={"points_per_axis": 5000}, estimation={"reps": 1000},
        )
        assert main(["verify", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == 1
        assert "10000 nodes exceed the node budget" in capsys.readouterr().err

    def test_fine_fbm_grid_refused(self, tmp_path, capsys):
        cfg = write_config(tmp_path, estimation={"eta": 1 / 2048, "alpha": 1.0})
        assert main(["pickands", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == 1
        assert "16384 nodes exceed the node budget" in capsys.readouterr().err


class TestRepsCeiling:
    # 2**32 - 1 replicates fill a dump header's u32 count; more are refused
    # before a covariance is factored or a dump is opened
    @pytest.mark.parametrize("command", ["simulate", "mc-excursion", "pickands", "verify"])
    @pytest.mark.parametrize("reps", [2**32, 10**24])
    def test_refused_before_sampling(self, tmp_path, monkeypatch, capsys, command, reps):
        def unreachable(*args, **kwargs):
            raise AssertionError("a covariance was factored past the reps ceiling")

        monkeypatch.setattr(np.linalg, "cholesky", unreachable)
        cfg = write_config(
            tmp_path, grid={"points_per_axis": 5},
            estimation={"reps": reps, "eta": 0.125, "T_list": [1, 2, 4], "H1": 1.0, "H2": 1.0},
            verify={"riemann_u": [25.0]},
        )
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: reps = {reps} exceeds the limit 4294967295 (2**32 - 1), the most "
            "replicates a sample dump's header can count\n")
        assert not (out / "samples.bgrf").exists()

    def test_limit_itself_passes_the_check(self):
        fields.check_reps(2**32 - 1)

    def test_memory_error_exits_one(self, tmp_path, monkeypatch, capsys):
        def out_of_memory(cfg, args):
            raise MemoryError("Unable to allocate 16.0 TiB for an array")

        monkeypatch.setattr(cli, "cmd_expansion", out_of_memory)
        assert main(["expansion", "--config", write_config(tmp_path)]) == 1
        assert capsys.readouterr().err == "error: Unable to allocate 16.0 TiB for an array\n"


class TestValidityWarning:
    # the README model at rho = 0.9: rho^2 = 0.81 against the bound 0.25
    INVALID = {"nu1": 0.5, "nu2": 0.5, "nu12": 1.5, "rho": 0.9, "dim_N": 1}
    WARNING = "warning: rho^2 = 0.81 exceeds the validity bound 0.25"

    @pytest.mark.parametrize("argv", [["theorem"], ["riemann-check", "--u", "20"]])
    def test_theorem_commands_warn_once(self, tmp_path, capsys, argv):
        cfg = write_config(tmp_path, model=self.INVALID,
                           estimation={"H1": 1.0, "H2": 1.0})
        assert main(["validate", "--config", cfg]) == 1
        capsys.readouterr()
        assert main([*argv, "--config", cfg, "--out-dir", str(tmp_path / "o")]) == 0
        assert capsys.readouterr().err.count(self.WARNING) == 1

    def test_verify_warns_once(self, tmp_path, monkeypatch, capsys):
        def stop(*args, **kwargs):
            raise ValueError("stopped before sampling")

        monkeypatch.setattr(cli, "field_maxima", stop)
        cfg = write_config(tmp_path, model=self.INVALID, grid={"points_per_axis": 5},
                           estimation={"reps": 1000, "H1": 1.0, "H2": 1.0},
                           verify={"riemann_u": [25.0]})
        assert main(["verify", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.count(self.WARNING) == 1

    def test_boundary_model_does_not_warn(self, tmp_path, capsys):
        # rho = 0.5 puts rho^2 on the bound 0.25, which validate accepts
        cfg = write_config(
            tmp_path, model={**self.INVALID, "rho": 0.5}, estimation={"H1": 1.0, "H2": 1.0})
        assert main(["theorem", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == 0
        assert "warning" not in capsys.readouterr().err


class TestPickandsConstantsOncePerAlpha:
    # nu1 = 0.6: alpha = 1 has an exact constant and is never estimated
    @pytest.mark.parametrize("nu2, estimates", [(0.6, 1), (0.75, 2)])
    @pytest.mark.parametrize("command", ["verify", "theorem"])
    def test_estimate_calls(self, tmp_path, monkeypatch, command, nu2, estimates):
        calls = []

        def counting(alpha, *args):
            calls.append(alpha)
            return estimate_H_constant(alpha, *args)

        monkeypatch.setattr(cli, "estimate_H_constant", counting)
        cfg = write_config(
            tmp_path,
            model={"nu1": 0.6, "nu2": nu2, "nu12": 1.5, "rho": 0.4, "dim_N": 1},
            grid={"points_per_axis": 5},
            estimation={"reps": 1000, "seed": 3, "eta": 0.125, "T_list": [1, 2, 4]},
            verify={"riemann_u": [25.0]},
        )
        main([command, "--config", cfg, "--out-dir", str(tmp_path / "o")])
        assert (tmp_path / "o" / f"{command}.csv").exists()  # the run got through
        assert len(calls) == estimates
        assert sorted(calls) == sorted({2.0 * 0.6, 2.0 * nu2})


class TestPickandsConstantSources:
    # overlapping unit intervals, or touching ones
    TOUCHING = {"domain": {"A1": [[[0, 1]]], "A2": [[[1, 2]]], "split_M": 0}}

    def cfg(self, tmp_path, touching, name="cfg.json", **estimation):
        return write_config(
            tmp_path,
            name=name,
            grid={"points_per_axis": 5},
            estimation={"reps": 1000, "seed": 3, **estimation},
            thresholds={"u": [2.0, 3.0]},
            verify={"riemann_u": [25.0]},
            **(self.TOUCHING if touching else {}),
        )

    @pytest.mark.parametrize("command, touching, case", [
        ("verify", False, ""),
        ("theorem", False, "case: M = 1, N = 1, mes_M = 1 (overlapping domains)\n"),
        ("theorem", True, "case: M = 0, N = 1, mes_M = 1 (touching domains)\n"),
    ], ids=["verify", "theorem-overlap", "theorem-touching"])
    def test_alpha_one_is_exact(self, tmp_path, monkeypatch, capsys, command, touching,
                                case):
        def unreachable(*args, **kwargs):
            raise AssertionError("H estimated at alpha = 1, N = 1")

        monkeypatch.setattr(cli, "estimate_H_constant", unreachable)
        out = tmp_path / "o"
        main([command, "--config", self.cfg(tmp_path, touching), "--out-dir", str(out)])
        assert (out / f"{command}.csv").exists()
        captured = capsys.readouterr()
        assert captured.err == (
            "H1 = 1 (exact: alpha = 1, N = 1)\nH2 = 1 (exact: alpha = 1, N = 1)\n" + case
        )
        assert "exact" not in captured.out

    @pytest.mark.parametrize("touching", [False, True], ids=["overlap", "touching"])
    def test_exact_rows_equal_given_rows(self, tmp_path, touching):
        bodies = []
        for name, given in (("exact", {}), ("given", {"H1": 1.0, "H2": 1.0})):
            cfg = self.cfg(tmp_path, touching, f"{name}.json", **given)
            out = tmp_path / name
            assert main(["theorem", "--config", cfg, "--out-dir", str(out)]) == 0
            lines = (out / "theorem.csv").read_text().splitlines()
            assert lines[0].startswith("# config_sha256=")
            bodies.append(lines[1:])
        assert bodies[0] == bodies[1]

    def test_estimated_and_given_lines(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            model={"nu1": 0.75, "nu2": 0.5, "nu12": 1.5, "rho": 0.4, "dim_N": 1},
            estimation={"reps": 1000, "seed": 3, "eta": 0.125, "T_list": [1, 2, 4],
                        "H2": 0.5},
            thresholds={"u": [2.0]},
        )
        out = tmp_path / "o"
        assert main(["theorem", "--config", cfg, "--out-dir", str(out)]) == 0
        h1, h2, case = capsys.readouterr().err.splitlines()
        assert h1.startswith("H1 = ") and h1.endswith(", T = 4, eta = 0.125)")
        assert " (estimated, se " in h1
        assert h2 == "H2 = 0.5 (given)"
        assert case == "case: M = 1, N = 1, mes_M = 1 (overlapping domains)"


class TestNParameterConstants:
    @pytest.mark.parametrize("given", [{}, {"H1": 1.0}], ids=["none", "H1-only"])
    def test_theorem_refuses_one_dim_constants(self, tmp_path, capsys, given):
        estimation = {**TOUCHING_2D["estimation"], **given}
        cfg = write_config(tmp_path, **{**TOUCHING_2D, "estimation": estimation})
        out = tmp_path / "o"
        assert main(["theorem", "--config", cfg, "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: dim_N = 2 needs the N-parameter Pickands constants")
        assert "give estimation.H1 and estimation.H2" in err
        assert not (out / "theorem.csv").exists()

    def test_verify_refuses_after_the_riemann_checks(self, tmp_path, monkeypatch, capsys):
        def unreachable(*args, **kwargs):
            raise AssertionError("estimation ran at dim_N = 2 with no H given")

        checked, riemann_cells = [], cli.riemann_cells

        def counting(*args, **kwargs):
            checked.append(args)
            return riemann_cells(*args, **kwargs)

        monkeypatch.setattr(cli, "riemann_cells", counting)
        monkeypatch.setattr(cli, "estimate_H_constant", unreachable)
        monkeypatch.setattr(cli, "field_maxima", unreachable)
        # u = 20 is within the cell budget at riemann_T = 4
        cfg = write_config(tmp_path, **{
            **TOUCHING_2D, "verify": {"riemann_T": 4.0, "riemann_u": [20.0]}})
        out = tmp_path / "o"
        assert main(["verify", "--config", cfg, "--out-dir", str(out)]) == 1
        assert len(checked) == 1
        assert "needs the N-parameter Pickands constants" in capsys.readouterr().err
        assert not (out / "verify.csv").exists()

    def test_verify_refuses_before_any_sum(self, tmp_path, monkeypatch, capsys):
        def unreachable(*args, **kwargs):
            raise AssertionError("a Riemann sum ran at dim_N = 2 with no H given")

        monkeypatch.setattr(asymptotics, "riemann_sum_check", unreachable)
        monkeypatch.setattr(cli, "riemann_sum_check", unreachable)
        monkeypatch.setattr(cli, "estimate_H_constant", unreachable)
        cfg = write_config(tmp_path, **{
            **TOUCHING_2D, "verify": {"riemann_T": 4.0, "riemann_u": [20.0, 40.0]}})
        assert main(["verify", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith(
            "error: dim_N = 2 needs the N-parameter Pickands constants")


class TestNonPositiveThreshold:
    # the theorem needs u > 0; theorem and verify refuse any other u before
    # they estimate, sum or sample anything
    MODEL = {"nu1": 0.75, "nu2": 0.5, "nu12": 1.5, "rho": 0.4, "dim_N": 1}

    @pytest.mark.parametrize("command", ["theorem", "verify"])
    def test_refused_before_any_work(self, tmp_path, monkeypatch, capsys, command):
        def unreachable(*args, **kwargs):
            raise AssertionError("work ran before the threshold was refused")

        for name in ("field_maxima", "estimate_H_constant", "riemann_sum_check"):
            monkeypatch.setattr(cli, name, unreachable)
        cfg = write_config(tmp_path, model=self.MODEL,
                           thresholds={"u": [0, 2, 2.4, 2.8]})
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out-dir", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.endswith("error: u must be > 0, got 0.0\n")
        assert not (out / f"{command}.csv").exists()
        if command == "verify":
            assert captured.out == ""

    def test_mc_excursion_takes_any_u(self, tmp_path):
        # P(max X1 > 0, max X2 > 0) is a probability like any other
        cfg = write_config(tmp_path, model=self.MODEL, grid={"points_per_axis": 10},
                           estimation={"reps": 2000}, thresholds={"u": [-1, 0, 1]})
        out = tmp_path / "o"
        assert main(["mc-excursion", "--config", cfg, "--out-dir", str(out)]) == 0
        assert [float(r["u"]) for r in read_rows(out / "mc-excursion.csv")] == [-1, 0, 1]


class TestVerify:
    def test_quick_verify_passes(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            model={"nu1": 0.5, "nu2": 0.5, "nu12": 1.5, "rho": 0.5, "dim_N": 1},
            grid={"points_per_axis": 30},
            estimation={"reps": 150_000, "seed": 11, "H1": 1.0, "H2": 1.0},
            thresholds={"u": [1.6, 2.0, 2.4, 2.8]},
            verify={"rate_tol": 0.15, "riemann_band": 0.10, "riemann_u": [25.0]},
        )
        out = tmp_path / "out"
        code = main(["verify", "--config", cfg, "--out-dir", str(out)])
        rows = read_rows(out / "verify.csv")
        assert len(rows) == 4
        assert code == 0
        # grid step in the local Pickands scale, per u and field:
        # delta(u) = (1/29) c^(1/alpha) (u/(1+rho))^(2/alpha) with c = alpha = 1
        stdout = capsys.readouterr().out
        printed = [line for line in stdout.splitlines() if line.startswith("grid u=")]
        assert len(printed) == 4
        for line, u, row in zip(printed, [1.6, 2.0, 2.4, 2.8], rows):
            want = (u / 1.5) ** 2 / 29
            assert line == f"grid u={u:g}: delta1 = {want:.6g}, delta2 = {want:.6g}"
            # the theorem is linear in H1 H2, and ratio is taken at H = 1
            grid_h = discrete_pickands_h1(want)
            assert float(row["grid_ratio"]) == pytest.approx(
                float(row["ratio"]) / grid_h**2, rel=1e-12)
        # every grid_ratio is filled, so the grid-factor caveat is not printed
        assert "grid factor" not in stdout

    def test_grid_ratio_nan_off_alpha_one(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            model={"nu1": 0.5, "nu2": 0.75, "nu12": 1.5, "rho": 0.4, "dim_N": 1},
            grid={"points_per_axis": 10},
            estimation={"reps": 5000, "seed": 11, "H1": 1.0, "H2": 0.8},
            thresholds={"u": [1.0, 1.4]},
            verify={"riemann_u": [25.0]},
        )
        out = tmp_path / "o"
        main(["verify", "--config", cfg, "--out-dir", str(out)])
        rows = read_rows(out / "verify.csv")
        assert [r["grid_ratio"] for r in rows] == ["nan", "nan"]
        assert all(math.isfinite(float(r["ratio"])) for r in rows)
        assert "carries each field's grid factor" in capsys.readouterr().out

    def test_json_rows_are_strict_json(self, tmp_path):
        # grid_ratio is nan off alpha = 1; JSON has no NaN, so it is null
        cfg = write_config(
            tmp_path,
            model={"nu1": 0.5, "nu2": 0.75, "nu12": 1.5, "rho": 0.4, "dim_N": 1},
            grid={"points_per_axis": 10},
            estimation={"reps": 5000, "seed": 11, "H1": 1.0, "H2": 0.8},
            thresholds={"u": [1.0, 1.4]},
            verify={"riemann_u": [25.0]},
        )
        out = tmp_path / "o"
        main(["verify", "--config", cfg, "--out-dir", str(out), "--format", "json"])

        def refuse(name):
            raise ValueError(f"{name} is not JSON")

        lines = (out / "verify.jsonl").read_text().splitlines()
        rows = [json.loads(line, parse_constant=refuse) for line in lines[1:]]
        assert [r["grid_ratio"] for r in rows] == [None, None]
        assert all(math.isfinite(r["ratio"]) for r in rows)

    def test_repeated_thresholds_fail_the_rate_without_a_warning(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            model={"nu1": 0.5, "nu2": 0.5, "nu12": 1.5, "rho": 0.5, "dim_N": 1},
            grid={"points_per_axis": 10},
            estimation={"reps": 5000, "seed": 11, "H1": 1.0, "H2": 1.0},
            verify={"riemann_u": [25.0]},
        )
        argv = ["verify", "--config", cfg, "--out-dir", str(tmp_path / "o"),
                "--u", "1.5", "1.5", "1.5", "1.5"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 1
        assert caught == []
        stdout = capsys.readouterr().out
        assert "rate: FAIL (rate_fit needs >= 4 distinct u" in stdout
        assert "verify FAILED: rate" in stdout

    def test_grid_ratio_nan_where_the_series_is_too_long(self, tmp_path, capsys):
        # at u = 0.05 the local grid step (0.05 / 1.5)^2 / 29 is below 1e-4,
        # where discrete_pickands_h1 refuses its series
        cfg = write_config(
            tmp_path,
            model={"nu1": 0.5, "nu2": 0.5, "nu12": 1.5, "rho": 0.5, "dim_N": 1},
            grid={"points_per_axis": 30},
            estimation={"reps": 5000, "seed": 11, "H1": 1.0, "H2": 1.0},
            thresholds={"u": [0.05, 2.0]},
            verify={"riemann_u": [25.0]},
        )
        out = tmp_path / "o"
        main(["verify", "--config", cfg, "--out-dir", str(out)])
        rows = read_rows(out / "verify.csv")
        assert rows[0]["grid_ratio"] == "nan"
        assert math.isfinite(float(rows[1]["grid_ratio"]))
        stdout = capsys.readouterr().out
        assert "its series is too long (delta = 3.83" in stdout

    def test_verify_rejects_starved_reps(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            model={"nu1": 0.5, "nu2": 0.5, "nu12": 1.5, "rho": 0.5, "dim_N": 1},
            estimation={"reps": 10, "seed": 1, "H1": 1.0, "H2": 1.0},
        )
        assert main(["verify", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == 1
        assert "floor" in capsys.readouterr().out

    @pytest.mark.parametrize("sections, message", [
        ({"domain": {"A1": [[[0, 1]]], "A2": [[[1, 2]]], "split_M": None},
          "estimation": {"reps": 100_000, "seed": 1}},
         "Theorem 2 needs domain.split_M"),
        # the touching-2d benchmark config: at riemann_T = 4 the u = 50 check
        # needs about 1.14e8 cell pairs, over the 1e8 budget
        (TOUCHING_2D, "exceed the budget"),
    ], ids=["touching-without-split", "cell-budget"])
    def test_fails_before_estimating(
        self, tmp_path, monkeypatch, capsys, sections, message
    ):
        def unreachable(*args, **kwargs):
            raise AssertionError("estimation ran before a check that fails")

        monkeypatch.setattr(cli, "estimate_H_constant", unreachable)
        monkeypatch.setattr(cli, "field_maxima", unreachable)
        cfg = write_config(tmp_path, **sections)
        out = tmp_path / "o"
        assert main(["verify", "--config", cfg, "--out-dir", str(out)]) == 1
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""
        assert not (out / "verify.csv").exists()

    @pytest.mark.parametrize("key", ["rate_tol", "riemann_band"])
    def test_negative_tolerance_refused_before_any_work(self, tmp_path, monkeypatch,
                                                       capsys, key):
        def unreachable(*args, **kwargs):
            raise AssertionError("work ran before the tolerance was refused")

        for name in ("field_maxima", "riemann_sum_check"):
            monkeypatch.setattr(cli, name, unreachable)
        cfg = write_config(tmp_path, estimation={"reps": 20_000, "H1": 1.0, "H2": 1.0},
                           verify={key: -0.1})
        out = tmp_path / "o"
        assert main(["verify", "--config", cfg, "--out-dir", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: verify.{key} must be >= 0, got -0.1\n"
        assert captured.out == "" and not (out / "verify.csv").exists()

    def test_verify_fails_on_tight_band(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            model={"nu1": 0.5, "nu2": 0.5, "nu12": 1.5, "rho": 0.5, "dim_N": 1},
            grid={"points_per_axis": 10},
            estimation={"reps": 5000, "seed": 11, "H1": 1.0, "H2": 1.0},
            thresholds={"u": [1.0, 1.4, 1.8, 2.2]},
            verify={"rate_tol": 0.0001, "riemann_band": 0.10, "riemann_u": [25.0]},
        )
        assert main(["verify", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == 1
        assert "FAILED" in capsys.readouterr().out


class TestOutputRouting:
    def test_env_var_default_directory(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path)
        target = tmp_path / "from-env"
        monkeypatch.setenv("BGRF_OUT_DIR", str(target))
        assert main(["expansion", "--config", cfg]) == 0
        assert (target / "expansion.csv").exists()

    def test_format_is_a_flag_not_a_config_key(self, tmp_path, capsys):
        # the output directory is a flag or $BGRF_OUT_DIR too: the config
        # has no output section at all
        cfg = write_config(tmp_path, output={"format": "json"})
        assert main(["expansion", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "config error: unknown top-level keys: ['output']\n")


class TestReadmeConfig:
    # the run.json the README's shell block writes, read from the README
    @pytest.fixture
    def config(self, tmp_path):
        readme = (ROOT / "README.md").read_text()
        (body,) = re.findall(r"^cat > run\.json <<'EOF'\n(.*?)^EOF$", readme, re.M | re.S)
        path = tmp_path / "run.json"
        path.write_text(body)
        return str(path)

    @pytest.mark.parametrize("command", ["validate", "expansion", "theorem"])
    def test_documented_keys_load_and_run(self, tmp_path, config, command):
        out = tmp_path / "o"
        assert main([command, "--config", config, "--out-dir", str(out)]) == 0
        if command != "validate":
            # the hash of the values as written, before 20 becomes 20.0
            first = (out / f"{command}.csv").read_text().splitlines()[0]
            assert first == "# config_sha256=46420925f37c9f07 seed=1234"


class TestReadmeCommands:
    def test_cli_block_lists_exactly_the_subcommands(self, capsys):
        readme = (ROOT / "README.md").read_text()
        blocks = re.findall(r"^```sh\n(.*?)^```", readme, re.M | re.S)
        documented = {m for block in blocks
                      for m in re.findall(r"^bgrf ([a-z-]+)", block, re.M)}
        with pytest.raises(SystemExit):
            main(["--help"])
        choices = re.search(r"\{([a-z,-]+)\}", capsys.readouterr().out).group(1)
        assert documented == set(choices.split(","))


class TestReadmeQuickstart:
    def test_python_block_runs_as_written(self, tmp_path):
        readme = (ROOT / "README.md").read_text()
        (block,) = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
        script = tmp_path / "quickstart.py"
        script.write_text(block)
        proc = subprocess.run([sys.executable, str(script)], capture_output=True,
                              text=True, env=src_env(), cwd=tmp_path, timeout=600)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        # the sampled blocks print as the example's comment shows them
        (shown,) = re.findall(r"print\(start, top\.shape\)\s+# (.*)$", block, re.M)
        assert ", ".join(re.findall(r"^\d+ \(\d+,\)$", proc.stdout, re.M)) == shown


class TestConsoleScript:
    # every command that evaluates a Matern (theorem through its model
    # checks), on a small config. Its rate slope sits within about one SE of
    # the end of verify's rate gate, so verify's verdict follows the seed:
    # verify must give a verdict, pass or fail, and not crash
    @pytest.mark.parametrize("command", [
        "validate", "simulate", "mc-excursion", "riemann-check", "theorem", "verify",
    ])
    def test_runs_without_scipy(self, tmp_path, command):
        cfg = write_config(
            tmp_path,
            model={"nu1": 0.5, "nu2": 0.5, "nu12": 1.5, "rho": 0.5, "dim_N": 1},
            domain={"A1": [[[0, 1]]], "A2": [[[0.5, 2]]], "split_M": None},
            grid={"points_per_axis": 10},
            estimation={"reps": 20_000, "seed": 11, "H1": 1.0, "H2": 1.0},
            thresholds={"u": [1.0, 1.4, 1.8, 2.2]},
            verify={"riemann_u": [25.0]},
        )
        args = [command, "--config", cfg]
        if command != "validate":
            args += ["--out-dir", str(tmp_path / "o")]
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; sys.modules['scipy'] = None; from bgrf.cli import main; "
             f"sys.exit(main({args!r}))"],
            capture_output=True, text=True,
            env=src_env(),
        )
        if command == "verify":
            assert proc.returncode in (0, 1), proc.stdout + proc.stderr
            assert re.search(r"^verify (PASSED|FAILED)", proc.stdout, re.M), proc.stdout
            assert "Traceback" not in proc.stderr, proc.stderr
        else:
            assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_entry_point(self, tmp_path):
        cfg = write_config(tmp_path)
        proc = subprocess.run(
            [sys.executable, "-m", "bgrf.cli", "validate", "--config", cfg],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "PASS" in proc.stdout
