"""Byte pins on CLI outputs.

Each test runs the CLI as a user would and compares output bytes: between
thread counts, between an exact and a given Pickands constant, or with
rows recorded in tests/pins/. A recorded file holds a CSV without its
leading hash line, so it pins the rows and the column header; the rows
depend only on the config, the seed and the code, so a change that moves
one must say so.
"""

import json
from pathlib import Path

import pytest

from bgrf.cli import main

PINS = Path(__file__).resolve().parent / "pins"

MODEL = {"nu1": 0.5, "nu2": 0.5, "nu12": 1.5, "rho": 0.5, "dim_N": 1}

# the README quickstart config
README = {
    "model": MODEL,
    "domain": {"A1": [[[0, 1]]], "A2": [[[0, 1]]], "split_M": None},
    "grid": {"points_per_axis": 100},
    "estimation": {"reps": 1000000, "seed": 1234, "eta": 0.015625,
                   "T_list": [1, 2, 4, 8]},
    "thresholds": {"u": [2.0, 2.4, 2.8, 3.2]},
    "verify": {"rate_tol": 0.10, "riemann_band": 0.10,
               "riemann_u": [20, 40, 50, 80], "riemann_T": 1.0},
}


def write(path: Path, cfg: dict) -> str:
    path.write_text(json.dumps(cfg))
    return str(path)


def rows(path: Path) -> bytes:
    """The bytes of an output file after its hash line."""
    return path.read_bytes().split(b"\n", 1)[1]


def run(*argv):
    assert main([str(a) for a in argv]) == 0


@pytest.mark.parametrize("reps", [8193, 10240])
def test_threads_give_identical_dumps_and_csvs(tmp_path, monkeypatch, reps):
    # 600 nodes end on an 88-row panel, the one product whose last bits
    # could follow the BLAS thread count; no benchmark config has one.
    # 8,193 replicates are 4,097 noise columns, each a path and its mirror:
    # four full blocks, then one path whose mirror is dropped, which ends
    # one column into a fifth block; 10,240 replicates are 5,120 columns,
    # so the fifth block ends exactly on its edge
    cfg = write(tmp_path / "cfg.json", {
        "model": {**MODEL, "rho": 0.4},
        "grid": {"points_per_axis": 300},
        "estimation": {"reps": 8193, "seed": 7},
        "thresholds": {"u": [1.0, 1.5, 2.0]},
    })
    for t in (1, 2):
        # simulate.csv names the dump by the relative path it was given
        (tmp_path / f"t{t}").mkdir()
        monkeypatch.chdir(tmp_path / f"t{t}")
        common = ["--config", cfg, "--out-dir", "out", "--threads", t, "--reps", reps]
        run("simulate", *common)
        run("mc-excursion", *common, "--samples", "out/samples.bgrf")
    for name in ("samples.bgrf", "simulate.csv", "mc-excursion.csv"):
        one, two = (tmp_path / f"t{t}" / "out" / name for t in (1, 2))
        assert one.read_bytes() == two.read_bytes(), name


def test_exact_H1_rows_equal_given_rows(tmp_path):
    # alpha = 1, N = 1: with no H1/H2 the constant is exactly 1
    bodies = []
    for name, given in (("exact", {}), ("given", {"H1": 1.0, "H2": 1.0})):
        cfg = {**README, "estimation": {**README["estimation"], **given}}
        run("theorem", "--config", write(tmp_path / f"{name}.json", cfg),
            "--out-dir", tmp_path / name)
        bodies.append(rows(tmp_path / name / "theorem.csv"))
    assert bodies[0] == bodies[1]


@pytest.mark.parametrize("name, cfg, us", [
    ("readme", README, []),
    ("overlap2d", {
        "model": {**MODEL, "dim_N": 2},
        "domain": {"A1": [[[0, 1], [0, 1]]], "A2": [[[0, 1], [0, 1]]], "split_M": None},
        "verify": {"riemann_T": 2.0},
    }, [8]),
], ids=["readme", "overlap2d"])
def test_riemann_rows_at_equal_cell_sides(tmp_path, name, cfg, us):
    # pairs of whole cells are counted per offset at d1 = d2; the rows must
    # match the per-pair enumeration they were recorded from
    out = tmp_path / "o"
    run("riemann-check", "--config", write(tmp_path / "cfg.json", cfg),
        "--out-dir", out, "--both-cells", *(["--u", *us] if us else []))
    assert rows(out / "riemann-check.csv") == (PINS / f"{name}.riemann-check.csv").read_bytes()


def test_riemann_rows_of_touching_domains(tmp_path):
    # the touching-2d benchmark's model and domains, a split pair at
    # d1 != d2: every cell of A1 is tested against its window of A2's
    # cells, and the subset rows sum the intersect pairs inside the band
    cfg = {
        "model": {"nu1": 0.5, "nu2": 0.75, "nu12": 1.5, "rho": 0.4, "dim_N": 2},
        "domain": {"A1": [[[0, 1], [0, 1]]], "A2": [[[0, 1], [1, 2]]], "split_M": 1},
        "verify": {"riemann_T": 4.0},
    }
    out = tmp_path / "o"
    run("riemann-check", "--config", write(tmp_path / "cfg.json", cfg),
        "--out-dir", out, "--both-cells", "--u", 20)
    want = (PINS / "touching2d.riemann-check.csv").read_bytes()
    assert rows(out / "riemann-check.csv") == want


@pytest.mark.parametrize("name, cfg, us", [
    # a 2-D pair at d1 = d2 whose unions cover cells no single box holds
    ("multi2d", {
        "model": {**MODEL, "dim_N": 2},
        "domain": {"A1": [[[0, 0.7], [0, 0.3]], [[0.2, 0.45], [0.1, 0.9]]],
                   "A2": [[[0.1, 1], [0.05, 0.6]], [[0.3, 0.31], [0, 1]]],
                   "split_M": None},
        "estimation": {"H1": 0.6, "H2": 0.6},
        "verify": {"riemann_T": 2.0},
    }, [10, 14]),
    # a 1-D pair at d1 != d2 with a gap in A1
    ("multi1d", {
        "model": {**MODEL, "nu2": 0.75},
        "domain": {"A1": [[[0, 0.3117]], [[0.6941, 1.3]]],
                   "A2": [[[0.1, 0.9]], [[0.2, 1.7]]], "split_M": None},
        "estimation": {"H1": 0.9, "H2": 0.8},
        "verify": {"riemann_T": 1.0},
    }, [20, 40]),
], ids=["multi2d", "multi1d"])
def test_multi_box_rows(tmp_path, name, cfg, us):
    # no benchmark config has more than one box per domain
    path = write(tmp_path / "cfg.json", cfg)
    out = tmp_path / "o"
    run("theorem", "--config", path, "--out-dir", out, "--u", *us)
    run("riemann-check", "--config", path, "--out-dir", out, "--both-cells", "--u", *us)
    for command in ("theorem", "riemann-check"):
        assert rows(out / f"{command}.csv") == (PINS / f"{name}.{command}.csv").read_bytes()


def test_mc_excursion_rows_fresh_and_from_a_dump(tmp_path):
    # 20,001 replicates are 10,001 noise columns, ten blocks, the last
    # mirror dropped. The rows depend only on hit counts, which the last
    # bits of a BLAS kernel do not move
    cfg = write(tmp_path / "cfg.json", {
        "model": {**MODEL, "nu2": 0.75, "rho": 0.4},
        "domain": {"A1": [[[0, 1]]], "A2": [[[0.5, 2]]], "split_M": None},
        "grid": {"points_per_axis": 40},
        "estimation": {"reps": 20001, "seed": 3},
        "thresholds": {"u": [1.0, 1.5, 2.0, 2.5]},
    })
    fresh, dump = tmp_path / "fresh", tmp_path / "dump"
    run("mc-excursion", "--config", cfg, "--out-dir", fresh)
    run("simulate", "--config", cfg, "--out-dir", dump)
    run("mc-excursion", "--config", cfg, "--out-dir", dump,
        "--samples", dump / "samples.bgrf")
    want = (PINS / "mc-excursion.csv").read_bytes()
    assert rows(fresh / "mc-excursion.csv") == want
    assert rows(dump / "mc-excursion.csv") == want
