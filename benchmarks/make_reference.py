"""Regenerate benchmarks/reference.json, the stored values the output checks use.

Usage: python3 benchmarks/make_reference.py   (from the repository root)

- p_hat references are brute-force estimates at ten times the workload's
  reps, from a seed no benchmark run uses; a run passes when it lies within
  4 combined standard errors, so a change of random stream still passes.
- Riemann references are the deterministic `riemann-check` rows of the
  touching-2d workload; runs must match h_sum to 1e-9 and n_pairs exactly.
"""

import csv
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from bgrf.cli import build_domain, build_model, load_config, main as cli_main  # noqa: E402
from bgrf.fields import GridSpec  # noqa: E402
from bgrf.montecarlo import estimates_from_maxima, field_maxima  # noqa: E402
from run import WORK, WORKLOADS  # noqa: E402

SEED = 150407717
REPS_FACTOR = 10


def p_hat_reference(cfg_path: str) -> dict:
    cfg = load_config(cfg_path)
    m = build_model(cfg)
    g = GridSpec(build_domain(cfg, m), cfg["grid"]["points_per_axis"])
    reps = REPS_FACTOR * cfg["estimation"]["reps"]
    us = cfg["thresholds"]["u"]
    ests = estimates_from_maxima(*field_maxima(m, g, reps, SEED, threads=2), us, SEED)
    return {"seed": SEED, "reps": reps, "nodes": g.n1 + g.n2,
            "p_hat": {f"{e.u:g}": e.p_hat for e in ests}}


def main() -> None:
    ref = {"pickands-fine": {"H_1": 1.0}}
    tmp = WORK / "reference"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        for name in ("verify-readme", "touching-2d"):
            cfg = tmp / f"{name}.json"
            cfg.write_text(json.dumps(WORKLOADS[name].config))
            ref[name] = p_hat_reference(str(cfg))
        step = next(s for s in WORKLOADS["touching-2d"].steps if s[0] == "riemann-check")
        cli_main([*step, "--config", str(tmp / "touching-2d.json"), "--out-dir", str(tmp)])
        with open(tmp / "riemann-check.csv") as fh:
            rows = list(csv.DictReader(ln for ln in fh if not ln.startswith("#")))
        ref["touching-2d"]["riemann"] = [
            {"u": float(r["u"]), "cells": r["cells"], "h_sum": float(r["h_sum"]),
             "n_pairs": int(r["n_pairs"])}
            for r in rows
        ]
    finally:
        shutil.rmtree(tmp)
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1) + "\n")


if __name__ == "__main__":
    main()
