"""The benchmark tracer still finds every function its per-layer table reads.

benchmarks/tracer.py wraps the library's functions by name and
benchmarks/run.py reads the spans back by name, so a renamed or inlined
function would make a per-layer metric read 0 without any failure. These
tests run the tracer as run.py does, one subprocess per command, on tiny
configs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

CONFIG = {
    "model": {"nu1": 0.5, "nu2": 0.5, "nu12": 1.5, "rho": 0.5, "dim_N": 1},
    "grid": {"points_per_axis": 10},
    "estimation": {"reps": 2000, "eta": 0.125, "T_list": [1, 2, 4], "alpha": 1.0},
    "thresholds": {"u": [1.0, 2.0]},
    "verify": {"riemann_T": 1.0},
}

SAMPLING = {
    "fields._noise_block", "fields.block", "fields.sample_blocks",
}

# command lines, run in order -> span names benchmarks/run.py:layer_metrics
# reads from them; {out} is the output directory
HOOKS = {
    "pickands": (
        [["pickands", "--threads", "2"]],
        SAMPLING | {"pickands.window_ratios", "pickands.estimate_H_constant"},
    ),
    "mc-excursion": (
        [["mc-excursion"]],
        SAMPLING | {
            "fields.build_covariance", "fields.cholesky_factor", "specfun.matern",
            "montecarlo.field_maxima", "montecarlo.estimates_from_maxima",
        },
    ),
    "simulate": (
        # the record read whole, then read at fewer replicates than it holds
        [["simulate"], ["mc-excursion", "--samples", "{out}/samples.bgrf"],
         ["mc-excursion", "--samples", "{out}/samples.bgrf", "--reps", "1001"]],
        SAMPLING | {
            "fields.write_sample_dump", "fields.read_sample_dump",
            "montecarlo.maxima_from_dump",
        },
    ),
    # the dump writer's fold runs on the pool's worker threads
    "simulate-threads": (
        [["simulate", "--threads", "2"]],
        SAMPLING | {"fields.write_sample_dump"},
    ),
    # both cell families, as the touching-2d workload sums them
    "riemann-check": (
        [["riemann-check", "--both-cells", "--u", "25"]],
        {"asymptotics.riemann_sum_check", "model.cross_corr", "specfun.matern"},
    ),
}


@pytest.mark.parametrize("command", list(HOOKS))
def test_tracer_records_every_hook(tmp_path, command):
    argvs, want = HOOKS[command]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(CONFIG))
    out = tmp_path / "o"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    names = set()
    for k, argv in enumerate(argvs):
        spans = tmp_path / f"spans{k}.json"
        proc = subprocess.run(
            [sys.executable, str(ROOT / "benchmarks" / "tracer.py"), str(spans), "--",
             *(a.format(out=out) for a in argv),
             "--config", str(cfg), "--seed", "1", "--out-dir", str(out)],
            cwd=ROOT, env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        names |= {span[2] for span in json.loads(spans.read_text())["spans"]}
    assert want <= names, f"missing spans: {sorted(want - names)}"
