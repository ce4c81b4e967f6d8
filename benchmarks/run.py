#!/usr/bin/env python3
"""Benchmark for the `bgrf` CLI: three workloads, end-to-end and per-layer.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --workload all --seed N     # every workload

Run from the repository root; the package is imported from `src/`. Each
workload is a fixed list of `bgrf` subcommands run one at a time as
subprocesses on a generated config; `--seed` is passed to every one of them.

--trace 0 repeats the workload with the same seed for about `--seconds`
seconds and reports the end-to-end metrics. --trace 1 runs the workload once
untraced, once with the other `--threads` value (outputs must be
byte-identical), then twice under `benchmarks/tracer.py` and reports the
per-layer metrics. Either way the outputs are checked, a table with sample
counts and a machine description go to stdout, and the last line is one JSON
object: {"correct", "attempted", "failed", "metrics"}. See
benchmarks/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
PY = sys.executable or "python3"

RUN_LIMIT_S = 170.0     # a run must end within 180 s
SETUP_SAMPLES = 5       # import timings per run; setup_s is their median
TARGET_RELERR = 0.01    # time_to_1pct_s is the time to this relative error

README_MODEL = {"nu1": 0.5, "nu2": 0.5, "nu12": 1.5, "rho": 0.5, "dim_N": 1}


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    steps: tuple[tuple[str, ...], ...]  # bgrf argv per invocation; {out} = output dir
    threads: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify-readme",
            {
                "model": README_MODEL,
                "domain": {"A1": [[[0, 1]]], "A2": [[[0, 1]]], "split_M": None},
                "grid": {"points_per_axis": 100},
                "estimation": {"reps": 200_000, "eta": 1 / 64, "T_list": [1, 2, 4, 8]},
                "thresholds": {"u": [2.0, 2.4, 2.8, 3.2]},
                "verify": {"rate_tol": 0.10, "riemann_band": 0.10,
                           "riemann_u": [20, 40, 50, 80], "riemann_T": 1.0},
            },
            (("verify",),),
            threads=1,
        ),
        Workload(
            "pickands-fine",
            {
                "model": README_MODEL,
                "estimation": {"reps": 200_000, "eta": 1 / 128, "alpha": 1.0,
                               "T_list": [1, 2, 4, 8]},
            },
            (("pickands",),),
            threads=2,
        ),
        Workload(
            "touching-2d",
            {
                "model": {"nu1": 0.5, "nu2": 0.75, "nu12": 1.5, "rho": 0.4, "dim_N": 2},
                "domain": {"A1": [[[0, 1], [0, 1]]], "A2": [[[0, 1], [1, 2]]],
                           "split_M": 1},
                "grid": {"points_per_axis": 20},
                "estimation": {"reps": 50_000},
                "thresholds": {"u": [1.5, 2.0, 2.5, 3.0]},
                "verify": {"riemann_T": 4.0},
            },
            (
                ("validate",),
                ("simulate",),
                ("mc-excursion", "--samples", "{out}/samples.bgrf"),
                ("riemann-check", "--both-cells", "--u", "20"),
            ),
            threads=1,
        ),
    )
}

END_TO_END_UNITS = {
    "setup_s": "s", "run_s": "s", "mc_relerr": "ratio",
    "time_to_1pct_s": "s", "peak_rss_mb": "MB",
}

# per-layer metric -> unit; `.s` is wall time inside wrapped calls, `self_s`
# that time minus child spans on the same thread
PER_LAYER_UNITS = {
    "cli.invocations": "count", "cli.import_s": "s", "cli.self_s": "s",
    "trace.overhead_s": "s",
    "specfun.matern.calls": "count", "specfun.matern.points": "count",
    "specfun.matern.s": "s", "specfun.matern.ns_per_point": "ns",
    "model.cross_corr.calls": "count", "model.cross_corr.s": "s",
    "model.check_assumptions.s": "s",
    "fields.covariance.s": "s", "fields.covariance.n": "count",
    "fields.cholesky.s": "s", "fields.cholesky.retries": "count",
    "fields.cholesky.jitter": "var",
    "fields.sample.s": "s", "fields.sample.blocks": "count",
    "fields.rng.busy_s": "s", "fields.rng.normals": "count",
    "fields.rng.ns_per_normal": "ns",
    "fields.gemm.s": "s", "fields.gemm.gflop": "gflop",
    "fields.dump_write.s": "s", "fields.dump_write.mb": "MB",
    "fields.dump_read.s": "s", "fields.dump_read.mb": "MB",
    "pickands.constant.calls": "count", "pickands.suprema.s": "s",
    "pickands.reduce.s": "s", "pickands.rel_se": "ratio",
    "montecarlo.maxima.s": "s", "montecarlo.reduce.s": "s",
    "montecarlo.hits_top_u": "count", "montecarlo.hit_rate_top_u": "ratio",
    "asymptotics.riemann.calls": "count", "asymptotics.riemann.s": "s",
    "asymptotics.riemann.self_s": "s", "asymptotics.riemann.n_pairs": "count",
    "asymptotics.riemann.ns_per_pair": "ns",
}

# metrics in these units count work; they must repeat exactly between two
# traced runs of the same seed
COUNTED_UNITS = ("count", "MB", "gflop")


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark; no result is printed."""


# ---------------------------------------------------------------------------
# bookkeeping
# ---------------------------------------------------------------------------

@dataclass
class Ledger:
    """Operations attempted (CLI invocations and output checks) and failures."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")
            print(f"FAILED {name}: {detail}", file=sys.stderr)
        return ok


@dataclass
class StepRun:
    wall_s: float
    exit_code: int
    rss_mb: float


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


def run_process(argv: list[str], out_dir: Path, label: str, deadline: float) -> StepRun:
    """Run one process to completion; wall time and its own peak RSS."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        return StepRun(0.0, -1, 0.0)
    with open(out_dir / f"{label}.stdout", "wb") as out, \
            open(out_dir / f"{label}.stderr", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=_env(), stdout=out, stderr=err)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return StepRun(wall, proc.returncode, usage.ru_maxrss * 1024 / 1e6)


def time_import(deadline: float) -> float:
    """Wall time of interpreter start plus `import bgrf.cli`."""
    t0 = time.perf_counter()
    subprocess.run([PY, "-c", "import bgrf.cli"], cwd=ROOT, env=_env(), check=True,
                   timeout=max(deadline - time.monotonic(), 1.0))
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# output parsing and checks (none pins the random stream)
# ---------------------------------------------------------------------------

def read_rows(path: Path) -> list[dict]:
    with open(path) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def _relerr_hits(rows: list[dict]) -> float:
    """Largest sqrt((1 - p) / hits) over the thresholds: the least precise p_hat."""
    worst = 0.0
    for r in rows:
        p, hits = float(r["p_hat"]), int(r["hits"])
        worst = max(worst, math.sqrt((1.0 - p) / hits) if hits else math.inf)
    return worst


def mc_relerr(w: Workload, out: Path) -> float:
    if w.name == "verify-readme":
        return _relerr_hits(read_rows(out / "verify.csv"))
    if w.name == "touching-2d":
        return _relerr_hits(read_rows(out / "mc-excursion.csv"))
    # Pickands: std_error / value at the smallest T of each alpha. At T_max the
    # reported SE is itself heavy-tailed (see README), so it is traced as
    # pickands.rel_se instead of gating here.
    first = {}
    for r in read_rows(out / "pickands.csv"):
        first.setdefault(r["alpha"], r)
    return max(float(r["std_error"]) / float(r["value"]) for r in first.values())


def _check_p_hat(ledger: Ledger, label: str, rows: list[dict], ref: dict, n: int) -> None:
    """p_hat within 4 combined standard errors of a stored reference estimate."""
    for r in rows:
        u = f"{float(r['u']):g}"
        p_ref, n_ref = ref["p_hat"][u], ref["reps"]
        se = math.sqrt(p_ref * (1.0 - p_ref) * (1.0 / n + 1.0 / n_ref))
        dev = abs(float(r["p_hat"]) - p_ref)
        ledger.check(f"{label}.p_hat(u={u})", dev <= 4.0 * se,
                     f"p_hat {r['p_hat']} vs reference {p_ref:.6g} ({dev / se:.1f} SE)")


def check_outputs(w: Workload, out: Path, ref: dict, ledger: Ledger) -> None:
    ref = ref[w.name]
    reps = w.config["estimation"]["reps"]
    if w.name == "verify-readme":
        _check_p_hat(ledger, "verify", read_rows(out / "verify.csv"), ref, reps)
    elif w.name == "pickands-fine":
        rows = read_rows(out / "pickands.csv")
        top = rows[-1]
        value, se = float(top["value"]), float(top["std_error"])
        ledger.check("pickands.H_1", abs(value - ref["H_1"]) <= max(0.12, 3.0 * se),
                     f"H_1 = {value:.4g} (se {se:.3g}) at T = {top['T']}")
    else:
        sim = read_rows(out / "simulate.csv")[0]
        nodes = int(sim["nodes1"]) + int(sim["nodes2"])
        size = (out / "samples.bgrf").stat().st_size
        ledger.check("simulate.dump", (int(sim["replicates"]), nodes, size)
                     == (reps, ref["nodes"], 16 + 8 * reps * ref["nodes"]),
                     f"{sim} with a {size}-byte dump")
        _check_p_hat(ledger, "mc-excursion", read_rows(out / "mc-excursion.csv"), ref, reps)
        got = read_rows(out / "riemann-check.csv")
        ledger.check("riemann.rows", len(got) == len(ref["riemann"]), f"{len(got)} rows")
        for r, want in zip(got, ref["riemann"]):
            key = f"riemann(u={float(r['u']):g},{r['cells']})"
            rel = abs(float(r["h_sum"]) - want["h_sum"]) / want["h_sum"]
            ledger.check(key, rel <= 1e-9 and int(r["n_pairs"]) == want["n_pairs"]
                         and r["cells"] == want["cells"],
                         f"h_sum {r['h_sum']} n_pairs {r['n_pairs']} vs {want}")


def output_digest(out: Path) -> dict[str, str]:
    """sha256 of every output file the CLI wrote (CSV and sample dump)."""
    digests = {}
    for path in sorted(out.iterdir()):
        if path.suffix in (".csv", ".bgrf"):
            h = hashlib.sha256()
            with open(path, "rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 22), b""):
                    h.update(chunk)
            digests[path.name] = h.hexdigest()
    return digests


# ---------------------------------------------------------------------------
# one pass over the workload's invocations
# ---------------------------------------------------------------------------

@dataclass
class Iteration:
    run_s: float
    rss_mb: float
    ok: bool
    step_s: list[float]  # wall time of each invocation, in workload order
    spans: list[dict] | None = None


def run_iteration(w: Workload, cfg: Path, seed: int, threads: int, out: Path,
                  ledger: Ledger, deadline: float, ref: dict,
                  traced: bool = False) -> Iteration:
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    step_s, rss, ok, spans = [], 0.0, True, []
    for k, step in enumerate(w.steps):
        argv = [a.format(out=out) for a in step]
        common = ["--config", str(cfg), "--seed", str(seed), "--out-dir", str(out),
                  "--threads", str(threads)]
        label = f"{k}-{step[0]}"
        if traced:
            span_file = out / f"{label}.spans.json"
            cmd = [PY, str(HERE / "tracer.py"), str(span_file), "--", *argv, *common]
        else:
            cmd = [PY, "-m", "bgrf.cli", *argv, *common]
        r = run_process(cmd, out, label, deadline)
        print(f"  {label}{' (traced)' if traced else ''}: {r.wall_s:.3f} s", file=sys.stderr)
        step_s.append(r.wall_s)
        rss = max(rss, r.rss_mb)
        ok &= ledger.check(f"{label}.exit", r.exit_code == 0,
                           f"exit code {r.exit_code}; see {out / label}.stderr")
        if traced and r.exit_code == 0:
            with open(span_file) as fh:
                spans.append(json.load(fh))
            span_file.unlink()
        if r.exit_code != 0:
            break
    if ok:
        try:
            check_outputs(w, out, ref, ledger)
        except (OSError, LookupError, ValueError) as exc:
            ledger.check("outputs.readable", False, repr(exc))
    return Iteration(sum(step_s), rss, ok, step_s, spans if traced else None)


# ---------------------------------------------------------------------------
# per-layer metrics from spans
# ---------------------------------------------------------------------------

def layer_metrics(traces: list[dict]) -> dict[str, float]:
    """Aggregate the spans of one traced pass (one dict per invocation)."""
    dur: dict[str, float] = {}
    self_t: dict[str, float] = {}
    calls: dict[str, int] = {}
    attrs: dict[str, list[dict]] = {}
    for tr in traces:
        spans = tr["spans"]
        child = {}
        for sid, parent, name, thread, t0, t1, a in spans:
            if parent is not None:
                child[parent] = child.get(parent, 0.0) + (t1 - t0)
        for sid, parent, name, thread, t0, t1, a in spans:
            d = t1 - t0
            dur[name] = dur.get(name, 0.0) + d
            self_t[name] = self_t.get(name, 0.0) + d - child.get(sid, 0.0)
            calls[name] = calls.get(name, 0) + 1
            if a:
                attrs.setdefault(name, []).append(a)

    def total(name, key):
        return sum(a.get(key, 0) for a in attrs.get(name, []))

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    m = {
        "cli.invocations": len(traces),
        "cli.import_s": sum(tr["import_s"] for tr in traces),
        "cli.self_s": sum(v for k, v in self_t.items() if k.startswith("cli.")),
        "specfun.matern.calls": calls.get("specfun.matern", 0),
        "specfun.matern.points": total("specfun.matern", "points"),
        "specfun.matern.s": dur.get("specfun.matern", 0.0),
        "model.cross_corr.calls": calls.get("model.cross_corr", 0),
        "model.cross_corr.s": dur.get("model.cross_corr", 0.0),
        "model.check_assumptions.s": dur.get("model.check_assumptions", 0.0),
        "fields.covariance.s": dur.get("fields.build_covariance", 0.0),
        "fields.covariance.n": max((a["n"] for a in attrs.get("fields.build_covariance", [])),
                                   default=0),
        "fields.cholesky.s": dur.get("fields.cholesky_factor", 0.0),
        "fields.cholesky.jitter": max((a["jitter"] for a in attrs.get("fields.cholesky_factor", [])),
                                      default=0.0),
        "fields.sample.s": dur.get("fields.sample_blocks", 0.0),
        "fields.sample.blocks": total("fields.sample_blocks", "items"),
        "fields.dump_write.s": dur.get("fields.write_sample_dump", 0.0),
        "fields.dump_write.mb": total("fields.write_sample_dump", "mb"),
        "fields.dump_read.s": dur.get("fields.read_sample_dump", 0.0),
        "fields.dump_read.mb": total("fields.read_sample_dump", "mb"),
        "pickands.constant.calls": calls.get("pickands.estimate_H_constant", 0),
        "pickands.suprema.s": dur.get("pickands.path_suprema", 0.0),
        "pickands.reduce.s": self_t.get("pickands.path_suprema", 0.0),
        "pickands.rel_se": max((a["rel_se"] for a in attrs.get("pickands.estimate_H_constant", [])),
                               default=0.0),
        "montecarlo.maxima.s": dur.get("montecarlo.field_maxima", 0.0)
        + dur.get("montecarlo.maxima_from_dump", 0.0),
        "montecarlo.reduce.s": self_t.get("montecarlo.field_maxima", 0.0)
        + self_t.get("montecarlo.maxima_from_dump", 0.0),
        "montecarlo.hits_top_u": total("montecarlo.estimates_from_maxima", "hits"),
        "asymptotics.riemann.calls": calls.get("asymptotics.riemann_sum_check", 0),
        "asymptotics.riemann.s": dur.get("asymptotics.riemann_sum_check", 0.0),
        "asymptotics.riemann.self_s": self_t.get("asymptotics.riemann_sum_check", 0.0),
        "asymptotics.riemann.n_pairs": total("asymptotics.riemann_sum_check", "n_pairs"),
    }
    m["specfun.matern.ns_per_point"] = ratio(m["specfun.matern.s"],
                                             m["specfun.matern.points"], 1e9)
    m["montecarlo.hit_rate_top_u"] = ratio(
        m["montecarlo.hits_top_u"], total("montecarlo.estimates_from_maxima", "reps"))
    m["asymptotics.riemann.ns_per_pair"] = ratio(m["asymptotics.riemann.s"],
                                                 m["asymptotics.riemann.n_pairs"], 1e9)
    retries = [a["retries"] for a in attrs.get("fields.cholesky_factor", []) if "retries" in a]
    if len(retries) == calls.get("fields.cholesky_factor", 0):
        m["fields.cholesky.retries"] = sum(retries)
    # RNG and GEMM hang on fields._noise_block: absent, not failing, without it
    if "fields._noise_block" in calls:
        m["fields.rng.busy_s"] = dur["fields._noise_block"]
        m["fields.rng.normals"] = total("fields._noise_block", "normals")
        m["fields.rng.ns_per_normal"] = ratio(m["fields.rng.busy_s"],
                                              m["fields.rng.normals"], 1e9)
        m["fields.gemm.s"] = self_t.get("fields.block", 0.0)
        m["fields.gemm.gflop"] = total("fields._noise_block", "flop") / 1e9
    elif "fields.block" not in calls:
        # no sampling in this workload at all
        m.update({"fields.rng.busy_s": 0.0, "fields.rng.normals": 0,
                  "fields.rng.ns_per_normal": 0.0, "fields.gemm.s": 0.0,
                  "fields.gemm.gflop": 0.0})
    return m


# ---------------------------------------------------------------------------
# machine description
# ---------------------------------------------------------------------------

def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def machine(deadline: float) -> dict:
    probe = ("import json, numpy; "
             "print(json.dumps(numpy.show_config(mode='dicts')"
             "['Build Dependencies']['blas']))")
    try:
        blas = json.loads(subprocess.run(
            [PY, "-c", probe], capture_output=True, text=True, check=True,
            timeout=max(deadline - time.monotonic(), 1.0)).stdout)
    except (subprocess.SubprocessError, ValueError, KeyError):
        blas = {}

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas": {k: blas.get(k) for k in ("name", "version")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def prepare(w: Workload, deadline: float) -> tuple[Path, Path, dict]:
    if not (SRC / "bgrf" / "cli.py").is_file():
        raise SetupError(f"no bgrf sources under {SRC}; run from a full checkout")
    ref_path = HERE / "reference.json"
    if not ref_path.is_file():
        raise SetupError(f"missing {ref_path}")
    with open(ref_path) as fh:
        ref = json.load(fh)
    base = WORK / w.name
    if base.exists():
        shutil.rmtree(base)
    base.mkdir(parents=True)
    cfg = base / "config.json"
    cfg.write_text(json.dumps(w.config, indent=1))
    # byte-compile and warm the page cache once; users do not pay this per run
    try:
        time_import(deadline)
    except subprocess.SubprocessError as exc:
        raise SetupError(f"cannot import bgrf.cli: {exc}") from exc
    return base, cfg, ref


def end_to_end(w: Workload, seed: int, seconds: float, ledger: Ledger,
               deadline: float) -> tuple[dict, dict]:
    base, cfg, ref = prepare(w, deadline)
    imports = [time_import(deadline) for _ in range(SETUP_SAMPLES)]
    out = base / "out"
    iters: list[Iteration] = []
    first_digest = relerr = None
    start = time.monotonic()
    while True:
        it = run_iteration(w, cfg, seed, w.threads, out, ledger, deadline, ref)
        iters.append(it)
        print(f"{w.name} pass {len(iters)}: {it.run_s:.3f} s", file=sys.stderr)
        if not it.ok:
            break
        digest = output_digest(out)
        if first_digest is None:
            first_digest = digest
            try:
                relerr = mc_relerr(w, out)
            except (OSError, LookupError, ValueError) as exc:
                ledger.check("mc_relerr.readable", False, repr(exc))
        else:
            ledger.check("repeat.identical", digest == first_digest,
                         "outputs changed between two runs with the same seed")
        typical = statistics.median(i.run_s for i in iters)
        now = time.monotonic()
        if now - start + typical > seconds or now + 1.5 * typical > deadline:
            break
    shutil.rmtree(base)
    # the median of each invocation over the passes, summed: one slow stretch
    # of the host then moves one invocation of one pass, not a whole pass
    full = [i.step_s for i in iters if len(i.step_s) == len(w.steps)]
    run_s = sum(map(statistics.median, zip(*full))) if full else iters[0].run_s
    relerr = relerr if relerr is not None else math.inf
    metrics = {
        "setup_s": len(w.steps) * statistics.median(imports),
        "run_s": run_s,
        "mc_relerr": relerr,
        "time_to_1pct_s": run_s * (relerr / TARGET_RELERR) ** 2,
        "peak_rss_mb": statistics.median(i.rss_mb for i in iters),
    }
    counts = {"setup_s": len(imports), "run_s": len(iters), "mc_relerr": 1,
              "time_to_1pct_s": len(iters), "peak_rss_mb": len(iters)}
    return metrics, counts


def traced(w: Workload, seed: int, ledger: Ledger, deadline: float) -> tuple[dict, dict]:
    base, cfg, ref = prepare(w, deadline)
    out = base / "out"
    # the other thread count goes first, so the untraced baseline that
    # trace.overhead_s subtracts is not the first pass of the run
    alt_threads = 2 if w.threads == 1 else 1
    alt = run_iteration(w, cfg, seed, alt_threads, out, ledger, deadline, ref)
    alt_digest = output_digest(out) if alt.ok else None
    plain = run_iteration(w, cfg, seed, w.threads, out, ledger, deadline, ref)
    digest = output_digest(out) if plain.ok else None
    if plain.ok and alt.ok:
        ledger.check("threads.identical", alt_digest == digest,
                     f"outputs differ between --threads {w.threads} and {alt_threads}")
    if w.name == "touching-2d" and plain.ok:
        r = run_process([PY, str(HERE / "check_maxima.py"), str(cfg),
                         str(out / "samples.bgrf"), str(seed)], base, "maxima", deadline)
        ledger.check("dump.maxima", r.exit_code == 0,
                     f"maxima from the dump differ from direct sampling (exit {r.exit_code})")

    layers = []
    for k in range(2):
        it = run_iteration(w, cfg, seed, w.threads, out, ledger, deadline, ref, traced=True)
        if not it.ok:
            break
        ledger.check(f"trace{k}.identical", output_digest(out) == digest,
                     "traced outputs differ from untraced outputs")
        layers.append((it.run_s, layer_metrics(it.spans)))
    shutil.rmtree(base)
    if not layers:
        return {}, {}
    first = layers[0][1]
    counted = [k for k in first if PER_LAYER_UNITS[k] in COUNTED_UNITS]
    if len(layers) == 2:
        second = layers[1][1]
        diff = [k for k in counted if first[k] != second.get(k)]
        ledger.check("trace.counts_repeat", not diff and first.keys() == second.keys(),
                     f"counted metrics differ between traced runs: {diff}")
    first["trace.overhead_s"] = statistics.median(s for s, _ in layers) - plain.run_s
    metrics = {}
    for k in PER_LAYER_UNITS:
        if k in first:
            metrics[k] = first[k] if k in counted or k == "trace.overhead_s" else \
                statistics.median(m[k] for _, m in layers)
    return metrics, {k: len(layers) for k in metrics}


def report(w: Workload, trace: int, metrics: dict, counts: dict, ledger: Ledger,
           units: dict) -> dict:
    print(f"== {w.name}  trace={trace}")
    print(f"{'metric':34s} {'value':>16s}  {'unit':6s} {'n':>3s}")
    for k, v in metrics.items():
        print(f"{k:34s} {v:16.6g}  {units[k]:6s} {counts[k]:3d}")
    fail_ratio = len(ledger.failures) / ledger.attempted
    print(f"{'fail_ratio':34s} {fail_ratio:16.6g}  {'ratio':6s} {ledger.attempted:3d}")
    return {
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        # a non-finite value only comes with a failed check; keep the line JSON
        "metrics": {k: {"value": v if math.isfinite(v) else None, "unit": units[k]}
                    for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            w = WORKLOADS[name]
            deadline = time.monotonic() + RUN_LIMIT_S
            ledger = Ledger()
            if args.trace:
                metrics, counts = traced(w, args.seed, ledger, deadline)
                units = PER_LAYER_UNITS
            else:
                metrics, counts = end_to_end(w, args.seed, args.seconds, ledger, deadline)
                units = END_TO_END_UNITS
            print("machine: " + json.dumps(machine(deadline), sort_keys=True))
            results[name] = report(w, args.trace, metrics, counts, ledger, units)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
