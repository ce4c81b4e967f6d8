"""Command-line surface.

One JSON config drives every subcommand. _DEFAULTS gives every key's
default and kind, and load_config checks the whole config once, for every
command; --seed, --reps and --u replace config values and pass the same
check. Exit codes: 0 pass, 1 semantic/check failure, 2 usage or parse
failure. Outputs are CSV (or JSON lines with --format json) with a leading
metadata comment carrying the config hash and seed, so a rerun with the
same config and seed is byte-identical regardless of --threads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import warnings

from .asymptotics import (
    CellBudgetError,
    default_delta_constant,
    riemann_cells,
    riemann_sum_check,
    tail_asymptotic,
)
from .fields import (
    DomainPair,
    GridSpec,
    NotPositiveDefiniteError,
    Rect,
    check_reps,
)
from .model import (
    BivariateMaternModel,
    UnsupportedModelError,
    check_assumptions,
    cross_corr,
    local_expansion,
    validity_check,
)
from .montecarlo import (
    estimates_from_maxima,
    field_maxima,
    rate_fit,
    recorded_maxima,
    write_record,
)
from .pickands import discrete_pickands_h1, estimate_H_constant


class ConfigError(ValueError):
    pass


# the kinds of config value; a None default also allows null
_NUMBER, _INTEGER, _NUMBERS, _BOXES = (
    "a number", "an integer", "a list of numbers", "a list of boxes of [lo, hi] pairs")

# section -> key -> (default, kind)
_DEFAULTS = {
    "domain": {"A1": (None, _BOXES), "A2": (None, _BOXES), "split_M": (None, _INTEGER)},
    "grid": {"points_per_axis": (100, _INTEGER)},
    "estimation": {
        "reps": (200_000, _INTEGER),
        "seed": (1234, _INTEGER),
        "eta": (1.0 / 64.0, _NUMBER),
        "T_list": ([1.0, 2.0, 4.0, 8.0], _NUMBERS),
        "alpha": (None, _NUMBER),
        "H1": (None, _NUMBER),
        "H2": (None, _NUMBER),
    },
    "thresholds": {"u": ([2.0, 2.4, 2.8, 3.2], _NUMBERS)},
    "verify": {
        "rate_tol": (0.10, _NUMBER),
        "riemann_band": (0.10, _NUMBER),
        "riemann_u": ([20.0, 40.0, 50.0, 80.0], _NUMBERS),
        "riemann_T": (1.0, _NUMBER),
        # null is default_delta_constant; no caller sets it, but every
        # config hash covers it
        "riemann_C": (None, _NUMBER),
    },
}

_MODEL_KEYS = {
    "nu1", "nu2", "nu12", "rho", "a1", "a2", "a12", "sigma1", "sigma2", "dim_N",
}


def _checked(section: str, key: str, value):
    """value for section.key as its kind: a float, an int or a list of
    floats; boxes, a non-empty list of lists of [lo, hi] number pairs, pass
    as given, for build_domain. A config error for a bool, a non-finite
    number, an empty list or another type."""
    path = f"{section}.{key}"
    default, kind = _DEFAULTS[section][key]
    if value is None and default is None:
        return value

    def finite(v) -> bool:
        try:
            return (isinstance(v, (int, float)) and not isinstance(v, bool)
                    and math.isfinite(v))
        except OverflowError:  # an integer past the float range
            return False

    def pairs(box) -> bool:
        return isinstance(box, list) and all(
            isinstance(side, list) and len(side) == 2 and all(map(finite, side))
            for side in box)

    if kind == _NUMBERS:
        if value == []:
            raise ConfigError(f"{path} must not be empty")
        if isinstance(value, list) and all(map(finite, value)):
            return [float(v) for v in value]
    elif kind == _BOXES:
        if isinstance(value, list) and value and all(map(pairs, value)):
            return value
    elif finite(value) and (kind == _NUMBER or isinstance(value, int)):
        return value if kind == _INTEGER else float(value)
    null = " or null" if default is None else ""
    raise ConfigError(f"{path} must be {kind}{null}, got {value!r}")


def load_config(path: str) -> dict:
    """The config at path, every section merged with its defaults and every
    value checked and converted by _checked. cfg["config_sha256"] is the
    hash of the merged values before conversion."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or UTF-8
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - ({"model"} | set(_DEFAULTS))
    if unknown:
        raise ConfigError(f"unknown top-level keys: {sorted(unknown)}")
    if "model" not in raw:
        raise ConfigError("config needs a 'model' section")
    for name, section in raw.items():
        if not isinstance(section, dict):
            raise ConfigError(f"section '{name}' must be a JSON object")
    model = dict(raw["model"])
    unknown = set(model) - _MODEL_KEYS
    if unknown:
        raise ConfigError(f"unknown keys in 'model': {sorted(unknown)}")
    cfg = {"model": model}
    for name, keys in _DEFAULTS.items():
        given = raw.get(name, {})
        unknown = set(given) - set(keys)
        if unknown:
            raise ConfigError(f"unknown keys in '{name}': {sorted(unknown)}")
        cfg[name] = {key: given.get(key, default) for key, (default, _) in keys.items()}
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    sha = hashlib.sha256(blob.encode()).hexdigest()[:16]
    for name in _DEFAULTS:
        cfg[name] = {key: _checked(name, key, v) for key, v in cfg[name].items()}
    cfg["config_sha256"] = sha
    return cfg


def build_model(cfg: dict) -> BivariateMaternModel:
    try:
        return BivariateMaternModel(**cfg["model"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid model: {exc}") from exc


def _boxes(spec, N: int, label: str) -> tuple[Rect, ...]:
    """The boxes of a checked domain.A1 or A2 value; null is the unit box."""
    if spec is None:
        return (Rect((0.0,) * N, (1.0,) * N),)
    if any(len(box) != N for box in spec):
        raise ConfigError(f"{label} boxes must have dim_N = {N} sides")
    try:
        return tuple(Rect(tuple(float(lo) for lo, _ in box),
                          tuple(float(hi) for _, hi in box)) for box in spec)
    except ValueError as exc:  # a negative side
        raise ConfigError(f"invalid {label}: {exc}") from exc


def build_domain(cfg: dict, m: BivariateMaternModel) -> DomainPair:
    dom = cfg["domain"]
    A1, A2 = (_boxes(dom[k], m.dim_N, f"domain.{k}") for k in ("A1", "A2"))
    try:
        return DomainPair(A1=A1, A2=A2, dim_N=m.dim_N, split_M=dom["split_M"])
    except ValueError as exc:
        raise ConfigError(f"invalid domain: {exc}") from exc


class Writer:
    def __init__(self, cfg: dict, args, command: str, columns: list[str]):
        self.columns = columns
        self.fmt = args.format
        ext = "csv" if self.fmt == "csv" else "jsonl"
        self.path = os.path.join(_out_dir(args), f"{command}.{ext}")
        self.meta = {"config_sha256": cfg["config_sha256"], "seed": cfg["estimation"]["seed"]}
        self.rows: list[list] = []

    def add(self, *values):
        if len(values) != len(self.columns):
            raise ValueError("row width mismatch")
        self.rows.append(list(values))

    def flush(self) -> None:
        if self.fmt == "csv":
            lines = [
                "# " + " ".join(f"{k}={v}" for k, v in self.meta.items()),
                ",".join(self.columns),
            ]
            # str of a float is its shortest round-trip repr
            lines += [",".join(map(str, row)) for row in self.rows]
        else:
            # JSON has no NaN or Infinity: a non-finite float is written as null
            lines = [json.dumps({"_meta": self.meta}, sort_keys=True)]
            lines += [
                json.dumps(
                    {k: None if isinstance(v, float) and not math.isfinite(v) else v
                     for k, v in zip(self.columns, row)},
                    sort_keys=True, allow_nan=False,
                )
                for row in self.rows
            ]
        text = "\n".join(lines) + "\n"
        with open(self.path, "w") as fh:
            fh.write(text)
        sys.stdout.write(text)


def _out_dir(args) -> str:
    """--out-dir, else $BGRF_OUT_DIR, else ./bgrf-out; created when
    missing."""
    out_dir = args.out_dir or os.environ.get("BGRF_OUT_DIR") or "bgrf-out"
    os.makedirs(out_dir, exist_ok=True)
    return out_dir


def _alphas(cfg: dict, m: BivariateMaternModel) -> list[float]:
    if cfg["estimation"]["alpha"] is not None:
        return [cfg["estimation"]["alpha"]]
    return list(dict.fromkeys((2.0 * m.nu1, 2.0 * m.nu2)))  # distinct, in order


def _estimate_H(cfg, args, alpha: float):
    """Pickands constant estimate at the config's T_list and eta."""
    est = cfg["estimation"]
    return estimate_H_constant(
        alpha, est["T_list"], est["eta"], est["reps"], est["seed"], args.threads)


def _pickands_constants(cfg, m, args) -> tuple[float, float]:
    """Each field's Pickands constant: the config's H1/H2 when given, else
    exactly 1 at alpha = 1, else an estimate at the config's estimation
    settings (one per distinct alpha). One stderr line per field says
    which. At dim_N >= 2 both must be given: the tail formula needs the
    N-parameter constant, which is not the 1-D one estimated here."""
    est = cfg["estimation"]
    if m.dim_N > 1 and (est["H1"] is None or est["H2"] is None):
        raise ValueError(
            f"dim_N = {m.dim_N} needs the N-parameter Pickands constants, "
            "which are not the 1-D constants bgrf computes; give "
            "estimation.H1 and estimation.H2"
        )
    H, by_alpha = {}, {}
    for label, alpha in (("H1", 2.0 * m.nu1), ("H2", 2.0 * m.nu2)):
        if est[label] is not None:
            H[label], source = est[label], "given"
        elif alpha == 1.0:
            H[label], source = 1.0, "exact: alpha = 1, N = 1"
        else:
            if alpha not in by_alpha:
                by_alpha[alpha] = _estimate_H(cfg, args, alpha)
            r = by_alpha[alpha]
            H[label] = r.value
            source = f"estimated, se {r.std_error:.3g}, T = {r.horizon_T:g}, eta = {r.eta:g}"
        print(f"{label} = {H[label]:.6g} ({source})", file=sys.stderr)
    return H["H1"], H["H2"]


def _riemann_args(cfg, m, d: DomainPair) -> list[tuple]:
    """riemann_sum_check's arguments but the cell family, one tuple per u,
    with u, T and C from the config's verify section, C defaulting to
    default_delta_constant. Every u is checked against the preconditions
    and the cell budget here, before any sum."""
    e = local_expansion(m)
    us, T, C = (cfg["verify"][k] for k in ("riemann_u", "riemann_T", "riemann_C"))
    if C is None:
        C = default_delta_constant(e)
    for u in us:
        riemann_cells(e, d, T, C, u)
    return [(e, d, lambda h: cross_corr(m, h), T, C, u) for u in us]


def _check_theorem_thresholds(cfg) -> None:
    """Refuse, before any sum or estimate, a thresholds.u the theorem
    cannot take: tail_asymptotic needs u > 0. mc-excursion takes any u."""
    for u in cfg["thresholds"]["u"]:
        if not (u > 0):
            raise ValueError(f"u must be > 0, got {u}")


def _warn_if_invalid(m: BivariateMaternModel) -> None:
    """One stderr warning when the model fails validate's validity
    condition, whose theorem this command evaluates anyway."""
    check = validity_check(m)
    if not check.passed:
        print(
            f"warning: rho^2 = {m.rho ** 2:.6g} exceeds the validity bound "
            f"{check.witness:.6g}: no bivariate field has this model, and "
            "validate rejects it",
            file=sys.stderr,
        )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_validate(cfg, args) -> int:
    m = build_model(cfg)
    report = check_assumptions(m)
    for line in report.lines():
        print(line)
    return 0 if report.passed else 1


def cmd_expansion(cfg, args) -> int:
    m = build_model(cfg)
    e = local_expansion(m)
    w = Writer(cfg, args, "expansion",
               ["alpha1", "alpha2", "c1", "c2", "rho", "r2_zero", "dim_N"])
    w.add(e.alpha1, e.alpha2, e.c1, e.c2, e.rho, e.r2_zero, e.dim_N)
    w.flush()
    return 0


def cmd_simulate(cfg, args) -> int:
    m = build_model(cfg)
    g = GridSpec(build_domain(cfg, m), cfg["grid"]["points_per_axis"])
    reps, seed = cfg["estimation"]["reps"], cfg["estimation"]["seed"]
    dump = os.path.join(_out_dir(args), "samples.bgrf")
    write_record(dump, m, g, reps, seed, args.threads)
    w = Writer(cfg, args, "simulate", ["replicates", "nodes1", "nodes2", "seed", "dump"])
    w.add(reps, g.n1, g.n2, seed, dump)
    w.flush()
    return 0


def cmd_pickands(cfg, args) -> int:
    m = build_model(cfg)
    w = Writer(cfg, args, "pickands", ["alpha", "T", "eta", "reps", "value", "std_error"])
    for alpha in _alphas(cfg, m):
        r = _estimate_H(cfg, args, alpha)
        for T, value, se in r.sequence:
            w.add(alpha, T, r.eta, r.replicates, value, se)
        if r.warning:
            print(f"warning: alpha={alpha:g}: {r.warning}", file=sys.stderr)
    w.flush()
    return 0


def cmd_theorem(cfg, args) -> int:
    m = build_model(cfg)
    _check_theorem_thresholds(cfg)
    _warn_if_invalid(m)
    e = local_expansion(m)
    d = build_domain(cfg, m)
    M, mes = d.shared_part()
    H1, H2 = _pickands_constants(cfg, m, args)
    case = "overlapping domains" if M == d.dim_N else "touching domains"
    print(f"case: M = {M}, N = {d.dim_N}, mes_M = {mes:.6g} ({case})", file=sys.stderr)
    w = Writer(cfg, args, "theorem",
               ["u", "value", "log_value", "exp_rate", "u_power", "constant"])
    for u in cfg["thresholds"]["u"]:
        r = tail_asymptotic(e, M, mes, H1, H2, u)
        w.add(u, r.value, r.log_value, r.exp_rate, r.u_power, r.constant)
    w.flush()
    return 0


def cmd_riemann_check(cfg, args) -> int:
    m = build_model(cfg)
    _warn_if_invalid(m)
    modes = ("intersect", "subset") if args.both_cells else ("intersect",)
    w = Writer(cfg, args, "riemann-check",
               ["u", "h_sum", "limit_value", "ratio", "n_pairs", "regime", "cells", "delta"])
    for riemann_args in _riemann_args(cfg, m, build_domain(cfg, m)):
        for mode in modes:
            chk = riemann_sum_check(*riemann_args, mode)
            w.add(chk.u, chk.h_sum, chk.limit_value, chk.ratio, chk.n_pairs,
                  chk.regime, chk.cells, chk.delta)
    w.flush()
    return 0


def cmd_mc_excursion(cfg, args) -> int:
    m = build_model(cfg)
    g = GridSpec(build_domain(cfg, m), cfg["grid"]["points_per_axis"])
    est = cfg["estimation"]
    maxima = (recorded_maxima(args.samples, m, g, est["reps"], est["seed"]) if args.samples
              else field_maxima(m, g, est["reps"], est["seed"], args.threads))
    ests = estimates_from_maxima(*maxima, cfg["thresholds"]["u"], est["seed"])
    w = Writer(cfg, args, "mc-excursion",
               ["u", "p_hat", "ci_low", "ci_high", "hits", "reps"])
    w.meta["samples"] = "shared-across-u"  # thresholds reuse one sample set
    code = 0
    for est in ests:
        w.add(est.u, est.p_hat, est.ci_low, est.ci_high, est.hits, est.replicates)
        if est.warning:
            print(f"warning: u={est.u:g}: {est.warning}", file=sys.stderr)
            code = 1
    w.flush()
    return code


def cmd_verify(cfg, args) -> int:
    m = build_model(cfg)
    _warn_if_invalid(m)
    d = build_domain(cfg, m)
    e = local_expansion(m)
    g = GridSpec(d, cfg["grid"]["points_per_axis"])
    rate_tol, band = cfg["verify"]["rate_tol"], cfg["verify"]["riemann_band"]
    reps, us = cfg["estimation"]["reps"], cfg["thresholds"]["u"]
    if reps < 1000:
        print(f"verify FAILED: reps = {reps} below the Monte Carlo floor of 1000")
        return 1
    check_reps(reps)
    M, mes = d.shared_part()
    # every refusal the config decides comes before any sum or estimate:
    # the thresholds and tolerances, the Riemann preconditions and cell
    # budget, then the constants' rule
    _check_theorem_thresholds(cfg)
    for key in ("rate_tol", "riemann_band"):
        if cfg["verify"][key] < 0:
            raise ValueError(f"verify.{key} must be >= 0, got {cfg['verify'][key]}")
    riemann_args = _riemann_args(cfg, m, d)
    H1, H2 = _pickands_constants(cfg, m, args)
    riemann = [riemann_sum_check(*a) for a in riemann_args]
    maxima = field_maxima(m, g, reps, cfg["estimation"]["seed"], args.threads)
    ests = estimates_from_maxima(*maxima, us, cfg["estimation"]["seed"])

    # p_hat is a maximum over grid nodes; at level u field i's node step in
    # the local Pickands scale is delta_i(u)
    steps = g.node_steps()
    print(
        f"grid: node steps Delta = ({steps[0]:.6g}, {steps[1]:.6g}), "
        "delta_i(u) = Delta_i c_i^(1/alpha_i) (u/(1+rho))^(2/alpha_i)"
    )
    deltas = [
        tuple(step * c ** (1.0 / a) * (u / (1.0 + e.rho)) ** (2.0 / a)
              for step, c, a in zip(steps, (e.c1, e.c2), (e.alpha1, e.alpha2)))
        for u in us
    ]
    for u, (delta1, delta2) in zip(us, deltas):
        print(f"grid u={u:g}: delta1 = {delta1:.6g}, delta2 = {delta2:.6g}")

    def theorem(H1, H2, est):
        # the theorem at est.u, and p_hat's ratio to it
        value = tail_asymptotic(e, M, mes, H1, H2, est.u).value
        return value, (est.p_hat / value if value > 0 else math.nan)

    # grid_ratio evaluates the theorem with the grid constants H^delta_i(u),
    # which have a closed form only at alpha = 1 on a 1-D grid
    closed = e.alpha1 == e.alpha2 == 1.0 and e.dim_N == 1
    w = Writer(cfg, args, "verify",
               ["u", "p_hat", "hits", "theorem_value", "ratio", "grid_ratio"])
    w.meta["samples"] = "shared-across-u"
    too_fine = ""
    for est, (delta1, delta2) in zip(ests, deltas):
        value, ratio = theorem(H1, H2, est)
        grid_ratio = math.nan
        if closed and delta1 > 0 and delta2 > 0:
            try:
                _, grid_ratio = theorem(*map(discrete_pickands_h1, (delta1, delta2)), est)
            except ValueError as exc:
                too_fine = f" or its series is too long ({exc})"
        w.add(est.u, est.p_hat, est.hits, value, ratio, grid_ratio)
    if any(math.isnan(row[-1]) for row in w.rows):
        print(
            "ratio divides this grid estimate by a theorem evaluated with the "
            "continuous-time H1, H2, so it carries each field's grid factor "
            "H^delta_i(u) / H < 1; grid_ratio is nan where H^delta_i(u) has "
            "no closed form (alpha_i != 1 or dim_N > 1)" + too_fine
        )

    failures = []
    target = -1.0 / (1.0 + e.rho)
    try:
        fit = rate_fit(ests)
        rate_ok = abs(fit.slope - target) <= rate_tol * abs(target)
        print(
            f"rate: slope = {fit.slope:.4f} (se {fit.slope_se:.4f}), "
            f"target {target:.4f}, tol {rate_tol:.0%}: "
            + ("PASS" if rate_ok else "FAIL")
        )
        if not rate_ok:
            failures.append("rate")
    except ValueError as exc:
        print(f"rate: FAIL ({exc})")
        failures.append("rate")

    for chk in riemann:
        ok = abs(chk.ratio - 1.0) <= band
        print(
            f"riemann u={chk.u:g}: ratio = {chk.ratio:.4f}, band {band:.0%}: "
            + ("PASS" if ok else "FAIL")
        )
        if not ok:
            failures.append(f"riemann(u={chk.u:g})")
    w.flush()
    if failures:
        print("verify FAILED: " + ", ".join(failures))
        return 1
    print("verify PASSED")
    return 0


# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", required=True, help="path to the JSON run config")
    p.add_argument("--seed", type=int, default=None, help="override estimation.seed")
    p.add_argument("--reps", type=int, default=None, help="override estimation.reps")
    p.add_argument("--threads", type=int, default=1,
                   help="worker threads, at most the CPUs this process may use; "
                   "with two or more, BLAS runs one thread while they run "
                   "(never changes outputs)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out-dir", default=None,
                   help="output directory (default $BGRF_OUT_DIR or ./bgrf-out)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="bgrf",
        description="Bivariate Matern Gaussian fields: validity checks, "
        "Pickands estimation, tail asymptotics, and Monte Carlo verification.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    handlers = {
        "validate": cmd_validate,
        "expansion": cmd_expansion,
        "simulate": cmd_simulate,
        "pickands": cmd_pickands,
        "theorem": cmd_theorem,
        "riemann-check": cmd_riemann_check,
        "mc-excursion": cmd_mc_excursion,
        "verify": cmd_verify,
    }
    parsers = {}
    for name in handlers:
        parsers[name] = p = sub.add_parser(name)
        _add_common(p)
        if name in ("theorem", "riemann-check", "mc-excursion", "verify"):
            p.add_argument("--u", type=float, nargs="+", default=None)

    parsers["riemann-check"].add_argument(
        "--both-cells", action="store_true",
        help="also sum over the subset cell family")

    parsers["mc-excursion"].add_argument(
        "--samples", default=None,
        help="read the maxima from the sample dump simulate wrote instead of "
             "sampling: a dump of R replicates stands in for any run of reps <= R "
             "of its model, grid and seed, and is refused above R")

    args = ap.parse_args(argv)
    if args.threads < 1:
        parsers[args.command].error(f"--threads must be at least 1, got {args.threads}")

    # --u replaces the thresholds a command sums or samples at
    u_key = ("verify", "riemann_u") if args.command == "riemann-check" else ("thresholds", "u")
    flags = {("estimation", "seed"): args.seed, ("estimation", "reps"): args.reps,
             u_key: getattr(args, "u", None)}
    # a library warning (a Cholesky jitter) prints as one line, like the CLI's own
    fmt = warnings.formatwarning
    warnings.formatwarning = lambda message, *_: f"warning: {message}\n"
    try:
        cfg = load_config(args.config)
        for (section, key), value in flags.items():
            if value is not None:
                cfg[section][key] = _checked(section, key, value)
        return handlers[args.command](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (
        UnsupportedModelError,
        NotPositiveDefiniteError,
        CellBudgetError,
        ValueError,
        OSError,
        MemoryError,
    ) as exc:
        # model/domain parsed fine but the requested computation is
        # semantically impossible with it, a file it names is unreadable, or
        # an array it needs cannot be allocated
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        warnings.formatwarning = fmt


if __name__ == "__main__":
    sys.exit(main())
