"""Run one `bgrf` CLI invocation with spans around the library's layers.

Usage: python3 benchmarks/tracer.py SPANS_JSON -- <bgrf arguments>

Every public function of specfun, model, fields, pickands, asymptotics,
montecarlo and cli is replaced by a timing wrapper at every place that binds
it (modules that did `from .fields import sample_blocks` hold their own
reference, so patching `bgrf.fields` alone would miss those calls). A few
private hooks are wrapped as well:

- `fields._noise_block` is the normal generator (RNG spans);
- the per-block callable that `fields.block_map` runs on worker threads gets
  a `fields.block` span, so GEMM busy time is a block's self time;
- generator functions such as `fields.sample_blocks` get one span per
  `next()`, so the consumer's loop body is not charged to sampling.

Spans stay in memory and are written once, after the command returns. Each
span is [id, parent_id, name, thread, start, end, attrs]; parent_id is the
enclosing span on the same thread (None on a fresh worker thread). The
process exits with the command's own exit code.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import sys
import threading
import time

_T0 = time.perf_counter()
import bgrf.cli  # noqa: E402  (import time is itself a measured layer)

_IMPORT_S = time.perf_counter() - _T0

import numpy as np  # noqa: E402  (already loaded by bgrf)

LAYERS = ("specfun", "model", "fields", "pickands", "asymptotics", "montecarlo", "cli")
PRIVATE_HOOKS = {"fields": ("_noise_block",)}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._threads: dict[int, int] = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _thread(self) -> int:
        return self._threads.setdefault(threading.get_ident(), len(self._threads))

    def _open(self):
        stack = self._stack()
        sid, parent = next(self._ids), (stack[-1] if stack else None)
        stack.append(sid)
        return sid, parent, time.perf_counter()

    def _close(self, sid, parent, name, t0, attrs=None) -> list:
        t1 = time.perf_counter()
        self._stack().pop()
        span = [sid, parent, name, self._thread(), t0, t1, attrs]
        self.spans.append(span)
        return span

    def call(self, name, fn, args, kwargs, annotate=None):
        sid, parent, t0 = self._open()
        try:
            result = fn(*args, **kwargs)
        finally:
            span = self._close(sid, parent, name, t0)
        if annotate is not None:
            a0 = time.perf_counter()
            span[6] = annotate(args, kwargs, result)
            # annotation cost is charged to the tracer, not to the caller
            self.spans.append([next(self._ids), parent, "trace.annotate",
                               self._thread(), a0, time.perf_counter(), None])
        return result

    def wrap(self, name, fn, annotate=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, annotate)
        return wrapper

    def wrap_generator(self, name, fn):
        """One span per next(); attrs count the items yielded."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                sid, parent, t0 = self._open()
                item, done = None, True
                try:
                    item, done = next(gen), False
                except StopIteration:
                    pass
                finally:
                    self._close(sid, parent, name, t0, {"items": 0 if done else 1})
                if done:
                    return
                yield item
        return wrapper

    def wrap_block_map(self, fn):
        @functools.wraps(fn)
        def wrapper(n_blocks, block_fn, *args, **kwargs):
            timed = self.wrap("fields.block", block_fn)
            return self.call("fields.block_map", fn, (n_blocks, timed, *args), kwargs)
        return wrapper


# ---------------------------------------------------------------------------
# attributes read from arguments and results (counts, never timings)
# ---------------------------------------------------------------------------

def _points(args, kwargs, result):
    return {"points": int(np.size(args[0] if args else kwargs["h"]))}


def _noise(args, kwargs, result):
    n, cols = result.shape
    return {"normals": int(result.size), "flop": 2 * n * n * cols}


def _dim(args, kwargs, result):
    return {"n": int(result.shape[0])}


def _cholesky(args, kwargs, result):
    """Jitter the factorisation applied, inferred from outside: the diagonal
    of L L^T exceeds that of cov by the jitter (plus roundoff). The step is
    matched on the median residual, which roundoff does not move."""
    cov = args[0] if args else kwargs["cov"]
    resid = np.einsum("ij,ij->i", result, result) - np.diag(cov)
    attrs = {"jitter": float(resid.max()), "n": int(cov.shape[0])}
    steps = getattr(sys.modules["bgrf.fields"], "_JITTERS", None)
    if steps is not None:
        typical = float(np.median(resid))
        attrs["retries"] = min(range(len(steps)), key=lambda k: abs(steps[k] - typical))
    return attrs


def _file_mb(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return {"mb": os.path.getsize(path) / 1e6}


def _pickands(args, kwargs, result):
    return {"alpha": result.alpha, "rel_se": result.std_error / result.value}


def _excursion(args, kwargs, result):
    top = max(result, key=lambda e: e.u)
    return {"hits": top.hits, "reps": top.replicates}


def _riemann(args, kwargs, result):
    return {"n_pairs": int(result.n_pairs)}


ANNOTATE = {
    "specfun.matern": _points,
    "fields._noise_block": _noise,
    "fields.build_covariance": _dim,
    "fields.cholesky_factor": _cholesky,
    "fields.write_sample_dump": _file_mb,
    "fields.read_sample_dump": _file_mb,
    "pickands.estimate_H_constant": _pickands,
    "montecarlo.estimates_from_maxima": _excursion,
    "asymptotics.riemann_sum_check": _riemann,
}


def instrument(tracer: Tracer) -> None:
    """Wrap the layers' functions at every binding site."""
    replaced = {}
    for layer in LAYERS:
        mod = sys.modules[f"bgrf.{layer}"]
        for attr, obj in vars(mod).items():
            if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            if attr.startswith("_") and attr not in PRIVATE_HOOKS.get(layer, ()):
                continue
            name = f"{layer}.{attr}"
            if name == "fields.block_map":
                replaced[id(obj)] = tracer.wrap_block_map(obj)
            elif inspect.isgeneratorfunction(obj):
                replaced[id(obj)] = tracer.wrap_generator(name, obj)
            else:
                replaced[id(obj)] = tracer.wrap(name, obj, ANNOTATE.get(name))
    for modname, mod in list(sys.modules.items()):
        if modname != "bgrf" and not modname.startswith("bgrf."):
            continue
        for attr, obj in list(vars(mod).items()):
            if id(obj) in replaced:
                setattr(mod, attr, replaced[id(obj)])


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    spans_path, argv = sys.argv[1], sys.argv[3:]
    tracer = Tracer()
    instrument(tracer)
    code = None
    try:
        code = bgrf.cli.main(argv)
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"import_s": _IMPORT_S, "exit_code": code, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
