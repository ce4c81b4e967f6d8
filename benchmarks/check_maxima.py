"""Check that maxima recomputed from a sample dump equal direct sampling.

Usage: python3 benchmarks/check_maxima.py CONFIG DUMP SEED

Exits 0 when `maxima_from_dump` on DUMP and `field_maxima` at SEED give
bit-identical per-replicate maxima for the config's model, grid and reps,
and 1 otherwise.
"""

import sys

import numpy as np

from bgrf.cli import build_domain, build_model, load_config
from bgrf.fields import GridSpec
from bgrf.montecarlo import field_maxima, maxima_from_dump


def main(config: str, dump: str, seed: str) -> int:
    cfg = load_config(config)
    m = build_model(cfg)
    g = GridSpec(build_domain(cfg, m), cfg["grid"]["points_per_axis"])
    from_dump = maxima_from_dump(dump, g.n1)
    direct = field_maxima(m, g, cfg["estimation"]["reps"], int(seed))
    same = all(np.array_equal(a, b) for a, b in zip(from_dump, direct))
    print("maxima identical" if same else "maxima differ")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
