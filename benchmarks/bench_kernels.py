"""Benchmark the compiled extension kernels against the pure-Python
fallback on the three hot loops, with the pure oracle kernels' nodes or
messages per second, then time the superregularity predicate layer and
the transform-enumeration layer (pure Python only; neither has a compiled
kernel yet).  The transform rows also give the tracemalloc peak of one
call, taken in a separate untimed call.

Run from the repository root after an editable install:

    python3 benchmarks/bench_kernels.py

The compiled kernel is ``sumrank._core_c`` when it is importable.
``--compiled LABEL=FILE`` (repeatable) times built module files instead,
say builds of two source trees side by side; each is loaded by path
under the module name ``sumrank._core_c``.  Every kernel runs each case
``--repeat`` times, the kernels taking turns within a round; a kernel
row gives the median and the best run.  ``--out FILE`` also writes the
kernel rows (instance, kernel, value, count, times) and the machine as
JSON:

    python3 benchmarks/bench_kernels.py --repeat 5 \\
        --compiled generated=OLD/_core_c.so --compiled handwritten=NEW/_core_c.so \\
        --out BENCH_kernels.json
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import random
import statistics
import sysconfig
import time
import tracemalloc

from bench_transform_family import _cpu_model

from sumrank import _core_py
from sumrank.block_codes import (
    check_mrd_systematic,
    check_msrd_transforms,
    construct_gabidulin,
)
from sumrank.conv_codes import construct_frobenius, parity_grid, sliding_parity
from sumrank.field import field
from sumrank.matrix import Matrix
from sumrank.metrics import LengthPartition
from sumrank.superregular import is_full_superregular, is_superregular_constrained


def _load_compiled(spec_text: str):
    """(label, module) for LABEL=FILE, the module loaded from FILE."""
    label, _, path = spec_text.partition("=")
    spec = importlib.util.spec_from_file_location("sumrank._core_c", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return label, module


def _importable_kernels():
    kernels = [("python", _core_py)]
    try:
        from sumrank import _core_c
    except ImportError:
        print("compiled extension not available; showing pure Python only")
    else:
        kernels.append(("c", _core_c))
    return kernels


def _time(fn, repeat: int):
    """(best time, last return value) over repeat calls."""
    best = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best, out


def bench_expand_rank(mod, f, vectors):
    """Each run returns (sum of the ranks, number of vectors)."""
    def run():
        return sum(mod.expand_rank(v, f.q, f.M) for v in vectors), len(vectors)

    return run


def bench_min_distance(mod, f, gen_rows, parts):
    """Each run returns (distance, messages enumerated)."""
    args = (gen_rows, parts, f.q, f.M, f.order, f.exp, f.log, 10**9)

    def run():
        return mod.block_min_sum_rank(*args)

    return run


def bench_column_distance(mod, f, coeff_rows, k, n, j):
    """Each run returns (distance, nodes enumerated)."""
    def run():
        return mod.conv_column_distance(
            coeff_rows, k, n, j, f.q, f.M, f.order, f.exp, f.log, 10**9, True
        )

    return run


def kernel_rows(cases, kernels, repeat: int):
    """One row per (case, kernel) with its value, count and run times; the
    kernels take turns within each of repeat rounds."""
    runs = {}
    results = {}
    for name, make, _ in cases:
        calls = [(label, make(mod)) for label, mod in kernels]
        for _ in range(repeat):
            for label, call in calls:
                t, results[name, label] = _time(call, 1)
                runs.setdefault((name, label), []).append(t)
    rows = []
    for name, _, unit in cases:
        for label, _ in kernels:
            value, count = results[name, label]
            times = runs[name, label]
            rows.append({"instance": name, "kernel": label, "value": value,
                         "count": count, "unit": unit,
                         "median_s": statistics.median(times), "best_s": min(times),
                         "runs_s": times})
    return rows


def predicate_cases():
    """(name, call) pairs for the predicate layer; each call returns the
    report, whose checked_count is the number of minors evaluated."""
    f2048 = field(2, 11)
    enc = construct_frobenius(4, 2, 2, f2048, f2048.alpha)
    p2, grid = sliding_parity(enc, 2), parity_grid(enc, 2)
    # Cauchy matrix 1/(x_i + y_j), x_i = a^i, y_j = a^(6+j): full superregular,
    # so the predicate evaluates every minor
    f64 = field(2, 6)
    cauchy = Matrix.from_rows(
        [[f64.inv(f64.alpha_pow(i) ^ f64.alpha_pow(6 + j)) for j in range(6)]
         for i in range(6)], f64)
    return [
        ("is_superregular_constrained [4,2,2]/F_2048 P_2^c",
         lambda: is_superregular_constrained(p2, grid)),
        ("is_full_superregular 6x6 Cauchy over F_64",
         lambda: is_full_superregular(cauchy)),
    ]


def transform_cases():
    """(name, call) pairs for the transform-enumeration layer; each call
    returns the report, whose checked_count is the number of transforms
    (or T matrices) tested.  The two F_4 negatives fail on the first
    transform of a family of 2^15 upper-triangular 6 x 6 matrices."""
    f64, f4 = field(2, 6), field(2, 2)
    gab = construct_gabidulin(6, 3, f64)
    g = Matrix.from_rows([[0, 1, 1, 1, 1, 1]], f4)
    p = Matrix.from_rows([[0], [1], [1], [1], [1], [1]], f4)
    return [
        ("check_msrd_transforms Gabidulin [6,3]/F_64 (5,1)",
         lambda: check_msrd_transforms(gab, LengthPartition((5, 1)))),
        ("check_msrd_transforms [[0,1,1,1,1,1]]/F_4 (6)",
         lambda: check_msrd_transforms(g, LengthPartition((6,)))),
        ("check_mrd_systematic 6x1 parity (0,1,...,1)/F_4",
         lambda: check_mrd_systematic(p)),
    ]


def _peak_bytes(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--repeat", type=int, default=5,
                    help="timing repetitions (default 5); kernel rows give the "
                         "median, the layer rows the best")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--compiled", action="append", metavar="LABEL=FILE",
                    help="a built _core_c module file to time in place of the "
                         "importable one (repeatable)")
    ap.add_argument("--out", metavar="FILE", help="also write the kernel rows as JSON")
    args = ap.parse_args()

    if args.compiled:
        kernels = [("python", _core_py)] + [_load_compiled(s) for s in args.compiled]
    else:
        kernels = _importable_kernels()
    rng = random.Random(args.seed)

    cases = []

    f8 = field(2, 3)
    vectors = [[rng.randrange(8) for _ in range(6)] for _ in range(20000)]
    cases.append(("expand_rank 20000x len-6 over F_8",
                  lambda mod: bench_expand_rank(mod, f8, vectors), "vectors"))

    f16 = field(2, 4)
    gen_rows = [[rng.randrange(16) for _ in range(6)] for _ in range(3)]
    cases.append(("block_min_sum_rank [6,3] over F_16, blocks (3,3)",
                  lambda mod: bench_min_distance(mod, f16, gen_rows, [3, 3]),
                  "messages"))

    f128 = field(2, 7)
    enc = construct_frobenius(3, 2, 2, f128, f128.alpha_pow(3))
    coeff_rows = [g.to_rows() for g in enc.coeffs]
    cases.append(("conv_column_distance [3,2,2] over F_128, j=2",
                  lambda mod: bench_column_distance(
                      mod, f128, coeff_rows, 2, 3, 2),
                  "nodes"))

    rows = kernel_rows(cases, kernels, args.repeat)
    header = f"{'kernel case (median)':<50}" + "".join(
        f" {label:>12}" for label, _ in kernels)
    print(header)
    print("-" * len(header))
    for name, _, _ in cases:
        print(f"{name:<50}" + "".join(f" {r['median_s']:>11.3f}s" for r in rows
                                      if r["instance"] == name))

    print()
    header = f"{'oracle throughput (pure Python)':<50} {'count':>10} {'per second':>12}"
    print(header)
    print("-" * len(header))
    for r in rows:
        if r["kernel"] == "python" and r["unit"] != "vectors":
            print(f"{r['instance']:<50} {r['count']:>10} "
                  f"{r['count'] / r['median_s']:>12,.0f} {r['unit']}/s")

    if args.out:
        doc = {
            "benchmark": "benchmarks/bench_kernels.py",
            "settings": {"repeat": args.repeat, "seed": args.seed,
                         "kernels": [label for label, _ in kernels],
                         "seconds": "wall time of one call, unscaled; the kernels "
                                    "take turns within each round"},
            "machine": {
                "cpu_model": _cpu_model(),
                "nproc": len(os.sched_getaffinity(0)),
                "python": platform.python_version(),
                "platform": platform.platform(),
                "cc": sysconfig.get_config_var("CC"),
            },
            "rows": rows,
        }
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")

    print()
    header = (f"{'predicate layer (pure Python)':<50} {'time':>10} {'minors':>8} "
              f"{'verdict':>8}")
    print(header)
    print("-" * len(header))
    for name, call in predicate_cases():
        rep = call()  # fills the shape's cached selection list, untimed
        t, _ = _time(call, args.repeat)
        print(f"{name:<50} {t * 1e3:>8.2f}ms {rep.checked_count:>8} {rep.verdict!s:>8}")

    print()
    header = (f"{'transform enumeration (pure Python)':<50} {'time':>10} {'peak':>10} "
              f"{'checked':>8} {'verdict':>8}")
    print(header)
    print("-" * len(header))
    for name, call in transform_cases():
        rep = call()  # fills the shapes' cached selection lists, untimed
        t, _ = _time(call, args.repeat)
        peak = _peak_bytes(call)
        print(f"{name:<50} {t * 1e3:>8.2f}ms {peak / 1024:>8.1f}KB "
              f"{rep.checked_count:>8} {rep.verdict!s:>8}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
