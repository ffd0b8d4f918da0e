"""Time sumrank's checkers and oracle kernels row by row, end to end and
layer by layer, for one or more source trees and both kernels.

    python3 benchmarks/bench.py --side this=src \\
        --rows "4,2,1;4,2,2;5,3,1;cauchy10;gab4x2-f81;gab6x3-f64-transforms" \\
        --out BENCH_transform_family.json
    python3 benchmarks/bench.py --side parent=PARENT/src --side change=src \\
        --rows "expand-rank-f8;block-min-f16;conv-dist-f128;conv-dists-verify-conv" \\
        --rounds 5 --out BENCH_kernels.json
    python3 benchmarks/bench.py --side parent=PARENT/src --side change=src \\
        --rows descent424-f2048 --rounds 5 --out BENCH_refused_descent.json
    python3 benchmarks/bench.py --side parent=PARENT/src --side change=src \\
        --rows field-f2-18 --rounds 5 --out BENCH_field.json
    python3 benchmarks/bench.py --side parent=PARENT/src --side change=src \\
        --rows "oracle-422-e19;oracle-531-e67" --rounds 5 --calls 1 \\
        --out BENCH_oracle.json

Checker rows:

- ``N,K,M`` (say ``4,2,2``): one ``sumrank table1 --rows N,K,M`` call
  through ``sumrank.cli.main``, which enumerates every C of every pair
  it sweeps.  Layers: ``check_mMSR`` time, predicate self time
  (``superregular.self_s``), T matrices, minors and the two predicates'
  calls, one per (B, A~) pair swept.  On [4,2,2] it tracks the
  ``False``: the T and the minors its witness costs.  (Rows named
  ``N,K,M-exact`` in older BENCH files passed ``--mode exact`` to a
  program whose default was a sampling filter.)
- ``descent424-f2048``: ``check_mMSR`` on the Frobenius [4,2,4] encoder
  over F_2^11 at alpha, j = 4: the default budget refuses levels
  4 and 3 from their counted charges, and level 2 reads ``False``.
  Layers as for a table row.
- ``cauchy10``: ``is_full_superregular`` on the 10 x 10 Cauchy matrix
  1/(a^i + a^(10+j)) over F_2^8, the minor sweep alone on its largest
  common shape (all 184,755 minors).  Layers: the check's time and
  minors, and the tracemalloc peak of one more call, in MiB.
- ``gab4x2-f81``: ``check_msrd_systematic`` on the Gabidulin [4,2]
  code over F_3^4 with one block, an odd-characteristic positive whose
  whole (B, A~, C) family is enumerated.  Layers: the check's time,
  predicate self time, T matrices, minors and the predicates' calls.
- ``gab6x3-f64-transforms``: ``check_msrd_transforms`` on the Gabidulin
  [6,3] code over F_2^6 under partition (5,1), a positive whose 1,024
  transforms A are all tested, as one sweep run that rewrites only the
  columns of ``G A`` each A changes.  Layers: the check's time,
  transforms, and the time in matrix products (``matrix.Matrix.matmul.s``),
  about 0 since no ``G A`` is multiplied out.

Oracle rows: ``check_mMSR_oracle`` on a Frobenius encoder over F_2^11
that reads ``True``, so every A* of every rank profile is tried.  Layers:
the oracle's time, its A* (``conv_codes.a_star``), and the ``det`` calls
and matrix products it makes.

- ``oracle-422-e19``: [4,2,2] at alpha^19, j = 2 (67,055 A*).
- ``oracle-531-e67``: [5,3,1] at alpha^67, j = 1 (28,861 A*).

Field row:

- ``field-f2-18``: ``Field(2, 18)``, the field of table1's largest row
  [6,3,1], built by its constructor (not the cached ``field()``), so
  each call walks the powers of x and fills the log/antilog tables.
  Result: the field's order.  Layers: its elements, and elements tabled
  per second.

Kernel rows, their inputs drawn from one seed-1 stream (the vectors
first, then the generator):

- ``expand-rank-f8``: ``core.expand_rank`` on 20,000 length-6 vectors
  over F_8; the result is the sum of the ranks.  Layers: vectors, and
  vectors per second.
- ``block-min-f16``: ``metrics.min_sum_rank_distance`` on a [6,3]
  generator over F_16 with blocks (3,3).
- ``conv-dist-f128``: ``metrics.column_sum_rank_distance`` on the
  Frobenius [3,2,2] encoder over F_128 at alpha^3, j = 2: one deep
  search, whose result is the distance list d^0..d^2.
- ``conv-dists-verify-conv``: ``metrics.column_distances`` on the eight
  encoders of perfbench's verify-conv workload (``inputs.CONV_ENCODERS``,
  at their listed exponents), each at its level j; the result is the
  eight distance lists.
- The last three give the distances as the result, and as layers the
  ``metrics`` and ``core`` times, the kernel's messages or nodes and
  those per second.  They call the kernel through ``metrics``, the path
  the CLI's oracles take: ``perfbench/tracer.py`` wraps
  ``core.block_min_sum_rank`` and ``core.conv_column_distance`` by name,
  and ``metrics`` reads them as attributes of ``core``, so the traced
  call's counts are the ones the end-to-end benchmark
  (``perfbench/run.py``) reads.  The tracer looks up every module it
  wraps in ``sys.modules``, so every traced row imports ``sumrank.cli``.

Every row runs in a fresh interpreter per (side, kernel, round): one
untimed warm-up call (field tables, selection lists; kernel and oracle
rows hold no cache and skip it), ``--calls`` timed calls whose median is
the round's wall time, then one call under ``perfbench/tracer.py`` for
the layers.
Like perfbench/run.py, the child times perfbench/reference.py, a fixed
pure-Python kernel, before every call, and scales its seconds by
``REF_S`` over the mean reference sample: a shared host's speed drifts
by 1.5x from minute to minute, and the scaled time follows the program,
not the neighbours.  Each child also records the median CPU time
(``time.process_time()``, unscaled) of its timed calls.  Rounds
alternate which side runs first.  With two sides, each round's two runs
are one pair, taken back to back, and the output gives per (row,
kernel) the ratio of the second side to the first, round by round, with
its median and quartiles, for ``wall_s`` and ``cpu_s``: a claim is that
interval, which host drift between rounds moves far less than either
side's own spread.

The kernel is the pure one under ``SUMRANK_PURE_PYTHON=1`` and otherwise
the compiled one, when the side's tree has a built ``_core_c``
(``python3 setup.py build_ext --inplace``); ``loaded`` records the one
that ran.  The compiled kernel serves the kernel rows only, so the
checker rows should read alike on both.

The output is one JSON document: ``benchmark``, ``settings``,
``machine`` and ``rows``.  A row gives ``row`` (its name above),
``instance``, ``side``, ``kernel``, ``loaded``, ``result`` (the verdict,
or the kernel's value), ``wall_s`` (the median over rounds),
``wall_s_quartiles``, ``wall_s_rounds``, ``cpu_s`` (the median over
rounds), ``cpu_s_rounds``, ``host_speed_rounds`` and ``layers`` (the
median over rounds; seconds scaled like ``wall_s``, rates ending
``_per_s`` inversely).  With two sides the document adds ``ratios``,
one per (row, kernel): ``row``, ``kernel``, ``of`` (say
``change/parent``), and ``wall_s``, ``wall_s_quartiles`` and
``wall_s_rounds`` of the per-round ratio, and the same for ``cpu_s``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import sysconfig
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TABLE_ROWS = ("4,2,1", "4,2,2", "5,3,1")
KERNELS = ("python", "c")
REF_SAMPLES = 3  # reference samples before each call
PREDICATE_CALLS = ("superregular.is_superregular_constrained.calls",
                   "superregular.is_full_superregular.calls")
TABLE_LAYERS = ("conv_codes.check_mMSR.s", "superregular.self_s",
                "conv_codes.t_matrices", "superregular.minors") + PREDICATE_CALLS


def child(row: str, calls: int) -> dict:
    """Run in a fresh interpreter whose sys.path holds one side's sources."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import reference

    from sumrank import core

    refs, cpus = [], []

    def timed(call):
        """(seconds, result) of one call, after the reference samples."""
        refs.extend(reference.sample() for _ in range(REF_SAMPLES))
        c0, t0 = time.process_time(), time.perf_counter()
        out = call()
        t1 = time.perf_counter()
        cpus.append(time.process_time() - c0)
        return t1 - t0, out

    instance, result, walls, layers = NAMED.get(row, time_table_row)(row, calls, timed)
    speed = reference.REF_S / statistics.mean(refs)
    return {
        "instance": instance,
        "implementation": core.IMPLEMENTATION,
        "wall_s": statistics.median(walls) * speed,
        # the timed calls come first, any traced call after them
        "cpu_s": statistics.median(cpus[:calls]),
        "host_speed": speed,
        "result": result,
        "layers": {name: _scaled(name, v, speed) for name, v in layers.items()},
    }


def _scaled(name: str, value, speed: float):
    if name.endswith("_per_s"):
        return value / speed
    if name.endswith(("_s", ".s")):
        return value * speed
    return value


def measure(call, calls: int, timed, layers, warm: bool = True):
    """Walls of the timed calls, then the result and the named tracer
    metrics of one traced call."""
    from tracer import Tracer

    import sumrank.cli  # noqa: F401  (the tracer wraps names in every module)

    if warm:
        call()
    walls = [timed(call)[0] for _ in range(calls)]
    with Tracer() as tr:
        _, out = timed(call)
    m = tr.metrics()
    return walls, out, {name: m[name] for name in layers}


# -- checker rows ---------------------------------------------------------------


def time_table_row(row: str, calls: int, timed):
    from sumrank import cli

    with tempfile.TemporaryDirectory() as tmp:
        argv = ["table1", "--rows", row, "--out", f"{tmp}/r.json"]
        walls, _, layers = measure(lambda: cli.main(argv), calls, timed, TABLE_LAYERS)
        out = json.loads(Path(f"{tmp}/r.json").read_text())["rows"][0]
    return (f"[{row}] over F_{out['field']} at alpha^{out['alpha_exponent']}, "
            "table1 row", out["verdict"], walls, layers)


def time_descent(row: str, calls: int, timed):
    from sumrank import conv_codes
    from sumrank.field import field

    f = field(2, 11)
    enc = conv_codes.construct_frobenius(4, 2, 4, f, f.alpha_pow(1))
    walls, report, layers = measure(lambda: conv_codes.check_mMSR(enc, 4), calls, timed,
                                    TABLE_LAYERS)
    return (f"Frobenius [4,2,4] over F_{f.descriptor()} at alpha, check_mMSR j=4",
            report.verdict, walls, layers)


def time_cauchy(row: str, calls: int, timed):
    from sumrank import superregular
    from sumrank.field import field
    from sumrank.matrix import Matrix

    f = field(2, 8)
    cauchy = Matrix.from_rows(
        [[f.inv(f.alpha_pow(i) ^ f.alpha_pow(10 + j)) for j in range(10)]
         for i in range(10)], f)

    def check():
        # through the module, so the traced call reaches the tracer's wrapper
        return superregular.is_full_superregular(cauchy)

    walls, report, layers = measure(
        check, calls, timed,
        ("superregular.is_full_superregular.s", "superregular.minors"))
    tracemalloc.start()
    check()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return (f"10x10 Cauchy 1/(a^i + a^(10+j)) over F_{f.descriptor()}, "
            "is_full_superregular", report.verdict, walls,
            layers | {"tracemalloc_peak_mib": peak / 2**20})


def time_gab4x2(row: str, calls: int, timed):
    from sumrank import block_codes
    from sumrank.field import field
    from sumrank.metrics import LengthPartition

    f = field(3, 4)
    parity = block_codes.systematic_form(block_codes.construct_gabidulin(4, 2, f))
    code = block_codes.SystematicBlockCode(LengthPartition([4]), (2,), parity)
    walls, report, layers = measure(
        lambda: block_codes.check_msrd_systematic(code), calls, timed,
        ("block_codes.check_msrd_systematic.s", "superregular.self_s",
         "block_codes.t_matrices", "superregular.minors") + PREDICATE_CALLS)
    return (f"Gabidulin [4,2] over F_{f.descriptor()}, one block, "
            "check_msrd_systematic", report.verdict, walls, layers)


def time_gab6x3_transforms(row: str, calls: int, timed):
    from sumrank import block_codes
    from sumrank.field import field
    from sumrank.metrics import LengthPartition

    f = field(2, 6)
    gen = block_codes.construct_gabidulin(6, 3, f)
    walls, report, layers = measure(
        lambda: block_codes.check_msrd_transforms(gen, LengthPartition((5, 1))),
        calls, timed,
        ("block_codes.check_msrd_transforms.s", "block_codes.transforms",
         "matrix.Matrix.matmul.s"))
    return (f"Gabidulin [6,3] over F_{f.descriptor()}, partition (5,1), "
            "check_msrd_transforms", report.verdict, walls, layers)


# -- oracle rows -----------------------------------------------------------------

# row -> ((n, k, m), exponent of alpha, level j), over F_2^11
ORACLE_ROWS = {
    "oracle-422-e19": ((4, 2, 2), 19, 2),
    "oracle-531-e67": ((5, 3, 1), 67, 1),
}


def time_oracle(row: str, calls: int, timed):
    from sumrank import conv_codes
    from sumrank.field import field

    (n, k, m), e, j = ORACLE_ROWS[row]
    f = field(2, 11)
    enc = conv_codes.construct_frobenius(n, k, m, f, f.alpha_pow(e))
    walls, report, layers = measure(
        # through the module, so the traced call reaches the tracer's wrapper
        lambda: conv_codes.check_mMSR_oracle(enc, j), calls, timed,
        ("conv_codes.check_mMSR_oracle.s", "conv_codes.a_star", "matrix.det.calls",
         "matrix.Matrix.matmul.calls"),
        warm=False)
    return (f"Frobenius [{n},{k},{m}] over F_{f.descriptor()} at alpha^{e}, "
            f"check_mMSR_oracle j={j}", report.verdict, walls, layers)


# -- field row ------------------------------------------------------------------


def time_field(row: str, calls: int, timed):
    from sumrank.field import Field

    # the tracer wraps no constructor, so this row takes no traced call
    runs = [timed(lambda: Field(2, 18)) for _ in range(calls)]
    walls = [t for t, _ in runs]
    f = runs[-1][1]
    return (f"Field(2, 18), F_{f.descriptor()}, built by its constructor", f.order,
            walls, {"elements": f.order, "elements_per_s": f.order / statistics.median(walls)})


# -- kernel rows ----------------------------------------------------------------


def _seed1_draws():
    """The kernel rows' random inputs: 20,000 length-6 vectors over F_8,
    then a 3 x 6 generator over F_16, from one seed-1 stream."""
    rng = random.Random(1)
    vectors = [[rng.randrange(8) for _ in range(6)] for _ in range(20000)]
    gen_rows = [[rng.randrange(16) for _ in range(6)] for _ in range(3)]
    return vectors, gen_rows


def time_expand_rank(row: str, calls: int, timed):
    from sumrank import core
    from sumrank.field import field

    f = field(2, 3)
    vectors, _ = _seed1_draws()
    # the tracer wraps no expand_rank, so this row takes no traced call
    runs = [timed(lambda: sum(core.expand_rank(v, f.q, f.M) for v in vectors))
            for _ in range(calls)]
    walls = [t for t, _ in runs]
    return (f"expand_rank on 20,000 length-6 vectors over F_{f.descriptor()}",
            runs[-1][1], walls,
            {"vectors": len(vectors),
             "vectors_per_s": len(vectors) / statistics.median(walls)})


def time_block_min(row: str, calls: int, timed):
    from sumrank import metrics
    from sumrank.field import field
    from sumrank.matrix import Matrix

    f = field(2, 4)
    gen = Matrix.from_rows(_seed1_draws()[1], f)
    parts = metrics.LengthPartition((3, 3))
    walls, value, layers = measure(
        lambda: metrics.min_sum_rank_distance(gen, parts), calls, timed,
        ("metrics.min_sum_rank_distance.s", "core.block_min_sum_rank.s",
         "core.block_min_sum_rank.messages", "core.block_min_sum_rank.messages_per_s"),
        warm=False)
    return (f"min_sum_rank_distance, [6,3] over F_{f.descriptor()}, blocks (3,3)",
            value, walls, layers)


CONV_LAYERS = ("metrics.column_sum_rank_distance.s", "core.conv_column_distance.s",
               "core.conv_column_distance.nodes", "core.conv_column_distance.nodes_per_s")


def time_conv_dist(row: str, calls: int, timed):
    from sumrank import metrics
    from sumrank.conv_codes import construct_frobenius
    from sumrank.field import field

    f = field(2, 7)
    enc = construct_frobenius(3, 2, 2, f, f.alpha_pow(3))
    walls, value, layers = measure(
        lambda: metrics.column_sum_rank_distance(enc, 2), calls, timed, CONV_LAYERS,
        warm=False)
    return (f"column_sum_rank_distance, Frobenius [3,2,2] over F_{f.descriptor()} "
            "at alpha^3, j=2", value, walls, layers)


def time_conv_dists(row: str, calls: int, timed):
    import inputs
    from sumrank import metrics
    from sumrank.conv_codes import construct_frobenius
    from sumrank.field import field

    runs = []
    for n, k, m, deg, e, j, *_ in inputs.CONV_ENCODERS:
        f = field(2, deg)
        runs.append((construct_frobenius(n, k, m, f, f.alpha_pow(e)), j))
    walls, value, layers = measure(
        lambda: [metrics.column_distances(enc, j)[0] for enc, j in runs], calls, timed,
        CONV_LAYERS, warm=False)
    return ("column_distances on the eight verify-conv encoders at their j",
            value, walls, layers)


NAMED = {
    "descent424-f2048": time_descent,
    "cauchy10": time_cauchy,
    "gab4x2-f81": time_gab4x2,
    "gab6x3-f64-transforms": time_gab6x3_transforms,
    "oracle-422-e19": time_oracle,
    "oracle-531-e67": time_oracle,
    "field-f2-18": time_field,
    "expand-rank-f8": time_expand_rank,
    "block-min-f16": time_block_min,
    "conv-dist-f128": time_conv_dist,
    "conv-dists-verify-conv": time_conv_dists,
}


# -- parent ---------------------------------------------------------------------


def run_child(src: str, kernel: str, row: str, calls: int) -> dict:
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("SUMRANK_PURE_PYTHON", None)
    if kernel == "python":
        env["SUMRANK_PURE_PYTHON"] = "1"
    out = subprocess.run(
        [sys.executable, __file__, "--child", row, "--calls", str(calls)],
        env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _quartiles(values: list) -> list:
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [q1, statistics.median(values), q3]


def _paired(before: list, after: list, key: str) -> dict:
    """The per-round ratios after/before of key over two sides' child
    results, each round's pair run back to back, with their median and
    quartiles."""
    rounds = [b[key] / a[key] for a, b in zip(before, after)]
    return {key: statistics.median(rounds), f"{key}_quartiles": _quartiles(rounds),
            f"{key}_rounds": rounds}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--side", action="append", default=[], metavar="LABEL=SRC",
                    help="a source tree to time, by label (repeatable)")
    ap.add_argument("--rows", default=";".join(TABLE_ROWS + tuple(NAMED)),
                    help="table rows N,K,M and named rows, ';'-separated "
                         "(default: %(default)s)")
    ap.add_argument("--rounds", type=int, default=3)
    ap.add_argument("--calls", type=int, default=3, help="timed calls per round")
    ap.add_argument("--out", help="write the JSON here as well as to stdout")
    ap.add_argument("--child", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        print(json.dumps(child(args.child, args.calls)))
        return 0
    sides = dict(s.split("=", 1) for s in args.side) or {"this tree": str(ROOT / "src")}

    runs = {}  # (row, kernel, side) -> list of child results
    for row in args.rows.split(";"):
        for kernel in KERNELS:
            for r in range(args.rounds):
                order = list(sides) if r % 2 == 0 else list(sides)[::-1]
                for label in order:
                    res = run_child(sides[label], kernel, row, args.calls)
                    runs.setdefault((row, kernel, label), []).append(res)
                    print(f"{row} {kernel:<6} {label:<10} round {r}: "
                          f"{res['wall_s']:.3f} s ({res['implementation']})",
                          file=sys.stderr)

    out_rows = []
    for (row, kernel, label), results in runs.items():
        if len({json.dumps(res["result"]) for res in results}) != 1:
            raise SystemExit(f"{row} ({kernel}, {label}): rounds disagree on the result")
        walls = [res["wall_s"] for res in results]
        out_rows.append({
            "row": row,
            "instance": results[0]["instance"],
            "side": label,
            "kernel": kernel,
            "loaded": results[0]["implementation"],
            "result": results[0]["result"],
            "wall_s": statistics.median(walls),
            "wall_s_quartiles": _quartiles(walls),
            "wall_s_rounds": walls,
            "cpu_s": statistics.median(res["cpu_s"] for res in results),
            "cpu_s_rounds": [res["cpu_s"] for res in results],
            "host_speed_rounds": [res["host_speed"] for res in results],
            "layers": {name: statistics.median(res["layers"][name] for res in results)
                       for name in results[0]["layers"]},
        })
    doc = {
        "benchmark": "benchmarks/bench.py",
        "settings": {"rounds": args.rounds, "timed_calls_per_round": args.calls,
                     "seconds": "scaled to a host where one perfbench/reference.py "
                                "sample takes REF_S",
                     "layers": "median over rounds of one traced call each"},
        "machine": {
            "cpu_model": _cpu_model(),
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cc": sysconfig.get_config_var("CC"),
        },
        "rows": out_rows,
    }
    if len(sides) == 2:
        first, second = sides
        doc["ratios"] = [
            {"row": row, "kernel": kernel, "of": f"{second}/{first}"}
            | _paired(runs[(row, kernel, first)], runs[(row, kernel, second)], "wall_s")
            | _paired(runs[(row, kernel, first)], runs[(row, kernel, second)], "cpu_s")
            for row in args.rows.split(";") for kernel in KERNELS]
    text = json.dumps(doc, indent=1)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
