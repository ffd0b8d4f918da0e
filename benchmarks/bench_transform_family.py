"""Time the (B, A~, C) transform-family engine on published-table rows,
end to end and layer by layer, for one or more source trees and both
kernels.

    python3 benchmarks/bench_transform_family.py \
        --side parent=PARENT/src --side change=src --out BENCH_transform_family.json

Each table row is one ``sumrank table1 --mode filter --rows R`` call, run through
``sumrank.cli.main`` in a fresh interpreter per (side, kernel, round): one
untimed warm-up call (field tables, selection lists), ``--calls`` timed
calls whose median is the round's wall time, then one call under
``perfbench/tracer.py`` for the per-layer split: ``check_mMSR`` time,
predicate self time (``superregular.self_s``), T matrices and minors.
Like perfbench/run.py, the child times perfbench/reference.py, a fixed
pure-Python kernel, before every call, and scales its seconds by
``REF_S`` over the mean reference sample: a shared host's speed drifts
by 1.5x from minute to minute, and the scaled time follows the program,
not the neighbours.  Rounds alternate which side runs first; a row
reports the median and the quartiles of its rounds' scaled times.

The row named ``cauchy10`` times the minor sweep alone on its largest
common shape: ``is_full_superregular`` on the 10 x 10 Cauchy matrix
1/(a^i + a^(10+j)) over F_2^8, which sweeps all 184,755 minors.  Its
layers are the check's ``checked_count`` and the tracemalloc peak of
one more call, in MiB.

The row named ``gab4x2-f81`` times the engine on an odd-characteristic
positive: exact ``check_msrd_systematic`` on the Gabidulin [4,2] code
over F_3^4 with one block, which must enumerate its whole (B, A~, C)
family.  Its layers come from one traced call: the check's time,
predicate self time, T matrices and minors.

The kernel is the pure one under ``SUMRANK_PURE_PYTHON=1`` and otherwise
the compiled one, when the side's tree has a built ``_core_c``
(``python3 setup.py build_ext --inplace``); ``loaded`` records the one
that ran.  Neither kernel runs inside the engine, so the two should read
alike.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ROWS = ("4,2,1", "4,2,2", "5,3,1")
CAUCHY = "cauchy10"
GABIDULIN = "gab4x2-f81"
KERNELS = ("python", "c")
REF_SAMPLES = 3  # reference samples before each call
LAYERS = ("conv_codes.check_mMSR.s", "superregular.self_s",
          "conv_codes.t_matrices", "superregular.minors")
BLOCK_LAYERS = ("block_codes.check_msrd_systematic.s", "superregular.self_s",
                "block_codes.t_matrices", "superregular.minors")


def child(row: str, calls: int) -> dict:
    """Run in a fresh interpreter whose sys.path holds one side's sources."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import reference

    from sumrank import core

    refs = []

    def timed(call):
        refs.extend(reference.sample() for _ in range(REF_SAMPLES))
        t0 = time.perf_counter()
        call()
        return time.perf_counter() - t0

    run = {CAUCHY: time_cauchy, GABIDULIN: time_gabidulin}.get(row, time_table_row)
    instance, verdict, walls, layers = run(row, calls, timed)
    speed = reference.REF_S / statistics.mean(refs)
    return {
        "instance": instance,
        "implementation": core.IMPLEMENTATION,
        "wall_s": statistics.median(walls) * speed,
        "host_speed": speed,
        "verdict": verdict,
        "layers": {name: v * speed if name.endswith(("_s", ".s")) else v
                   for name, v in layers.items()},
    }


def time_table_row(row: str, calls: int, timed):
    from tracer import Tracer

    from sumrank import cli

    with tempfile.TemporaryDirectory() as tmp:
        argv = ["table1", "--mode", "filter", "--rows", row, "--out", f"{tmp}/r.json"]
        cli.main(argv)
        walls = [timed(lambda: cli.main(argv)) for _ in range(calls)]
        report = json.loads(Path(f"{tmp}/r.json").read_text())
        with Tracer() as tr:
            timed(lambda: cli.main(argv))
    m = tr.metrics()
    out = report["rows"][0]
    return (f"[{row}] over F_{out['field']} at alpha^{out['alpha_exponent']}",
            out["verdict"], walls, {name: m[name] for name in LAYERS})


def time_cauchy(row: str, calls: int, timed):
    from sumrank.field import field
    from sumrank.matrix import Matrix
    from sumrank.superregular import is_full_superregular

    f = field(2, 8)
    cauchy = Matrix.from_rows(
        [[f.inv(f.alpha_pow(i) ^ f.alpha_pow(10 + j)) for j in range(10)]
         for i in range(10)], f)
    report = is_full_superregular(cauchy)
    walls = [timed(lambda: is_full_superregular(cauchy)) for _ in range(calls)]
    tracemalloc.start()
    is_full_superregular(cauchy)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return (f"10x10 Cauchy 1/(a^i + a^(10+j)) over F_{f.descriptor()}", report.verdict,
            walls, {"checked_count": report.checked_count,
                    "tracemalloc_peak_mib": peak / 2**20})


def time_gabidulin(row: str, calls: int, timed):
    from tracer import Tracer

    import sumrank.cli  # noqa: F401  (the tracer wraps names in every module)
    from sumrank import block_codes
    from sumrank.field import field
    from sumrank.metrics import LengthPartition

    f = field(3, 4)
    parity = block_codes.systematic_form(block_codes.construct_gabidulin(4, 2, f))
    code = block_codes.SystematicBlockCode(LengthPartition([4]), (2,), parity)

    def check():
        # through the module, so the traced call reaches the tracer's wrapper
        return block_codes.check_msrd_systematic(code)

    report = check()
    walls = [timed(check) for _ in range(calls)]
    with Tracer() as tr:
        timed(check)
    m = tr.metrics()
    return (f"Gabidulin [4,2] over F_{f.descriptor()}, one block", report.verdict,
            walls, {name: m[name] for name in BLOCK_LAYERS})


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


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--side", action="append", default=[], metavar="LABEL=SRC",
                    help="a source tree to time, by label (repeatable)")
    ap.add_argument("--rows", default=";".join(ROWS + (CAUCHY, GABIDULIN)),
                    help="table rows, cauchy10 and gab4x2-f81, ';'-separated "
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
        walls = [res["wall_s"] for res in results]
        layers = {name: statistics.median(res["layers"][name] for res in results)
                  for name in results[0]["layers"]}
        out_rows.append({
            "instance": results[0]["instance"] + {
                CAUCHY: ", is_full_superregular",
                GABIDULIN: ", check_msrd_systematic, exact mode",
            }.get(row, ", table1 row, filter mode"),
            "side": label,
            "kernel": kernel,
            "loaded": results[0]["implementation"],
            "verdict": results[0]["verdict"],
            "wall_s": statistics.median(walls),
            "wall_s_quartiles": _quartiles(walls),
            "wall_s_rounds": walls,
            "host_speed_rounds": [res["host_speed"] for res in results],
            "layers": layers,
        })
    doc = {
        "benchmark": "benchmarks/bench_transform_family.py",
        "settings": {"rounds": args.rounds, "timed_calls_per_round": args.calls,
                     "seconds": "scaled to a host where one perfbench/reference.py "
                                "sample takes REF_S",
                     "layers": "median over rounds of one traced call each"},
        "machine": {
            "cpu_model": _cpu_model(),
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "rows": out_rows,
    }
    text = json.dumps(doc, indent=1)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
