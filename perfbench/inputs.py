"""Generate one workload's input files and call plan from a seed.

    python3 perfbench/inputs.py --workload table1 --seed 7 --dir WORKDIR

Writes the encoder and code JSON files the CLI calls read, plus
``plan.json``: the list of CLI calls (argv) with the verdicts, exit codes
and agreement each one must produce.  ``run.py`` times this script in a
fresh interpreter as the workload's set-up cost, because every CLI
invocation pays the same import, kernel selection and field building.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("table1", "verify-conv", "verify-block")

# Rows of the published search table that finish on the pure kernel in
# about two seconds or less, one CLI call each.  Later rows ([5,3,1] takes
# 42 s) wait for a faster kernel.
TABLE1_ROWS = ("2,1,1", "2,1,2", "3,2,1", "3,1,1", "4,2,1", "3,2,2", "3,1,2", "4,2,2")
TABLE1_VERDICTS = {
    "2,1,1": True, "2,1,2": True, "3,2,1": True, "3,1,1": True,
    "4,2,1": True, "3,2,2": True, "3,1,2": True,
    # e = 1 is not m-MSR over F_2048; its witness is a vanishing 4x4 minor
    "4,2,2": False,
}
TABLE1_NEGATIVE = (4, 2, 2, 11, 1)  # n, k, m, extension degree, exponent

# The seed varies every input without changing its cost or its verdict:
# each encoder's exponent e becomes e * 2^i and each parity entry x becomes
# x^(2^i), for an i the seed draws.  That is a Frobenius conjugate, an
# equivalent code whose checks and oracle searches visit the same number
# of minors and nodes.  (Codes drawn at random differ in cost by up to 10x,
# which would read as run-to-run spread.)

# Encoders: (n, k, m, extension degree, exponent, j, verdict, column
# distances).  [3,1,2] is m-MSR over F_512 (the table's field) and, for
# e = 3, over F_128; for e = 11 over F_128 and over F_64 it is not, and
# its witness is rechecked.  [3,2,2] over F_128 is m-MSR at j = 1 for
# every exponent 1..126.
CONV_ENCODERS = (
    (3, 1, 2, 9, 1, 1, True, [3, 5]),
    (3, 1, 2, 7, 3, 2, True, [3, 5, 7]),
    (3, 1, 2, 7, 11, 2, False, [3, 5, 6]),
    (2, 1, 2, 8, 1, 2, True, [2, 3, 4]),
    (3, 1, 2, 6, 1, 2, False, [3, 5, 6]),
    (3, 2, 2, 7, 3, 1, True, [2, 3]),
    (3, 2, 2, 7, 5, 1, True, [2, 3]),
    (3, 2, 2, 7, 9, 1, True, [2, 3]),
)

# Random [6,3] parities over F_32 arranged as blocks (3,3) with dims (2,1),
# drawn once from a fixed stream.  Their verdict is whatever the
# brute-force distance says; the two checkers must agree with it and with
# each other.
BLOCK_DRAWS = 4
BLOCK_STREAM = "verify-block parities"


def _import_sumrank():
    """Import the package from this checkout's src/, never an installed copy."""
    src = ROOT / "src"
    if not (src / "sumrank" / "__init__.py").is_file():
        raise SystemExit(f"error: no sumrank sources under {src}")
    sys.path.insert(0, str(src))
    import sumrank
    import sumrank.cli  # noqa: F401  (kernel selection happens on import)

    if Path(sumrank.__file__).resolve().parent != (src / "sumrank").resolve():
        raise SystemExit(f"error: imported sumrank from {sumrank.__file__}")
    return sumrank


def _write(path: Path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


def _call(argv, report, *, exit_code, verdict, agreement, recheck_with=None,
          **extra) -> dict:
    """One CLI call and what it must produce.  verdict None means the
    brute-force oracle decides it (agreement must then be true)."""
    return {"argv": argv + ["--workers", "1", "--out", report],
            "report": report, "exit": exit_code, "verdict": verdict,
            "agreement": agreement, "recheck_with": recheck_with, **extra}


def plan_table1(rng, d: Path) -> list:
    enc = _frobenius(d, *TABLE1_NEGATIVE)
    calls = []
    for row in TABLE1_ROWS:
        verdict = TABLE1_VERDICTS[row]
        calls.append(_call(["table1", "--mode", "filter", "--rows", row],
                           str(d / f"table1_{row.replace(',', '_')}.json"),
                           exit_code=0 if verdict else 1, verdict=None,
                           agreement=None, rows={row: verdict},
                           row_encoders={"4,2,2": enc}))
    return calls


def _frobenius(d: Path, n, k, m, deg, e) -> str:
    from sumrank.conv_codes import construct_frobenius
    from sumrank.field import field

    f = field(2, deg)
    return _write(d / f"enc_{n}_{k}_{m}_f{deg}_e{e}.json",
                  construct_frobenius(n, k, m, f, f.alpha_pow(e)).to_json())


def plan_verify_conv(rng, d: Path) -> list:
    calls = []
    for n, k, m, deg, e, j, verdict, distances in CONV_ENCODERS:
        e = e * 2 ** rng.randrange(deg) % (2 ** deg - 1)
        enc = _frobenius(d, n, k, m, deg, e)
        calls.append(_call(["verify-conv", "--encoder", enc, "--j", str(j),
                            "--mode", "filter"],
                           enc.replace(".json", f"_j{j}.out.json"),
                           exit_code=0 if verdict else 1, verdict=verdict,
                           agreement=True, recheck_with=["--encoder", enc],
                           column_distances=distances))
    return calls


def _conjugate(parity, i: int):
    from sumrank.matrix import Matrix

    f = parity.field
    return Matrix(parity.rows, parity.cols, f,
                  [f.frobenius(x, i) for x in parity.data])


def plan_verify_block(rng, d: Path) -> list:
    from sumrank.block_codes import (
        SystematicBlockCode,
        construct_gabidulin,
        systematic_form,
    )
    from sumrank.field import field
    from sumrank.matrix import Matrix
    from sumrank.metrics import LengthPartition

    calls = []
    # An MRD code stays MSRD under any partition, so all of these are
    # positives.  The oracle runs once per distinct code over F_32; over
    # F_64 its 64^3 messages take seconds, so those calls skip it.
    gabidulin = [
        ("5_3", 5, 3, 5, [
            ("5", (5,), (3,), ["mrd-systematic"], True),
            ("3_2", (3, 2), (2, 1), ["msrd-systematic", "msrd-transforms"], True),
            ("2_2_1", (2, 2, 1), (1, 1, 1), ["msrd-systematic", "msrd-transforms"], True),
        ]),
        ("5_2", 5, 2, 5, [
            ("5", (5,), (2,), ["mrd-systematic"], True),
            ("3_2", (3, 2), (1, 1), ["msrd-systematic", "msrd-transforms"], True),
        ]),
        ("6_3", 6, 3, 6, [
            ("5_1", (5, 1), (3, 0), ["msrd-systematic", "msrd-transforms"], False),
            ("3_3", (3, 3), (2, 1), ["msrd-systematic", "msrd-transforms"], False),
            ("2_2_2", (2, 2, 2), (1, 1, 1), ["msrd-systematic", "msrd-transforms"], False),
        ]),
    ]
    for name, n, k, deg, layouts in gabidulin:
        parity = _conjugate(systematic_form(
            construct_gabidulin(n, k, field(2, deg))), rng.randrange(deg))
        for tag, parts, dims, checks, with_oracle in layouts:
            code = _write(d / f"gab_{name}_{tag}.json", SystematicBlockCode(
                LengthPartition(parts), dims, parity).to_json())
            for i, check in enumerate(checks):
                oracle = with_oracle and i == 0
                calls.append(_call(
                    ["verify-block", "--code", code, "--check", check,
                     "--mode", "exact"] + ([] if oracle else ["--no-oracle"]),
                    str(d / f"gab_{name}_{tag}_{check}.out.json"), exit_code=0,
                    verdict=True, agreement=True if oracle else None,
                    recheck_with=["--code", code]))
    f32 = field(2, 5)
    stream = random.Random(BLOCK_STREAM)
    for draw in range(BLOCK_DRAWS):
        p = _conjugate(Matrix(3, 3, f32, [stream.randrange(1, 32) for _ in range(9)]),
                       rng.randrange(5))
        code = _write(d / f"rand_{draw}.json", SystematicBlockCode(
            LengthPartition((3, 3)), (2, 1), p).to_json())
        calls.append(_call(
            ["verify-block", "--code", code, "--check", "msrd-systematic",
             "--mode", "exact"],
            str(d / f"rand_{draw}_sys.json"), exit_code=None, verdict=None,
            agreement=True, recheck_with=["--code", code]))
        calls.append(_call(
            ["verify-block", "--code", code, "--check", "msrd-transforms",
             "--mode", "exact", "--no-oracle"],
            str(d / f"rand_{draw}_tr.json"), exit_code=None, verdict=None,
            agreement=None, recheck_with=["--code", code],
            same_verdict_as=str(d / f"rand_{draw}_sys.json")))
    return calls


PLANS = {
    "table1": plan_table1,
    "verify-conv": plan_verify_conv,
    "verify-block": plan_verify_block,
}


def build(workload: str, seed: int, workdir: Path) -> list:
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}/{seed}")
    calls = PLANS[workload](rng, workdir)
    _write(workdir / "plan.json", calls)
    return calls


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True)
    args = ap.parse_args(argv)
    _import_sumrank()
    build(args.workload, args.seed, Path(args.dir))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
