"""Command-line surface: construct codes, run verifiers and their oracles,
reproduce the published search table, re-check witnesses, and compute
distances.  Every run emits a machine-readable JSON report.

The commands decide nothing themselves: the verify commands copy their
checker's VerificationReport fields into the report, with the wall time
of the checker call as elapsed (this module alone reads the clock),
verify-conv, recheck --encoder and distance --encoder decide the
systematic form of the encoder (_decided_encoder, which distance
expands past the file's memory to its level), the MRD checks and their
rechecks read the whole length as one block (_decided_code), and the
column distances and bounds come from metrics.column_distances.
--budget defaults to DEFAULT_SELECTION_BUDGET selections, or to
DEFAULT_MESSAGE_BUDGET messages for distance.

Exit codes: 0 verdict true and oracles agree; 1 verdict false; 2 parse
failure; 3 budget infeasible; 4 checker/oracle disagreement (a bug signal).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import cache

from . import __version__, core
from .block_codes import (
    SystematicBlockCode,
    assemble_generator,
    check_mds,
    check_msrd_systematic,
    check_msrd_transforms,
    construct_gabidulin,
    load_code,
    recheck_transform_witness,
    recheck_witness,
    systematic_form,
    witness_minor_vanishes,
)
from .conv_codes import (
    EncoderError,
    PolyEncoder,
    check_mMSR,
    check_mMSR_oracle,
    construct_frobenius,
    load_encoder,
    parity_grid,
    recheck_mMSR_witness,
    recheck_oracle_witness,
    sliding_parity,
    systematize,
    transform_counts,
)
from .field import FieldError, field, parse_descriptor
from .metrics import (
    DEFAULT_MESSAGE_BUDGET,
    BudgetExceeded,
    LengthPartition,
    column_distances,
    free_distance_bound,
    min_sum_rank_distance,
    singleton_bounds,
)
from .report import INFEASIBLE
from .superregular import DEFAULT_SELECTION_BUDGET, ZeroPattern, count_nontrivial_minors

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_PARSE = 2
EXIT_INFEASIBLE = 3
EXIT_DISAGREE = 4

# published search-table rows: [n, k, m] -> extension degree over F_2, plus
# the exponent e seeding the construction with alpha^e.  Achievability at
# the smallest field depends on the conjugacy class of the primitive
# element; these exponents were found with find_frobenius_alpha and are
# re-validated by the test suite.  Rows past desk scale keep e = 1.
TABLE1_ROWS = [
    (2, 1, 1, 2, 1),
    (2, 1, 2, 3, 1),
    (3, 2, 1, 4, 7),
    (3, 1, 1, 5, 3),
    (4, 2, 1, 6, 23),
    (3, 2, 2, 7, 3),
    (3, 1, 2, 9, 1),
    (4, 2, 2, 11, 1),
    (5, 3, 1, 11, 1),
    (5, 2, 1, 12, 1),
    (6, 4, 1, 13, 1),
    (6, 2, 1, 14, 1),
    (6, 3, 1, 18, 1),
]


class CliError(Exception):
    def __init__(self, msg: str, code: int):
        super().__init__(msg)
        self.code = code


def _parse_field(desc: str):
    if "/" in desc:
        return parse_descriptor(desc)
    q_s, _, m_s = desc.partition("^")
    return field(int(q_s), int(m_s or "1"))


def _emit(report: dict, args) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _report_base(command: str, args) -> dict:
    return {
        "command": command,
        "version": __version__,
        "implementation": core.IMPLEMENTATION,
        "budget": args.budget,
        "enumeration_order": "size-ascending then lexicographic; "
        "messages by ascending mixed-radix index; "
        "B, A~ in product order, A and C in reflected Gray order; "
        "C's cells block by block, row-major, the most-held blocks slowest",
    }


def _exit_code(verdict, agreement) -> int:
    if verdict == INFEASIBLE:
        return EXIT_INFEASIBLE
    if agreement is False:
        return EXIT_DISAGREE
    return EXIT_TRUE if verdict is True else EXIT_FALSE


# -- verify-block -------------------------------------------------------------

BLOCK_CHECKS = (
    "mds",
    "mrd-systematic",
    "mrd-transforms",
    "msrd-systematic",
    "msrd-transforms",
)


def _decided_code(code: SystematicBlockCode, check: str) -> SystematicBlockCode:
    """The code a block check decides: the MRD checks read the whole
    length as one block, the others the code as given."""
    if check.startswith("mrd-"):
        return SystematicBlockCode(LengthPartition([code.n]), (code.k,), code.parity)
    return code


def cmd_verify_block(args) -> int:
    code = load_code(args.code)
    report = _report_base("verify-block", args)
    report["check"] = args.check
    report["field"] = code.field.descriptor()
    report["code"] = code.to_json()

    # G keeps the input code's column order on both sides of the one-block rule
    g = assemble_generator(code)
    decided = _decided_code(code, args.check)
    t0 = time.perf_counter()
    if args.check == "mds":
        rep = check_mds(code.parity, budget=args.budget)
    elif args.check.endswith("-systematic"):
        rep = check_msrd_systematic(decided, budget=args.budget)
    else:
        rep = check_msrd_transforms(g, decided.length_partition, budget=args.budget)
    report |= rep.to_json() | {"elapsed": time.perf_counter() - t0}
    # the Hamming metric is the sum-rank metric on blocks of length 1
    oracle_partition = (LengthPartition([1] * code.n) if args.check == "mds"
                        else decided.length_partition)

    agreement = None
    if rep.verdict != INFEASIBLE and not args.no_oracle:
        target = code.n - code.k + 1
        try:
            d = min_sum_rank_distance(g, oracle_partition, budget=args.budget)
            agreement = (rep.verdict is True) == (d == target)
            report["oracle"] = {
                "kind": "brute-force-min-distance",
                "partition": list(oracle_partition.parts),
                "distance": d,
                "target": target,
            }
        except BudgetExceeded as e:
            report["oracle"] = {
                "kind": "brute-force-min-distance",
                "skipped": f"message space over budget ({e.enumerated} > {e.budget})",
            }
    report["agreement"] = agreement
    _emit(report, args)
    return _exit_code(rep.verdict, agreement)


# -- verify-conv --------------------------------------------------------------


def _decided_encoder(enc: PolyEncoder) -> PolyEncoder:
    """The encoder verify-conv decides, recheck rechecks on and distance
    measures: enc in systematic form (systematize is deterministic)."""
    return enc if enc.systematic else systematize(enc)


def cmd_verify_conv(args) -> int:
    enc = load_encoder(args.encoder)
    report = _report_base("verify-conv", args)
    report["field"] = enc.field.descriptor()
    report["systematized"] = not enc.systematic
    enc = _decided_encoder(enc)
    j = args.j if args.j is not None else enc.m
    report["encoder"] = enc.to_json()
    report["j"] = j

    t0 = time.perf_counter()
    rep = check_mMSR(enc, j, budget=args.budget)
    report |= rep.to_json() | {"elapsed": time.perf_counter() - t0}

    agreement = None
    if rep.verdict != INFEASIBLE and not args.no_oracle:
        agree_parts = []
        orc = check_mMSR_oracle(enc, j, budget=args.budget)
        if orc.verdict != INFEASIBLE:
            report["oracle"] = {
                "kind": "rank-profile",
                "verdict": orc.verdict,
                "witness": orc.witness,
                "checked_count": orc.checked_count,
            }
            agree_parts.append(orc.verdict == rep.verdict)
        else:
            report["oracle"] = {"kind": "rank-profile", "skipped": "over budget"}
        try:
            dists, bounds = column_distances(enc, j, budget=args.budget)
            report["column_distances"] = dists
            report["column_distance_bounds"] = bounds
            agree_parts.append((rep.verdict is True) == (dists == bounds))
        except BudgetExceeded:
            report["column_distances"] = "over budget"
        if agree_parts:
            agreement = all(agree_parts)
    report["agreement"] = agreement
    _emit(report, args)
    return _exit_code(rep.verdict, agreement)


# -- construct ----------------------------------------------------------------


def cmd_construct(args) -> int:
    f = _parse_field(args.field)
    report = _report_base("construct", args)
    report["kind"] = args.kind
    report["field"] = f.descriptor()
    if args.kind == "gabidulin":
        g = construct_gabidulin(args.n, args.k, f)
        parity = systematic_form(g)
        code = SystematicBlockCode(
            LengthPartition([args.n]), (args.k,), parity
        )
        report["object"] = code.to_json()
    else:  # frobenius convolutional encoder
        if args.m is None:
            raise CliError("--m is required for kind 'frobenius'", EXIT_PARSE)
        alpha = f.alpha_pow(args.alpha_exp)
        enc = construct_frobenius(args.n, args.k, args.m, f, alpha)
        report["alpha_exponent"] = args.alpha_exp
        report["object"] = enc.to_json()
    _emit(report, args)
    return EXIT_TRUE


# -- table1 -------------------------------------------------------------------


def cmd_table1(args) -> int:
    if args.rows:
        wanted = {tuple(int(v) for v in r.split(",")) for r in args.rows.split(";")}
        rows = [r for r in TABLE1_ROWS if r[:3] in wanted]
        missing = wanted - {r[:3] for r in rows}
        if missing:
            raise CliError(f"unknown table rows {sorted(missing)}", EXIT_PARSE)
    else:
        rows = TABLE1_ROWS
    report = _report_base("table1", args)
    out_rows = []
    for n, k, m, deg, e in rows:
        f = field(2, deg)
        enc = construct_frobenius(n, k, m, f, f.alpha_pow(e))
        t0 = time.perf_counter()
        rep = check_mMSR(enc, m, budget=args.budget)
        b_total, a_total, _ = transform_counts(enc, m)
        decided = rep.detail["levels"][0]
        row = {
            "n": n,
            "k": k,
            "m": m,
            "field": f.descriptor(),
            "alpha_exponent": e,
            "verdict": rep.verdict,
            "transform_counts": f"{a_total}x{b_total}",
            # the construction's zero pattern and the engine's grid, whose
            # list is built; every selection outside it is trivial here
            "nontrivial_minors": count_nontrivial_minors(
                ZeroPattern.of(sliding_parity(enc, m)), parity_grid(enc, m), min_size=2
            ),
            # the decided level's cost: T swept, minors evaluated, charge
            "checked_count": rep.checked_count,
            "minors": decided.get("minors"),
            "charge": decided.get("charge"),
            "elapsed": time.perf_counter() - t0,
        }
        if rep.verdict == INFEASIBLE:
            row["skipped"] = "over budget"
            row["detail"] = rep.detail
        elif rep.verdict is False:
            row["witness"] = rep.witness
        out_rows.append(row)
    report["rows"] = out_rows
    _emit(report, args)
    if args.csv:
        cols = ["n", "k", "m", "field", "verdict", "transform_counts",
                "nontrivial_minors", "elapsed"]
        lines = [",".join(cols)]
        for row in out_rows:
            lines.append(",".join(str(row[c]) for c in cols))
        print("\n".join(lines))
    verdicts = [row["verdict"] for row in out_rows]
    return (EXIT_FALSE if False in verdicts
            else EXIT_INFEASIBLE if INFEASIBLE in verdicts else EXIT_TRUE)


# -- recheck ------------------------------------------------------------------


def cmd_recheck(args) -> int:
    with open(args.report) as fh:
        prior = json.load(fh)
    if not isinstance(prior, dict) or not isinstance(prior.get("oracle", {}), dict):
        raise CliError("a report must be a JSON object", EXIT_PARSE)
    witness = prior.get("witness") or prior.get("oracle", {}).get("witness")
    if not witness or not isinstance(witness, dict):
        raise CliError("report carries no witness to re-check", EXIT_PARSE)
    if args.encoder:
        enc = _decided_encoder(load_encoder(args.encoder))
        if "profile" in witness:
            ok = recheck_oracle_witness(enc, witness)
        else:
            ok = recheck_mMSR_witness(enc, witness)
    elif args.code:
        code = load_code(args.code)
        check = str(prior.get("check", ""))
        decided = _decided_code(code, check)
        if check == "mds":
            # a vanishing minor of P itself, no transform
            ok = witness_minor_vanishes(code.parity, witness)
        elif isinstance(witness.get("transform"), dict) and "B" not in witness["transform"]:
            # the transform side names A alone, the systematic side B, A~, C
            ok = recheck_transform_witness(
                assemble_generator(code), decided.length_partition, witness)
        else:
            ok = recheck_witness(decided, witness)
    else:
        raise CliError("recheck needs --code or --encoder", EXIT_PARSE)
    report = _report_base("recheck", args)
    report["witness"] = witness
    report["reverifies"] = ok
    _emit(report, args)
    return EXIT_TRUE if ok else EXIT_FALSE


# -- distance -----------------------------------------------------------------


def cmd_distance(args) -> int:
    # an option that does not apply to the input is refused, not ignored
    if args.code and (args.encoder or args.j is not None):
        raise CliError("distance --code takes no --encoder or --j", EXIT_PARSE)
    if args.encoder and args.partition is not None:
        raise CliError("distance --encoder takes no --partition", EXIT_PARSE)
    report = _report_base("distance", args)
    try:
        if args.code:
            code = load_code(args.code)
            partition = (
                LengthPartition([int(p) for p in args.partition.split(",")])
                if args.partition
                else code.length_partition
            )
            d = min_sum_rank_distance(assemble_generator(code), partition, budget=args.budget)
            rr, rs, cl = singleton_bounds(code.n, code.k, code.field.M, partition)
            report["field"] = code.field.descriptor()
            report["partition"] = list(partition.parts)
            report["distance"] = d
            report["bounds"] = {"refined_rank": rr, "refined_sum_rank": rs, "classical": cl}
        elif args.encoder:
            given = load_encoder(args.encoder)
            try:
                enc = _decided_encoder(given)
            except EncoderError:  # S_0 singular: no systematic form, measure as given
                enc = given
            report["systematized"] = enc is not given
            m = enc.m
            j = args.j if args.j is not None else m
            if j < 0:
                raise CliError(f"level j={j} is negative", EXIT_PARSE)
            if j > given.m and enc is not given:  # d^j reads S^-1 Q to depth j
                enc = systematize(given, depth=j)
            dists, bounds = column_distances(enc, j, budget=args.budget)
            report["field"] = enc.field.descriptor()
            report["j"] = j
            report["column_distances"] = dists
            report["column_distance_bounds"] = bounds
            report["free_distance_bound"] = free_distance_bound(m, enc.n, enc.k)
        else:
            raise CliError("distance needs --code or --encoder", EXIT_PARSE)
    except BudgetExceeded as e:
        report["verdict"] = INFEASIBLE
        report["detail"] = {"enumerated": e.enumerated, "budget": e.budget}
        _emit(report, args)
        return EXIT_INFEASIBLE
    _emit(report, args)
    return EXIT_TRUE


# -- argument plumbing ---------------------------------------------------------


def _add_common(p, budget=DEFAULT_SELECTION_BUDGET):
    p.add_argument("--budget", type=int, default=budget,
                   help=f"enumeration budget (work units; default {budget})")
    # every search runs in this process; the option stays for callers
    # that pass --workers 1
    p.add_argument("--workers", type=int, choices=(1,), default=1)
    p.add_argument("--out", help="write the JSON report to this path (default: stdout)")


def _add_mode(p):
    # every check enumerates its whole family; the option stays for
    # callers that pass --mode exact or --mode filter
    p.add_argument("--mode", choices=("exact", "filter"),
                   help="ignored: every check is exhaustive")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sumrank",
        description="Verify and construct MRD/MSRD block codes and "
        "m-MSR convolutional codes.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-block", help="run a block-code checker + oracle")
    p.add_argument("--code", required=True, help="code JSON file")
    p.add_argument("--check", choices=BLOCK_CHECKS, default="msrd-systematic")
    _add_mode(p)
    p.add_argument("--no-oracle", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_verify_block)

    p = sub.add_parser("verify-conv", help="run the m-MSR checker + oracles")
    p.add_argument("--encoder", required=True, help="encoder JSON file")
    p.add_argument("--j", type=int, default=None,
                   help="certifies levels 0..j by deciding level j "
                   "(default: encoder memory m)")
    _add_mode(p)
    p.add_argument("--no-oracle", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_verify_conv)

    p = sub.add_parser("construct", help="build a code or encoder")
    p.add_argument("--kind", choices=("gabidulin", "frobenius"), required=True)
    p.add_argument("--field", required=True,
                   help='descriptor like "2^3/1011" or "2^3"')
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, default=None, help="memory (frobenius only)")
    p.add_argument("--alpha-exp", type=int, default=1,
                   help="seed the construction with alpha^e (frobenius only)")
    _add_common(p)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("table1", help="reproduce the published search table")
    p.add_argument("--rows", help='selection like "2,1,1;3,2,1" (default: all)')
    _add_mode(p)
    p.add_argument("--csv", action="store_true", help="also print a CSV table")
    _add_common(p)
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("recheck", help="re-verify a witness from a report")
    p.add_argument("--report", required=True, help="JSON report with a witness")
    p.add_argument("--code")
    p.add_argument("--encoder")
    _add_common(p)
    p.set_defaults(func=cmd_recheck)

    p = sub.add_parser("distance", help="brute-force distances and bounds")
    p.add_argument("--code")
    p.add_argument("--encoder")
    p.add_argument("--partition", help='override, e.g. "2,2"')
    p.add_argument("--j", type=int, default=None)
    _add_common(p, DEFAULT_MESSAGE_BUDGET)
    p.set_defaults(func=cmd_distance)

    return ap


@cache
def _parser() -> argparse.ArgumentParser:
    """build_parser(), once per process: parsing leaves the parser as it
    was, and each fresh parser costs about 1.6 ms and some 450 objects
    in reference cycles that only the cyclic collector frees."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.budget <= 0:
        print("error: budget must be positive", file=sys.stderr)
        return EXIT_PARSE
    try:
        return args.func(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except (FieldError, ValueError, KeyError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    raise SystemExit(main())
