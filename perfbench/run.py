"""End-to-end benchmark of the sumrank CLI, with a per-layer split.

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 38 --trace 0

Workloads (see BENCHMARK.json for why each was chosen).  Each CLI call
takes at most about two seconds, so a run repeats every call several times:

- ``table1``: the published-table rows up to [4,2,2], one ``table1 --rows``
  call per row; checker stack only.
- ``verify-conv``: eight Frobenius encoders from [2,1,2]/F_256 to
  [3,1,2]/F_512, two of them negatives, filter mode with the oracles on;
  oracle-kernel bound.
- ``verify-block``: Gabidulin [5,3] and [5,2] over F_32 and [6,3] over
  F_64 under several partitions, plus four random [6,3]/F_32 parities,
  exact mode; many small full superregularity checks plus the block
  distance kernel.

The seed picks a Frobenius conjugate of every encoder and code (see
``inputs.py``), so inputs differ from seed to seed while the work and the
verdicts stay the same.

A fresh interpreter first runs ``inputs.py`` to write the seeded input
files and the call plan; that wall time is one ``setup_s`` sample.  The
workload then runs in this process as a closed loop: one client calls
``sumrank.cli.main(argv)`` for each planned call, one after another, with
``--workers 1``.  One pass is the whole list of calls.

Every call is checked against its plan: no exception, the pinned exit
code, the pinned verdict (or the oracle's, for random codes), the report's
``agreement``, and for every ``False`` verdict a ``sumrank recheck`` of its
witness, which is itself a counted call.

``--trace 0`` runs one warm-up pass, then passes until ``--seconds`` is
spent (at least two timed), with more fresh-interpreter set-ups spread
between the calls, and reports the end-to-end metrics ``wall_s`` (mean
timed pass), ``cpu_s`` (its process CPU time), ``setup_s`` (mean set-up,
the first one left out) and ``peak_rss_mb``.

The three times are scaled to the host's speed.  On a shared host the CPU
switches every few tens of milliseconds between a fast state and one
1.5-2x slower, and the share of time spent slow drifts over minutes, so
the same pass takes 1.5x longer in one minute than in the next.  The run
times ``reference.py``, a fixed pure-Python kernel that shares no code
with sumrank, between the calls (once, plus once per ``REF_EVERY_S`` of
the call before) and ``SETUP_REFS`` times before each set-up.  Pass times
are multiplied by ``REF_S`` over the mean reference sample of the timed
passes, set-up times by ``REF_S`` over the mean of the samples taken
before the set-ups.  A scaled time is the time the work takes on a host
where one reference sample takes ``REF_S``; it moves with the program,
not with the neighbours.  The record keeps the unscaled times and every
sample.

``--trace 1`` runs one untraced pass and two traced passes and reports
the per-layer metrics, unscaled; it fails unless the two traced passes
give identical counts, the counts match those the reports carry, and each
layer the workload must reach is non-zero while the layers it must bypass
read zero.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it, starting
with ``record``, holds every pass's sample and the machine and kernel the
numbers come from.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import Counter
from pathlib import Path

import inputs
import reference

ROOT = inputs.ROOT
WARMUP_PASSES = 1  # fills the program's caches; not timed
MIN_PASSES = 3
SETUP_SAMPLES = 16  # fresh-interpreter set-ups spread over a --trace 0 run
MIN_SETUP_SAMPLES = 8
SETUP_REFS = 3  # reference samples before each set-up
REF_EVERY_S = 0.2  # one reference sample per this much call time, at least one per call
SETUP_TIMEOUT_S = 60


# Counts that must repeat exactly between two traced passes.
DETERMINISTIC = (
    "cli.main.calls", "conv_codes.t_matrices", "conv_codes.pairs",
    "conv_codes.filter_pass_ratio", "conv_codes.a_star",
    "block_codes.t_matrices", "block_codes.transforms",
    "superregular.is_superregular_constrained.calls",
    "superregular.is_full_superregular.calls", "superregular.minors",
    "matrix.det.calls", "matrix.Matrix.matmul.calls",
    "field.Field.mul.calls", "field.Field.inv.calls",
    "core.conv_column_distance.nodes", "core.block_min_sum_rank.messages",
)

# What each workload must reach, and what it must bypass.
MUST_REACH = {
    "table1": (
        "conv_codes.check_mMSR.s", "conv_codes.t_matrices", "conv_codes.pairs",
        "superregular.is_superregular_constrained.calls", "superregular.minors",
        "superregular.count_nontrivial_minors.s", "matrix.det.calls",
        "matrix.Matrix.matmul.calls", "field.Field.mul.calls",
        "field.Field.inv.calls",
    ),
    "verify-conv": (
        "conv_codes.check_mMSR.s", "conv_codes.t_matrices",
        "conv_codes.check_mMSR_oracle.s", "conv_codes.a_star",
        "superregular.is_superregular_constrained.calls", "superregular.minors",
        "matrix.det.calls", "field.Field.mul.calls",
        "metrics.column_sum_rank_distance.s", "core.conv_column_distance.s",
        "core.conv_column_distance.nodes",
    ),
    "verify-block": (
        "block_codes.check_msrd_systematic.s", "block_codes.check_msrd_transforms.s",
        "block_codes.t_matrices", "block_codes.transforms",
        "superregular.is_full_superregular.calls", "superregular.minors",
        "matrix.det.calls", "matrix.Matrix.matmul.calls", "field.Field.mul.calls",
        "metrics.min_sum_rank_distance.s", "core.block_min_sum_rank.s",
        "core.block_min_sum_rank.messages",
    ),
}
MUST_BYPASS = {
    "table1": (
        "conv_codes.check_mMSR_oracle.s", "conv_codes.a_star",
        "block_codes.t_matrices", "block_codes.transforms",
        "superregular.is_full_superregular.calls",
        "metrics.column_sum_rank_distance.s", "metrics.min_sum_rank_distance.s",
        "core.conv_column_distance.s", "core.conv_column_distance.nodes",
        "core.block_min_sum_rank.s", "core.block_min_sum_rank.messages",
    ),
    "verify-conv": (
        "block_codes.t_matrices", "block_codes.transforms",
        "superregular.is_full_superregular.calls",
        "superregular.count_nontrivial_minors.s",
        "metrics.min_sum_rank_distance.s", "core.block_min_sum_rank.s",
        "core.block_min_sum_rank.messages",
    ),
    "verify-block": (
        "conv_codes.t_matrices", "conv_codes.pairs", "conv_codes.a_star",
        "superregular.is_superregular_constrained.calls",
        "superregular.count_nontrivial_minors.s",
        "metrics.column_sum_rank_distance.s", "core.conv_column_distance.s",
        "core.conv_column_distance.nodes",
    ),
}

UNITS = {
    "peak_rss_mb": "MB",
    "cli.report_bytes": "bytes",
    "conv_codes.filter_pass_ratio": "ratio",
    "core.conv_column_distance.nodes_per_s": "1/s",
    "core.block_min_sum_rank.messages_per_s": "1/s",
    "trace.overhead_ratio": "ratio",
}


def _unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return "s" if name.endswith(("_s", ".s")) else "count"


# -- set-up --------------------------------------------------------------------


class Setup:
    """Wall seconds of fresh-interpreter runs of inputs.py, each after
    SETUP_REFS reference samples that give the host's speed at that
    moment.  The first writes the inputs the passes read; later ones write
    the same files to a directory of their own."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.cmd = [sys.executable, str(Path(inputs.__file__).resolve()),
                    "--workload", workload, "--seed", str(seed), "--dir"]
        self.workdir = workdir
        self.samples = []
        self.refs = []

    def sample(self):
        out = self.workdir / ("setup" if self.samples else "")
        self.refs.append([reference.sample() for _ in range(SETUP_REFS)])
        t0 = time.perf_counter()
        proc = subprocess.Popen(self.cmd + [str(out)], cwd=ROOT)
        # A blocking wait: Popen.wait(timeout) polls with sleeps of up to
        # 50 ms, which rounds every sample up to the next poll.
        watchdog = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            rc = proc.wait()
        finally:
            watchdog.cancel()
            watchdog.join()
        elapsed = time.perf_counter() - t0
        if rc != 0:
            raise SystemExit(f"error: set-up exited with {rc}")
        self.samples.append(elapsed)


# -- one pass ------------------------------------------------------------------


class Pass:
    def __init__(self):
        self.wall = 0.0
        self.cpu = 0.0
        self.attempted = 0
        self.failed = 0
        self.report_bytes = 0
        self.call_wall = []  # per planned call, its rechecks included
        self.call_cpu = []
        self.reports = []  # (planned call, report) of each verify call
        self.errors = []


def _cpu() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _invoke(cli, argv, run: Pass, report_path: str):
    """One CLI call through cli.main; returns (exit code, report or None)."""
    path = Path(report_path)
    path.unlink(missing_ok=True)
    run.attempted += 1
    try:
        rc = cli.main(argv)
    except SystemExit as e:
        rc = e.code
    except Exception:
        traceback.print_exc()
        return None, None
    try:
        text = path.read_text()
        run.report_bytes += len(text.encode())
        return rc, json.loads(text)
    except (OSError, ValueError) as e:
        run.errors.append(f"{argv[0]}: no readable report ({e})")
        return rc, None


def _recheck(cli, run: Pass, report_path: str, subject: list, tag: str) -> bool:
    out = f"{report_path}.recheck-{tag}.json"
    rc, rep = _invoke(cli, ["recheck", "--report", report_path, *subject,
                            "--out", out], run, out)
    ok = rc == 0 and rep is not None and rep.get("reverifies") is True
    if not ok:
        run.failed += 1
        run.errors.append(f"recheck of {report_path} ({tag}): exit {rc}")
    return ok


def _problems(call: dict, rc, rep: dict, by_report: dict) -> list:
    """Ways a verify call's outcome differs from its plan."""
    out = []
    verdict = rep.get("verdict")
    want_exit = call["exit"]
    if want_exit is None:  # decided by the oracle: exit must match the verdict
        want_exit = {True: 0, False: 1}.get(verdict, "a verdict of True or False")
    if rc != want_exit:
        out.append(f"exit {rc}, expected {want_exit}")
    if call["verdict"] is not None and verdict is not call["verdict"]:
        out.append(f"verdict {verdict!r}, expected {call['verdict']!r}")
    if rep.get("agreement") is not call["agreement"]:
        out.append(f"agreement {rep.get('agreement')!r}, expected {call['agreement']!r}")
    if "column_distances" in call and rep.get("column_distances") != call["column_distances"]:
        out.append(f"column distances {rep.get('column_distances')}")
    if "same_verdict_as" in call:
        other = by_report.get(call["same_verdict_as"])
        if other is None or other.get("verdict") is not verdict:
            out.append("verdict differs from the other checker's on the same code")
    if "rows" in call:
        got = {f"{r['n']},{r['k']},{r['m']}": r["verdict"] for r in rep.get("rows", [])}
        if got != call["rows"]:
            out.append(f"row verdicts {got}")
    return out


def _run_call(cli, call: dict, run: Pass, by_report: dict):
    """One planned call, its checks and its rechecks."""
    rc, rep = _invoke(cli, call["argv"], run, call["report"])
    if rep is None:
        run.failed += 1
        run.errors.append(f"{' '.join(call['argv'][:3])}: exit {rc}, no report")
        return
    by_report[call["report"]] = rep
    run.reports.append((call, rep))
    bad = _problems(call, rc, rep, by_report)
    # every False witness must re-verify on its own
    if rep.get("verdict") is False and "rows" not in call:
        if not _recheck(cli, run, call["report"], call["recheck_with"], "witness"):
            bad.append("witness does not re-verify")
    for row in rep.get("rows", []):
        if row["verdict"] is False:
            key = f"{row['n']},{row['k']},{row['m']}"
            path = Path(call["report"]).with_name(f"table1_row_{key.replace(',', '_')}.json")
            path.write_text(json.dumps({"witness": row["witness"]}))
            enc = call["row_encoders"].get(key)
            if enc is None or not _recheck(cli, run, str(path), ["--encoder", enc], key):
                bad.append(f"row {key} witness does not re-verify")
    if bad:
        run.failed += 1
        run.errors.append(f"{' '.join(call['argv'][:3])}: " + "; ".join(bad))


def run_pass(cli, calls: list, between=None) -> Pass:
    """One pass over the calls; ``between`` runs untimed before each call."""
    run = Pass()
    by_report = {}
    for call in calls:
        if between is not None:
            between()
        cpu0 = _cpu()
        t0 = time.perf_counter()
        _run_call(cli, call, run, by_report)
        run.call_wall.append(time.perf_counter() - t0)
        run.call_cpu.append(_cpu() - cpu0)
    run.wall = sum(run.call_wall)
    run.cpu = sum(run.call_cpu)
    return run


# -- traced passes -------------------------------------------------------------


def report_counts(run: Pass) -> dict:
    """The counts the CLI reports themselves carry, named like the trace's."""
    counts = Counter({"cli.main.calls": run.attempted})
    for call, rep in run.reports:
        cmd = call["argv"][0]
        if cmd == "verify-conv":
            counts["conv_codes.t_matrices"] += rep["checked_count"]
            counts["conv_codes.a_star"] += rep["oracle"]["checked_count"]
            counts["conv_codes.pairs"] += sum(
                lv["b_count"] * lv["a_count"] for lv in rep["detail"]["levels"])
        elif cmd == "verify-block":
            check = call["argv"][call["argv"].index("--check") + 1]
            key = ("block_codes.transforms" if check.endswith("transforms")
                   else "block_codes.t_matrices")
            counts[key] += rep["checked_count"]
    return counts


def traced_pass(cli, calls: list):
    from tracer import Tracer

    with Tracer() as tr:
        run = run_pass(cli, calls)
    metrics = tr.metrics()
    metrics["cli.report_bytes"] = run.report_bytes
    return run, metrics


def trace_checks(workload: str, first: dict, second: dict, run: Pass) -> list:
    problems = []
    for name in DETERMINISTIC:
        if first[name] != second[name]:
            problems.append(f"{name} differs between traced passes: "
                            f"{first[name]} vs {second[name]}")
    for name, value in report_counts(run).items():
        if first[name] != value:
            problems.append(f"{name}: trace counted {first[name]}, reports carry {value}")
    for name in MUST_REACH[workload]:
        if not first[name] > 0:
            problems.append(f"{name} is {first[name]} on {workload}; expected > 0")
    for name in MUST_BYPASS[workload]:
        if first[name] != 0:
            problems.append(f"{name} is {first[name]} on {workload}; expected 0")
    return problems


# -- environment ---------------------------------------------------------------


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(workload: str, seed: int) -> dict:
    from sumrank import core

    try:
        import sumrank._core_c  # noqa: F401
        compiled = True
    except ImportError:
        compiled = False
    return {
        "workload": workload,
        "seed": seed,
        "commit": _commit(),
        "implementation": core.IMPLEMENTATION,
        "core_c_imports": compiled,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "loop": "closed, 1 client, --workers 1",
    }


# -- main ----------------------------------------------------------------------


def _print_metric(name, value, unit, note=""):
    print(f"  {name:<48} {value:>14.6g} {unit:<6} {note}")


def measure(cli, workload, seed, calls, seconds, setup, record):
    passes = []
    refs = []  # reference samples taken between the calls
    start = last = time.perf_counter()
    interval = seconds / SETUP_SAMPLES

    def between():
        nonlocal last
        # one sample, plus one per REF_EVERY_S the call before took
        for _ in range(1 + int((time.perf_counter() - last) / REF_EVERY_S)):
            refs.append(reference.sample())
        # one set-up when the next is due, so they spread over the run
        due = (time.perf_counter() - start) / interval
        if len(setup.samples) < min(due, SETUP_SAMPLES):
            setup.sample()
        last = time.perf_counter()

    while True:
        if len(passes) == WARMUP_PASSES:
            timed_from = len(refs)
        passes.append(run_pass(cli, calls, between))
        elapsed = time.perf_counter() - start
        walls = [p.wall for p in passes]
        if len(passes) >= MIN_PASSES and elapsed + statistics.median(walls) > seconds:
            break
    while len(setup.samples) < MIN_SETUP_SAMPLES:
        setup.sample()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    timed = passes[WARMUP_PASSES:]
    # The first set-up wrote this run's inputs, cold.
    setups, setup_refs = setup.samples[1:], sum(setup.refs[1:], [])
    # Host speed relative to the reference host, over the timed passes and
    # over the set-ups.  Means, not medians: a call of a second spans many
    # switches between the host's fast and slow states, so its time
    # follows the mean slowdown, which the mean of the short reference
    # samples measures.
    speed = reference.REF_S / statistics.mean(refs[timed_from:])
    setup_speed = reference.REF_S / statistics.mean(setup_refs)
    unscaled = {
        "wall_s": statistics.mean(p.wall for p in timed),
        "cpu_s": statistics.mean(p.cpu for p in timed),
        "setup_s": statistics.mean(setups),
    }
    values = {
        "wall_s": unscaled["wall_s"] * speed,
        "cpu_s": unscaled["cpu_s"] * speed,
        "setup_s": unscaled["setup_s"] * setup_speed,
        "peak_rss_mb": peak_mb,
    }
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    record["passes"] = [{"wall_s": p.wall, "cpu_s": p.cpu, "calls": p.attempted,
                         "failed": p.failed, "call_wall_s": p.call_wall,
                         "call_cpu_s": p.call_cpu} for p in passes]
    record["warmup_passes"] = WARMUP_PASSES
    record["reference_s_samples"] = refs
    record["reference_timed_from"] = timed_from
    record["setup_s_samples"] = setup.samples
    record["setup_reference_s_samples"] = setup.refs
    record["host_speed"] = speed
    record["setup_host_speed"] = setup_speed
    record["unscaled"] = unscaled
    n = len(timed)
    print(f"{workload}, seed {seed}: {WARMUP_PASSES} warm-up + {n} timed passes "
          f"of {passes[0].attempted} CLI calls; host speed {speed:.3f} of the "
          f"reference host (mean of {len(refs) - timed_from} reference samples)")
    _print_metric("wall_s", values["wall_s"], "s", f"mean of {n} passes, scaled")
    _print_metric("cpu_s", values["cpu_s"], "s", f"mean of {n} passes, scaled")
    _print_metric("setup_s", values["setup_s"], "s",
                  f"mean of {len(setups)} fresh interpreters, scaled")
    _print_metric("peak_rss_mb", values["peak_rss_mb"], "MB", "of this process")
    _print_metric("failed_frac", failed / attempted, "ratio", f"{failed}/{attempted} calls")
    metrics = {name: {"value": v, "unit": _unit(name)} for name, v in values.items()}
    return passes, metrics, attempted, failed


def trace(cli, workload, seed, calls, record):
    plain = run_pass(cli, calls)
    first_run, first = traced_pass(cli, calls)
    second_run, second = traced_pass(cli, calls)
    passes = [plain, first_run, second_run]
    problems = trace_checks(workload, first, second, first_run)
    if problems:
        for p in problems:
            print(f"trace self-test failed: {p}", file=sys.stderr)
        raise SystemExit(1)
    values = {name: statistics.median([first[name], second[name]])
              if isinstance(first[name], float) else first[name] for name in first}
    values["trace.overhead_ratio"] = \
        statistics.median([first_run.wall, second_run.wall]) / plain.wall
    record["passes"] = [{"traced": i > 0, "wall_s": p.wall, "cpu_s": p.cpu,
                         "calls": p.attempted, "failed": p.failed}
                        for i, p in enumerate(passes)]
    record["traced"] = [first, second]
    traced_wall = statistics.median([first_run.wall, second_run.wall])
    print(f"{workload}, seed {seed}: 1 untraced + 2 traced passes "
          f"of {plain.attempted} CLI calls; traced wall {traced_wall:.3f} s")
    for name in sorted(values):
        unit = _unit(name)
        note = f"{100 * values[name] / traced_wall:5.1f}% of the traced pass" if unit == "s" else ""
        _print_metric(name, values[name], unit, note)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    metrics = {name: {"value": v, "unit": _unit(name)} for name, v in values.items()}
    return passes, metrics, attempted, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    sumrank = inputs._import_sumrank()
    cli = sys.modules["sumrank.cli"]
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup = Setup(args.workload, args.seed, workdir)
        setup.sample()
        calls = json.loads((workdir / "plan.json").read_text())
        record = environment(args.workload, args.seed)
        record["version"] = sumrank.__version__
        if args.trace:
            passes, metrics, attempted, failed = trace(
                cli, args.workload, args.seed, calls, record)
        else:
            passes, metrics, attempted, failed = measure(
                cli, args.workload, args.seed, calls, args.seconds,
                setup, record)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run is still using it
            pass
    for p in passes:
        for err in p.errors:
            print(f"failed: {err}", file=sys.stderr)
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
