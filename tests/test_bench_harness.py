"""The dev benchmark harness (benchmarks/bench.py) runs end to end: a
kernel row and a checker row, one round of one timed call each, give one
row per (row, kernel) in the BENCH schema with the pinned results and
counts, and two sides give per-round paired ratios."""

import json
import subprocess
import sys
from unittest import mock

from conftest import ROOT

ROW_KEYS = {"row", "instance", "side", "kernel", "loaded", "result", "wall_s",
            "wall_s_quartiles", "wall_s_rounds", "cpu_s", "cpu_s_rounds",
            "host_speed_rounds", "layers"}
RATIO_KEYS = {"row", "kernel", "of"} | {f"{key}{suffix}" for key in ("wall_s", "cpu_s")
                                        for suffix in ("", "_quartiles", "_rounds")}


def test_harness_runs_a_kernel_row_and_a_checker_row():
    proc = subprocess.run(
        [sys.executable, "benchmarks/bench.py", "--rows", "expand-rank-f8;gab4x2-f81",
         "--rounds", "1", "--calls", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert {"benchmark", "settings", "machine", "rows"} <= set(doc)
    rows = {(r["row"], r["kernel"]): r for r in doc["rows"]}
    assert len(rows) == len(doc["rows"]) == 4
    assert set(rows) == {(row, kernel) for row in ("expand-rank-f8", "gab4x2-f81")
                         for kernel in ("python", "c")}
    for (name, kernel), row in rows.items():
        assert set(row) == ROW_KEYS
        # the c side loads the compiled kernel only where the tree has one built
        assert row["loaded"] in (("python",) if kernel == "python" else ("python", "c"))
        assert row["wall_s"] > 0 and len(row["wall_s_rounds"]) == 1
        if name == "expand-rank-f8":
            assert (row["result"], row["layers"]["vectors"]) == (57909, 20000)
        else:
            layers = row["layers"]
            # the minors evaluated: each pair's first T sweeps all 5, each
            # of its 80 later ones, in Gray order, only the 2 that hold the
            # C cell it moves; one predicate call per (B, A~) pair, 3 x 3
            assert (row["result"], layers["block_codes.t_matrices"],
                    layers["superregular.minors"],
                    layers["superregular.is_full_superregular.calls"]) == (
                        True, 729, 9 * (5 + 80 * 2), 9)


def test_field_row_builds_the_field_by_its_constructor():
    proc = subprocess.run(
        [sys.executable, "benchmarks/bench.py", "--rows", "field-f2-18",
         "--rounds", "1", "--calls", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    rows = json.loads(proc.stdout)["rows"]
    assert [(r["row"], r["kernel"]) for r in rows] == [("field-f2-18", "python"),
                                                        ("field-f2-18", "c")]
    for row in rows:
        assert set(row) == ROW_KEYS
        assert (row["result"], row["layers"]["elements"]) == (2**18, 2**18)
        assert row["wall_s"] > 0 and row["layers"]["elements_per_s"] > 0


def test_oracle_row_tries_every_a_star():
    proc = subprocess.run(
        [sys.executable, "benchmarks/bench.py", "--rows", "oracle-531-e67",
         "--rounds", "1", "--calls", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    rows = json.loads(proc.stdout)["rows"]
    assert [(r["row"], r["kernel"]) for r in rows] == [("oracle-531-e67", "python"),
                                                        ("oracle-531-e67", "c")]
    for row in rows:
        assert set(row) == ROW_KEYS
        # a True oracle reads every A* once, with no matrix product
        assert (row["result"], row["layers"]["conv_codes.a_star"],
                row["layers"]["matrix.Matrix.matmul.calls"]) == (True, 28861, 0)


def test_plan_reports_scrub_one_workload():
    """benchmarks/plan_reports.py on table1 at seed 1: every JSON file of
    the pass, its negative row's recheck included, with no elapsed field
    and no trace of the work directory, and no call missing its plan."""
    code = ("import json, sys; sys.path.insert(0, 'benchmarks'); import plan_reports; "
            "files, errors = plan_reports.collect('src', ['table1'], [1]); "
            "print(json.dumps([files, errors]))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    files, errors = json.loads(proc.stdout.splitlines()[-1])
    assert errors == []
    assert "table1/1/plan.json" in files and "table1/1/table1_4_2_2.json" in files
    assert any("recheck" in name for name in files)
    assert files["table1/1/table1_4_2_2.json"]["rows"][0]["verdict"] is False
    text = json.dumps(files)
    assert '"elapsed"' not in text and "/tmp" not in text
    assert "<work>/table1_4_2_2.json" in text


def _bench():
    sys.path.insert(0, str(ROOT / "benchmarks"))
    try:
        import bench
    finally:
        sys.path.remove(str(ROOT / "benchmarks"))
    return bench


def test_two_identical_sides_read_a_ratio_interval_that_holds_one(capsys):
    # every child of two identical trees reads the same program on a host
    # that slows down with each run; the rounds alternate which side runs
    # first, so the per-round ratios fall on both sides of 1, while each
    # side's own times spread with the drift
    bench = _bench()
    clock = iter(range(1000))

    def child(src, kernel, row, calls):
        t = 1.0 + 0.05 * next(clock)
        return {"instance": row, "implementation": "python", "wall_s": t, "cpu_s": t / 2,
                "host_speed": 1.0, "result": 7, "layers": {}}

    argv = ["bench.py", "--side", "parent=src", "--side", "change=src",
            "--rows", "expand-rank-f8", "--rounds", "4"]
    with mock.patch.object(bench, "run_child", child), mock.patch.object(sys, "argv", argv):
        assert bench.main() == 0
    doc = json.loads(capsys.readouterr().out)
    assert [(r["row"], r["kernel"]) for r in doc["ratios"]] == [
        ("expand-rank-f8", "python"), ("expand-rank-f8", "c")]
    for ratio in doc["ratios"]:
        assert set(ratio) == RATIO_KEYS and ratio["of"] == "change/parent"
        for key in ("wall_s", "cpu_s"):
            low, median, high = ratio[f"{key}_quartiles"]
            assert low < 1.0 < high and len(ratio[f"{key}_rounds"]) == 4
    # the drift spreads each side's own times more than the paired ratios
    for row, ratio in zip(doc["rows"][::2], doc["ratios"]):
        spread = max(row["wall_s_rounds"]) / min(row["wall_s_rounds"])
        assert spread > max(ratio["wall_s_rounds"]) / min(ratio["wall_s_rounds"])


def test_two_sides_of_one_tree_give_paired_ratios():
    proc = subprocess.run(
        [sys.executable, "benchmarks/bench.py", "--side", "a=src", "--side", "b=src",
         "--rows", "expand-rank-f8", "--rounds", "1", "--calls", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert [(r["row"], r["kernel"], r["side"]) for r in doc["rows"]] == [
        ("expand-rank-f8", kernel, side) for kernel in ("python", "c") for side in "ab"]
    for ratio in doc["ratios"]:
        assert set(ratio) == RATIO_KEYS and ratio["of"] == "b/a"
        assert ratio["wall_s"] > 0 and ratio["cpu_s"] > 0
