"""The benchmark's traced self-tests on the current program: every call of
a workload's plan passes its gates, each layer the workload must reach is
reached, the counts the trace takes equal the counts the reports carry,
and verify-conv's filter pass ratio lies strictly between 0 and 1.  One
traced run per workload, about 10 s in all."""

import json
import subprocess
import sys

import pytest

from conftest import ROOT


@pytest.mark.parametrize("workload", ["table1", "verify-conv", "verify-block"])
def test_traced_benchmark_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert last["correct"] is True, proc.stderr
    if workload == "verify-conv":
        # the tracer reads filtered_pairs with a default of 0, so a report
        # that stops carrying them would zero this metric without failing
        ratio = last["metrics"]["conv_codes.filter_pass_ratio"]["value"]
        assert 0 < ratio < 1, ratio
