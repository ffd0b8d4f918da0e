"""A report is the check's decision: two identical checker calls return
equal reports, and only the CLI reads the clock."""

import re

import pytest
from conftest import ROOT

from sumrank.block_codes import (
    SystematicBlockCode,
    assemble_generator,
    check_mds,
    check_msrd_systematic,
    check_msrd_transforms,
    construct_gabidulin,
    systematic_form,
)
from sumrank.cli import TABLE1_ROWS
from sumrank.conv_codes import check_mMSR, check_mMSR_oracle, construct_frobenius
from sumrank.field import field
from sumrank.matrix import Matrix
from sumrank.metrics import LengthPartition
from sumrank.report import INFEASIBLE, VerificationReport
from sumrank.superregular import is_superregular

F4 = field(2, 2)
F32 = field(2, 5)


def _table1_encoder(n, k, m):
    deg, e = next(r[3:] for r in TABLE1_ROWS if r[:3] == (n, k, m))
    f = field(2, deg)
    return construct_frobenius(n, k, m, f, f.alpha_pow(e))


def _small_code():
    # [4, 2] over F_4, blocks (2, 2), dims (1, 1): not MSRD
    return SystematicBlockCode(LengthPartition((2, 2)), (1, 1),
                               Matrix.from_rows([[1, 1], [1, 1]], F4))


def _gabidulin_code():
    # [5, 3] Gabidulin over F_32, one block: MRD
    parity = systematic_form(construct_gabidulin(5, 3, F32))
    return SystematicBlockCode(LengthPartition((5,)), (3,), parity)


def _f128_negative():
    f = field(2, 7)
    return construct_frobenius(3, 1, 2, f, f.alpha_pow(11))


# (name, call, expected verdict)
CALLS = [
    ("mds-true", lambda: check_mds(Matrix.from_rows([[1, 1], [1, 2]], F4)), True),
    ("mds-false", lambda: check_mds(Matrix.from_rows([[1, 1], [1, 1]], F4)), False),
    ("msrd-exact-false", lambda: check_msrd_systematic(_small_code()), False),
    ("msrd-exact-true", lambda: check_msrd_systematic(_gabidulin_code()), True),
    ("transforms-false", lambda: check_msrd_transforms(
        assemble_generator(_small_code()), LengthPartition((2, 2))), False),
    ("transforms-true", lambda: check_msrd_transforms(
        assemble_generator(_gabidulin_code()), LengthPartition((5,))), True),
    ("mMSR-exact-false", lambda: check_mMSR(_table1_encoder(4, 2, 2)), False),
    ("mMSR-exact-infeasible", lambda: check_mMSR(_table1_encoder(4, 2, 2), budget=10),
     INFEASIBLE),
    ("mMSR-exact-true", lambda: check_mMSR(_table1_encoder(3, 2, 1)), True),
    ("oracle-true", lambda: check_mMSR_oracle(_table1_encoder(3, 2, 1), 1), True),
    ("oracle-false", lambda: check_mMSR_oracle(_f128_negative(), 2), False),
    ("superregular-true", lambda: is_superregular(_gabidulin_code().parity), True),
    ("superregular-false", lambda: is_superregular(
        Matrix.from_rows([[1, 1], [1, 1]], F4)), False),
]


@pytest.mark.parametrize("call, verdict", [c[1:] for c in CALLS],
                         ids=[c[0] for c in CALLS])
def test_identical_calls_return_equal_reports(call, verdict):
    first, second = call(), call()
    assert first.verdict == verdict
    assert first == second
    assert first.to_json() == second.to_json()


def test_a_report_holds_the_decision_alone():
    assert list(VerificationReport(True).to_json()) == [
        "verdict", "witness", "checked_count", "detail"]
    assert not hasattr(VerificationReport(True), "elapsed")


def test_only_the_cli_reads_the_clock():
    clock = re.compile(r"^\s*(import time|from time import)|perf_counter|process_time"
                       r"|monotonic|\belapsed\b", re.MULTILINE)
    readers = sorted(p.name for p in (ROOT / "src" / "sumrank").glob("*.py")
                     if clock.search(p.read_text()))
    assert readers == ["cli.py"]
