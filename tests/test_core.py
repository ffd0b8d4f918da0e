"""Kernel parity: the compiled extension and the pure-Python fallback
must return identical results, raise the same budget exception, and be
selectable via the environment switch."""

import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from sumrank import core
from sumrank._core_py import BudgetExceeded
from sumrank import _core_py
from sumrank.field import field

try:
    from sumrank import _core_c
except ImportError:
    _core_c = None

needs_compiled = pytest.mark.skipif(
    _core_c is None, reason="compiled extension not built"
)

F8 = field(2, 3)
F9 = field(3, 2)


def _field_args(f):
    return f.q, f.M, f.order, f.exp, f.log


def test_implementation_tag():
    assert _core_py.IMPLEMENTATION == "python"
    assert core.IMPLEMENTATION in ("python", "c")
    if _core_c is not None and not os.environ.get("SUMRANK_PURE_PYTHON"):
        assert core.IMPLEMENTATION == "c"


@needs_compiled
def test_expand_rank_agreement():
    rng = random.Random(50)
    for f in (F8, F9):
        for _ in range(300):
            v = [rng.randrange(f.order) for _ in range(rng.randrange(1, 6))]
            assert _core_c.expand_rank(v, f.q, f.M) == _core_py.expand_rank(
                v, f.q, f.M
            )


@needs_compiled
def test_block_min_sum_rank_agreement():
    rng = random.Random(51)
    for f in (F8, F9):
        q, M, order, exp, log = _field_args(f)
        for _ in range(10):
            gen = [[rng.randrange(order) for _ in range(4)] for _ in range(2)]
            for parts in ([4], [2, 2], [1, 3]):
                a = _core_c.block_min_sum_rank(
                    gen, parts, q, M, order, exp, log, 10**6
                )
                b = _core_py.block_min_sum_rank(
                    gen, parts, q, M, order, exp, log, 10**6
                )
                assert a == b


def _chunks_agree(mod):
    f = F8
    q, M, order, exp, log = _field_args(f)
    rng = random.Random(52)
    gen = [[rng.randrange(order) for _ in range(3)] for _ in range(2)]
    whole, _ = mod.block_min_sum_rank(gen, [3], q, M, order, exp, log, 10**6)
    half1, _ = mod.block_min_sum_rank(
        gen, [3], q, M, order, exp, log, 10**6, 1, 30
    )
    half2, _ = mod.block_min_sum_rank(
        gen, [3], q, M, order, exp, log, 10**6, 30, order**2
    )
    assert whole == min(half1, half2)


def test_block_min_sum_rank_chunks_agree_pure():
    _chunks_agree(_core_py)


@needs_compiled
def test_block_min_sum_rank_chunks_agree():
    _chunks_agree(_core_c)


@needs_compiled
def test_conv_column_distance_agreement():
    from sumrank.conv_codes import construct_frobenius

    for f, spec in ((field(2, 4), (3, 2, 1)), (field(3, 2), (2, 1, 1))):
        n, k, m = spec
        enc = construct_frobenius(n, k, m, f)
        coeff_rows = [g.to_rows() for g in enc.coeffs]
        q, M, order, exp, log = _field_args(f)
        for j in range(m + 1):
            a = _core_c.conv_column_distance(
                coeff_rows, k, n, j, q, M, order, exp, log, 10**7, True
            )
            b = _core_py.conv_column_distance(
                coeff_rows, k, n, j, q, M, order, exp, log, 10**7, True
            )
            assert a == b


def _budget_raises(mod):
    f = F8
    q, M, order, exp, log = _field_args(f)
    gen = [[1, 2, 3], [4, 5, 6]]
    with pytest.raises(BudgetExceeded):
        mod.block_min_sum_rank(gen, [3], q, M, order, exp, log, 3)
    with pytest.raises(BudgetExceeded):
        mod.conv_column_distance(
            [gen, gen], 2, 3, 1, q, M, order, exp, log, 2, False
        )


def test_budget_exceeded_pure():
    _budget_raises(_core_py)


@needs_compiled
def test_budget_exceeded_compiled():
    _budget_raises(_core_c)


def test_pure_python_env_forces_fallback():
    out = subprocess.run(
        [sys.executable, "-c", "from sumrank import core; print(core.IMPLEMENTATION)"],
        env=os.environ | {"SUMRANK_PURE_PYTHON": "1"},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "python"


def test_generated_c_echoes_current_pyx():
    # Cython echoes the source line behind each block of generated C, under
    # a '/* "sumrank/_core_c.pyx":N' header; a stale _core_c.c shows up as
    # an echoed line that no longer matches line N of the .pyx.
    src = Path(_core_py.__file__).resolve().parent
    pyx = (src / "_core_c.pyx").read_text().splitlines()
    header = re.compile(r'/\* "sumrank/_core_c\.pyx":(\d+)$')
    mark = "             # <<<<<<<<<<<<<<"
    lineno = None
    echoed = 0
    for line in (src / "_core_c.c").read_text().splitlines():
        found = header.search(line)
        if found:
            lineno = int(found.group(1))
        elif line.endswith(mark):
            assert line.startswith(" * ") and lineno is not None
            assert line[3 : -len(mark)] == pyx[lineno - 1], f"_core_c.pyx:{lineno}"
            echoed += 1
    assert echoed > 0
