"""Kernel parity: the compiled extension and the pure-Python fallback
must return identical results, raise the same budget exception, and be
selectable via the environment switch.  The compiled module comes from
the ``core_c`` session fixture (tests/conftest.py), built into a
temporary directory."""

import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import build_ext, built_module

from sumrank import core
from sumrank._core_py import BudgetExceeded
from sumrank import _core_py
from sumrank.field import field

F8 = field(2, 3)
F9 = field(3, 2)


def _field_args(f):
    return f.q, f.M, f.order, f.exp, f.log


def test_implementation_tag():
    assert _core_py.IMPLEMENTATION == "python"
    assert core.IMPLEMENTATION in ("python", "c")


def _selected_implementation(tree, **env):
    """core.IMPLEMENTATION in a fresh interpreter that imports sumrank from
    tree."""
    clean = {k: v for k, v in os.environ.items() if k != "SUMRANK_PURE_PYTHON"}
    out = subprocess.run(
        [sys.executable, "-c", "from sumrank import core; print(core.IMPLEMENTATION)"],
        env=clean | {"PYTHONPATH": str(tree)} | env,
        capture_output=True, text=True, check=True,
    )
    return out.stdout.strip()


def test_core_selects_the_compiled_kernel(core_c, tmp_path):
    assert core_c.IMPLEMENTATION == "c"
    assert core_c.BudgetExceeded is BudgetExceeded
    # an installed tree: the package with the built module beside it
    package = tmp_path / "sumrank"
    shutil.copytree(Path(_core_py.__file__).parent, package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(core_c.__file__, package)
    assert _selected_implementation(tmp_path) == "c"
    assert _selected_implementation(tmp_path, SUMRANK_PURE_PYTHON="1") == "python"


def test_failed_compile_builds_without_the_module(tmp_path):
    # the extension is optional: a compiler that fails costs the module, not
    # the build
    proc = build_ext(tmp_path, env=os.environ | {"CC": "false"})
    assert proc.returncode == 0, proc.stderr
    assert not built_module(tmp_path).exists()


def test_expand_rank_agreement(core_c):
    rng = random.Random(50)
    for f in (F8, F9):
        for _ in range(300):
            v = [rng.randrange(f.order) for _ in range(rng.randrange(1, 6))]
            assert core_c.expand_rank(v, f.q, f.M) == _core_py.expand_rank(
                v, f.q, f.M
            )


def test_block_min_sum_rank_agreement(core_c):
    rng = random.Random(51)
    for f in (F8, F9):
        q, M, order, exp, log = _field_args(f)
        for _ in range(10):
            gen = [[rng.randrange(order) for _ in range(4)] for _ in range(2)]
            for parts in ([4], [2, 2], [1, 3]):
                a = core_c.block_min_sum_rank(
                    gen, parts, q, M, order, exp, log, 10**6
                )
                b = _core_py.block_min_sum_rank(
                    gen, parts, q, M, order, exp, log, 10**6
                )
                assert a == b


def test_conv_column_distance_agreement(core_c):
    from sumrank.conv_codes import construct_frobenius

    for f, spec in ((field(2, 4), (3, 2, 1)), (field(3, 2), (2, 1, 1))):
        n, k, m = spec
        enc = construct_frobenius(n, k, m, f)
        coeff_rows = [g.to_rows() for g in enc.coeffs]
        q, M, order, exp, log = _field_args(f)
        shallower = []
        for j in range(m + 2):
            for systematic in (True, False):
                a = core_c.conv_column_distance(
                    coeff_rows, k, n, j, q, M, order, exp, log, 10**7, systematic
                )
                b = _core_py.conv_column_distance(
                    coeff_rows, k, n, j, q, M, order, exp, log, 10**7, systematic
                )
                assert a == b
                # one search to depth j gives every level up to j: its list
                # extends the shallower search's, and the systematic
                # shortcut changes only the node count
                assert len(a[0]) == j + 1 and a[0][:j] == shallower
            shallower = a[0]


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
    # the root's 63 children fit; the first node below them passes 80
    with pytest.raises(BudgetExceeded) as exc:
        mod.conv_column_distance(
            [gen, gen], 2, 3, 1, q, M, order, exp, log, 80, False
        )
    assert exc.value.args == BudgetExceeded(81, 80).args


def test_budget_exceeded_pure():
    _budget_raises(_core_py)


def test_budget_exceeded_compiled(core_c):
    _budget_raises(core_c)


def test_pure_python_env_forces_fallback():
    out = subprocess.run(
        [sys.executable, "-c", "from sumrank import core; print(core.IMPLEMENTATION)"],
        env=os.environ | {"SUMRANK_PURE_PYTHON": "1"},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "python"


def test_compiled_kernels_reject_malformed_input(core_c):
    # the C kernels index tables by these values, so they refuse what the
    # tables cannot hold instead of reading past them
    q, M, order, exp, log = _field_args(F8)
    gen = [[1, 2, 3], [4, 5, 6]]
    bad = [
        lambda: core_c.expand_rank([1, 8], q, M),  # code past the field
        lambda: core_c.expand_rank([1], 2, 64),  # order past 2^63
        lambda: core_c.expand_rank([1], 2, 0),  # a nonzero code where M = 0
        lambda: core_c.block_min_sum_rank([[1, 2, 3], [4]], [3], q, M, order, exp, log, 99),
        lambda: core_c.block_min_sum_rank(gen, [2, 2], q, M, order, exp, log, 99),
        lambda: core_c.block_min_sum_rank(gen, [3], q, M, 9, exp, log, 99),
        lambda: core_c.block_min_sum_rank(gen, [3], q, M, order, exp[:-1], log, 99),
        lambda: core_c.conv_column_distance([gen, [[1]]], 2, 3, 1, q, M, order, exp, log,
                                            99, False),
        lambda: core_c.conv_column_distance([gen], 2, 3, sys.getrecursionlimit(), q, M,
                                            order, exp, log, 10**9, False),
    ]
    for call in bad:
        with pytest.raises(ValueError):
            call()
