"""Differential tests of the column-distance kernels: the packed-vector
one in ``_core_py`` and the compiled one (the ``core_c`` fixture of
tests/conftest.py).

The reference kernel below is the column-distance search as it was
before the pure kernel moved to packed vectors: one search per level,
which decodes every child message and multiplies it out code by code
with ``_vec_matmul``, as the compiled kernel does.  Both kernels search
once to depth j, and must return the reference's distances at levels
0..j and its level-j node count, on systematic and general encoders
over fields of both characteristics and at levels past the memory, and
refuse a budget below the count with the same exception arguments; both
search kernels refuse a message space past 2^63 as the pure ones always
have, with the exact count.
"""

import random
from unittest import mock

import pytest

from sumrank import _core_py
from sumrank._core_py import (
    BudgetExceeded,
    _add,
    _decode_message,
    _vec_matmul,
    expand_rank,
)
from sumrank.field import field

FIELDS = [field(2, 2), field(2, 3), field(2, 4), field(3, 2), field(3, 3),
          field(3, 1), field(5, 1)]


def ref_conv_column_distance(coeff_rows, k, n, j, q, M, order, exp, log, budget,
                             systematic):
    m = len(coeff_rows) - 1
    qmk = order**k
    best = [n * (j + 1) + 1]
    enumerated = [0]

    def carry_for(history, t):
        acc = [0] * n
        for i in range(1, min(t, m) + 1):
            u = history[t - i]
            if any(u):
                term = _vec_matmul(u, coeff_rows[i], q, order, exp, log, M)
                acc = [_add(a, b, q, M) for a, b in zip(acc, term)]
        return acc

    def zero_extension_weightless(history, t):
        hist = list(history)
        for i in range(t, j + 1):
            hist.append([0] * k)
            if any(carry_for(hist, i)):
                return False
        return True

    def rec(t, s, history):
        if s >= best[0]:
            return
        if t > j:
            best[0] = s
            return
        if systematic and t > 0 and s == best[0] - 1:
            if zero_extension_weightless(history, t):
                best[0] = s
            return
        carry = carry_for(history, t)
        for idx in range(qmk):
            if t == 0 and idx == 0:
                continue
            enumerated[0] += 1
            if enumerated[0] > budget:
                raise BudgetExceeded(enumerated[0], budget)
            u = _decode_message(idx, k, order)
            if idx == 0:
                v = carry
            else:
                v = _vec_matmul(u, coeff_rows[0], q, order, exp, log, M)
                v = [_add(a, b, q, M) for a, b in zip(v, carry)]
            r = expand_rank(v, q, M)
            if s + r < best[0]:
                rec(t + 1, s + r, history + [u])

    rec(0, 0, [])
    return best[0], enumerated[0]


def ref_column_distances(coeff_rows, k, n, j, f, budget, systematic):
    """([d^0, ..., d^j], the level-j search's node count), one reference
    search per level."""
    runs = [ref_conv_column_distance(coeff_rows, k, n, i, *_args(f), budget, systematic)
            for i in range(j + 1)]
    return [dist for dist, _ in runs], runs[-1][1]


def _args(f):
    return f.q, f.M, f.order, f.exp, f.log


def _random_rows(rng, f, k, n, zero_bias=0.0):
    return [[0 if rng.random() < zero_bias else rng.randrange(f.order)
             for _ in range(n)] for _ in range(k)]


def _random_encoder(rng, f, n, k, m, systematic):
    """Coefficient rows G_0..G_m; systematic ones are [I_k P_0], [0 P_i]."""
    coeffs = []
    for i in range(m + 1):
        rows = _random_rows(rng, f, k, n, zero_bias=0.3)
        if systematic:
            for r in range(k):
                rows[r][:k] = [int(i == 0 and c == r) for c in range(k)]
        coeffs.append(rows)
    if not any(any(row) for row in coeffs[-1]):
        coeffs[-1][0][-1] = 1
    return coeffs


def _conv_cases():
    rng = random.Random(40)
    for f in FIELDS:
        for systematic in (True, False):
            for draw in range(2):
                k = 2 if f.order <= 4 else 1
                n = rng.randrange(k + 1, k + 3)
                m = rng.randrange(1, 3)
                coeffs = _random_encoder(rng, f, n, k, m, systematic)
                kind = "sys" if systematic else "gen"
                # j = 3 runs past every memory m, where no coefficient is new
                for j in range(4):
                    yield pytest.param(f, coeffs, k, n, j, systematic,
                                       id=f"F{f.order}-{kind}{draw}-j{j}")


def _matches_reference(kernel, f, coeffs, k, n, j, systematic):
    want = ref_column_distances(coeffs, k, n, j, f, 10**7, systematic)
    got = kernel.conv_column_distance(coeffs, k, n, j, *_args(f), 10**7, systematic)
    assert got == want


@pytest.mark.parametrize("f, coeffs, k, n, j, systematic", list(_conv_cases()))
def test_conv_column_distance_matches_reference(f, coeffs, k, n, j, systematic):
    _matches_reference(_core_py, f, coeffs, k, n, j, systematic)


@pytest.mark.parametrize("f, coeffs, k, n, j, systematic", list(_conv_cases()))
def test_compiled_conv_column_distance_matches_reference(core_c, f, coeffs, k, n, j,
                                                         systematic):
    _matches_reference(core_c, f, coeffs, k, n, j, systematic)


def _two_row_encoders(kernel):
    # k = 2 over F_8 and F_9: the high digit indexes a second row table
    rng = random.Random(41)
    for f in (field(2, 3), field(3, 2)):
        for systematic in (True, False):
            coeffs = _random_encoder(rng, f, 3, 2, 1, systematic)
            for j in range(2):
                _matches_reference(kernel, f, coeffs, 2, 3, j, systematic)


def test_conv_column_distance_two_row_encoders():
    _two_row_encoders(_core_py)


def test_compiled_conv_column_distance_two_row_encoders(core_c):
    _two_row_encoders(core_c)


def test_a_search_tables_only_the_coefficients_it_reads():
    # depth j reads G_0 .. G_min(j, m): a memory-2 encoder searched at
    # j = 0, 1, 2, 3 tables 1, 2, 3 and 3 of its coefficient matrices
    rng = random.Random(45)
    f = field(2, 3)
    coeffs = _random_encoder(rng, f, 3, 1, 2, systematic=True)
    for j, tabled in enumerate((1, 2, 3, 3)):
        with mock.patch.object(_core_py, "_row_tables", wraps=_core_py._row_tables) as rt:
            got = _core_py.conv_column_distance(coeffs, 1, 3, j, *_args(f), 10**7, True)
        assert [c.args[0] for c in rt.call_args_list] == coeffs[:tabled]
        assert got == ref_column_distances(coeffs, 1, 3, j, f, 10**7, True)


def _refusal_at_the_count(kernel):
    rng = random.Random(44)
    for f in (field(2, 3), field(3, 2)):
        coeffs = _random_encoder(rng, f, 3, 1, 2, systematic=False)
        dists, count = kernel.conv_column_distance(coeffs, 1, 3, 2, *_args(f),
                                                   10**7, False)
        assert (dists, count) == ref_column_distances(coeffs, 1, 3, 2, f, 10**7, False)
        assert kernel.conv_column_distance(coeffs, 1, 3, 2, *_args(f), count,
                                           False) == (dists, count)
        # a batch of children may pass the budget by more than one node;
        # the refusal still names budget + 1, as one-by-one counting did
        for budget in (count - 1, count // 2, 1):
            with pytest.raises(BudgetExceeded) as exc:
                kernel.conv_column_distance(coeffs, 1, 3, 2, *_args(f), budget, False)
            assert exc.value.args == BudgetExceeded(budget + 1, budget).args
            assert (exc.value.enumerated, exc.value.budget) == (budget + 1, budget)


def test_conv_budget_refusal_at_the_count():
    _refusal_at_the_count(_core_py)


def test_compiled_conv_budget_refusal_at_the_count(core_c):
    _refusal_at_the_count(core_c)


# F_2^16 with k = 4: order^k = 2^64 messages, past any 64-bit count
F_BIG = field(2, 16)
WIDE_ROWS = [[1, 2, 3, 4, 5], [6, 7, 8, 9, 1], [2, 3, 4, 5, 6], [7, 8, 9, 1, 2]]


@pytest.mark.parametrize("name", ["python", "c"])
def test_search_kernels_refuse_message_spaces_past_2_63(request, name):
    kernel = _core_py if name == "python" else request.getfixturevalue("core_c")
    with pytest.raises(BudgetExceeded) as exc:
        kernel.block_min_sum_rank(WIDE_ROWS, [2, 3], *_args(F_BIG), 1000)
    assert (exc.value.enumerated, exc.value.budget) == (2**64 - 1, 1000)
    assert exc.value.args == BudgetExceeded(2**64 - 1, 1000).args
    with pytest.raises(BudgetExceeded) as exc:
        kernel.conv_column_distance([WIDE_ROWS, WIDE_ROWS], 4, 5, 1, *_args(F_BIG),
                                    1000, False)
    assert exc.value.args == BudgetExceeded(1001, 1000).args


@pytest.mark.parametrize("name", ["python", "c"])
def test_column_distance_kernels_refuse_a_negative_level(request, name):
    kernel = _core_py if name == "python" else request.getfixturevalue("core_c")
    f = field(2, 3)
    coeffs = _random_encoder(random.Random(46), f, 3, 1, 1, systematic=True)
    with pytest.raises(ValueError):
        kernel.conv_column_distance(coeffs, 1, 3, -1, *_args(f), 10**7, True)


@pytest.mark.parametrize("name", ["python", "c"])
def test_block_kernels_refuse_a_generator_without_rows(request, name):
    kernel = _core_py if name == "python" else request.getfixturevalue("core_c")
    with pytest.raises(ValueError):
        kernel.block_min_sum_rank([], [3], *_args(field(2, 3)), 10**6)


@pytest.mark.parametrize("name", ["python", "c"])
def test_expand_rank_of_the_zero_space_is_0(request, name):
    # M = 0 expands every code to an empty column: the one code is 0, and
    # the rank of any number of them is 0, the empty minor's Plucker case
    kernel = _core_py if name == "python" else request.getfixturevalue("core_c")
    for q in (2, 3):
        assert kernel.expand_rank([], q, 0) == 0
        assert kernel.expand_rank([0, 0], q, 0) == 0


@pytest.mark.parametrize("name", ["python", "c"])
@pytest.mark.parametrize("codes, q, M", [([8], 2, 3), ([1], 2, 0), ([9], 3, 2),
                                         ([-1], 2, 3), ([-3, 5], 2, 3), ([3, -3], 2, 3)])
def test_expand_rank_refuses_a_code_outside_the_field(request, name, codes, q, M):
    # a code one past the last of F_q^M, or a negative one: both kernels
    # refuse it (-3 ^ 3 = -2 and -2 ^ 3 = -3, so [3, -3] must not loop)
    kernel = _core_py if name == "python" else request.getfixturevalue("core_c")
    with pytest.raises(ValueError):
        kernel.expand_rank(codes, q, M)
