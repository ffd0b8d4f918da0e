"""Differential tests of the packed-vector column-distance kernel in
``_core_py``.

The reference kernel below is the column-distance search as it was
before it moved to packed vectors: it decodes every child message and
multiplies it out code by code with ``_vec_matmul``.  The packed kernel
must return the same (distance, enumerated) pair on systematic and
general encoders over fields of both characteristics, and refuse a
budget below the count with the same exception arguments.
"""

import random

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

FIELDS = [field(2, 2), field(2, 3), field(2, 4), field(3, 2), field(3, 3)]


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
                for j in range(3):
                    yield pytest.param(f, coeffs, k, n, j, systematic,
                                       id=f"F{f.order}-{kind}{draw}-j{j}")


@pytest.mark.parametrize("f, coeffs, k, n, j, systematic", list(_conv_cases()))
def test_conv_column_distance_matches_reference(f, coeffs, k, n, j, systematic):
    want = ref_conv_column_distance(coeffs, k, n, j, *_args(f), 10**7, systematic)
    got = _core_py.conv_column_distance(coeffs, k, n, j, *_args(f), 10**7, systematic)
    assert got == want


def test_conv_column_distance_two_row_encoders():
    # k = 2 over F_8 and F_9: the high digit indexes a second row table
    rng = random.Random(41)
    for f in (field(2, 3), field(3, 2)):
        for systematic in (True, False):
            coeffs = _random_encoder(rng, f, 3, 2, 1, systematic)
            for j in range(2):
                want = ref_conv_column_distance(coeffs, 2, 3, j, *_args(f), 10**7,
                                                systematic)
                got = _core_py.conv_column_distance(coeffs, 2, 3, j, *_args(f), 10**7,
                                                    systematic)
                assert got == want


def test_conv_budget_refusal_at_the_count():
    rng = random.Random(44)
    for f in (field(2, 3), field(3, 2)):
        coeffs = _random_encoder(rng, f, 3, 1, 2, systematic=False)
        dist, count = _core_py.conv_column_distance(coeffs, 1, 3, 2, *_args(f),
                                                    10**7, False)
        assert _core_py.conv_column_distance(coeffs, 1, 3, 2, *_args(f), count,
                                             False) == (dist, count)
        # a batch of children may pass the budget by more than one node;
        # the refusal still names budget + 1, as one-by-one counting did
        for budget in (count - 1, count // 2, 1):
            with pytest.raises(BudgetExceeded) as exc:
                _core_py.conv_column_distance(coeffs, 1, 3, 2, *_args(f), budget,
                                              False)
            assert exc.value.args == BudgetExceeded(budget + 1, budget).args
            assert (exc.value.enumerated, exc.value.budget) == (budget + 1, budget)
