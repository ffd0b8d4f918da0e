"""Differential test of the rank-profile oracle.

``reference_oracle`` below is ``check_mMSR_oracle`` as it was before it
contracted minors by Cauchy-Binet: it forms G_j^c A* for every
block-diagonal A* in product order and takes its determinant.  The
oracle must give the same verdict, ``checked_count``, witness and detail
on Frobenius and random systematic encoders over q = 2 and q = 3, at
every level j <= m, and each ``False`` witness must pass
``recheck_oracle_witness``, which still evaluates det(G_j^c A*).
"""

import random
import time
from itertools import product
from math import prod

import pytest

from itertools import combinations

from sumrank import _core_py, conv_codes
from sumrank.conv_codes import (
    PolyEncoder,
    _plucker,
    check_mMSR_oracle,
    construct_frobenius,
    iter_rank_profiles,
    recheck_oracle_witness,
    sliding_generator,
)
from sumrank.field import base_field, field
from sumrank.matrix import (
    Matrix,
    block_diag,
    det,
    enum_full_rank_column_spaces,
    gaussian_binomial,
)
from sumrank.report import INFEASIBLE, VerificationReport
from sumrank.superregular import DEFAULT_SELECTION_BUDGET


def reference_oracle(enc, j, budget=DEFAULT_SELECTION_BUDGET):
    q = enc.field.q
    n, k = enc.n, enc.k
    profiles = list(iter_rank_profiles(n, k, j))
    total = sum(
        prod(gaussian_binomial(n, rho, q) for rho in prof) for prof in profiles
    )
    if total > budget:
        return VerificationReport(
            INFEASIBLE,
            detail={"profile_count": len(profiles), "a_star_count": total,
                    "budget": budget},
        )
    gjc = sliding_generator(enc, j)
    checked = 0
    for prof in profiles:
        reps = [list(enum_full_rank_column_spaces(n, rho, q)) for rho in prof]
        for blocks in product(*reps):
            checked += 1
            if det(gjc @ block_diag(blocks)) == 0:
                return VerificationReport(
                    False,
                    witness={"profile": list(prof),
                             "blocks": [b.to_rows() for b in blocks]},
                    checked_count=checked,
                )
    return VerificationReport(
        True,
        checked_count=checked,
        detail={"profile_count": len(profiles), "a_star_count": total},
    )


# (q, M, (n, k, m), {exponent: verdict at j = m}) of the Frobenius
# encoders over F_q^M; two random systematic encoders over the same field
# ride along with each line
CASES = [
    (2, 1, (2, 1, 1), {1: False}),
    (2, 2, (2, 1, 1), {1: True}),
    (2, 3, (3, 1, 1), {1: True, 3: False}),
    (2, 3, (3, 2, 1), {1: True, 3: False}),
    (2, 6, (3, 1, 2), {5: True, 1: False}),
    (2, 6, (4, 2, 1), {23: True, 1: False}),
    (3, 1, (2, 1, 1), {1: False}),
    (3, 2, (2, 1, 1), {1: True}),
    (3, 3, (3, 1, 1), {5: True, 1: False}),
    (3, 3, (3, 2, 1), {5: True, 1: False}),
    (3, 5, (3, 1, 2), {7: True, 1: False}),
    (3, 3, (4, 2, 1), {1: False}),
]
RANDOM_DRAWS = 2


def _random_encoder(n, k, m, f, rng):
    """Systematic encoder whose parity entries are drawn from F^*, so that
    its top coefficient is nonzero."""
    return PolyEncoder.from_parity(
        [Matrix(k, n - k, f, [rng.randrange(1, f.order) for _ in range(k * (n - k))])
         for _ in range(m + 1)])


def _outcome(rep):
    return rep.verdict, rep.checked_count, rep.witness, rep.detail


@pytest.mark.parametrize("q, M, shape, verdicts", CASES,
                         ids=[f"{list(c[2])}-F{c[0]}^{c[1]}" for c in CASES])
def test_oracle_matches_the_product_loop(q, M, shape, verdicts):
    f = field(q, M)
    n, k, m = shape
    encoders = [construct_frobenius(n, k, m, f, f.alpha_pow(e)) for e in verdicts]
    rng = random.Random(f"{shape}/F_{q}^{M}")
    encoders += [_random_encoder(n, k, m, f, rng) for _ in range(RANDOM_DRAWS)]
    for i, enc in enumerate(encoders):
        for j in range(m + 1):
            rep = check_mMSR_oracle(enc, j)
            assert _outcome(rep) == _outcome(reference_oracle(enc, j)), (i, j)
            if rep.verdict is False:
                assert recheck_oracle_witness(enc, rep.witness), (i, j)
    assert [check_mMSR_oracle(enc, m).verdict for enc in encoders[:len(verdicts)]] == list(
        verdicts.values())


def test_an_oracle_over_budget_reports_like_the_product_loop():
    f = field(3, 3)
    enc = construct_frobenius(3, 1, 1, f, f.alpha_pow(5))
    rep, ref = check_mMSR_oracle(enc, 1, budget=181), reference_oracle(enc, 1, budget=181)
    assert rep.verdict == INFEASIBLE and _outcome(rep) == _outcome(ref)
    assert rep.detail == {"profile_count": 2, "a_star_count": 182, "budget": 181}
    assert check_mMSR_oracle(enc, 1, budget=182).checked_count == 182


def test_the_table_pins_read_true_after_every_a_star():
    # [4,2,2]/F_2^11 at alpha^19 (j = 2) and [5,3,1]/F_2^11 at alpha^67
    # (j = 1) read True after every A*; the product loop took 5.5 s and
    # 2.5 s of CPU on them, the contraction about 0.06 s each
    f = field(2, 11)
    for (n, k, m), e, count in (((4, 2, 2), 19, 67055), ((5, 3, 1), 67, 28861)):
        enc = construct_frobenius(n, k, m, f, f.alpha_pow(e))
        t0 = time.process_time()
        rep = check_mMSR_oracle(enc, m)
        assert time.process_time() - t0 < 2.0
        assert (rep.verdict, rep.checked_count) == (True, count)
        assert rep.detail["a_star_count"] == count


@pytest.mark.parametrize("kernel", ["python", "c"])
@pytest.mark.parametrize("q, n", [(2, 6), (3, 4)])
def test_plucker_coordinates_equal_det(request, monkeypatch, kernel, q, n):
    """Over F_2 the coordinates come from packed XOR elimination on either
    kernel's expand_rank, over odd q from det: both must list
    det(block[J, :]) for every row set J with a nonzero one, on every
    representative and on random blocks, singular ones included."""
    mod = _core_py if kernel == "python" else request.getfixturevalue("core_c")
    monkeypatch.setattr(conv_codes, "expand_rank", mod.expand_rank)
    rng = random.Random(q * 100 + n)
    f = base_field(q)
    for rho in range(n + 1):
        row_sets = list(combinations(range(n), rho))
        blocks = list(enum_full_rank_column_spaces(n, rho, q))
        blocks += [Matrix(n, rho, f, [rng.randrange(q) for _ in range(n * rho)])
                   for _ in range(20)]
        for b in blocks:
            want = [(t, d) for t, d in ((t, det(b.submatrix(rs, range(rho))))
                                        for t, rs in enumerate(row_sets)) if d]
            assert _plucker(b, row_sets) == want
