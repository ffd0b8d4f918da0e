"""Convolutional layer: sliding matrices against the convolution identity,
the transformed-parity checker against its rank-profile oracle and the
brute-force column distances, systematization, and the Frobenius-power
construction."""

import random
from itertools import product
from math import gcd
from unittest import mock

import pytest

from sumrank.block_codes import transformed_parity
from sumrank.cli import TABLE1_ROWS
from sumrank.conv_codes import (
    EncoderError,
    PolyEncoder,
    check_mMSR,
    check_mMSR_oracle,
    compute_L,
    construct_frobenius,
    find_frobenius_alpha,
    frobenius_class_exponents,
    is_rank_profile,
    iter_rank_profiles,
    laurent_systematize,
    load_encoder,
    recheck_mMSR_witness,
    recheck_oracle_witness,
    sliding_generator,
    sliding_parity,
    systematize,
    transform_counts,
)
from sumrank.field import base_field, field
from sumrank.matrix import Matrix, block_diag
from sumrank.metrics import (
    column_distance_bound,
    column_distances,
    column_sum_rank_distance,
)
from sumrank.report import INFEASIBLE

F2 = base_field(2)
F4 = field(2, 2)
F8 = field(2, 3)


def _parity_encoder(p_values, f):
    """Systematic n=2, k=1 encoder from scalar parity coefficients."""
    return PolyEncoder.from_parity([Matrix.from_rows([[v]], f) for v in p_values])


def test_encoder_validation():
    with pytest.raises(EncoderError):
        PolyEncoder(2, 1, [])
    with pytest.raises(EncoderError):
        PolyEncoder(2, 1, [Matrix(2, 2, F4)])  # wrong shape
    with pytest.raises(EncoderError):
        _parity_encoder([1, 0], F4)  # zero top coefficient


def test_systematic_detection_and_parity_round_trip():
    enc = _parity_encoder([2, 3], F4)
    assert enc.systematic
    assert enc.m == 1
    assert [p[0, 0] for p in enc.parity_coeffs()] == [2, 3]
    g0 = Matrix.from_rows([[1, 1]], F4)
    g1 = Matrix.from_rows([[1, 1]], F4)
    assert not PolyEncoder(2, 1, [g0, g1]).systematic


def test_encoder_json_round_trip():
    enc = construct_frobenius(3, 2, 1, field(2, 4))
    again = load_encoder(enc.to_json())
    assert again.coeffs == enc.coeffs
    assert (again.n, again.k, again.m) == (enc.n, enc.k, enc.m)


def test_sliding_matrices_shapes():
    enc = construct_frobenius(3, 2, 1, field(2, 4))
    g2 = sliding_generator(enc, 2)
    assert (g2.rows, g2.cols) == (6, 9)
    p2 = sliding_parity(enc, 2)
    assert (p2.rows, p2.cols) == (6, 3)
    with pytest.raises(EncoderError):
        sliding_generator(enc, -1)


def test_negative_memory_and_level_are_refused():
    with pytest.raises(EncoderError):
        construct_frobenius(3, 1, -1, F8)
    enc = construct_frobenius(3, 2, 1, field(2, 4))
    for sliding in (sliding_generator, sliding_parity):
        with pytest.raises(EncoderError):
            sliding(enc, -1)


def test_sliding_generator_is_truncated_convolution():
    enc = construct_frobenius(3, 2, 2, F8)
    f = enc.field
    rng = random.Random(40)
    j = 3
    gj = sliding_generator(enc, j)
    for _ in range(10):
        msgs = [[rng.randrange(8) for _ in range(enc.k)] for _ in range(j + 1)]
        flat = [v for msg in msgs for v in msg]
        # row-vector times sliding matrix
        out = [0] * gj.cols
        for c in range(gj.cols):
            acc = 0
            for r in range(gj.rows):
                acc = f.add(acc, f.mul(flat[r], gj[r, c]))
            out[c] = acc
        # direct convolution c_t = sum_d u_{t-d} G_d
        for t in range(j + 1):
            expect = [0] * enc.n
            for d in range(min(t, enc.m) + 1):
                g = enc.coeffs[d]
                for c in range(enc.n):
                    term = 0
                    for r in range(enc.k):
                        term = f.add(term, f.mul(msgs[t - d][r], g[r, c]))
                    expect[c] = f.add(expect[c], term)
            assert out[t * enc.n : (t + 1) * enc.n] == expect


def test_build_Tj_identity_tuple_example():
    # T_j, the matrix a level-j recheck rebuilds from its witness
    enc = construct_frobenius(2, 1, 1, F4)
    assert sliding_parity(enc, 1).to_rows() == [[2, 3], [0, 2]]
    eye = Matrix.identity(1, F2)
    c = Matrix.from_rows([[1, 0], [0, 0]], F2)
    t = transformed_parity(sliding_parity(enc, 1), block_diag([eye, eye]),
                           block_diag([eye, eye]), c)
    assert t.to_rows() == [[3, 3], [0, 2]]


def test_build_Tj_block_product_oracle():
    enc = construct_frobenius(3, 1, 2, field(2, 9))
    rng = random.Random(41)
    j = 2
    k, nk = enc.k, enc.n - enc.k
    b_list = [Matrix.identity(k, F2) for _ in range(j + 1)]
    a_list = [Matrix.identity(nk, F2) for _ in range(j + 1)]
    c_list = [Matrix(k, nk, F2) for _ in range(j + 1)]
    for lvl in range(j + 1):
        # random upper-triangular nonsingular over F_2 and random C
        for r in range(nk):
            for c in range(r + 1, nk):
                a_list[lvl][r, c] = rng.randrange(2)
        for r in range(k):
            for c in range(nk):
                c_list[lvl][r, c] = rng.randrange(2)
    t = transformed_parity(sliding_parity(enc, j), block_diag(b_list), block_diag(a_list),
                           block_diag(c_list))
    parities = enc.parity_coeffs()
    f = enc.field
    for s in range(j + 1):
        for tt in range(j + 1):
            block = t.submatrix(
                range(s * k, (s + 1) * k), range(tt * nk, (tt + 1) * nk)
            )
            if tt < s or tt - s > enc.m:
                expect = Matrix(k, nk, f)
            else:
                expect = (b_list[s] @ parities[tt - s] @ a_list[tt]).lift(f)
            if s == tt:
                expect = expect.add(c_list[s])
            assert block == expect.lift(f)


def test_check_mMSR_positive_example():
    enc = construct_frobenius(2, 1, 1, F4)
    rep = check_mMSR(enc)
    assert rep.verdict is True
    # level 1 alone certifies levels 0 and 1
    assert [lv["level"] for lv in rep.detail["levels"]] == [1]
    # certified distances match the brute force
    dists, bounds = column_distances(enc, 1)
    assert dists == bounds


def test_check_mMSR_negative_with_witness():
    enc = _parity_encoder([1, 1], F2)  # base field too small
    rep = check_mMSR(enc)
    assert rep.verdict is False
    assert recheck_mMSR_witness(enc, rep.witness)
    assert column_sum_rank_distance(enc, rep.witness["level"])[-1] < (
        column_distance_bound(rep.witness["level"], 2, 1)
    )


def test_recheck_mMSR_witness_rejects_tuples_outside_the_family():
    enc = construct_frobenius(3, 1, 2, field(2, 9))
    # the identity tuple of levels 0 and 1 (k = 1, n - k = 2)
    ident = {"B": [[[1]], [[1]]], "A": [[[1, 0], [0, 1]], [[1, 0], [0, 1]]],
             "C": [[[0, 0]], [[0, 0]]]}
    # B_0 = 0 zeroes the whole first row block of T_0
    forged = {"level": 0, "transform": {"B": [[[0]]], "A": ident["A"][:1],
                                        "C": ident["C"][:1]},
              "rows": [0], "cols": [0]}
    assert recheck_mMSR_witness(enc, forged) is False
    # a level-1 witness needs two entries per list
    assert recheck_mMSR_witness(enc, dict(forged, level=1)) is False
    # entry (1, 0) sits in block (1, 0), below the grid's diagonal blocks
    below = {"level": 1, "transform": ident, "rows": [1], "cols": [0]}
    assert recheck_mMSR_witness(enc, below) is False
    # past the memory (m = 1 on the m-MSR [2,1,1]/F_4 code) block (0, 2)
    # of P_2^c is zero, so its 1 x 1 minor vanishes for any encoder
    good = construct_frobenius(2, 1, 1, F4)
    beyond = {"level": 2, "transform": {"B": [[[1]]] * 3, "A": [[[1]]] * 3,
                                        "C": [[[0]]] * 3}, "rows": [0], "cols": [2]}
    assert recheck_mMSR_witness(good, beyond) is False
    # the genuine witness of a negative still rechecks
    bad = _parity_encoder([1, 1], F2)
    rep = check_mMSR(bad)
    assert recheck_mMSR_witness(bad, rep.witness) is True


def test_recheck_oracle_witness_rejects_forged_profiles():
    good = construct_frobenius(2, 1, 1, F4)
    assert check_mMSR_oracle(good, 1).verdict is True
    # a zero column, a rank-1 block of a rank-2 profile, a profile the
    # oracle never enumerates, a block of the wrong shape and an entry
    # outside F_2 all make det(G_1^c A*) vanish or undefined on an m-MSR code
    forged = [
        {"profile": [1, 1], "blocks": [[[0], [0]], [[1], [0]]]},
        {"profile": [0, 2], "blocks": [[[], []], [[1, 1], [0, 0]]]},
        {"profile": [2, 0], "blocks": [[[1, 0], [0, 1]], [[], []]]},
        {"profile": [1, 1], "blocks": [[[1]], [[1], [0]]]},
        {"profile": [1, 1], "blocks": [[[2], [0]], [[1], [0]]]},
    ]
    for witness in forged:
        assert recheck_oracle_witness(good, witness) is False, witness
    # a genuine witness of a negative still rechecks
    f128 = field(2, 7)
    bad = construct_frobenius(3, 1, 2, f128, f128.alpha_pow(11))
    rep = check_mMSR_oracle(bad, 2)
    assert rep.verdict is False
    assert recheck_oracle_witness(bad, rep.witness) is True


def test_is_rank_profile_matches_the_enumeration():
    for n in range(2, 5):
        for k in range(1, n):
            for j in range(4):
                admissible = set(iter_rank_profiles(n, k, j))
                for prof in product(range(n + 2), repeat=j + 1):
                    assert is_rank_profile(prof, n, k) == (prof in admissible), prof
                # membership reads 1.0 and True as 1; the definition wants ints
                for first, *rest in admissible:
                    bads = [float(first), str(first), None] + [bool(first)] * (first < 2)
                    for bad in bads:
                        assert not is_rank_profile([bad, *rest], n, k), (bad, rest)


def test_recheck_oracle_witness_enumerates_no_profiles():
    good = construct_frobenius(2, 1, 1, F4)
    f128 = field(2, 7)
    bad = construct_frobenius(3, 1, 2, f128, f128.alpha_pow(11))
    witness = check_mMSR_oracle(bad, 2).witness
    forged = {"profile": [1, 1], "blocks": [[[0], [0]], [[1], [0]]]}
    with mock.patch("sumrank.conv_codes.iter_rank_profiles",
                    side_effect=AssertionError("enumerated the profiles")):
        assert recheck_oracle_witness(bad, witness) is True
        assert recheck_oracle_witness(good, forged) is False
        # the enumeration grows about 8x per two blocks: 41 would never end
        enc = construct_frobenius(3, 1, 2, F8)
        eye = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        wide = {"profile": [3] + [0] * 40, "blocks": [eye] + [[[], [], []]] * 40}
        assert recheck_oracle_witness(enc, wide) is False


def test_check_mMSR_rejects_nonsystematic_and_bad_level():
    g0 = Matrix.from_rows([[2, 1]], F4)
    g1 = Matrix.from_rows([[1, 1]], F4)
    with pytest.raises(EncoderError):
        check_mMSR(PolyEncoder(2, 1, [g0, g1]))
    with pytest.raises(EncoderError):
        check_mMSR(construct_frobenius(2, 1, 1, F4), j=2)


def _accepts(f, alpha):
    try:
        construct_frobenius(3, 1, 1, f, alpha)
    except EncoderError as e:
        assert str(e) == "alpha is not a primitive element"
        return False
    return True


def test_construct_frobenius_takes_only_a_primitive_alpha():
    # alpha^e generates the multiplicative group exactly when e is coprime
    # to its order: over F_16, 0 and alpha^e for e = 0, 3, 5, 6, 9, 10, 12
    # are refused, and over F_9 the even powers
    for f in (field(2, 4), field(3, 2)):
        n = f.order - 1
        assert not _accepts(f, 0)
        assert [e for e in range(n) if _accepts(f, f.alpha_pow(e))] == [
            e for e in range(n) if gcd(e, n) == 1]
    assert not _accepts(field(2, 4), field(2, 4).alpha_pow(3))
    assert [e for e in range(8) if _accepts(field(3, 2), field(3, 2).alpha_pow(e))] == [
        1, 3, 5, 7]


def test_transform_counts_example():
    enc = construct_frobenius(2, 1, 1, F4)
    assert transform_counts(enc, 1) == (1, 1, 4)
    enc32 = construct_frobenius(3, 2, 1, field(2, 4))
    assert transform_counts(enc32, 0) == (2, 1, 4)


def test_rank_profiles():
    assert list(iter_rank_profiles(2, 1, 0)) == [(1,)]
    assert list(iter_rank_profiles(2, 1, 1)) == [(0, 2), (1, 1)]
    for prof in iter_rank_profiles(3, 2, 2):
        total = 0
        for i, rho in enumerate(prof):
            total += rho
            assert total <= 2 * (i + 1)
        assert total == 6


def test_oracle_agrees_with_checker_and_distance():
    # every memory-1 systematic n=2, k=1 encoder over F_4 with nonzero top
    # parity: the rank-profile oracle must match brute-force maximality at
    # each level, and the transform checker must match their conjunction
    for p0, p1 in product(range(4), range(1, 4)):
        enc = _parity_encoder([p0, p1], F4)
        level_ok = []
        dists, bounds = column_distances(enc, 1)
        for j in range(2):
            orep = check_mMSR_oracle(enc, j)
            maximal = dists[j] == bounds[j]
            assert orep.verdict == maximal, (p0, p1, j)
            if orep.verdict is False:
                assert recheck_oracle_witness(enc, orep.witness)
            level_ok.append(maximal)
        assert check_mMSR(enc).verdict == all(level_ok), (p0, p1)


def test_budgets_report_infeasible():
    enc = construct_frobenius(2, 1, 1, F4)
    assert check_mMSR(enc, budget=1).verdict == INFEASIBLE
    assert check_mMSR_oracle(enc, 1, budget=1).verdict == INFEASIBLE


def test_laurent_systematize_examples():
    s1 = Matrix.from_rows([[2]], F4)
    q0 = Matrix.from_rows([[3]], F4)
    out = laurent_systematize([Matrix.identity(1, F4), s1], [q0], 2)
    # P_0 = Q_0, P_1 = -S_1 Q_0, P_2 = S_1^2 Q_0 (characteristic 2)
    assert out[0] == q0
    assert out[1] == s1 @ q0
    assert out[2] == s1 @ s1 @ q0
    with pytest.raises(EncoderError):
        laurent_systematize([s1], [q0], 1)  # S_0 != I


def test_laurent_multiplies_back():
    rng = random.Random(42)
    f = F8
    k, nk, depth = 2, 1, 3
    s_coeffs = [Matrix.identity(k, f)] + [
        Matrix(k, k, f, [rng.randrange(8) for _ in range(k * k)]) for _ in range(2)
    ]
    q_coeffs = [
        Matrix(k, nk, f, [rng.randrange(8) for _ in range(k * nk)])
        for _ in range(2)
    ]
    parity = laurent_systematize(s_coeffs, q_coeffs, depth)
    # S(D) P(D) must equal Q(D) modulo D^(depth+1)
    for i in range(depth + 1):
        acc = Matrix(k, nk, f)
        for h, s in enumerate(s_coeffs):
            if 0 <= i - h <= depth:
                acc = acc.add(s @ parity[i - h])
        expect = q_coeffs[i] if i < len(q_coeffs) else Matrix(k, nk, f)
        assert acc == expect


def test_systematize():
    # scale a systematic encoder by a nonsingular S(D) with S_0 invertible
    enc = construct_frobenius(2, 1, 1, F8)
    f = enc.field
    g0 = Matrix.from_rows([[2, f.mul(2, enc.coeffs[0][0, 1])]], f)
    g1 = Matrix.from_rows([[0, f.mul(2, enc.coeffs[1][0, 1])]], f)
    scaled = PolyEncoder(2, 1, [g0, g1])
    back = systematize(scaled)
    assert back.systematic
    assert back.coeffs == enc.coeffs
    # already-systematic input is a fixed point
    assert systematize(enc).coeffs == enc.coeffs
    singular = PolyEncoder(2, 1, [Matrix.from_rows([[0, 1]], f),
                                  Matrix.from_rows([[1, 1]], f)])
    with pytest.raises(EncoderError):
        systematize(singular)


def test_construct_frobenius_entries():
    f16 = field(2, 4)
    enc = construct_frobenius(3, 2, 1, f16)
    parities = enc.parity_coeffs()
    # R = max(k, n-k) = 2; entry (r, c) of P_i is alpha^(q^(2i + r + c))
    for i in range(2):
        for r in range(2):
            assert parities[i][r, 0] == f16.frobenius(f16.alpha, 2 * i + r)
    with pytest.raises(EncoderError):
        construct_frobenius(2, 2, 1, F4)
    with pytest.raises(EncoderError):
        construct_frobenius(2, 1, 1, F4, alpha=1)  # not primitive


def test_find_frobenius_alpha():
    # the canonical generator's conjugacy class fails for [3, 2, 1] over
    # F_16; the first working exponent is 7
    f16 = field(2, 4)
    assert find_frobenius_alpha(3, 2, 1, f16) == 7
    enc = construct_frobenius(3, 2, 1, f16, f16.alpha_pow(7))
    dists, bounds = column_distances(enc, 1)
    assert dists == bounds
    assert find_frobenius_alpha(2, 1, 1, F4) == 1


def test_find_frobenius_alpha_tries_one_exponent_per_class():
    # phi(2^M - 1) / M classes: 1,936 coprime exponents make 176 classes
    # over F_2^11 and 630 over F_2^13, where 8191 is prime
    assert sum(1 for _ in frobenius_class_exponents(field(2, 11))) == 176
    assert sum(1 for _ in frobenius_class_exponents(field(2, 13))) == 630
    f16 = field(2, 4)
    assert list(frobenius_class_exponents(f16)) == [1, 7]
    # [3,2,1] over F_16 screens e = 1 and e = 7, one exact check each
    with mock.patch("sumrank.conv_codes.check_mMSR", wraps=check_mMSR) as screen:
        assert find_frobenius_alpha(3, 2, 1, f16) == 7
    assert [c.args[0] for c in screen.call_args_list] == [
        construct_frobenius(3, 2, 1, f16, f16.alpha_pow(e)) for e in (1, 7)]


# table1 rows that also read True over a smaller field than their
# published degree: (n, k, m, M, e)
_SMALLER_FIELD_ROWS = [(2, 1, 2, 2, 1), (3, 2, 1, 3, 1), (3, 1, 1, 4, 7),
                       (3, 2, 2, 6, 5), (3, 1, 2, 6, 5)]


@pytest.mark.parametrize("n, k, m, deg, e", _SMALLER_FIELD_ROWS)
def test_table_rows_hold_over_smaller_fields(n, k, m, deg, e):
    assert deg < {row[:3]: row[3] for row in TABLE1_ROWS}[n, k, m]
    f = field(2, deg)
    enc = construct_frobenius(n, k, m, f, f.alpha_pow(e))
    assert check_mMSR(enc).verdict is True
    assert check_mMSR_oracle(enc, m).verdict is True


def test_compute_L_examples():
    assert compute_L(1, 2, 1) == 2
    assert compute_L(0, 3, 1) == 0
    assert compute_L(3, 3, 2) == 4
    with pytest.raises(ValueError):
        compute_L(1, 2, 2)
    with pytest.raises(ValueError):
        compute_L(-1, 2, 1)
