"""Block-code ladder: systematic assembly, MDS/MRD/MSRD checkers against
each other and against the brute-force distance oracle, witness
rechecking, and the base-field filter."""

import random
import tracemalloc
from itertools import product
from unittest import mock

import pytest

from sumrank import superregular
from sumrank.block_codes import (
    SystematicBlockCode,
    assemble_generator,
    check_mds,
    check_mrd_systematic,
    check_mrd_transforms,
    check_msrd_systematic,
    check_msrd_transforms,
    construct_gabidulin,
    recheck_transform_witness,
    recheck_witness,
    systematic_form,
)
from sumrank.field import field
from sumrank.matrix import Matrix, det
from sumrank.metrics import LengthPartition, min_sum_rank_distance
from sumrank.report import INFEASIBLE

F4 = field(2, 2)
F8 = field(2, 3)


def _code(parts, dims, parity_rows, f):
    return SystematicBlockCode(
        LengthPartition(parts), dims, Matrix.from_rows(parity_rows, f)
    )


def test_code_validation():
    with pytest.raises(ValueError):
        _code((2, 2), (1,), [[1], [1]], F4)  # block count mismatch
    with pytest.raises(ValueError):
        _code((2, 2), (1, 3), [[1], [1]], F4)  # k_i > n_i
    with pytest.raises(ValueError):
        _code((2, 2), (1, 1), [[1, 1, 1], [1, 1, 1]], F4)  # parity shape


def test_json_round_trip():
    code = _code((2, 2), (1, 1), [[2, 3], [1, 2]], F4)
    again = SystematicBlockCode.from_json(code.to_json())
    assert again.length_partition == code.length_partition
    assert again.dim_partition == code.dim_partition
    assert again.parity == code.parity


def test_parity_blocks_and_generator_layout():
    code = _code((2, 2), (1, 1), [[2, 3], [1, 2]], F4)
    widths = [b.cols for b in code.parity_blocks()]
    assert widths == [1, 1]
    g = assemble_generator(code)
    # [J_1 P_1 J_2 P_2] with identity columns interleaved per block
    assert g.to_rows() == [[1, 2, 0, 3], [0, 1, 1, 2]]


def test_degenerate_dimension_blocks():
    # k_i = n_i (no parity columns) and k_i = 0 (all parity) both assemble
    code = _code((2, 2), (2, 0), [[1, 2], [2, 3]], F4)
    assert [b.cols for b in code.parity_blocks()] == [0, 2]
    g = assemble_generator(code)
    assert g.to_rows() == [[1, 0, 1, 2], [0, 1, 2, 3]]


def test_systematic_form_recovers_parity():
    code = _code((4,), (2,), [[2, 3], [1, 2]], F4)
    g = assemble_generator(code)
    assert systematic_form(g) == code.parity


def test_systematic_form_unique_under_row_operations():
    rng = random.Random(30)
    g = construct_gabidulin(3, 2, F8)
    p = systematic_form(g)
    for _ in range(20):
        s = Matrix(2, 2, F8, [rng.randrange(8) for _ in range(4)])
        if det(s) == 0:
            continue
        assert systematic_form(s @ g) == p


def test_mds_examples():
    assert check_mds(Matrix.from_rows([[1], [1]], F4)).verdict is True
    assert check_mds(Matrix.from_rows([[1], [0]], F4)).verdict is False
    assert check_mds(Matrix.from_rows([[1, 1], [1, 2]], F4)).verdict is True
    assert check_mds(Matrix.from_rows([[1, 1], [1, 1]], F4)).verdict is False


def test_mds_matches_hamming_distance_oracle():
    # n=3, k=2 over F_4: MDS iff minimum Hamming distance is 2
    part = LengthPartition((1, 1, 1))
    for a, b in product(range(4), repeat=2):
        code = _code((1, 1, 1), (1, 1, 0), [[a], [b]], F4)
        g = assemble_generator(code)
        d = min_sum_rank_distance(g, part)
        assert check_mds(code.parity).verdict == (d == 2)


def test_mrd_three_way_agreement_positive():
    g = construct_gabidulin(3, 2, F8)
    p = systematic_form(g)
    assert check_mrd_transforms(g).verdict is True
    assert check_mrd_systematic(p).verdict is True
    assert min_sum_rank_distance(g, LengthPartition((3,))) == 2


def test_mrd_three_way_agreement_negative():
    # push one parity entry into the base field: MRD fails on all sides
    g = construct_gabidulin(3, 2, F8)
    p = systematic_form(g).copy()
    p[0, 0] = 1
    code = _code((3,), (2,), p.to_rows(), F8)
    g2 = assemble_generator(code)
    assert check_mrd_transforms(g2).verdict is False
    assert check_mrd_systematic(p).verdict is False
    assert min_sum_rank_distance(g2, LengthPartition((3,))) < 2


def test_mrd_filter_agrees_with_exact():
    g = construct_gabidulin(3, 2, F8)
    p = systematic_form(g)
    assert check_mrd_systematic(p, mode="filter").verdict is True
    bad = p.copy()
    bad[0, 0] = 1
    assert check_mrd_systematic(bad, mode="filter").verdict is False


def test_msrd_all_unit_blocks_is_mds():
    # with every n_i = 1 the sum-rank metric is the Hamming metric, so the
    # MSRD checkers and the MDS checker must agree on every parity
    part = LengthPartition((1, 1, 1))
    for a, b in product(range(4), repeat=2):
        parity = Matrix.from_rows([[a], [b]], F4)
        code = _code((1, 1, 1), (1, 1, 0), [[a], [b]], F4)
        mds = check_mds(parity).verdict
        assert check_msrd_systematic(code).verdict == mds
        assert (
            check_msrd_transforms(assemble_generator(code), part).verdict == mds
        )


def test_mrd_implies_msrd():
    # [2, 1] over F_4 with blocks (1, 1): the refined bounds coincide, so
    # every MRD parity is also MSRD
    for v in range(4):
        parity = Matrix.from_rows([[v]], F4)
        if check_mrd_systematic(parity).verdict is not True:
            continue
        code = _code((1, 1), (1, 0), [[v]], F4)
        assert check_msrd_systematic(code).verdict is True
        g = assemble_generator(code)
        assert check_msrd_transforms(g, LengthPartition((1, 1))).verdict is True


def test_msrd_systematic_witness_rechecks():
    code = _code((2, 2), (1, 1), [[1, 1], [1, 1]], F4)
    rep = check_msrd_systematic(code)
    assert rep.verdict is False
    assert recheck_witness(code, rep.witness)
    # a tampered witness must not validate: C's first block is 1 x 1
    tr = rep.witness["transform"]
    bad = dict(rep.witness, transform=dict(tr, C=[[[0, 0]], tr["C"][1]]))
    assert recheck_witness(code, bad) is False
    # agreement: the transform-side checker also rejects this code
    g = assemble_generator(code)
    trep = check_msrd_transforms(g, code.length_partition)
    assert trep.verdict is False
    assert recheck_transform_witness(g, code.length_partition, trep.witness)


F32 = field(2, 5)


def _gabidulin_5_3():
    g = construct_gabidulin(5, 3, F32)
    return g, _code((5,), (3,), systematic_form(g).to_rows(), F32)


def test_recheck_witness_rejects_tuples_outside_the_family():
    # B = 0 makes every minor of B P A~ + 0 vanish, but B must be nonsingular
    _, code = _gabidulin_5_3()
    eye2 = [[1, 0], [0, 1]]
    zero = {"B": [[[0] * 3] * 3], "A": [eye2], "C": [[[0, 0]] * 3]}
    zero_b = {"transform": zero, "rows": [0], "cols": [0]}
    assert recheck_witness(code, zero_b) is False
    eye3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    lower_a = dict(zero_b, transform=dict(zero, B=[eye3], A=[[[1, 0], [1, 1]]]))
    assert recheck_witness(code, lower_a) is False
    # a repeated row selects a zero minor of any matrix
    assert recheck_witness(code, {"transform": dict(zero, B=[eye3]), "rows": [0, 0],
                                  "cols": [0, 1]}) is False
    # over (2,2)/(1,1), C has two 1 x 1 blocks
    small = _code((2, 2), (1, 1), [[1, 1], [1, 1]], F4)
    rep = check_msrd_systematic(small)
    assert recheck_witness(small, rep.witness) is True
    tr = rep.witness["transform"]
    one_c = dict(rep.witness, transform=dict(tr, C=tr["C"][:1]))
    assert recheck_witness(small, one_c) is False


def test_recheck_transform_witness_rejects_singular_transforms():
    g, _ = _gabidulin_5_3()
    part = LengthPartition((5,))
    zero = {"transform": {"A": [[[0] * 5] * 5]}, "rows": [0, 1, 2], "cols": [0, 1, 2]}
    assert recheck_transform_witness(g, part, zero) is False
    # the identity is in the family, but an MRD code has no vanishing minor
    eye = [[int(r == c) for c in range(5)] for r in range(5)]
    assert recheck_transform_witness(g, part, dict(zero, transform={"A": [eye]})) is False
    # blocks must follow the partition
    assert recheck_transform_witness(
        g, LengthPartition((3, 2)), dict(zero, transform={"A": [eye]})) is False


@pytest.mark.parametrize("check", [
    # G A for A = I already has a zero 1 x 1 minor (column 0)
    lambda: check_msrd_transforms(Matrix.from_rows([[0, 1, 1, 1, 1, 1]], F4),
                                  LengthPartition((6,))),
    # B P A~ + C for B = I, A~ = I, C = 0 already has a zero entry
    lambda: check_mrd_systematic(Matrix.from_rows([[0], [1], [1], [1], [1], [1]], F4)),
], ids=["msrd-transforms", "mrd-systematic"])
def test_first_transform_negative_builds_one_transform(check):
    # one length-6 block over F_4 has 2^15 = 32,768 upper-triangular 6 x 6
    # transforms; a checker that lists them before testing the first one
    # peaks at about 13.6 MB
    tracemalloc.start()
    try:
        rep = check()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.verdict is False and rep.checked_count == 1
    assert peak < 1 << 20


def test_budget_reports_infeasible():
    g = construct_gabidulin(3, 2, F8)
    assert check_mrd_transforms(g, budget=2).verdict == INFEASIBLE
    p = systematic_form(g)
    assert check_mrd_systematic(p, budget=2).verdict == INFEASIBLE


def test_transform_budget_charges_every_swept_minor():
    # [6,3] over (3,3): 64 transforms in one Gray-order run, the first
    # sweeping all C(6,1) + C(6,2) + C(6,3) = 41 selections, each of the 63
    # later ones the 1 + 5 + 10 = 16 that hold the column it rewrites,
    # 1,049 minors in all
    g, parts = construct_gabidulin(6, 3, field(2, 6)), LengthPartition((3, 3))
    short = check_msrd_transforms(g, parts, budget=1048)
    assert (short.verdict, short.checked_count, short.detail["charge"]) == (
        INFEASIBLE, 0, 41 + 63 * 16)
    rep = check_msrd_transforms(g, parts, budget=1049)
    assert (rep.verdict, rep.checked_count) == (True, 64)
    assert rep.detail["minors"] == rep.detail["charge"] == 1049


def test_transform_budget_refusal_builds_no_list():
    # the charge is counted before the selection list is built: a refused
    # budget, below the 41 selections or below the 1,049 the run needs,
    # builds nothing; from 1,049 on, the list is built once
    g, parts = construct_gabidulin(6, 3, field(2, 6)), LengthPartition((3, 3))
    build = mock.Mock(wraps=superregular._build_full_size_selections)
    for budget, built in ((40, 0), (1048, 0), (1049, 1)):
        build.reset_mock()
        with mock.patch.multiple(superregular, SELECTION_CACHE_LIMIT=0,
                                 _build_full_size_selections=build):
            rep = check_msrd_transforms(g, parts, budget=budget)
        assert (rep.verdict == INFEASIBLE, build.call_count) == (not built, built)
        assert rep.detail["charge"] == 1049
    # [24,12] under (24,): 9,740,686 selections, under the default budget,
    # but 2^276 transforms; refused at once, with no list built
    build.reset_mock()
    with mock.patch.object(superregular, "_build_full_size_selections", build):
        rep = check_msrd_transforms(Matrix(12, 24, field(2, 1)), LengthPartition((24,)))
    assert (rep.verdict, rep.checked_count, build.call_count) == (INFEASIBLE, 0, 0)
    assert rep.detail["charge"] > rep.detail["budget"]


def test_systematic_budget_refusal_builds_no_list():
    # without a grid every cell is held by as many square selections, so
    # the charge is counted, and a refused family builds no selection
    # list, so none of its sub-lists either (nor counts over them)
    build = mock.Mock(wraps=superregular._build_square_selections)

    def check(code, budget):
        build.reset_mock()
        with mock.patch.multiple(superregular, SELECTION_CACHE_LIMIT=0,
                                 _build_square_selections=build):
            rep = check_msrd_systematic(code, budget=budget)
        return rep, build.call_count

    # a random one-block [18,9] code over F_2^8: 48,619 selections, under
    # the default budget, but 81 C cells
    f = field(2, 8)
    rng = random.Random("[18,9]")
    code = SystematicBlockCode(LengthPartition([18]), (9,),
                               Matrix(9, 9, f, [rng.randrange(f.order) for _ in range(81)]))
    rep, built = check(code, superregular.DEFAULT_SELECTION_BUDGET)
    assert (rep.verdict, rep.checked_count, built) == (INFEASIBLE, 0, 0)
    assert rep.detail["charge"] > rep.detail["budget"]
    # Gabidulin [4,2] over F_81, one block: 9 pairs of 5 selections swept
    # once, then 2 for each of the 80 Gray steps; one minor short of its
    # charge builds nothing, and the charge itself builds the list once
    gab = SystematicBlockCode(LengthPartition([4]), (2,),
                              systematic_form(construct_gabidulin(4, 2, field(3, 4))))
    charge = 9 * (5 + 80 * 2)
    rep, built = check(gab, charge - 1)
    assert (rep.verdict, rep.detail["charge"], built) == (INFEASIBLE, charge, 0)
    rep, built = check(gab, charge)
    assert (rep.verdict, rep.detail["minors"], built) == (True, charge, 1)


def test_gabidulin_validation():
    with pytest.raises(ValueError):
        construct_gabidulin(4, 2, F8)  # needs M >= n
    with pytest.raises(ValueError):
        construct_gabidulin(3, 0, F8)


def test_gabidulin_is_moore_matrix():
    g = construct_gabidulin(3, 2, F8)
    for j in range(3):
        pt = F8.alpha_pow(j)
        assert g[0, j] == pt
        assert g[1, j] == F8.frobenius(pt, 1)
