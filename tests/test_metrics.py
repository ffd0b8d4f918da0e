"""Sum-rank weights and distances: the base-field expansion, brute-force
minimum distances against a naive oracle, column distances, and the
Singleton-type bounds."""

import random
from itertools import product
from unittest import mock

import pytest

from sumrank import core
from sumrank.field import base_field, field
from sumrank.matrix import Matrix
from sumrank.metrics import (
    BudgetExceeded,
    LengthPartition,
    PartitionError,
    SumRankProfile,
    column_distance_bound,
    column_distances,
    column_sum_rank_distance,
    expand,
    free_distance_bound,
    hamming_weight,
    min_sum_rank_distance,
    rank_weight,
    singleton_bounds,
    sum_rank_distance,
    sum_rank_weight,
)
from sumrank.block_codes import construct_gabidulin
from sumrank.conv_codes import construct_frobenius

F4 = field(2, 2)
F8 = field(2, 3)
F9 = field(3, 2)


def test_expand_basis_vector_gives_identity():
    # (1, alpha, alpha^2) expands to the 3x3 identity over F_2
    v = [1, F8.alpha, F8.mul(F8.alpha, F8.alpha)]
    assert expand(v, F8) == Matrix.identity(3, base_field(2))


def test_expand_shape_and_entries():
    m = expand([5, 3], F8)
    assert (m.rows, m.cols) == (3, 2)
    assert [m[r, 0] for r in range(3)] == F8.digits(5)
    assert [m[r, 1] for r in range(3)] == F8.digits(3)


def test_rank_weight_examples():
    assert rank_weight([0, 0, 0], F8) == 0
    assert rank_weight([1, 1, 1], F8) == 1
    assert rank_weight([1, F8.alpha, F8.mul(F8.alpha, F8.alpha)], F8) == 3
    # rank weight never exceeds min(M, n)
    assert rank_weight([1, F9.alpha], F9) <= 2


def test_rank_weight_matches_expansion_rank():
    from sumrank.matrix import rank

    rng = random.Random(20)
    for f in (F8, F9):
        for _ in range(50):
            v = [rng.randrange(f.order) for _ in range(4)]
            assert rank_weight(v, f) == rank(expand(v, f))


def test_sum_rank_weight_per_block():
    part = LengthPartition((2, 1))
    prof = sum_rank_weight([1, F8.alpha, 0], part, F8)
    assert prof.per_block_ranks == (2, 0)
    assert prof.total == 2
    with pytest.raises(PartitionError):
        sum_rank_weight([1, 2], part, F8)
    with pytest.raises(PartitionError):
        LengthPartition(())
    with pytest.raises(PartitionError):
        LengthPartition((2, 0))


def test_partition_and_profile_are_frozen_values():
    part = LengthPartition([2, 1])
    assert part == LengthPartition((2, 1)) and part != LengthPartition((1, 2))
    assert len({part, LengthPartition((2, 1))}) == 1
    assert repr(part) == "LengthPartition(parts=(2, 1))"
    prof = SumRankProfile((2, 0), 2)
    assert prof == sum_rank_weight([1, F8.alpha, 0], part, F8)
    assert prof != SumRankProfile((2, 0), 3) and prof != ((2, 0), 2)
    assert hash(prof) == hash(SumRankProfile((2, 0), 2))
    for obj, name in ((part, "parts"), (prof, "total")):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)


def test_sum_rank_distance_is_a_metric():
    part = LengthPartition((2, 2))
    rng = random.Random(21)
    vecs = [[rng.randrange(16) for _ in range(4)] for _ in range(12)]
    f16 = field(2, 4)
    for u in vecs:
        assert sum_rank_distance(u, u, part, f16) == 0
        for w in vecs:
            d = sum_rank_distance(u, w, part, f16)
            assert d == sum_rank_distance(w, u, part, f16)
            if u != w:
                assert d >= 1
            for x in vecs:
                assert d <= sum_rank_distance(u, x, part, f16) + sum_rank_distance(
                    x, w, part, f16
                )


def _naive_min_distance(gen: Matrix, part: LengthPartition) -> int:
    f = gen.field
    best = None
    for msg in product(f.elements(), repeat=gen.rows):
        if not any(msg):
            continue
        word = [0] * gen.cols
        for c in range(gen.cols):
            acc = 0
            for r in range(gen.rows):
                acc = f.add(acc, f.mul(msg[r], gen[r, c]))
            word[c] = acc
        w = sum_rank_weight(word, part, f).total
        best = w if best is None else min(best, w)
    return best


def test_min_sum_rank_distance_matches_naive():
    gen = construct_gabidulin(3, 2, F8)
    part = LengthPartition((3,))
    assert min_sum_rank_distance(gen, part) == _naive_min_distance(gen, part) == 2
    # with an all-ones partition the sum-rank weight is the Hamming weight
    part1 = LengthPartition((1, 1, 1))
    assert min_sum_rank_distance(gen, part1) == _naive_min_distance(gen, part1)


def test_column_sum_rank_distance_refuses_a_negative_level():
    with pytest.raises(ValueError):
        column_sum_rank_distance(construct_frobenius(2, 1, 1, F4), -1)


def test_min_sum_rank_distance_refuses_a_generator_without_rows():
    with pytest.raises(ValueError):
        min_sum_rank_distance(Matrix(0, 3, F8), LengthPartition((3,)))


def test_min_sum_rank_distance_budget():
    gen = construct_gabidulin(3, 2, F8)
    with pytest.raises(BudgetExceeded):
        min_sum_rank_distance(gen, LengthPartition((3,)), budget=10)


def test_hamming_equals_all_ones_partition():
    part = LengthPartition((1, 1, 1, 1))
    rng = random.Random(22)
    for _ in range(50):
        v = [rng.randrange(8) for _ in range(4)]
        assert sum_rank_weight(v, part, F8).total == hamming_weight(v)


def test_column_distance_known_encoder():
    enc = construct_frobenius(2, 1, 1, F4)
    assert column_sum_rank_distance(enc, 0) == [2]
    assert column_sum_rank_distance(enc, 1) == [2, 3]


def test_column_distance_monotone_and_bounded():
    enc = construct_frobenius(2, 1, 2, F8)
    dists = column_sum_rank_distance(enc, 2)
    assert dists == sorted(dists)
    for j, d in enumerate(dists):
        assert d <= column_distance_bound(j, enc.n, enc.k)


def test_column_distance_budget():
    enc = construct_frobenius(2, 1, 2, F8)
    with pytest.raises(BudgetExceeded):
        column_sum_rank_distance(enc, 2, budget=5)


def test_column_distances_make_one_search_with_the_whole_budget():
    enc = construct_frobenius(2, 1, 2, F8)
    with mock.patch.object(core, "conv_column_distance",
                           wraps=core.conv_column_distance) as kernel:
        assert column_distances(enc, 2, budget=10**6) == ([2, 3, 4], [2, 3, 4])
    assert kernel.call_count == 1
    args = kernel.call_args.args
    assert (args[3], args[9]) == (2, 10**6)  # the level j and the budget


def test_bound_values():
    assert column_distance_bound(0, 3, 1) == 3
    assert column_distance_bound(2, 3, 2) == 4
    assert free_distance_bound(1, 2, 1) == 3
    assert free_distance_bound(2, 3, 1) == 7


def test_singleton_bounds_examples():
    assert singleton_bounds(4, 2, 2, LengthPartition((2, 2))) == (2, 3, 3)
    assert singleton_bounds(3, 2, 3, LengthPartition((3,))) == (2, 2, 2)
    # unequal blocks: no refined sum-rank bound
    rank_b, sr_b, classical = singleton_bounds(3, 1, 2, LengthPartition((2, 1)))
    assert sr_b is None
    assert rank_b <= classical == 3
    # enough blocks recover the classical bound
    assert singleton_bounds(4, 2, 4, LengthPartition((1, 1, 1, 1))) == (3, 3, 3)
