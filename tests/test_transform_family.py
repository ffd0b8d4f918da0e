"""The shared (B, A~, C) engine in odd characteristic and across its entry
points: block MSRD checks over F_9 and F_27 against the transform side and
the distance oracle, [2,1,1] encoders against the rank-profile oracle and
the column distances, level 0 of the m-MSR check against the block
check it reduces to, and all three lazily enumerated checkers against the
per-block-list loops they replaced (kept here as the reference, over the
same unit upper-triangular B, A~ and A), the search table's [4,2,2]
negative included.  The m-MSR check decides its top level
alone; its verdicts match the per-level loop it replaced (reference_mMSR)
over F_2^M Frobenius encoders and odd-q ones, and every witness rechecks.
Over F_9, F_25 and F_27 the exact verdicts also match the reference run
over every nonsingular upper-triangular B, A~ and A, the family the
criterion quantifies over.  The transform side's one sweep run matches
its per-A reference over F_8, F_16 and F_32 too.  The references walk
each run, the C values of a pair and the transform side's A, in the
reflected q-ary Gray order of gray_order, built here from its recursive
definition, the C cells block by block with the blocks that more
selections hold moving slower (block_order, counted here by listing).
Draws are derandomized, so every run sees the same codes."""

import random
from itertools import product
from math import gcd
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_matrix import (
    enum_ut_nonsingular,
    enum_ut_unit,
    reference_full_minors,
)

from sumrank import block_codes
from sumrank.block_codes import (
    SystematicBlockCode,
    assemble_generator,
    check_msrd_systematic,
    check_msrd_transforms,
    construct_gabidulin,
    family_counts,
    systematic_form,
)
from sumrank.cli import TABLE1_ROWS
from sumrank.conv_codes import (
    PolyEncoder,
    check_mMSR,
    check_mMSR_oracle,
    construct_frobenius,
    parity_grid,
    recheck_mMSR_witness,
    sliding_parity,
)
from sumrank.field import base_field, field
from sumrank.matrix import Matrix, block_diag, block_diag_cells, diagonal_blocks
from sumrank.report import INFEASIBLE
from sumrank.superregular import (
    DEFAULT_SELECTION_BUDGET,
    BlockGrid,
    ZeroPattern,
    count_block_selections,
    count_nontrivial_minors,
    is_superregular_constrained,
    iter_square_selections,
    square_selections,
)
from sumrank.metrics import (
    BudgetExceeded,
    LengthPartition,
    column_distance_bound,
    column_distances,
    column_sum_rank_distance,
    min_sum_rank_distance,
)

F8 = field(2, 3)
F9 = field(3, 2)
F16 = field(2, 4)
F32 = field(2, 5)
F25 = field(5, 2)
F27 = field(3, 3)
F2048 = field(2, 11)

derandomized = settings(derandomize=True, deadline=None, max_examples=25)


def _entries(f, count):
    return st.lists(st.integers(0, f.order - 1), min_size=count, max_size=count)


@st.composite
def odd_block_codes(draw, fields=(F9, F27)):
    f = draw(st.sampled_from(fields))
    # one 4 x 4 block: its 4^4 * 5^6 nonsingular upper-triangular A over
    # F_5 are too many to list for the full-family reference
    shapes = [((2, 2), (1, 1))] + ([((4,), (2,))] if f.q == 3 else [])
    parts, dims = draw(st.sampled_from(shapes))
    parity = Matrix(2, 2, f, draw(_entries(f, 4)))
    return SystematicBlockCode(LengthPartition(parts), dims, parity)


@st.composite
def odd_encoders(draw, fields=(F9, F27)):
    f = draw(st.sampled_from(fields))
    p0 = draw(st.integers(0, f.order - 1))
    p1 = draw(st.integers(1, f.order - 1))
    return PolyEncoder.from_parity([Matrix(1, 1, f, [p0]), Matrix(1, 1, f, [p1])])


@st.composite
def memory_one_encoders(draw):
    f = draw(st.sampled_from([F8, F9]))
    k = draw(st.sampled_from([1, 2]))
    nk = 3 - k
    coeffs = [Matrix(k, nk, f, draw(_entries(f, k * nk))) for _ in range(2)]
    if not any(coeffs[1].data):
        coeffs[1][0, 0] = 1
    return PolyEncoder.from_parity(coeffs)


def _two_block_code(f):
    """[4,2] over f with blocks (2, 2), (1, 1) and parity a, a^2, a^3, a^5:
    MSRD over F_9, F_25 and F_27."""
    return SystematicBlockCode(LengthPartition((2, 2)), (1, 1),
                               Matrix(2, 2, f, [f.alpha_pow(e) for e in (1, 2, 3, 5)]))


def _memory_one_encoder(f):
    """[2,1,1] with parity a, a^2: m-MSR over F_9, F_25 and F_27."""
    return PolyEncoder.from_parity([Matrix(1, 1, f, [f.alpha_pow(e)]) for e in (1, 2)])


_POSITIVE_F27 = _two_block_code(F27)

# P_0 = [a, a^2] over F_8: 1, a, a^2 are independent over F_2, so the
# [3,1] block code is MRD and level 0 is a positive
_MRD_LEVEL_ZERO = PolyEncoder.from_parity(
    [Matrix(1, 2, F8, [F8.alpha_pow(1), F8.alpha_pow(2)]), Matrix(1, 2, F8, [1, 1])]
)


# -- the per-block-list loops the lazy enumeration replaced ------------------


def gray_order(q, c):
    """Every F_q value tuple of c cells in reflected q-ary Gray order, last
    cell fastest, by its recursive definition: each digit d of the first
    cell in turn, followed by the order on the other cells, reversed when
    d is odd."""
    if c == 0:
        return [()]
    rest = gray_order(q, c - 1)
    return [(d,) + t for d in range(q) for t in (rest if d % 2 == 0 else rest[::-1])]


def unit_blocks(sizes, values, f):
    """Unit upper-triangular blocks of the given sizes over f whose cells
    above the diagonal, block by block and row-major, hold values."""
    it = iter(values)
    out = []
    for n in sizes:
        b = Matrix.identity(n, f)
        for r in range(n):
            for c in range(r + 1, n):
                b[r, c] = next(it)
        out.append(b)
    return out


def block_order(ks, nks, grid):
    """The diagonal blocks ks[i] x nks[i], those whose cells more of the
    checked selections hold first, ties in block order: the order in which
    the C walk moves them, slowest first, from held counts taken here by
    listing every selection."""
    width = sum(nks)
    selections = [(ri, ci) for ri, ci in iter_square_selections(sum(ks), width)
                  if grid is None or grid.diagonal_allowed(ri, ci)]
    held = []
    for i, (k, w) in enumerate(zip(ks, nks)):
        r, c = sum(ks[:i]), sum(nks[:i])  # the block's first cell, if it has one
        held.append(sum(r in ri and c in ci for ri, ci in selections) if k * w else 0)
    return sorted(range(len(ks)), key=lambda i: -held[i])


def c_tuples(ks, nks, grid, f):
    """Every block-diagonal C over f, in the reference walk's order: the
    cells of the blocks in block_order, each block row-major, take every
    value tuple in gray_order."""
    order = block_order(ks, nks, grid)
    for values in gray_order(f.q, sum(k * w for k, w in zip(ks, nks))):
        it = iter(values)
        blocks = [None] * len(ks)
        for i in order:
            blocks[i] = Matrix(ks[i], nks[i], f, [next(it) for _ in range(ks[i] * nks[i])])
        yield block_diag(blocks)


def reference_family(p, ks, nks, grid, upper=enum_ut_unit):
    """(verdict, checked, witness) of the (B, A~, C) loop over products of
    per-block lists, each tuple assembled by block_diag; B and A~ blocks
    come from upper(size, q), and each pair's C are c_tuples."""
    q = p.field.q
    b_sets = [list(upper(k, q)) for k in ks]
    a_sets = [list(upper(w, q)) for w in nks]
    checked = 0
    for b_blocks in product(*b_sets):
        bp = block_diag(b_blocks) @ p
        for a_blocks in product(*a_sets):
            bpa = bp @ block_diag(a_blocks)
            for c in c_tuples(ks, nks, grid, base_field(q)):
                checked += 1
                t = bpa.add(c)
                rep = (block_codes.is_full_superregular(t) if grid is None
                       else block_codes.is_superregular_constrained(t, grid))
                if rep.verdict is False:
                    witness = {"transform": {"B": [m.to_rows() for m in b_blocks],
                                             "A": [m.to_rows() for m in a_blocks],
                                             "C": diagonal_blocks(c, ks, nks)},
                               "rows": rep.witness["rows"], "cols": rep.witness["cols"]}
                    return False, checked, witness
    return True, checked, None


def _level_witness(w, level):
    """A reference_family witness as check_mMSR reports it: the B, A~ and C
    diagonal blocks of levels 0..level, and the level."""
    w["transform"] = {name: blocks[:level + 1] for name, blocks in w["transform"].items()}
    w["level"] = level
    return w


def reference_mMSR(enc, upper=enum_ut_unit):
    """The per-level loop the top-level check replaced: every level 0..m
    in turn, stopping at the first that fails."""
    k, nk = enc.k, enc.n - enc.k
    checked = 0
    for i in range(enc.m + 1):
        verdict, count, w = reference_family(
            sliding_parity(enc, i), [k] * (i + 1), [nk] * (i + 1), parity_grid(enc, i),
            upper)
        checked += count
        if verdict is False:
            return False, checked, _level_witness(w, i)
    return True, checked, None


def reference_top_level(enc):
    """(verdict, checked, witness) of the reference loop at level m alone;
    the witness belongs to its last column's block."""
    k, nk, m = enc.k, enc.n - enc.k, enc.m
    verdict, checked, w = reference_family(
        sliding_parity(enc, m), [k] * (m + 1), [nk] * (m + 1), parity_grid(enc, m))
    if w is not None:
        w = _level_witness(w, w["cols"][-1] // nk)
    return verdict, checked, w


def reference_transforms(g, parts, upper=None):
    """(verdict, checked, witness) of the per-A loop the transform run
    replaced: each A assembled by block_diag, G A multiplied out and its
    full-size minors evaluated by det.  The unit A take every value tuple
    of their free cells in gray_order; with upper, A runs over the product
    of the per-block lists upper(size, q) instead."""
    q = g.field.q
    if upper is None:
        free = sum(n * (n - 1) // 2 for n in parts)
        a_iter = (unit_blocks(parts, values, base_field(q))
                  for values in gray_order(q, free))
    else:
        a_iter = product(*[list(upper(n, q)) for n in parts])
    checked = 0
    for blocks in a_iter:
        checked += 1
        bad = reference_full_minors(g @ block_diag(blocks))
        if bad is not None:
            return False, checked, {"transform": {"A": [b.to_rows() for b in blocks]},
                                    "rows": list(range(g.rows)), "cols": list(bad)}
    return True, checked, None


@derandomized
@given(odd_block_codes())
@example(_POSITIVE_F27)
def test_block_checkers_match_the_per_block_reference(code):
    p, ks, nks = code.parity, code.dim_partition, code.parity_widths
    rep = check_msrd_systematic(code)
    assert (rep.verdict, rep.checked_count, rep.witness) == reference_family(p, ks, nks, None)
    g = assemble_generator(code)
    rep = check_msrd_transforms(g, code.length_partition)
    assert (rep.verdict, rep.checked_count, rep.witness) == reference_transforms(
        g, code.length_partition.parts)


def _random_code(rng, f, parts):
    """A random parity over f under the length partition parts, with
    random block dimensions, neither none nor all of the length."""
    n = sum(parts)
    while True:
        dims = tuple(rng.randint(0, n_i) for n_i in parts)
        if 0 < sum(dims) < n:
            break
    k = sum(dims)
    parity = Matrix(k, n - k, f, [rng.randrange(f.order) for _ in range(k * (n - k))])
    return SystematicBlockCode(LengthPartition(parts), dims, parity)


def test_transform_run_matches_the_per_transform_reference_in_characteristic_2():
    rng = random.Random("transform run")
    seen = set()
    for f in (F8, F16, F32):
        for parts in [(5,), (4, 1), (3, 2), (2, 2, 1)]:
            for _ in range(4):
                g = assemble_generator(_random_code(rng, f, parts))
                rep = check_msrd_transforms(g, LengthPartition(parts))
                assert (rep.verdict, rep.checked_count, rep.witness) == \
                    reference_transforms(g, parts)
                seen.add((rep.verdict, rep.checked_count > 1))
    # True verdicts, and False ones at the first A and past it
    assert seen == {(True, True), (False, False), (False, True)}
    # no rows: every A gives the empty G A, True after all 2^4 of them;
    # an all-ones partition has no free cell, so A = I alone
    for g, parts, outcome in [
            (Matrix(0, 5, F8), (3, 2), (True, 16)),
            (Matrix(0, 5, F8), (1,) * 5, (True, 1)),
            (Matrix(2, 4, F16, [1, 1, 1, 1, 0, 1, 1, 3]), (1,) * 4, (False, 1)),
            (construct_gabidulin(4, 2, F16), (1,) * 4, (True, 1))]:
        rep = check_msrd_transforms(g, LengthPartition(parts))
        assert (rep.verdict, rep.checked_count) == outcome
        assert (rep.verdict, rep.checked_count, rep.witness) == \
            reference_transforms(g, parts)


def _same_mMSR_report(enc, budget=DEFAULT_SELECTION_BUDGET):
    rep = check_mMSR(enc, budget=budget)
    verdict, checked, witness = reference_top_level(enc)
    assert (rep.verdict, rep.checked_count, rep.witness) == (verdict, checked, witness)
    [level] = rep.detail["levels"]
    assert (level["level"], level["verdict"]) == (enc.m, verdict)
    return rep


@derandomized
@given(st.one_of(odd_encoders(), memory_one_encoders()))
@example(_MRD_LEVEL_ZERO)
def test_mMSR_matches_the_per_block_reference(enc):
    _same_mMSR_report(enc)


# the search table's [4,2,2] row at e = 1: not m-MSR, with a vanishing 4x4
# minor at level 2
_TABLE_NEGATIVE = construct_frobenius(4, 2, 2, F2048, F2048.alpha_pow(1))


def test_table_negative_matches_the_per_block_reference():
    rep = _same_mMSR_report(_TABLE_NEGATIVE)
    assert (rep.verdict, rep.checked_count) == (False, 68)
    assert rep.detail["levels"][0]["minors"] == 11_079
    w = rep.witness
    assert (w["level"], w["rows"], w["cols"]) == (2, [0, 1, 3, 5], [1, 3, 4, 5])


def test_engine_budget_charges_the_minors_the_grid_checks():
    # the level-2 6 x 6 grid checks 553 of the 923 square minors, and each
    # of the 64 pairs evaluates each of them once, then again at every Gray
    # step that moves a C cell it holds: 41.4e6 minors, so the family fits
    # the default budget and reads False at T 68
    assert len(square_selections(6, 6, parity_grid(_TABLE_NEGATIVE, 2))) == 553
    assert count_block_selections((6,), (6,), False)[0] == 923
    charge = _level_cost(_TABLE_NEGATIVE, 2)
    assert charge == 41_447_872
    rep = check_mMSR(_TABLE_NEGATIVE)
    [level] = rep.detail["levels"]
    assert (rep.verdict, rep.checked_count, level["charge"]) == (False, 68, charge)
    # the charge is counted, so every budget below it refuses the family
    # with no list built, and the charge itself builds the grid's list once
    p2 = sliding_parity(_TABLE_NEGATIVE, 2)
    for budget in (922, 923, charge - 1, charge):
        with mock.patch.object(block_codes, "square_selections",
                               wraps=block_codes.square_selections) as build:
            rep = block_codes.check_transform_family(p2, [2] * 3, [2] * 3, True, budget)
        assert rep.detail["charge"] == charge
        if budget < charge:
            assert (rep.verdict, rep.checked_count, build.call_count) == (INFEASIBLE, 0, 0)
    assert (rep.verdict, rep.checked_count, build.call_count) == (False, 68, 1)


def test_grid_predicates_charge_the_minors_the_grid_checks():
    # on the level-2 6 x 6 grid a budget is charged the 553 selections the
    # grid keeps, not the 923 square ones: it fits at 553 and refuses at 552
    p2, grid = sliding_parity(_TABLE_NEGATIVE, 2), parity_grid(_TABLE_NEGATIVE, 2)
    rep = is_superregular_constrained(p2, grid, budget=553)
    assert (rep.verdict, rep.checked_count) == (True, 553)
    rep = is_superregular_constrained(p2, grid, budget=552)
    assert (rep.verdict, rep.detail) == (INFEASIBLE, {"selection_count": 553, "budget": 552})
    pattern = ZeroPattern.of(p2)
    assert count_nontrivial_minors(pattern, grid, budget=553) == 553
    with pytest.raises(ValueError, match="selection count 553 exceeds budget 552"):
        count_nontrivial_minors(pattern, grid, budget=552)


@pytest.mark.parametrize("ks, nks", [((2,), (2,)), ((1, 1), (1, 1)), ((2, 1), (1, 2)),
                                     ((3, 1), (2, 2)), ((2, 2, 2), (2, 2, 2)),
                                     ((0, 2), (1, 1))])
def test_ungridded_charge_counts_its_held_cells_without_a_list(ks, nks):
    # without a grid the engine charges from counts: the square selections
    # that hold each C cell
    rows, cols = sum(ks), sum(nks)
    p = Matrix(rows, cols, F8, [1] * (rows * cols))
    rep = block_codes.check_transform_family(p, ks, nks, False,
                                             count_block_selections((rows,), (cols,), False)[0])
    assert rep.detail["charge"] == gray_run_minors(ks, nks, None, 2)
    assert _listed_counts(ks, nks, False) == _counted(ks, nks, False)


def _counted(ks, nks, grid):
    """count_block_selections, with held given per C cell."""
    total, held = count_block_selections(ks, nks, grid)
    return total, [h for h, k, w in zip(held, ks, nks) for _ in range(k * w)]


def _listed_counts(ks, nks, grid):
    """The lengths of square_selections and of its held sub-list for each
    C cell."""
    entries = square_selections(sum(ks), sum(nks), BlockGrid(ks, nks) if grid else None)
    return len(entries), [sum(len(recs) for _, recs, _ in entries.held(1 << i))
                          for i in block_diag_cells(ks, nks, False)]


def test_block_selection_counts_equal_the_listed_lengths():
    # every shape of up to 3 blocks of 0 to 2 rows and columns, and some
    # with larger, uneven blocks, with and without the grid: the count
    # builds no list, yet agrees with the lengths of the lists the engine
    # sweeps
    shapes = [(ks, nks) for blocks in (1, 2, 3)
              for ks in product(range(3), repeat=blocks)
              for nks in product(range(3), repeat=blocks)]
    shapes += [((3,), (2,)), ((0, 3), (2, 1)), ((3, 0, 1), (1, 2, 2)),
               ((2, 2, 2, 2), (2, 2, 2, 2)), ((3, 3), (3, 3))]
    for ks, nks in shapes:
        for grid in (False, True):
            assert _counted(ks, nks, grid) == _listed_counts(ks, nks, grid), (ks, nks, grid)


def test_an_exhaustive_true_evaluates_its_charge():
    # with no witness to stop at, every pair evaluates every C's minors
    for n, k, m, deg, e in TABLE1_ROWS[:7]:
        f = field(2, deg)
        enc = construct_frobenius(n, k, m, f, f.alpha_pow(e))
        rep = check_mMSR(enc)
        [level] = rep.detail["levels"]
        assert rep.verdict is True
        assert level["minors"] == level["charge"] == _level_cost(enc, m)


# -- one top-level run against the per-level loop ------------------------------

# Frobenius shapes (n, k, m, M) over F_2^M whose per-level reference is quick
_FROBENIUS_SHAPES = [(2, 1, 1, 3), (2, 1, 2, 4), (3, 1, 1, 4), (3, 1, 1, 5),
                     (3, 2, 1, 3), (3, 2, 1, 4), (3, 1, 2, 5), (3, 2, 2, 4),
                     (4, 2, 1, 4), (3, 2, 2, 7), (3, 1, 2, 9)]


@st.composite
def frobenius_encoders(draw):
    n, k, m, deg = draw(st.sampled_from(_FROBENIUS_SHAPES))
    f = field(2, deg)
    e = draw(st.integers(1, f.order - 2).filter(lambda e: gcd(e, f.order - 1) == 1))
    return construct_frobenius(n, k, m, f, f.alpha_pow(e))


def _witness_is_genuine(enc, rep):
    level = rep.witness["level"]
    assert recheck_mMSR_witness(enc, rep.witness)
    try:
        d = column_sum_rank_distance(enc, level, budget=10**6)[-1]
    except BudgetExceeded:
        return
    assert d < column_distance_bound(level, enc.n, enc.k)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.one_of(frobenius_encoders(), odd_encoders(fields=(F9, F25, F27))))
@example(construct_frobenius(4, 2, 1, field(2, 4), field(2, 4).alpha_pow(7)))
@example(_memory_one_encoder(F25))
def test_top_level_decides_like_the_per_level_loop(enc):
    rep = check_mMSR(enc)
    assert rep.verdict == reference_mMSR(enc)[0]
    if rep.verdict is False:
        _witness_is_genuine(enc, rep)


def gray_run_minors(ks, nks, grid, q):
    """Minors an exhaustive (B, A~, C) family evaluates: per pair, each
    selection the predicate checks once, then again at every step of the
    Gray order that moves a C cell it holds, (q-1) q^t times for the t-th
    cell of the walk (block_order's blocks, each row-major)."""
    b, a, _ = family_counts(ks, nks, q)
    width = sum(nks)
    walk = [(sum(ks[:i]) + r) * width + sum(nks[:i]) + c
            for i in block_order(ks, nks, grid) for r in range(ks[i]) for c in range(nks[i])]
    position = {cell: t for t, cell in enumerate(walk)}
    per_pair = sum(
        1 + sum((q - 1) * q ** position[r * width + c]
                for r in ri for c in ci if r * width + c in position)
        for ri, ci in iter_square_selections(sum(ks), width)
        if grid is None or grid.diagonal_allowed(ri, ci))
    return b * a * per_pair


def _level_cost(enc, i):
    """The exact engine's budget charge at level i."""
    ks, nks = [enc.k] * (i + 1), [enc.n - enc.k] * (i + 1)
    return gray_run_minors(ks, nks, parity_grid(enc, i), enc.field.q)


def test_a_refused_top_level_falls_back_to_the_largest_level_that_fits():
    # [4,2,1]/F_16 at alpha^7 fails at level 0; a budget of level 0's
    # charge refuses level 1, and level 0 still reads False
    f16 = field(2, 4)
    bad = construct_frobenius(4, 2, 1, f16, f16.alpha_pow(7))
    assert reference_mMSR(bad)[0] is False
    rep = check_mMSR(bad, budget=_level_cost(bad, 0))
    assert (rep.verdict, rep.witness["level"]) == (False, 0)
    assert [(lv["level"], lv["verdict"]) for lv in rep.detail["levels"]] == [(0, False)]
    _witness_is_genuine(bad, rep)
    # a level-1 True under a budget that refuses level 2 certifies only
    # levels 0 and 1, so the verdict is infeasible
    good = construct_frobenius(2, 1, 2, field(2, 4))
    assert check_mMSR(good).verdict is True
    rep = check_mMSR(good, budget=_level_cost(good, 1))
    assert rep.verdict == INFEASIBLE
    assert (rep.detail["level"], rep.detail["budget"]) == (2, _level_cost(good, 1))
    [level] = rep.detail["levels"]
    assert (level["level"], level["verdict"]) == (1, True)
    assert rep.checked_count == check_mMSR(good, 1).checked_count


def test_a_refused_descent_builds_only_the_decided_levels_list():
    # [4,2,4] over F_2^11 at alpha, j = 4: the charges of levels 4 and 3
    # are over the default budget and counted, so they build nothing;
    # level 2 reads False on its grid's list, the only one built
    enc = construct_frobenius(4, 2, 4, F2048, F2048.alpha_pow(1))
    with mock.patch.object(block_codes, "square_selections",
                           wraps=block_codes.square_selections) as build:
        rep = check_mMSR(enc, 4)
    assert (rep.verdict, rep.witness["level"]) == (False, 2)
    assert [lv["level"] for lv in rep.detail["levels"]] == [2]
    [call] = build.call_args_list
    assert call.args[:2] == (6, 6) and call.args[2].col_block_sizes == [2] * 3
    assert recheck_mMSR_witness(enc, rep.witness)


@derandomized
@given(odd_block_codes())
@example(_POSITIVE_F27)
def test_block_checkers_agree_in_odd_characteristic(code):
    g = assemble_generator(code)
    exact = check_msrd_systematic(code)
    assert check_msrd_transforms(g, code.length_partition).verdict == exact.verdict
    d = min_sum_rank_distance(g, code.length_partition)
    assert exact.verdict == (d == code.n - code.k + 1)


@settings(derandomize=True, deadline=None, max_examples=15)
@given(odd_block_codes(fields=(F9, F25, F27)), odd_encoders(fields=(F9, F25, F27)))
@example(_two_block_code(F9), _memory_one_encoder(F9))
@example(_two_block_code(F25), _memory_one_encoder(F25))
@example(_POSITIVE_F27, _memory_one_encoder(F27))
def test_exact_verdicts_match_the_full_nonsingular_family(code, enc):
    # the unit upper-triangular B, A~ and A the checkers enumerate decide
    # the same as every nonsingular upper-triangular one
    p, ks, nks = code.parity, code.dim_partition, code.parity_widths
    full = reference_family(p, ks, nks, None, enum_ut_nonsingular)
    assert check_msrd_systematic(code).verdict == full[0]
    g = assemble_generator(code)
    assert check_msrd_transforms(g, code.length_partition).verdict == reference_transforms(
        g, code.length_partition.parts, enum_ut_nonsingular)[0]
    assert check_mMSR(enc).verdict == reference_mMSR(enc, enum_ut_nonsingular)[0]


def test_unit_families_count_q_to_their_free_cells():
    # Gabidulin [4,2] over F_81, one block: 3 unit B and 3 unit A~ (one
    # free cell each), 81 C, so 729 T where every nonsingular B and A~
    # gave 11,664; the transform side has 3^6 unit A
    f = field(3, 4)
    code = SystematicBlockCode(LengthPartition([4]), (2,),
                               systematic_form(construct_gabidulin(4, 2, f)))
    rep = check_msrd_systematic(code)
    assert (rep.verdict, rep.checked_count) == (True, 729)
    assert [rep.detail[c] for c in ("b_count", "a_count", "c_count")] == [3, 3, 81]
    tr = check_msrd_transforms(assemble_generator(code), code.length_partition)
    assert (tr.verdict, tr.checked_count, tr.detail["transform_count"]) == (True, 729, 729)


def test_pinned_examples_are_positives():
    assert check_msrd_systematic(_POSITIVE_F27).verdict is True
    assert check_mMSR(_MRD_LEVEL_ZERO, 0).verdict is True
    for f in (F9, F25, F27):
        assert check_msrd_systematic(_two_block_code(f)).verdict is True
        assert check_mMSR(_memory_one_encoder(f)).verdict is True


@derandomized
@given(odd_encoders())
def test_conv_checkers_agree_in_odd_characteristic(enc):
    exact = check_mMSR(enc).verdict
    dists, bounds = column_distances(enc, 1)
    maximal = [d == b for d, b in zip(dists, bounds)]
    assert exact == all(maximal)
    for j in range(2):
        assert check_mMSR_oracle(enc, j).verdict == maximal[j]


@derandomized
@given(memory_one_encoders())
@example(_MRD_LEVEL_ZERO)
def test_level_zero_is_the_block_systematic_check(enc):
    p0 = enc.parity_coeffs()[0]
    code = SystematicBlockCode(LengthPartition([enc.n]), (enc.k,), p0)
    conv = check_mMSR(enc, 0)
    block = check_msrd_systematic(code)
    assert conv.verdict == block.verdict
    assert conv.checked_count == block.checked_count
    if block.verdict is False:
        w = block.witness
        assert (conv.witness["rows"], conv.witness["cols"]) == (w["rows"], w["cols"])
        assert conv.witness["transform"] == w["transform"]


# -- the reversal-transpose symmetry --------------------------------------------


def _reversal_transpose(p):
    """J P^T J, J reversing the order of rows and columns."""
    return Matrix.from_rows([[p[p.rows - 1 - r, p.cols - 1 - c] for r in range(p.rows)]
                             for c in range(p.cols)], p.field)


def test_the_reversal_transpose_reads_the_same_verdict():
    # T -> J T^T J maps the (B, A~, C) family of P with blocks (ks, nks)
    # onto that of J P^T J with blocks (nks reversed, ks reversed): unit
    # upper-triangular blocks stay so, every C maps onto every C, minors
    # onto minors, and the grid rule "row block <= column block" onto
    # itself, so the exact verdicts agree, with the grid and without
    shapes = [((1,), (1,)), ((2,), (1,)), ((1, 1), (1, 1)), ((1, 1), (2, 1)),
              ((2, 1), (1, 1)), ((2,), (2,)), ((1, 1), (1, 2)), ((1, 2), (1, 1))]
    verdicts = {2: set(), 3: set(), 5: set()}
    for f in (F8, F16, F9, F25):
        rng = random.Random(f.descriptor())
        for ks, nks in shapes:
            for constrained in (False, True):
                for _ in range(3):
                    p = Matrix(sum(ks), sum(nks), f, [rng.randrange(1, f.order)
                                                      for _ in range(sum(ks) * sum(nks))])
                    rep = block_codes.check_transform_family(p, ks, nks, constrained, 10**6)
                    dual = block_codes.check_transform_family(
                        _reversal_transpose(p), nks[::-1], ks[::-1], constrained, 10**6)
                    assert rep.verdict == dual.verdict, (f, ks, nks, constrained, p)
                    verdicts[f.q].add(rep.verdict)
    # True and False instances over q = 2 and over odd q
    assert verdicts == {2: {True, False}, 3: {True, False}, 5: {True, False}}


@pytest.mark.parametrize("row, dual, charge", [
    ((3, 2, 1), (3, 1, 1), 236),
    ((3, 2, 2), (3, 1, 2), 6_912),
    ((5, 3, 1), (5, 2, 1), 42_068_992),
    ((6, 4, 1), (6, 2, 1), 85_987_475_456),
])
def test_dual_table_rows_are_charged_alike(row, dual, charge):
    # the reversal-transpose maps the level-m family of [n,k,m] onto that
    # of [n,n-k,m] and reverses its blocks' held counts; moving the
    # most-held blocks slowest makes the two walks' charges equal, and a
    # budget of 1 refuses both before any work
    charges = []
    for n, k, m in (row, dual):
        [(deg, e)] = [(deg, e) for *shape, deg, e in TABLE1_ROWS if tuple(shape) == (n, k, m)]
        f = field(2, deg)
        rep = check_mMSR(construct_frobenius(n, k, m, f, f.alpha_pow(e)), m, budget=1)
        assert (rep.verdict, rep.detail["level"]) == (INFEASIBLE, m)
        charges.append(rep.detail["charge"])
    assert charges == [charge, charge]
