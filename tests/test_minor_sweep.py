"""The memoized minor sweep against Gaussian elimination, its log-domain
path over characteristic 2 included, every predicate built on it against
the per-selection determinant loop it replaced, kept here as the
reference, its memo layout, and the lifetime and peak memory of its
selection lists."""

import random
import tracemalloc
from itertools import combinations
from unittest import mock

import pytest
from test_matrix import reference_full_minors
from test_superregular import is_trivial_minor

from sumrank import superregular
from sumrank.block_codes import (
    SystematicBlockCode,
    _minors_outside_base,
    check_msrd_systematic,
    check_msrd_transforms,
    construct_gabidulin,
    systematic_form,
)
from sumrank.conv_codes import check_mMSR, construct_frobenius
from sumrank.field import base_field, field
from sumrank.matrix import Matrix, det
from sumrank.metrics import LengthPartition
from sumrank.superregular import (
    BlockGrid,
    ZeroPattern,
    full_size_selections,
    is_full_superregular,
    is_superregular,
    is_superregular_constrained,
    iter_square_selections,
    minor_sweep,
    square_selections,
)

F2 = base_field(2)
F4 = field(2, 2)
F8 = field(2, 3)
F32 = field(2, 5)
F256 = field(2, 8)
F2048 = field(2, 11)
F5 = base_field(5)
F9 = field(3, 2)
F27 = field(3, 3)
F25 = field(5, 2)
F49 = field(7, 2)


def _random_matrix(rng, rows, cols, f, zero_share):
    return Matrix(rows, cols, f, [
        0 if rng.random() < zero_share else rng.randrange(1, f.order)
        for _ in range(rows * cols)
    ])


def _every_minor(m, entries, below=None):
    """(position, rows, cols, minor) of each minor the sweep yields, every
    minor by default."""
    below = m.field.order if below is None else below
    return [(pos, *entries.selection(slot), v)
            for pos, slot, v in minor_sweep(m, entries, below)]


def _records(entries):
    """Every sweep record of entries as (its run's size, the record), in
    sweep order."""
    return [(s, rec) for s, flat, _ in entries.runs
            for rec in zip(*[iter(flat)] * (2 * s + 1))]


# -- the sweep against matrix.det ---------------------------------------------


# F2 has a one-element log table (order 2, so the antilog index wraps by
# n = 1); F4 to F2048 run the log-domain path, the odd-q fields the field's
@pytest.mark.parametrize("f", [F2, F4, F8, F32, F2048, F5, F9, F27, F25, F49],
                         ids=["F2", "F4", "F8", "F32", "F2048", "F5", "F9", "F27",
                              "F25", "F49"])
@pytest.mark.parametrize("shape", [(2, 5), (5, 2), (4, 6), (6, 6)])
def test_sweep_equals_det_on_every_square_selection(f, shape):
    rng = random.Random(f"{f.descriptor()}/{shape}")
    rows, cols = shape
    entries = square_selections(rows, cols)
    for zero_share in (0.0, 0.3, 0.7, 0.9):
        m = _random_matrix(rng, rows, cols, f, zero_share)
        got = _every_minor(m, entries)
        assert [pos for pos, _, _, _ in got] == list(range(len(entries)))
        listed = [(ri, ci) for _, ri, ci, _ in got]
        assert listed == list(iter_square_selections(rows, cols))
        for _, ri, ci, v in got:
            assert v == det(m.submatrix(ri, ci)), (ri, ci)


@pytest.mark.parametrize("f", [F32, F27, F25, F49], ids=["F32", "F27", "F25", "F49"])
def test_sweep_on_grid_and_full_size_lists_equals_det(f):
    rng = random.Random(f.descriptor())
    grids = [BlockGrid.uniform(2, 1, 3), BlockGrid([1, 2], [3, 1])]
    for grid in grids:
        m = _random_matrix(rng, grid.rows, grid.cols, f, 0.2)
        got = _every_minor(m, square_selections(grid.rows, grid.cols, grid))
        assert [(ri, ci) for _, ri, ci, _ in got] == [
            s for s in iter_square_selections(grid.rows, grid.cols)
            if grid.diagonal_allowed(*s)
        ]
        for _, ri, ci, v in got:
            assert v == det(m.submatrix(ri, ci))
    g = _random_matrix(rng, 3, 6, f, 0.2)
    for _, ri, ci, v in _every_minor(g, full_size_selections(3, 6)):
        assert ri == tuple(range(len(ri)))
        assert v == det(g.submatrix(ri, ci))


def test_sweep_yields_only_codes_below_the_bound():
    rng = random.Random(5)
    m = _random_matrix(rng, 4, 4, F9, 0.4)
    entries = square_selections(4, 4)
    every = _every_minor(m, entries)
    for below in (1, F9.q):
        got = _every_minor(m, entries, below)
        assert got == [t for t in every if t[3] < below]
        # the slot yielded is the record's own
        slots = [rec[0] for _, rec in _records(entries)]
        assert [slot for _, slot, _ in minor_sweep(m, entries, below)] == [
            slots[pos] for pos, *_ in got]


# -- the memo layout -------------------------------------------------------------


def _layout_cases():
    for rows in range(1, 6):
        for cols in range(1, 7):
            yield (square_selections(rows, cols), rows, cols,
                   list(iter_square_selections(rows, cols)))
            if rows <= cols:
                yield (full_size_selections(rows, cols), rows, cols,
                       [(tuple(range(s)), ci) for s in range(1, rows + 1)
                        for ci in combinations(range(cols), s)])
    for grid in (BlockGrid.uniform(2, 2, 3), BlockGrid([1, 2], [3, 1])):
        yield (square_selections(grid.rows, grid.cols, grid), grid.rows, grid.cols,
               [p for p in iter_square_selections(grid.rows, grid.cols)
                if grid.diagonal_allowed(*p)])


def test_sweep_reads_only_slots_it_wrote():
    """Every memo slot an entry reads was written by an earlier entry or is
    slot 0, the empty minor; the entry at position p writes slot p + 1, so
    the memo is len(entries) + 1 slots; and each slot names the selection
    listed at its entry's position."""
    rng = random.Random(11)
    for entries, rows, cols, listed in _layout_cases():
        written = {0}
        records = _records(entries)
        assert len(records) == len(entries)
        for pos, (s, rec) in enumerate(records):
            slot = rec[0]
            assert len(rec) == 2 * s + 1
            assert all(sub in written for sub in rec[s + 1:])
            assert slot == pos + 1
            written.add(slot)
        assert [entries.selection(slot) for slot in range(1, len(entries) + 1)] == listed
        m = _random_matrix(rng, rows, cols, F4, 0.2)
        # the memo, read from the sweep's frame once it has begun
        sweep = minor_sweep(m, entries, F4.order)
        next(sweep)
        assert len(sweep.gi_frame.f_locals["memo"]) == len(entries) + 1
        got = _every_minor(m, entries)
        assert [(pos, ri, ci) for pos, ri, ci, _ in got] == [
            (pos, *p) for pos, p in enumerate(listed)]


@pytest.mark.parametrize("grid, records", [
    # table1's [4,2,2] at level 2, and [3,1,5] at level 5
    (BlockGrid.uniform(2, 2, 3), 553),
    (BlockGrid.uniform(1, 2, 6), 7751),
])
def test_a_gridded_memo_has_one_slot_per_record(grid, records):
    entries = square_selections(grid.rows, grid.cols, grid)
    pattern = ZeroPattern([[True] * grid.cols for _ in range(grid.rows)])
    assert len(entries) == records
    assert len(superregular.nontrivial_slots(pattern, entries)) == records + 1


# -- the predicates against the per-selection det loop ------------------------


def _reference_check(m, *, skip_trivial, grid=None):
    """The loop the sweep replaced: one elimination per selection."""
    pattern = ZeroPattern.of(m)
    checked = 0
    for ri, ci in iter_square_selections(m.rows, m.cols):
        if grid is not None and not grid.diagonal_allowed(ri, ci):
            continue
        if skip_trivial and is_trivial_minor(pattern, ri, ci):
            continue
        checked += 1
        if det(m.submatrix(ri, ci)) == 0:
            return False, {"rows": list(ri), "cols": list(ci)}, checked
    return True, None, checked


def _reference_outside_base(m, grid):
    for ri, ci in iter_square_selections(m.rows, m.cols):
        if grid is not None and not grid.diagonal_allowed(ri, ci):
            continue
        if m.field.is_in_base_field(det(m.submatrix(ri, ci))):
            return False
    return True


def _same(rep, ref):
    assert (rep.verdict, rep.witness, rep.checked_count) == ref


def _grid_matrix(rng, grid, f, zero_share):
    """Random entries on and above the block diagonal, zeros below it."""
    m = _random_matrix(rng, grid.rows, grid.cols, f, zero_share)
    for r in range(grid.rows):
        for c in range(grid.cols):
            if not grid.diagonal_allowed([r], [c]):
                m[r, c] = 0
    return m


GRIDS = [BlockGrid.uniform(1, 1, 3), BlockGrid.uniform(2, 1, 2),
         BlockGrid.uniform(2, 2, 2), BlockGrid([1, 2], [2, 1]),
         BlockGrid([2, 1, 1], [1, 1, 2]), BlockGrid([1], [2])]


@pytest.mark.parametrize("f", [F8, F256, F9, F27, F25, F49],
                         ids=["F8", "F256", "F9", "F27", "F25", "F49"])
def test_predicates_match_the_reference_loop(f):
    rng = random.Random(f.descriptor())
    seen = set()
    for shape in [(1, 1), (2, 3), (3, 2), (3, 3), (2, 5), (4, 4)]:
        for zero_share in (0.0, 0.1, 0.5):
            for _ in range(3):
                m = _random_matrix(rng, *shape, f, zero_share)
                full = is_full_superregular(m)
                _same(full, _reference_check(m, skip_trivial=False))
                entries = square_selections(*shape)
                _same(is_full_superregular(m, entries=entries),
                      _reference_check(m, skip_trivial=False))
                _same(is_superregular(m), _reference_check(m, skip_trivial=True))
                outside = _minors_outside_base(m, entries)
                assert outside == _reference_outside_base(m, None)
                # an all-ones partition enumerates A = I alone
                first = reference_full_minors(m)
                rep = check_msrd_transforms(m, LengthPartition([1] * m.cols))
                assert (rep.verdict, rep.witness and rep.witness["cols"]) == (
                    (True, None) if first is None else (False, list(first)))
                seen |= {("full", full.verdict), ("filter", outside),
                         ("full-size", first is None)}
    for grid in GRIDS:
        for zero_share in (0.0, 0.2, 0.5):
            for _ in range(3):
                m = _grid_matrix(rng, grid, f, zero_share)
                rep = is_superregular_constrained(m, grid)
                _same(rep, _reference_check(m, skip_trivial=False, grid=grid))
                entries = square_selections(grid.rows, grid.cols, grid)
                _same(is_superregular_constrained(m, grid, entries=entries),
                      _reference_check(m, skip_trivial=False, grid=grid))
                outside = _minors_outside_base(m, entries)
                assert outside == _reference_outside_base(m, grid)
                seen |= {("grid", rep.verdict), ("grid filter", outside)}
    # both outcomes of every check occur
    assert len(seen) == 10, sorted(seen)


# -- selection-list lifetime ---------------------------------------------------


def _cauchy_10x10():
    """Cauchy matrix 1/(x_i + y_j), x_i = a^i, y_j = a^(10+j), over F_256:
    full superregular, so its check sweeps all 184755 minors of a 10 x 10
    matrix, far more than SELECTION_CACHE_LIMIT."""
    f = F256
    return Matrix.from_rows(
        [[f.inv(f.alpha_pow(i) ^ f.alpha_pow(10 + j)) for j in range(10)]
         for i in range(10)], f)


def test_a_gridded_list_is_kept_by_its_own_length():
    # [3,1,5] at level 5: the 6 x 12 grid keeps 7,751 of the 18,563 square
    # selections, so its list is kept for the process although the
    # ungridded shape's would not be
    limit = superregular.SELECTION_CACHE_LIMIT
    assert superregular.count_block_selections((6,), (12,), False)[0] == 18563 > limit
    assert superregular.count_block_selections((1,) * 6, (2,) * 6, True)[0] == 7751 <= limit
    kept = square_selections(6, 12, BlockGrid.uniform(1, 2, 6))
    assert len(kept) == 7751
    assert square_selections(6, 12, BlockGrid.uniform(1, 2, 6)) is kept


def test_long_selection_lists_are_freed_with_the_call():
    cauchy = _cauchy_10x10()
    assert superregular.count_block_selections((10,), (10,), False)[0] > \
        superregular.SELECTION_CACHE_LIMIT
    tracemalloc.start()
    try:
        rep = is_full_superregular(cauchy)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (rep.verdict, rep.checked_count) == (True, 184755)
    assert retained < 1 << 20


def test_ten_by_ten_sweep_peaks_under_32_mb():
    # the 184755 entries, their terms and the flat memo, traced while the
    # check runs
    cauchy = _cauchy_10x10()
    tracemalloc.start()
    try:
        rep = is_full_superregular(cauchy)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.verdict is True
    assert peak < 32 << 20


def test_checkers_build_one_list_per_shape():
    """With no list kept for the process, every checker still builds each
    of its shapes' lists once, not once per matrix it sweeps."""
    square = mock.Mock(wraps=superregular._build_square_selections)
    full = mock.Mock(wraps=superregular._build_full_size_selections)
    code = SystematicBlockCode(LengthPartition([3, 2]), (2, 1),
                               systematic_form(construct_gabidulin(5, 3, F32)))
    enc = construct_frobenius(3, 1, 1, F8, F8.alpha)
    with mock.patch.multiple(superregular, SELECTION_CACHE_LIMIT=0,
                             _build_square_selections=square,
                             _build_full_size_selections=full):
        for mode in ("exact", "filter"):
            systematic = check_msrd_systematic(code, mode=mode)
            mmsr = check_mMSR(enc, mode=mode)
        transforms = check_msrd_transforms(construct_gabidulin(5, 2, F32),
                                           LengthPartition([3, 2]))
    # every check swept many matrices
    assert min(systematic.checked_count, mmsr.checked_count,
               transforms.checked_count) > 1
    # one square list per check: systematic and m-MSR level 1, in each
    # mode; one full-size list for the transform side
    assert square.call_count == 2 * 2
    assert full.call_count == 1
