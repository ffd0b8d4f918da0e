"""The minor sweep over a run of matrices, and its zero-absorbing log
tables.

A run is a matrix and a stream of additive steps: minor_sweep keeps the
current entries and their discrete logs across the run, and a step adds
its deltas to the cells of one group: one C cell per Gray step, or a
column of G A on the transform side; the streams here also rewrite
every C cell at once, a group of several cells.  Every
minor a run evaluates must equal the determinant of the run's current
matrix, whichever group the steps wrote, and a later matrix evaluates
exactly the selections that hold a cell of its group; a run of one matrix
is a plain sweep; a run's sub-lists are built only when swept; the
engine makes one predicate call per (B, A~) pair, with the traced minors
unchanged; and a False witness is rebuilt from its step count."""

import gc
import random
import sys
from itertools import product

import pytest
from conftest import ROOT
from test_transform_family import _TABLE_NEGATIVE, block_order, gray_order

from sumrank.block_codes import (
    SystematicBlockCode,
    check_msrd_systematic,
    check_msrd_transforms,
    check_transform_family,
    construct_gabidulin,
    family_counts,
    gray_digits,
    gray_moves,
    gray_steps,
    recheck_transform_witness,
    systematic_form,
)
from sumrank.conv_codes import check_mMSR
from sumrank.field import Field, base_field, field
from sumrank.matrix import (
    Matrix,
    block_diag_cells,
    det,
    diagonal_blocks,
    minor,
    unit_block_diag,
)
from sumrank.metrics import LengthPartition
from sumrank.superregular import (
    BlockGrid,
    _build_full_size_selections,
    minor_sweep,
    square_selections,
)

# -- the zero-absorbing tables --------------------------------------------------


def _largest_index(f):
    log, ext = f.zero_log_tables
    return max(log[a] + log[b] for a in (0, 1) for b in (0, 1))


@pytest.mark.parametrize("f", [base_field(2), field(2, 2), field(2, 8)],
                         ids=["F2", "F4", "F256"])
def test_zero_log_tables_multiply_every_pair(f):
    # F2 has n = 1, so every nonzero log is 0 and the wrap is the whole table
    log, ext = f.zero_log_tables
    for a in range(f.order):
        for b in range(f.order):
            assert ext[log[a] + log[b]] == f.mul(a, b), (a, b)
    n = f.order - 1
    assert log[0] == 2 * n
    # two zeros reach 2Z = 4n, the table's last index
    assert _largest_index(f) == len(ext) - 1 == 4 * n


def test_zero_log_tables_on_a_sample_of_f2048():
    f = field(2, 11)
    log, ext = f.zero_log_tables
    rng = random.Random(2048)
    pairs = [(rng.randrange(f.order), rng.randrange(f.order)) for _ in range(20000)]
    pairs += [(0, 0), (0, f.order - 1), (f.order - 1, f.order - 1), (1, 1)]
    for a, b in pairs:
        assert ext[log[a] + log[b]] == f.mul(a, b), (a, b)
    assert _largest_index(f) == len(ext) - 1 == 4 * (f.order - 1)


def test_zero_log_tables_are_built_on_first_use():
    f = Field(2, 5)
    assert "zero_log_tables" not in vars(f)
    assert f.zero_log_tables is f.zero_log_tables


# -- the Gray order -------------------------------------------------------------


@pytest.mark.parametrize("q", [2, 3, 5])
@pytest.mark.parametrize("c", range(5))
def test_gray_steps_visit_every_tuple_once_one_cell_at_a_time(q, c):
    values = [0] * c
    seen = [tuple(values)]
    moves = [0] * c
    for i, d in gray_steps(q, c):
        assert d in (1, -1) and 0 <= values[i] + d < q
        values[i] += d
        moves[i] += 1
        seen.append(tuple(values))
    assert sorted(seen) == list(product(range(q), repeat=c))
    # cell i, counted from the slowest, moves (q-1) q^i times
    assert moves == [(q - 1) * q ** i for i in range(c)]
    # and the order is the recursive reflected one
    assert seen == gray_order(q, c)


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("c", range(7))
def test_gray_moves_replay_gray_steps(q, c):
    moves = gray_moves(q, c)
    assert type(moves) is bytes and len(moves) == q ** c - 1
    assert [(b >> 1, -1 if b & 1 else 1) for b in moves] == list(gray_steps(q, c))


@pytest.mark.parametrize("q", [2, 3, 5])
@pytest.mark.parametrize("c", range(6))
def test_gray_digits_are_the_digits_after_every_step(q, c):
    values = [0] * c
    assert gray_digits(q, c, 0) == values
    for s, (i, d) in enumerate(gray_steps(q, c), 1):
        values[i] += d
        assert gray_digits(q, c, s) == values, s


def test_gray_moves_of_18_cells_fit_in_a_megabyte():
    # [6,3,1]'s C run: one byte per step
    assert len(gray_moves(2, 18)) == 2 ** 18 - 1 < 1 << 20


# -- runs against matrix.det ----------------------------------------------------


FIELDS = [field(2, 2), field(2, 11), field(3, 2)]
FIELD_IDS = ["F4", "F2048", "F9"]


def _step_stream(rng, f, cells, count):
    """Steps (g, ((cell, delta), ...)) over the groups (cells[0],), ...,
    (cells[-1],) and cells itself, with the values added at every cell
    in each matrix of the run: the first matrix adds none, then
    gray_order moves one cell per step, and every so often a value drawn
    at random from f rewrites every cell, a step of differences."""
    every = len(cells)
    values = [0] * every
    steps, states = [], [tuple(values)]
    order = gray_order(f.q, every)
    for before, after in zip(order, order[1:]):
        if len(states) == count:
            break
        if rng.random() < 0.25:
            drawn = [rng.randrange(f.order) for _ in cells]
            steps.append((every, tuple(zip(cells, map(f.sub, drawn, values)))))
            values = drawn
        else:
            [i] = [i for i in range(every) if before[i] != after[i]]
            delta = f.sub(after[i], before[i])  # +-1 in the base field
            steps.append((i, ((cells[i], delta),)))
            values[i] = f.add(values[i], delta)
        states.append(tuple(values))
    return steps, states


def _selections_in_order(entries):
    """(rows, cols) of every record of entries, in sweep order: the
    record at position p memoizes slot p + 1."""
    return [entries.selection(slot) for slot in range(1, len(entries) + 1)]


@pytest.mark.parametrize("f", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("ks, nks, grid", [((2,), (3,), False), ((1, 2), (2, 1), False),
                                           ((2, 2), (1, 1), True)])
def test_every_minor_of_a_run_equals_det(f, ks, nks, grid):
    rng = random.Random(f"{f.descriptor()}/{ks}/{nks}")
    rows, cols = sum(ks), sum(nks)
    g = BlockGrid(ks, nks) if grid else None
    entries = square_selections(rows, cols, g)
    cells = block_diag_cells(ks, nks, False)
    groups = [(i,) for i in cells] + [tuple(cells)]
    base = Matrix(rows, cols, f, [rng.randrange(f.order) for _ in range(rows * cols)])
    for r, c in product(range(rows), range(cols)):
        if rng.random() < 0.2:
            base[r, c] = 0
    steps, states = _step_stream(rng, f, cells, 40)
    tally = [0, 0]
    seen = [[] for _ in states]
    run = minor_sweep(base, entries, f.order, (groups, iter(steps)), tally)
    for pos, slot, v in run:
        step = tally[0] - 1
        t = base.copy()
        for i, c in zip(cells, states[step]):
            t.data[i] = f.add(base.data[i], c)
        ri, ci = entries.selection(slot)
        assert v == det(t.submatrix(ri, ci)), (step, ri, ci)
        seen[step].append((ri, ci))
    # the first matrix evaluates every entry, each later one exactly those
    # whose rows and columns hold a cell of the group its step wrote
    listed = _selections_in_order(entries)
    assert seen == [listed] + [
        [(ri, ci) for ri, ci in listed
         if any(r * cols + c in groups[e] for r in ri for c in ci)]
        for e, _ in steps]
    assert tally == [len(states), sum(map(len, seen))]


def _sweep_against_det(first, entries, run, matrix):
    """Every minor the run from `first` yields, against det of the run's
    current matrix, matrix(s) for the s-th after the first; returns the
    sizes seen and the tally."""
    tally, sizes, positions = [0, 0], set(), []
    for pos, slot, v in minor_sweep(first, entries, first.field.order, run, tally):
        ri, ci = entries.selection(slot)
        assert v == det(matrix(tally[0] - 1).submatrix(ri, ci)), (tally[0], ri, ci)
        sizes.add(len(ri))
        positions.append(pos)
    # below = order yields every minor evaluated, in order
    assert positions == list(range(tally[1]))
    return sizes, tally


def _with_values(m, cells, values):
    """m with values added at the cells."""
    t = m.copy()
    for i, v in zip(cells, values):
        t.data[i] = m.field.add(m.data[i], v)
    return t


@pytest.mark.parametrize("f", [field(2, 8), field(3, 3)], ids=["F256", "F27"])
@pytest.mark.parametrize("grid", [None, BlockGrid([4, 3], [3, 4])], ids=["plain", "grid"])
@pytest.mark.parametrize("walk", ["gray", "draws", "columns"])
def test_every_size_branch_equals_det_over_a_run(f, grid, walk):
    """A 7 x 7 list reaches every unrolled size, 1 to 6, and the generic
    loop, size 7.  A Gray run moves one of three cells per matrix and
    sweeps the records holding it, a run of draws rewrites all three, and
    a column run adds +-1 times one column of the first matrix to another,
    the transform side's G A."""
    rng = random.Random(f"{f.descriptor()}/{grid is None}/{walk}")
    entries = square_selections(7, 7, grid)
    base = Matrix(7, 7, f, [rng.randrange(f.order) for _ in range(49)])
    cells = [6, 24, 45]  # (0, 6), (3, 3), (6, 3)
    gray = gray_moves(f.q, len(cells))
    if walk == "gray":
        moves = [(j, ((i, d),)) for j, i in enumerate(cells) for d in (1, f.neg(1))]
        run = ([(i,) for i in cells], map(moves.__getitem__, gray))
        first = base

        def matrix(s):
            return _with_values(base, cells, gray_digits(f.q, len(cells), s))
        matrices = f.q ** len(cells)
    elif walk == "draws":
        drawn = [[rng.randrange(f.order) for _ in cells] for _ in range(4)]
        run = ((tuple(cells),), [(0, tuple(zip(cells, map(f.sub, now, last))))
                                 for last, now in zip(drawn, drawn[1:])])
        first = _with_values(base, cells, drawn[0])

        def matrix(s):
            return _with_values(base, cells, drawn[s])
        matrices = 4
    else:
        # free cells (r', c) of a unit upper-triangular A: (2, 6), (0, 3), (1, 3)
        a_cells, cols = [2 * 7 + 6, 0 * 7 + 3, 1 * 7 + 3], [6, 3]
        moves = []
        for i in a_cells:
            up = tuple((r * 7 + i % 7, base[r, i // 7]) for r in range(7))
            g = cols.index(i % 7)
            moves += [(g, up), (g, tuple((x, f.neg(y)) for x, y in up))]
        run = ([tuple(range(c, 49, 7)) for c in cols], map(moves.__getitem__, gray))
        first = base

        def matrix(s):
            a = Matrix.identity(7, f)
            for i, v in zip(a_cells, gray_digits(f.q, len(a_cells), s)):
                a.data[i] = v
            return base @ a
        matrices = f.q ** len(a_cells)
    sizes, tally = _sweep_against_det(first, entries, run, matrix)
    assert sizes == set(range(1, 8))
    assert tally[0] == matrices


@pytest.mark.parametrize("f", FIELDS, ids=FIELD_IDS)
def test_a_run_of_one_matrix_is_a_plain_sweep(f):
    rng = random.Random(f.descriptor())
    entries = square_selections(3, 4)
    m = Matrix(3, 4, f, [rng.randrange(f.order) for _ in range(12)])
    for below in (1, f.q, f.order):
        plain = list(minor_sweep(m, entries, below))
        for run in (((), ()), (((0, 5),), iter(()))):
            tally = [0, 0]
            assert list(minor_sweep(m, entries, below, run, tally)) == plain
            assert tally == [1, len(entries)]


def test_holding_builds_a_sub_list_on_first_use_and_frees_with_its_list():
    # two groups, the cells of columns 2 and 4 of a 3 x 6 matrix
    gc.collect()
    gc.disable()
    try:
        entries = _build_full_size_selections(3, 6)
        col2, col4 = (sum(1 << r * 6 + c for r in range(3)) for c in (2, 4))
        assert entries._held == {}
        sub = entries.held(col4)
        assert type(sub) is list and entries._held == {col4: sub}
        assert entries.held(col4) is sub
        # minor_sweep's runs: size ascending, each a list of record tuples
        # of its size and the records before it
        before = 0
        assert [s for s, *_ in sub] == [1, 2, 3]
        for s, recs, start in sub:
            assert type(recs) is list and start == before
            assert all(type(rec) is tuple and len(rec) == 2 * s + 1 for rec in recs)
            before += len(recs)
        assert [entries.selection(rec[0]) for _, recs, _ in sub for rec in recs] == [
            sel for sel in _selections_in_order(entries) if 4 in sel[1]]
        assert sum(len(recs) for _, recs, _ in entries.held(col2)) == before
        assert entries._held.keys() == {col2, col4}
        # a list built per call is freed by reference counting alone when
        # dropped, its sub-lists with it: no cycle is left to collect
        del entries, sub
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- one predicate call per (B, A~) pair -------------------------------------------


def _traced(call):
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from tracer import Tracer
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    import sumrank.cli  # noqa: F401  (the tracer wraps names in every module)

    with Tracer() as tr:
        rep = call()
    return rep, tr.metrics()


def test_block_check_calls_the_predicate_once_per_pair():
    code = SystematicBlockCode(LengthPartition([4]), (2,),
                               systematic_form(construct_gabidulin(4, 2, field(3, 4))))
    rep, metrics = _traced(lambda: check_msrd_systematic(code))
    pairs = rep.detail["b_count"] * rep.detail["a_count"]
    assert (rep.verdict, pairs, rep.checked_count) == (True, 9, 729)
    assert metrics["superregular.is_full_superregular.calls"] == pairs
    assert metrics["superregular.minors"] == rep.detail["minors"] == 1485


def test_grid_check_calls_the_predicate_once_per_pair_swept():
    rep, metrics = _traced(lambda: check_mMSR(_TABLE_NEGATIVE))
    [level] = rep.detail["levels"]
    calls = metrics["superregular.is_superregular_constrained.calls"]
    assert rep.verdict is False
    assert metrics["superregular.minors"] == level["minors"]
    # every pair before the witness's sweeps all its C
    assert calls == (rep.checked_count - 1) // level["c_count"] + 1
    b_count, a_count, _ = family_counts([2] * 3, [2] * 3, 2)
    assert (level["b_count"], level["a_count"]) == (b_count, a_count)


def test_a_false_witness_c_is_the_gray_digits_at_its_t():
    """A False witness's C is rebuilt from the T its pair swept, so it is
    the gray_order tuple at the witnessed T of its pair, its cells read
    block by block in block_order, each block row-major."""
    rep = check_mMSR(_TABLE_NEGATIVE)
    [level] = rep.detail["levels"]
    # the witness's pair sweeps its C in gray_order up to T number t + 1
    t = (rep.checked_count - 1) % level["c_count"]
    blocks = rep.witness["transform"]["C"]
    c = [v for i in block_order([2] * 3, [2] * 3, BlockGrid([2] * 3, [2] * 3))
         for row in blocks[i] for v in row]
    assert (rep.verdict, t) == (False, 67) and any(c)
    assert tuple(c) == gray_order(2, len(c))[t]
    # over F_27, whose digits move by -1 as well as +1
    f = field(3, 3)
    p = Matrix.from_rows([[8, 12, 13], [5, 7, 23]], f)
    rep = check_transform_family(p, (2,), (3,), False, 10**8)
    t = (rep.checked_count - 1) % rep.detail["c_count"]
    [c] = rep.witness["transform"]["C"]
    assert (rep.verdict, t) == (False, 34)
    assert tuple(v for row in c for v in row) == gray_order(3, 6)[t]


def test_a_false_witness_is_rebuilt_from_its_step_count():
    """A transform-side False carries the A its Gray walk reached, replayed
    from the A swept, and rechecks."""
    for f, parts, data, swept in [(field(2, 4), (4,), [11, 10, 10, 3, 9, 7, 15, 4], 19),
                                  (field(3, 2), (3, 1), [2, 1, 7, 2, 3, 2, 1, 6], 9)]:
        g, partition = Matrix(2, 4, f, data), LengthPartition(parts)
        rep = check_msrd_transforms(g, partition)
        assert (rep.verdict, rep.checked_count) == (False, swept)
        a_cells = block_diag_cells(parts, parts, True)
        a = unit_block_diag(parts, f.q, gray_order(f.q, len(a_cells))[swept - 1])
        assert rep.witness["transform"]["A"] == diagonal_blocks(a, parts, parts)
        assert minor(g @ a, rep.witness["rows"], rep.witness["cols"]) == 0
        assert recheck_transform_witness(g, partition, rep.witness)
