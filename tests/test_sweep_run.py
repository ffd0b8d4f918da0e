"""The minor sweep over a run of matrices, and its zero-absorbing log
tables.

A run is one (B, A~) pair's C values: minor_sweep keeps the discrete logs
of the matrix entries across the run and rewrites only the group of C
cells an edit names, one cell per Gray step or every C cell for a random
draw.  Every minor a run evaluates must equal the determinant of the
run's current matrix, whichever group the edits wrote, and a later
matrix evaluates exactly the selections that hold a cell of its group;
a run of one matrix is a plain sweep; a run's sub-lists are built only
when swept; and the engine makes one predicate call per (B, A~) pair,
with the traced minors unchanged."""

import gc
import random
import sys
from itertools import product

import pytest
from conftest import ROOT
from test_transform_family import _TABLE_NEGATIVE, gray_order

from sumrank.block_codes import (
    SystematicBlockCode,
    check_msrd_systematic,
    check_transform_family,
    construct_gabidulin,
    family_counts,
    gray_moves,
    gray_steps,
    systematic_form,
)
from sumrank.conv_codes import check_mMSR
from sumrank.field import Field, base_field, field
from sumrank.matrix import Matrix, block_diag_cells, det
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


def test_gray_moves_of_18_cells_fit_in_a_megabyte():
    # [6,3,1]'s C run: one byte per step
    assert len(gray_moves(2, 18)) == 2 ** 18 - 1 < 1 << 20


# -- runs against matrix.det ----------------------------------------------------


FIELDS = [field(2, 2), field(2, 11), field(3, 2)]
FIELD_IDS = ["F4", "F2048", "F9"]


def _edit_stream(rng, cells, q, count):
    """Edits (g, values) over the groups (cells[0],), ..., (cells[-1],) and
    cells itself, with the values of every cell after each edit: the first
    sets every cell to 0, then gray_order moves one cell per edit, and
    every so often a C drawn at random rewrites every cell."""
    every = len(cells)
    values = [0] * every
    edits, states = [(every, tuple(values))], [tuple(values)]
    order = gray_order(q, every)
    for before, after in zip(order, order[1:]):
        if len(edits) == count:
            break
        if rng.random() < 0.25:
            values = [rng.randrange(q) for _ in cells]
            edits.append((every, tuple(values)))
        else:
            [i] = [i for i in range(every) if before[i] != after[i]]
            values[i] = after[i]
            edits.append((i, (after[i],)))
        states.append(tuple(values))
    return edits, states


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
    edits, states = _edit_stream(rng, cells, f.q, 40)
    tally = [0, 0]
    seen = [[] for _ in edits]
    run = minor_sweep(base, entries, f.order, (groups, iter(edits)), tally)
    for pos, ri, ci, v in run:
        step = tally[0] - 1
        t = base.copy()
        for i, c in zip(cells, states[step]):
            t.data[i] = f.add(base.data[i], c)
        assert v == det(t.submatrix(ri, ci)), (step, ri, ci)
        seen[step].append((ri, ci))
    # the first matrix evaluates every entry, each later one exactly those
    # whose rows and columns hold a cell of the group its edit wrote
    listed = [entries.selection(slot) for slot, *_ in entries]
    assert seen == [listed] + [
        [(ri, ci) for ri, ci in listed
         if any(r * cols + c in groups[e] for r in ri for c in ci)]
        for e, _ in edits[1:]]
    assert tally == [len(edits), sum(map(len, seen))]


def _sweep_against_det(base, entries, run, state):
    """Every minor the run yields, against det of the run's current matrix
    (state() gives the values added at its cells); returns the sizes seen
    and the tally."""
    f = base.field
    tally, sizes, positions = [0, 0], set(), []
    for pos, ri, ci, v in minor_sweep(base, entries, f.order, run, tally):
        t = base.copy()
        for i, c in state():
            t.data[i] = f.add(base.data[i], c)
        assert v == det(t.submatrix(ri, ci)), (tally[0], ri, ci)
        sizes.add(len(ri))
        positions.append(pos)
    # below = order yields every minor evaluated, in order
    assert positions == list(range(tally[1]))
    return sizes, tally


@pytest.mark.parametrize("f", [field(2, 8), field(3, 3)], ids=["F256", "F27"])
@pytest.mark.parametrize("grid", [None, BlockGrid([4, 3], [3, 4])], ids=["plain", "grid"])
@pytest.mark.parametrize("walk", ["gray", "draws"])
def test_every_size_branch_equals_det_over_a_run(f, grid, walk):
    """A 7 x 7 list reaches every unrolled size, 1 to 6, and the generic
    loop, size 7; a Gray run moves one of three cells per matrix and
    sweeps the records holding it, a run of draws rewrites all three."""
    rng = random.Random(f"{f.descriptor()}/{grid is None}/{walk}")
    entries = square_selections(7, 7, grid)
    base = Matrix(7, 7, f, [rng.randrange(f.order) for _ in range(49)])
    cells = [6, 24, 45]  # (0, 6), (3, 3), (6, 3)
    digits = [0] * len(cells)
    if walk == "gray":
        run = (cells, gray_moves(f.q, len(cells)), digits)
        matrices = f.q ** len(cells)
    else:
        def draws():
            for _ in range(4):
                digits[:] = [rng.randrange(f.q) for _ in cells]
                yield 0, digits
        run = ((tuple(cells),), draws())
        matrices = 4
    sizes, tally = _sweep_against_det(base, entries, run, lambda: zip(cells, digits))
    assert sizes == set(range(1, 8))
    assert tally[0] == matrices
    # a Gray run ends on the last tuple of the order
    if walk == "gray":
        assert tuple(digits) == gray_order(f.q, len(cells))[-1]


@pytest.mark.parametrize("f", FIELDS, ids=FIELD_IDS)
def test_a_run_of_one_matrix_is_a_plain_sweep(f):
    rng = random.Random(f.descriptor())
    entries = square_selections(3, 4)
    m = Matrix(3, 4, f, [rng.randrange(f.order) for _ in range(12)])
    for below in (1, f.q, f.order):
        plain = list(minor_sweep(m, entries, below))
        tally = [0, 0]
        assert list(minor_sweep(m, entries, below, (((),), [(0, ())]), tally)) == plain
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
        assert [entries.selection(slot)[1] for slot, *_ in sub] == [
            entries.selection(slot)[1] for slot, *_ in entries
            if 4 in entries.selection(slot)[1]]
        assert len(entries.held(col2)) == len(sub) and entries._held.keys() == {col2, col4}
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


@pytest.mark.parametrize("mode", ["exact", "filter"])
def test_grid_check_calls_the_predicate_once_per_pair_swept(mode):
    rep, metrics = _traced(lambda: check_mMSR(_TABLE_NEGATIVE, mode=mode, budget=10**9))
    [level] = rep.detail["levels"]
    calls = metrics["superregular.is_superregular_constrained.calls"]
    assert rep.verdict is False
    assert metrics["superregular.minors"] == level["minors"]
    if mode == "exact":
        # every pair before the witness's sweeps all its C
        assert calls == (rep.checked_count - 1) // level["c_count"] + 1
    else:
        assert 1 <= calls <= level["b_count"] * level["a_count"]
    b_count, a_count, _ = family_counts([2] * 3, [2] * 3, 2)
    assert (level["b_count"], level["a_count"]) == (b_count, a_count)


def test_a_false_witness_c_is_the_gray_digits_at_its_t():
    """The sweep keeps the Gray digits; a False witness's C is read from
    them, so it is the gray_order tuple at the witnessed T of its pair."""
    rep = check_mMSR(_TABLE_NEGATIVE, mode="exact", budget=10**9)
    [level] = rep.detail["levels"]
    # the witness's pair sweeps its C in gray_order up to T number t + 1
    t = (rep.checked_count - 1) % level["c_count"]
    c = [v for block in rep.witness["transform"]["C"] for row in block for v in row]
    assert (rep.verdict, t) == (False, 1027) and any(c)
    assert tuple(c) == gray_order(2, len(c))[t]
    # over F_27, whose digits move by -1 as well as +1
    f = field(3, 3)
    p = Matrix.from_rows([[8, 12, 13], [5, 7, 23]], f)
    rep = check_transform_family(p, (2,), (3,), False, "exact", 10**8)
    t = (rep.checked_count - 1) % rep.detail["c_count"]
    [c] = rep.witness["transform"]["C"]
    assert (rep.verdict, t) == (False, 34)
    assert tuple(v for row in c for v in row) == gray_order(3, 6)[t]
