"""The minor sweep, trivial-minor detection and the superregularity
predicates.

A square minor is *trivial* when every Leibniz term of its determinant
hits a structural zero, i.e. the zero pattern of the submatrix admits no
perfect matching between rows and columns.  A matrix is superregular if
all non-trivial minors are nonzero, and full superregular if every minor
of every size is nonzero.

Every predicate here, and the transform run in block_codes, evaluates
minors through one sweep: minor_sweep expands each selected minor along
its last row, reusing the minors of one size less that it memoized.  The memo is one flat list per sweep, numbered
by the list: the record at position p memoizes its minor at slot p + 1,
and slot 0 holds the empty minor.  A selection's sweep record is 2s + 1
fields: its slot, then for each Laplace term the matrix data index and
the memo slot of the sub-minor it multiplies, so a term is read with no
address arithmetic; the records of a list fall in runs of equal size,
one flat list of fields per run.  Over a field of characteristic
2 the sweep works in the log domain on zero-absorbing tables
(Field.zero_log_tables): it keeps the discrete log of every entry and
memoizes the logs of the minors, so each Leibniz term is one antilog
lookup and an XOR, with no test for zero, and each size up to 6 has its
own straight-line loop.
The selections it walks come from square_selections (size ascending,
then lexicographic, grid-filtered when a block grid is given); every
Laplace sub-selection of a listed selection is listed before it.  Each
list kind has one count, taken without listing: count_block_selections
for square lists (a grid's blocks, or one block of the whole matrix) and
count_full_size_selections for full-size ones.  A list is kept for the
process while its count is at most SELECTION_CACHE_LIMIT, and a longer
one is built per call; whoever builds a list charges its budget from
that count first, so a refused check builds none, and a checker builds
its list once and passes it, already charged, to every call (entries).
One sweep serves a run of matrices that differ in a few cells, the C
values of one (B, A~) pair or the transform side's A (run=).  Every run
has one form: a matrix, then a stream of additive steps, each adding
deltas to the cells of one group (a C cell, or a column of G A).  The
sweep keeps the current entries and their logs, and re-evaluates only
the records whose selection holds a cell of the step's group
(_Selections.held keeps the runs of record tuples of each group's bit
mask, split by size, each built on first use and kept with the list
itself).
The predicates take the run too and return one report for it.  One Boolean
sweep, the same recursion over the same lists (nontrivial_slots),
decides triviality for count_nontrivial_minors and is_superregular.
Witness rechecks stay on matrix.det (Gaussian elimination), so each False
witness is confirmed by a method independent of the sweep.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from itertools import combinations
from math import comb
from operator import itemgetter

from .matrix import Matrix
from .report import INFEASIBLE, VerificationReport

DEFAULT_SELECTION_BUDGET = 10**8
# Longest selection list kept for the process (a record takes about 127
# bytes with its slot's int object on the 10 x 10 list and about 134 on
# the gridded 6 x 12 one, measured by tracemalloc); the engine's shapes
# list at most a few thousand.
SELECTION_CACHE_LIMIT = 1 << 14


class ZeroPattern:
    """Boolean support grid: True where an entry is structurally nonzero."""

    def __init__(self, support: list[list[bool]]):
        self.rows = len(support)
        self.cols = len(support[0]) if self.rows else 0
        if any(len(r) != self.cols for r in support):
            raise ValueError("ragged support grid")
        self.support = [[bool(v) for v in row] for row in support]

    @classmethod
    def of(cls, m: Matrix) -> "ZeroPattern":
        return cls([[v != 0 for v in m.row(r)] for r in range(m.rows)])

    def __getitem__(self, rc):
        r, c = rc
        return self.support[r][c]


class BlockGrid:
    """Block layout of a sliding parity matrix T_j.

    Row blocks all have size k, column blocks size n-k; blocks (s, t)
    with s > t sit below the block diagonal and are structurally zero.
    """

    def __init__(self, row_block_sizes: list[int], col_block_sizes: list[int]):
        if len(row_block_sizes) != len(col_block_sizes):
            raise ValueError("row and column block counts differ")
        self.row_block_sizes = list(row_block_sizes)
        self.col_block_sizes = list(col_block_sizes)
        self.rows = sum(row_block_sizes)
        self.cols = sum(col_block_sizes)
        self._row_block = _index_to_block(row_block_sizes)
        self._col_block = _index_to_block(col_block_sizes)

    @classmethod
    def uniform(cls, k: int, nk: int, blocks: int) -> "BlockGrid":
        return cls([k] * blocks, [nk] * blocks)

    def diagonal_allowed(self, row_indices, col_indices) -> bool:
        """True iff every diagonal entry of the selection lies in a block
        (s, t) with s <= t."""
        return all(
            self._row_block[r] <= self._col_block[c]
            for r, c in zip(row_indices, col_indices)
        )


def _index_to_block(sizes) -> list[int]:
    out = []
    for b, s in enumerate(sizes):
        out.extend([b] * s)
    return out


# -- selection enumeration ----------------------------------------------------


@lru_cache(maxsize=256)
def count_block_selections(ks: tuple, nks: tuple, grid: bool) -> tuple:
    """(total, held): the square selections of a sum(ks) x sum(nks)
    matrix (with grid, the BlockGrid(ks, nks)-qualifying ones) and those
    holding any one cell of diagonal block ks[i] x nks[i] (held[i]),
    counted without listing them.  One pass over the blocks tracks the rows taken less
    the columns taken; under the grid a selection qualifies iff no prefix
    of blocks takes more columns than rows, the sorted pairing of
    BlockGrid.diagonal_allowed written as a count."""

    def count(takes) -> int:
        # takes[i]: (a, b, ways) to take a rows and b columns of block i
        ways = {0: 1}  # rows less columns taken so far -> selections
        for block in takes:
            step = {}
            for d, m in ways.items():
                for a, b, n in block:
                    if not grid or d + a - b >= 0:
                        step[d + a - b] = step.get(d + a - b, 0) + m * n
            ways = step
        return ways.get(0, 0)

    every = [[(a, b, comb(k, a) * comb(w, b)) for a in range(k + 1) for b in range(w + 1)]
             for k, w in zip(ks, nks)]
    holding = [[(a, b, comb(k - 1, a - 1) * comb(w - 1, b - 1))
                for a in range(1, k + 1) for b in range(1, w + 1)] for k, w in zip(ks, nks)]
    held = tuple(count(every[:i] + [h] + every[i + 1:]) for i, h in enumerate(holding))
    # the count takes the empty selection too, which total leaves out
    return count(every) - 1, held


def count_full_size_selections(rows: int, cols: int) -> int:
    """Length of full_size_selections(rows, cols): sum over s of C(cols, s)."""
    return sum(comb(cols, s) for s in range(1, rows + 1))


def iter_square_selections(rows: int, cols: int):
    """Square (row, col) selections, size ascending then lexicographic."""
    for s in range(1, min(rows, cols) + 1):
        for ri in combinations(range(rows), s):
            for ci in combinations(range(cols), s):
                yield ri, ci


# -- the minor sweep ------------------------------------------------------------


class _Selections:
    """The sweep records of a selection list.  runs holds (s, flat, start)
    per run of size-s records: flat their fields, one record after
    another (2s + 1 each, as _entries lays them out), and start the
    records before the run.  The record at position p memoizes its minor
    at slot p + 1, so the memo is len + 1 slots, slot 0 the empty minor,
    and selection(slot) names a slot's minor."""

    __slots__ = ("runs", "_len", "_ncols", "_masks", "_held")

    def __len__(self) -> int:
        return self._len

    def selection(self, slot: int) -> tuple[tuple, tuple]:
        """(rows, cols) of the minor memoized at `slot`: its record's data
        indices give its last row and its columns, and its first
        sub-minor's slot, followed down to slot 0, the earlier rows."""
        w = self._ncols
        rows, cols = [], ()
        for s, flat, start in reversed(self.runs):
            if slot > start:
                at = (slot - 1 - start) * (2 * s + 1)
                idx = flat[at + 1:at + s + 1]
                rows.append(idx[0] // w)
                cols = cols or tuple(i % w for i in idx)
                slot = flat[at + s + 1]
        return tuple(reversed(rows)), cols

    def held(self, bits: int) -> list:
        """The records whose selection holds a cell of the group with bit
        mask `bits` (bit row * cols + col), in sweep order, as minor_sweep's
        runs: (s, the size-s records as tuples, the records before them)
        per size, ascending.  Built on first use and kept as long as this
        list is."""
        runs = self._held.get(bits)
        if runs is None:
            if self._masks is None:
                # per slot, the bits 1 << r * w of its rows and 1 << c of
                # its columns: its first sub-minor's, and the row and
                # column of its record's first data index; a record's
                # cells are their product
                w = self._ncols
                rows, cols = [0], [0]
                for s, flat, _ in self.runs:
                    for rec in _fields(flat, s):
                        i, sub = rec[1], rec[s + 1]
                        rows.append(rows[sub] | 1 << (i - i % w))
                        cols.append(cols[sub] | 1 << (i % w))
                self._masks = [r * c for r, c in zip(rows[1:], cols[1:])]
            runs, start, masks = [], 0, iter(self._masks)
            for s, flat, _ in self.runs:
                # zip stops at the run's end before taking the next mask
                recs = [rec for rec, m in zip(_fields(flat, s), masks) if m & bits]
                if recs:
                    runs.append((s, recs, start))
                    start += len(recs)
            self._held[bits] = runs
        return runs


def _fields(flat: list, s: int):
    """The size-s records of a run's flat fields, as tuples."""
    it = iter(flat)
    return zip(*[it] * (2 * s + 1))


def _bits(indices) -> int:
    return sum(1 << i for i in indices)


def _entries(pairs, ncols: int) -> _Selections:
    """Sweep records for square selections, numbered by the list.

    The record at position p is the 2s + 1 fields (slot, i_1..i_s,
    m_1..m_s) for columns c_1 < .. < c_s: slot is p + 1, its minor's memo
    slot (slot 0 holds the empty minor, 1), i_t indexes the matrix data
    at the last selected row and column c_t, and m_t is the slot of the
    minor left by deleting that row and column.  The pairs come size
    ascending, each row tuple's selections together, so the records fall
    in runs of equal size, kept as one flat list of fields per run.  Each
    slot is one int object, shared by every record that reads it, and so
    is each tuple of data indices.
    """
    # per size, columns -> (their lexicographic rank, a getter taking the
    # slots of a row tuple below, by rank, to those of their Laplace
    # sub-minors)
    levels = [{(): (0, None)}]
    blocks = {(): [0]}  # row tuple -> its selections' slots by column rank
    by_last = {}  # (last row, size) -> data index tuples by column rank
    runs = []
    row = None
    slot = 0
    for ri, ci in pairs:
        if ri != row:
            # a new row tuple, maybe of a new size: refresh what its
            # selections share
            row, s = ri, len(ri)
            while len(levels) <= s:
                t = len(levels)
                below = levels[t - 1]
                levels.append({c: (rank, _getter([below[c[:u] + c[u + 1:]][0]
                                                  for u in range(t)]))
                               for rank, c in enumerate(combinations(range(ncols), t))})
            level = levels[s]
            block = blocks[ri] = [None] * len(level)
            sub = blocks[ri[:-1]]
            off = ri[-1] * ncols
            idxs = by_last.setdefault((ri[-1], s), [None] * len(level))
            if not runs or runs[-1][0] != s:
                runs.append((s, [], slot))
            flat = runs[-1][1]
        rank, get = level[ci]
        idx = idxs[rank]
        if idx is None:
            idx = idxs[rank] = tuple(off + c for c in ci)
        slot += 1
        block[rank] = slot
        flat.append(slot)
        flat += idx
        flat += get(sub)
    out = _Selections()
    out.runs, out._len, out._ncols, out._masks, out._held = runs, slot, ncols, None, {}
    return out


def _getter(ranks: list):
    """A callable taking a sequence to the tuple of its items at ranks."""
    if len(ranks) == 1:
        return lambda seq, r=ranks[0]: (seq[r],)
    return itemgetter(*ranks)


@lru_cache(maxsize=64)
def _kept(build, *shape) -> _Selections:
    return build(*shape)


def square_selections(rows: int, cols: int, grid: BlockGrid | None = None) -> _Selections:
    """Sweep records for every square selection of a rows x cols matrix,
    size ascending then lexicographic; with a grid, only the grid-qualifying
    ones.  Deleting the last row and any column of a qualifying selection
    leaves a qualifying one (the later columns move to earlier rows, whose
    blocks are no lower), so each entry's sub-minors are listed before it.
    A grid must be rows x cols (ValueError otherwise)."""
    if grid is not None and (grid.rows, grid.cols) != (rows, cols):
        raise ValueError(
            f"a {grid.rows} x {grid.cols} grid on a {rows} x {cols} selection list")
    blocks = None if grid is None else (
        tuple(grid.row_block_sizes), tuple(grid.col_block_sizes))
    if _square_count(rows, cols, grid) > SELECTION_CACHE_LIMIT:
        return _build_square_selections(rows, cols, blocks)
    return _kept(_build_square_selections, rows, cols, blocks)


def _square_count(rows: int, cols: int, grid: BlockGrid | None) -> int:
    """Length of square_selections(rows, cols, grid), counted without
    listing: the grid's count_block_selections, or one block's without."""
    if grid is None:
        return count_block_selections((rows,), (cols,), False)[0]
    return count_block_selections(
        tuple(grid.row_block_sizes), tuple(grid.col_block_sizes), True)[0]


def _build_square_selections(rows: int, cols: int, blocks) -> _Selections:
    pairs = iter_square_selections(rows, cols)
    if blocks is not None:
        grid = BlockGrid(*blocks)
        pairs = (p for p in pairs if grid.diagonal_allowed(*p))
    return _entries(pairs, cols)


def full_size_selections(rows: int, cols: int) -> _Selections:
    """Sweep records for the selections of the first s rows against every
    s columns, s = 1..rows: the full-size minors, size rows, come last, after
    all the sub-minors their expansions use."""
    if count_full_size_selections(rows, cols) > SELECTION_CACHE_LIMIT:
        return _build_full_size_selections(rows, cols)
    return _kept(_build_full_size_selections, rows, cols)


def _build_full_size_selections(rows: int, cols: int) -> _Selections:
    return _entries(
        ((tuple(range(s)), ci)
         for s in range(1, rows + 1) for ci in combinations(range(cols), s)),
        cols,
    )


def minor_sweep(m: Matrix, entries: _Selections, below: int, run: tuple | None = None,
                tally: list | None = None):
    """Yield (position, slot, minor) for each sweep record whose minor has
    a code below `below`, in order: below=1 yields the vanishing minors,
    and below=m.field.order every minor.  entries.selection(slot) names the
    minor's rows and columns.

    Each minor is the Laplace expansion along its last selected row,
    sum over t of (-1)^((s-1)+t) m[r, c_t] times a memoized minor of size
    s-1, so every record's sub-minors must come earlier in `entries` (the
    listers above guarantee it).  The memo is one flat list of
    len(entries) + 1 slots, the record at position p writing slot p + 1
    and slot 0 holding the empty minor.  Over a field
    of characteristic 2 the signs vanish, addition is XOR, and the sweep
    keeps the discrete logs of the entries and memoizes the minors' logs,
    zero included (Field.zero_log_tables), so a term is one antilog
    lookup; each run of equal-size records up to size 6 has its own
    straight-line loop.  Otherwise products go through the field.

    run = (groups, steps) sweeps a run of matrices: m, then one matrix per
    step.  groups are tuples of flat indices, and a step (g, ((cell,
    delta), ...)) adds each delta, an element of m's field, to the current
    entry of its cell, a cell of groups[g]; the sweep keeps the current
    entries itself.  The first matrix sweeps all of entries, a later one
    only entries.held(bits), bits the mask of its step's group: the
    records whose selection holds a cell of that group, while the others,
    and the sub-minors they expand into, keep their values.  Without a
    run the sweep is a run of one matrix, m.  position counts the minors
    evaluated in the run before this one (for one matrix, the record's
    position).  tally, a list [0, 0] when given, counts [matrices begun,
    minors evaluated in the matrices done].
    """
    f = m.field
    groups, steps = ((), ()) if run is None else run
    steps = iter(steps)
    held = [None] * len(groups)  # (entries.held, its length) of each group, on first use
    char2 = f.q == 2
    codes = list(m.data)
    if char2:
        log, ext = f.zero_log_tables
        data = [log[a] for a in codes]
        memo = [log[0]] * (len(entries) + 1)
        memo[0] = 0
    else:
        add, neg, mul = f.add, f.neg, f.mul
        data = codes
        memo = [0] * (len(entries) + 1)
        memo[0] = 1
    tally = [0, 0] if tally is None else tally
    # the whole list's runs, whose positions need no start: slot - 1
    runs = [(s, _fields(flat, s), None) for s, flat, _ in entries.runs]
    count = len(entries)
    done = 0
    tally[0] = matrices = 1
    while True:
        if char2:
            for s, recs, start in runs:
                if s == 1:
                    for slot, i0, m0 in recs:
                        acc = ext[data[i0] + memo[m0]]
                        memo[slot] = log[acc]
                        if acc < below:
                            yield done + _index(recs, start, slot), slot, acc
                elif s == 2:
                    for slot, i0, i1, m0, m1 in recs:
                        acc = ext[data[i0] + memo[m0]] ^ ext[data[i1] + memo[m1]]
                        memo[slot] = log[acc]
                        if acc < below:
                            yield done + _index(recs, start, slot), slot, acc
                elif s == 3:
                    for slot, i0, i1, i2, m0, m1, m2 in recs:
                        acc = (ext[data[i0] + memo[m0]] ^ ext[data[i1] + memo[m1]]
                               ^ ext[data[i2] + memo[m2]])
                        memo[slot] = log[acc]
                        if acc < below:
                            yield done + _index(recs, start, slot), slot, acc
                elif s == 4:
                    for slot, i0, i1, i2, i3, m0, m1, m2, m3 in recs:
                        acc = (ext[data[i0] + memo[m0]] ^ ext[data[i1] + memo[m1]]
                               ^ ext[data[i2] + memo[m2]] ^ ext[data[i3] + memo[m3]])
                        memo[slot] = log[acc]
                        if acc < below:
                            yield done + _index(recs, start, slot), slot, acc
                elif s == 5:
                    for slot, i0, i1, i2, i3, i4, m0, m1, m2, m3, m4 in recs:
                        acc = (ext[data[i0] + memo[m0]] ^ ext[data[i1] + memo[m1]]
                               ^ ext[data[i2] + memo[m2]] ^ ext[data[i3] + memo[m3]]
                               ^ ext[data[i4] + memo[m4]])
                        memo[slot] = log[acc]
                        if acc < below:
                            yield done + _index(recs, start, slot), slot, acc
                elif s == 6:
                    for slot, i0, i1, i2, i3, i4, i5, m0, m1, m2, m3, m4, m5 in recs:
                        acc = (ext[data[i0] + memo[m0]] ^ ext[data[i1] + memo[m1]]
                               ^ ext[data[i2] + memo[m2]] ^ ext[data[i3] + memo[m3]]
                               ^ ext[data[i4] + memo[m4]] ^ ext[data[i5] + memo[m5]])
                        memo[slot] = log[acc]
                        if acc < below:
                            yield done + _index(recs, start, slot), slot, acc
                else:
                    for rec in recs:
                        acc = 0
                        for t in range(1, s + 1):
                            acc ^= ext[data[rec[t]] + memo[rec[s + t]]]
                        slot = rec[0]
                        memo[slot] = log[acc]
                        if acc < below:
                            yield done + _index(recs, start, slot), slot, acc
        else:
            for s, recs, start in runs:
                for rec in recs:
                    acc = 0
                    for t in range(1, s + 1):
                        a = data[rec[t]]
                        if a:
                            b = memo[rec[s + t]]
                            if b:
                                p = mul(a, b)
                                # the t-th term's sign is (-1)^((s-1)+(t-1))
                                acc = add(acc, neg(p) if (s + t) & 1 else p)
                    slot = rec[0]
                    memo[slot] = acc
                    if acc < below:
                        yield done + _index(recs, start, slot), slot, acc
        done += count
        tally[1] = done
        # the next matrix: add its step's deltas, and sweep the records
        # holding a cell of its group
        g, moves = next(steps, (None, None))
        if g is None:
            return
        if char2:
            for i, d in moves:
                codes[i] ^= d
                data[i] = log[codes[i]]
        else:
            for i, d in moves:
                data[i] = add(data[i], d)
        if held[g] is None:
            sub = entries.held(_bits(groups[g]))
            held[g] = sub, sum(len(recs) for _, recs, _ in sub)
        runs, count = held[g]
        matrices += 1
        tally[0] = matrices


def _index(recs, start: int | None, slot: int) -> int:
    """Position of the record at `slot` among a sweep's runs: slot - 1 in
    a whole list (start None), else start plus its index among a held
    run's record tuples `recs`, whose slots increase along it."""
    if start is None:
        return slot - 1
    return start + bisect_left(recs, slot, key=itemgetter(0))


# -- predicates ---------------------------------------------------------------


def _check_minors(
    m: Matrix,
    *,
    skip_trivial: bool,
    grid: BlockGrid | None = None,
    budget: int = DEFAULT_SELECTION_BUDGET,
    entries: _Selections | None = None,
    run: tuple | None = None,
) -> VerificationReport:
    """First vanishing minor among `entries` (m's square_selections by
    default), skipping the trivial ones when asked, over the run of
    matrices `run` describes (see minor_sweep), m alone without one.
    checked_count counts the minors evaluated over the run, up to the
    witness and less the skipped ones; with a run, detail's matrices
    counts the matrices swept, the witness's included.  budget charges
    the list this call builds, its count (_square_count) before it is
    built; entries passed in were charged by their caller, so they are
    not charged again."""
    if entries is None:
        total = _square_count(m.rows, m.cols, grid)
        if total > budget:
            return VerificationReport(
                INFEASIBLE,
                detail={"selection_count": total, "budget": budget},
            )
        entries = square_selections(m.rows, m.cols, grid)
    nontrivial = nontrivial_slots(ZeroPattern.of(m), entries) if skip_trivial else None
    skipped = 0
    tally = [0, 0]
    for pos, slot, _ in minor_sweep(m, entries, 1, run, tally):
        # every trivial minor vanishes, so the skip only looks at zeros
        if skip_trivial and not nontrivial[slot]:
            skipped += 1
            continue
        ri, ci = entries.selection(slot)
        return VerificationReport(
            False,
            witness={"rows": list(ri), "cols": list(ci)},
            checked_count=pos + 1 - skipped,
            detail={"matrices": tally[0]} if run else None,
        )
    return VerificationReport(
        True, checked_count=tally[1] - skipped,
        detail={"matrices": tally[0]} if run else None,
    )


def is_superregular(m: Matrix, budget: int = DEFAULT_SELECTION_BUDGET) -> VerificationReport:
    """All non-trivial minors (every size) nonzero."""
    return _check_minors(m, skip_trivial=True, budget=budget)


def is_full_superregular(m: Matrix, budget: int = DEFAULT_SELECTION_BUDGET,
                         entries: _Selections | None = None,
                         run: tuple | None = None) -> VerificationReport:
    """Every minor of every size nonzero (hence every entry nonzero), for
    m or for every matrix of a run (see minor_sweep); entries, when given,
    are m's square_selections.  One report per run: checked_count counts
    the minors evaluated, detail the matrices swept, and the witness is
    the first vanishing minor.  budget charges the list the predicate
    builds, reading infeasible when its selections exceed it; entries
    passed in are already charged, and budget is not read."""
    return _check_minors(m, skip_trivial=False, budget=budget, entries=entries,
                         run=run)


def is_superregular_constrained(
    m: Matrix, grid: BlockGrid, budget: int = DEFAULT_SELECTION_BUDGET,
    entries: _Selections | None = None, run: tuple | None = None,
) -> VerificationReport:
    """Every square submatrix whose diagonal stays in blocks (s, t) with
    s <= t is nonsingular; entries, run and budget as for
    is_full_superregular, on the grid-filtered square_selections, so the
    budget charges the grid-qualifying selections only.

    On block-upper-triangular matrices this agrees with plain
    superregularity: a zero on a qualifying diagonal forces zeros right
    and below, making the minor trivially zero either way.
    """
    if grid.rows != m.rows or grid.cols != m.cols:
        raise ValueError("block grid dimensions disagree with the matrix")
    return _check_minors(m, skip_trivial=False, grid=grid, budget=budget,
                         entries=entries, run=run)


def nontrivial_slots(pattern: ZeroPattern, entries: _Selections) -> bytearray:
    """Per memo slot of entries (a full square_selections list), 1 iff
    the slot's minor is non-trivial under pattern, else 0: len(entries)
    + 1 flags, the record at position p's at p + 1.

    One Boolean Laplace sweep: a selection admits a perfect matching of
    supported entries iff some supported entry of its last row leaves a
    sub-selection that admits one."""
    support = [v for row in pattern.support for v in row]
    nontrivial = bytearray(len(entries) + 1)
    nontrivial[0] = 1  # the empty selection
    for s, flat, _ in entries.runs:
        for rec in _fields(flat, s):
            for t in range(1, s + 1):
                if support[rec[t]] and nontrivial[rec[s + t]]:
                    nontrivial[rec[0]] = 1
                    break
    return nontrivial


def count_nontrivial_minors(
    pattern: ZeroPattern,
    grid: BlockGrid | None = None,
    budget: int = DEFAULT_SELECTION_BUDGET,
    min_size: int = 1,
) -> int:
    """Number of square selections (grid-qualifying, when a grid is given)
    whose minor is non-trivial (nontrivial_slots).  min_size=2 drops the
    1x1 minors, matching the counting convention of published search
    tables."""
    if grid is not None and (grid.rows, grid.cols) != (pattern.rows, pattern.cols):
        raise ValueError("block grid dimensions disagree with the pattern")
    total = _square_count(pattern.rows, pattern.cols, grid)
    if total > budget:
        raise ValueError(f"selection count {total} exceeds budget {budget}")
    entries = square_selections(pattern.rows, pattern.cols, grid)
    # the records of size min_size and up come after the smaller ones
    smaller = next((start for s, _, start in entries.runs if s >= min_size), len(entries))
    return sum(nontrivial_slots(pattern, entries)[1 + smaller:])
