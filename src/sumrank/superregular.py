"""The minor sweep, trivial-minor detection and the superregularity
predicates.

A square minor is *trivial* when every Leibniz term of its determinant
hits a structural zero, i.e. the zero pattern of the submatrix admits no
perfect matching between rows and columns.  A matrix is superregular if
all non-trivial minors are nonzero, and full superregular if every minor
of every size is nonzero.

Every predicate here, and the base-field filter and transform run in
block_codes, evaluates minors through one sweep: minor_sweep expands
each selected minor along its last row, reusing the minors of one size
less that it memoized.  The memo is one flat list per sweep: each
selected row tuple owns a block of slots, one per column selection of its
size in lexicographic rank, so a minor's slot is its row block's base
plus its columns' rank, and a sweep entry is just (terms, sub-block base,
slot).  Over a field of characteristic 2 the sweep works in the
log domain on zero-absorbing tables (Field.zero_log_tables): it keeps the
discrete log of every entry and memoizes the logs of the minors, so each
Leibniz term is one antilog lookup and an XOR, with no test for zero.
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
values of one (B, A~) pair or the transform side's A (run=): each edit
names one group of cells (a C cell, every C cell, or a column of G A),
and the sweep rewrites that group, updates its logs, and re-evaluates
only the entries whose selection holds one of its cells
(_Selections.held keeps one plain sub-list per group's bit mask, each
built on first use and kept with the list itself).
The predicates take the run too and return one report for it.  One Boolean
sweep, the same recursion over the same lists (nontrivial_slots),
decides triviality for count_nontrivial_minors and is_superregular.
Witness rechecks stay on matrix.det (Gaussian elimination), so each False
witness is confirmed by a method independent of the sweep.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from functools import lru_cache
from itertools import combinations
from math import comb

from .matrix import Matrix
from .report import INFEASIBLE, VerificationReport

DEFAULT_SELECTION_BUDGET = 10**8
# Longest selection list kept for the process (an entry takes about 120
# bytes with its share of the terms); the engine's shapes list at most a
# few thousand.
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
    """(total, held, meeting): the square selections of a sum(ks) x
    sum(nks) matrix (with grid, the BlockGrid(ks, nks)-qualifying ones),
    those holding any one cell of diagonal block ks[i] x nks[i] (held[i])
    and those holding a cell of some diagonal block, counted without
    listing them.  One pass over the blocks tracks the rows taken less
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
    # both count the empty selection, which total leaves out
    taken = count(every)
    avoiding = count([[t for t in block if not t[0] * t[1]] for block in every])
    return taken - 1, held, taken - avoiding


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


class _Selections(list):
    """Sweep entries (terms, sub, slot) and the memo layout they address:
    slots is the memo's length, and selection(slot) names a slot's minor."""

    __slots__ = ("slots", "_bases", "_rows", "_cols", "_ncols", "_masks", "_held")

    def selection(self, slot: int) -> tuple[tuple, tuple]:
        """(rows, cols) of the minor memoized at `slot`."""
        j = bisect_right(self._bases, slot) - 1
        ri = self._rows[j]
        return ri, self._cols[len(ri)][slot - self._bases[j]]

    def held(self, bits: int) -> list:
        """The entries whose selection holds a cell of the group with bit
        mask `bits` (bit row * cols + col), in sweep order: a plain list,
        built on first use and kept as long as this list is."""
        sub = self._held.get(bits)
        if sub is None:
            if self._masks is None:
                # per entry, the bit mask of the cells its selection holds
                w = self._ncols
                self._masks = [sum(_bits(ci) << r * w for r in ri)
                               for ri, ci in (self.selection(slot) for _, _, slot in self)]
            sub = self._held[bits] = [x for x, m in zip(self, self._masks) if m & bits]
        return sub


def _bits(indices) -> int:
    return sum(1 << i for i in indices)


def _entries(pairs, ncols: int) -> _Selections:
    """Sweep entries (terms, sub, slot) for square selections, and the flat
    memo layout they address.

    Each selected row tuple owns a block of memo slots, one per column
    selection of its size in lexicographic rank, allocated on first use;
    slot 0 is the block of the empty row tuple and holds the empty minor,
    1.  An entry's slot is its row block's base plus its columns' rank,
    and sub is the base of its rows without the last one.  terms holds
    (i, rank) for each selected column c, where i indexes the matrix data
    at the last selected row and column c, and rank is the rank of the
    columns without c, so deleting that row and column leaves the minor
    at slot sub + rank.  Entries with the same last row and columns share
    one terms tuple.
    """
    out = _Selections()
    out._bases, out._rows, out._cols = [0], [()], [[()]]
    out._ncols, out._masks, out._held = ncols, None, {}
    ranks = [{(): 0}]
    blocks = {(): (0, None)}  # row tuple -> (its base, its rows' sub base)
    by_last = {}
    slots = 1
    for ri, ci in pairs:
        s = len(ci)
        while len(ranks) <= s:
            level = list(combinations(range(ncols), len(ranks)))
            out._cols.append(level)
            ranks.append({c: rank for rank, c in enumerate(level)})
        row = blocks.get(ri)
        if row is None:
            row = blocks[ri] = (slots, blocks[ri[:-1]][0])
            out._bases.append(slots)
            out._rows.append(ri)
            slots += len(out._cols[s])
        base, sub = row
        terms = by_last.get((ri[-1], ci))
        if terms is None:
            off = ri[-1] * ncols
            below = ranks[s - 1]
            terms = by_last[ri[-1], ci] = tuple(
                (off + c, below[ci[:t] + ci[t + 1:]]) for t, c in enumerate(ci))
        out.append((terms, sub, base + ranks[s][ci]))
    out.slots = slots
    return out


@lru_cache(maxsize=64)
def _kept(build, *shape) -> _Selections:
    return build(*shape)


def square_selections(rows: int, cols: int, grid: BlockGrid | None = None) -> _Selections:
    """Sweep entries for every square selection of a rows x cols matrix,
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
    """Sweep entries for the selections of the first s rows against every
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
    """Yield (position, rows, cols, minor) for each sweep entry whose minor
    has a code below `below`, in order: below=1 yields the vanishing minors,
    below=q the ones in the base field F_q (codes 0..q-1), and
    below=m.field.order every minor.

    Each minor is the Laplace expansion along its last selected row,
    sum over t of (-1)^((s-1)+t) m[r, c_t] times a memoized minor of size
    s-1, so every entry's sub-minors must come earlier in `entries` (the
    listers above guarantee it).  The memo is one flat list of
    entries.slots slots, addressed as _entries lays it out; an entry's rows
    and columns are recovered from its slot only when it is yielded.  Over
    a field of characteristic 2 the signs vanish, addition is XOR,
    and the sweep keeps the discrete logs of the entries and memoizes the
    minors' logs, zero included (Field.zero_log_tables), so a term is one
    antilog lookup; otherwise products go through the field.

    run = (groups, edits) sweeps a run of matrices that differ from m in
    the cells of the groups, tuples of flat indices: each edit (g, values)
    writes m's entry plus values[i], any element of m's field, into the
    i-th cell of groups[g], and updates the kept logs of just those cells.
    The run's first matrix sweeps all of entries; a later one only
    entries.held(bits), bits the written group's mask, the entries whose
    selection holds a cell of that group, while the others, and the
    sub-minors they expand into, keep their values.  Without a run the
    sweep is a run of one matrix, m.  position counts the minors
    evaluated in the run before this one (for one matrix, the entry's
    position).  tally, a list [0, 0] when given, counts [matrices begun,
    minors evaluated in the matrices done].
    """
    f = m.field
    base = m.data
    selection = entries.selection
    groups, edits = run or (((),), ((0, ()),))
    subs = [None] * len(groups)  # entries.held of each group, on first use
    char2 = f.q == 2
    if char2:
        log, ext = f.zero_log_tables
        data = [log[a] for a in base]
        memo = [log[0]] * entries.slots
        memo[0] = 0
    else:
        add, neg, mul = f.add, f.neg, f.mul
        data = list(base)
        memo = [0] * entries.slots
        memo[0] = 1
    tally = [0, 0] if tally is None else tally
    for step, (g, values) in enumerate(edits):
        swept = subs[g] if step else entries
        if swept is None:
            swept = subs[g] = entries.held(_bits(groups[g]))
        tally[0] = step + 1
        if char2:
            for i, v in zip(groups[g], values):
                data[i] = log[base[i] ^ v]
            for pos, (terms, sub, slot) in enumerate(swept, tally[1]):
                acc = 0
                for i, rank in terms:
                    acc ^= ext[data[i] + memo[sub + rank]]
                memo[slot] = log[acc]
                if acc < below:
                    yield (pos, *selection(slot), acc)
        else:
            for i, v in zip(groups[g], values):
                data[i] = add(base[i], v)
            for pos, (terms, sub, slot) in enumerate(swept, tally[1]):
                acc = 0
                odd = len(terms) - 1
                for t, (i, rank) in enumerate(terms):
                    a = data[i]
                    if a:
                        b = memo[sub + rank]
                        if b:
                            p = mul(a, b)
                            acc = add(acc, neg(p) if (odd + t) & 1 else p)
                memo[slot] = acc
                if acc < below:
                    yield (pos, *selection(slot), acc)
        tally[1] += len(swept)


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
    start = time.perf_counter()
    if entries is None:
        total = _square_count(m.rows, m.cols, grid)
        if total > budget:
            return VerificationReport(
                INFEASIBLE,
                detail={"selection_count": total, "budget": budget},
                elapsed=time.perf_counter() - start,
            )
        entries = square_selections(m.rows, m.cols, grid)
    nontrivial = nontrivial_slots(ZeroPattern.of(m), entries) if skip_trivial else None
    skipped = 0
    tally = [0, 0]
    for pos, ri, ci, _ in minor_sweep(m, entries, 1, run, tally):
        # every trivial minor vanishes, so the skip only looks at zeros
        if skip_trivial and not nontrivial[entries[pos][2]]:
            skipped += 1
            continue
        return VerificationReport(
            False,
            witness={"rows": list(ri), "cols": list(ci)},
            checked_count=pos + 1 - skipped,
            elapsed=time.perf_counter() - start,
            detail={"matrices": tally[0]} if run else None,
        )
    return VerificationReport(
        True, checked_count=tally[1] - skipped,
        elapsed=time.perf_counter() - start,
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
    the slot's minor is non-trivial under pattern, else 0.

    One Boolean Laplace sweep: a selection admits a perfect matching of
    supported entries iff some supported entry of its last row leaves a
    sub-selection that admits one."""
    support = [v for row in pattern.support for v in row]
    nontrivial = bytearray(entries.slots)
    nontrivial[0] = 1  # the empty selection
    for terms, sub, slot in entries:
        if any(support[i] and nontrivial[sub + rank] for i, rank in terms):
            nontrivial[slot] = 1
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
    nontrivial = nontrivial_slots(pattern, entries)
    return sum(1 for terms, _, slot in entries
               if nontrivial[slot] and len(terms) >= min_size)
