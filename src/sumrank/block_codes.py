"""Systematic block codes and the MDS / MRD / MSRD verifier ladder.

Every checker here decides one base-field transform family, and every
family is "each F_q value tuple of a list of free cells"
(matrix.block_diag_cells): block-diagonal matrices with unit
upper-triangular blocks (B, A~ and the transform-side A) or with
arbitrary blocks (C), so a family with c free cells has q^c members.
The unit blocks stand for every nonsingular upper-triangular one: the
predicates only ask which minors vanish, and diagonal scaling over F_q^*
changes none (matrix.enum_block_diag states the argument).  Every member
of every family is checked, so each True is exhaustive.  Every minor is
evaluated through superregular.minor_sweep, one memoized Laplace sweep
over a matrix or over a run of matrices that differ in a few cells: a
matrix and a stream of additive steps.  A run steps in reflected q-ary
Gray order (gray_steps), its steps looked up in a table by gray_moves'
bytes, so a later matrix moves one free cell and re-evaluates only the
minors that hold it, and a witness's tuple is gray_digits at its step
count.  The transform side, check_msrd_transforms, is one run over
every A: an A adds +-1 times one column of G to the column of G A that
holds the cell it moves, and no G A is multiplied out.  The systematic
side runs one engine, check_transform_family: it enumerates (B, A~)
pairs and tests a superregularity predicate on diag(B_i) P diag(A~_i) +
diag(C_i), one predicate call per pair, its C values one run on B P A~,
the cells of the most-held diagonal blocks moving slowest (_c_cells).
For block codes the predicate is full superregularity; the
convolutional m-MSR check (conv_codes) runs the same engine once, on the
sliding parity P_j^c of its top level j, with row blocks (k)^(j+1),
column blocks (n-k)^(j+1) and the block-grid predicate.  Both sides
charge their budget in the minors their runs can evaluate (_run_charge).
Every witness has one layout: {"transform": {name: diagonal blocks},
"rows", "cols"}, naming B, A~ and C on the systematic side and A on the
transform side, and one parser (_parse_transform) reads it back into the
family's block-diagonal matrices, or rejects it.  Each recheck is that
parse and the witnessed minor by Gaussian elimination (matrix.minor),
independently of the sweep.  A Gabidulin constructor supplies positive
MRD instances for the oracles.
"""

from __future__ import annotations

from functools import lru_cache

from .field import Field, check_field_key
from .matrix import (
    Matrix,
    block_diag,
    block_diag_cells,
    diagonal_blocks,
    enum_block_diag,
    is_code_rows,
    is_upper_triangular,
    unit_block_diag,
    minor,
)
from .metrics import LengthPartition
from .report import INFEASIBLE, VerificationReport
from .superregular import (
    DEFAULT_SELECTION_BUDGET,
    BlockGrid,
    count_block_selections,
    count_full_size_selections,
    full_size_selections,
    is_full_superregular,
    is_superregular_constrained,
    minor_sweep,
    square_selections,
)


class SystematicBlockCode:
    """Partitions (n_i), (k_i) and parity part P = [P_1 ... P_l]."""

    def __init__(self, length_partition: LengthPartition, dim_partition: tuple,
                 parity: Matrix):
        self.length_partition = length_partition
        self.dim_partition = tuple(int(k) for k in dim_partition)
        self.parity = parity
        lp = self.length_partition.parts
        if len(self.dim_partition) != len(lp):
            raise ValueError("length and dimension partitions differ in block count")
        if any(not 0 <= k <= n for k, n in zip(self.dim_partition, lp)):
            raise ValueError("dimension partition outside [0, n_i]")
        if not self.k:
            raise ValueError("a code needs dimension k > 0")
        if self.parity.rows != self.k or self.parity.cols != self.n - self.k:
            raise ValueError(
                f"parity must be {self.k}x{self.n - self.k}, "
                f"got {self.parity.rows}x{self.parity.cols}"
            )

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.length_partition, self.dim_partition, self.parity) == (
            other.length_partition, other.dim_partition, other.parity)

    @property
    def n(self) -> int:
        return self.length_partition.n

    @property
    def k(self) -> int:
        return sum(self.dim_partition)

    @property
    def field(self) -> Field:
        return self.parity.field

    @property
    def parity_widths(self) -> list[int]:
        """Column counts n_i - k_i of the parity blocks P_i."""
        return [n_i - k_i for n_i, k_i in
                zip(self.length_partition.parts, self.dim_partition)]

    def parity_blocks(self) -> list[Matrix]:
        """P split column-wise into P_i of width n_i - k_i."""
        out = []
        pos = 0
        for w in self.parity_widths:
            out.append(self.parity.submatrix(range(self.k), range(pos, pos + w)))
            pos += w
        return out

    def to_json(self) -> dict:
        return {
            "field": self.field.descriptor(),
            "partition": list(self.length_partition.parts),
            "dims": list(self.dim_partition),
            "parity": self.parity.to_json(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SystematicBlockCode":
        if not isinstance(obj, dict) or not is_code_rows([obj["partition"], obj["dims"]]):
            raise ValueError("a code's partition and dims must be lists of integers")
        parity = Matrix.from_json(obj["parity"])
        check_field_key(obj, parity.field)
        return cls(LengthPartition(obj["partition"]), tuple(obj["dims"]), parity)


def assemble_generator(code: SystematicBlockCode) -> Matrix:
    """G = [J_1 P_1 ... J_l P_l], where J_i holds the columns of I_k that
    belong to the i-th row block."""
    k = code.k
    eye = Matrix.identity(k, code.field)
    g = Matrix(k, 0, code.field)
    pos = 0
    for k_i, p_i in zip(code.dim_partition, code.parity_blocks()):
        g = g.hstack(eye.submatrix(range(k), range(pos, pos + k_i))).hstack(p_i)
        pos += k_i
    return g


def systematic_form(generator: Matrix) -> Matrix:
    """Parity part of the (unique) systematic encoder [I_k P] obtained by
    row reduction; requires the leading k x k block to be invertible."""
    from .matrix import inverse

    k = generator.rows
    lead = generator.submatrix(range(k), range(k))
    rest = generator.submatrix(range(k), range(k, generator.cols))
    return inverse(lead) @ rest


# -- transform-side checkers ---------------------------------------------------


def check_mds(p: Matrix, budget: int = DEFAULT_SELECTION_BUDGET) -> VerificationReport:
    """MDS iff the parity part is full superregular (classical criterion)."""
    return is_full_superregular(p, budget=budget)


def check_mrd_transforms(
    g: Matrix, budget: int = DEFAULT_SELECTION_BUDGET
) -> VerificationReport:
    """MRD check over all nonsingular upper-triangular U over F_q: every
    full-size minor of G U must be nonzero."""
    return check_msrd_transforms(g, LengthPartition([g.cols]), budget)


def check_msrd_transforms(
    g: Matrix,
    partition: LengthPartition,
    budget: int = DEFAULT_SELECTION_BUDGET,
) -> VerificationReport:
    """MSRD check over all nonsingular block-diagonal A with upper-triangular
    blocks over F_q: every full-size minor of G A must be nonzero.  The
    unit ones, which stand for all, are one run of superregular.minor_sweep
    over G's full_size_selections, in reflected q-ary Gray order
    (gray_steps): each A after the first moves one free cell (r', c) by
    +-1, which adds +- G's column r' to column c of G A, so its step,
    from a table of two per free cell, adds those k deltas to column c's
    cells and re-evaluates the selections that hold it.  The witness A is
    gray_digits at the A swept.  The verdict, checked_count (the A swept)
    and witness are a full sweep's per A, in that order.  detail gives the
    minors evaluated and the charge, those the run can evaluate
    (_run_charge), equal on a True; the charge is counted before any list
    is built."""
    q = g.field.q
    k, n = g.rows, g.cols
    if partition.n != n:
        raise ValueError("partition does not sum to the code length")
    parts = partition.parts
    a_cells = block_diag_cells(parts, parts, True)
    counts = {"transform_count": q ** len(a_cells)}
    # without rows or free cells G A is G for every A: one sweep decides all
    cols = sorted({i % n for i in a_cells}) if k else []
    # every selection holds row 0, so one holds a column's cells iff it
    # selects the column
    total = count_full_size_selections(k, n)
    held = total - count_full_size_selections(k, n - 1) if cols else 0
    charge = _run_charge(total, [held] * len(a_cells), q)
    if charge > budget:
        return VerificationReport(
            INFEASIBLE,
            detail=counts | {"charge": charge, "budget": budget},
        )
    selections = full_size_selections(k, n)
    run = None
    if cols:
        # free cell j = (r', c) moving by d = +-1 adds d times G's column r'
        # to column c, whose cells are group cols.index(c): step j << 1 | (d < 0)
        moves = []
        for i in a_cells:
            up = tuple((r * n + i % n, g[r, i // n]) for r in range(k))
            group = cols.index(i % n)
            moves += [(group, up), (group, tuple((x, g.field.neg(y)) for x, y in up))]
        run = ([tuple(range(c, k * n, n)) for c in cols],
               map(moves.__getitem__, gray_moves(q, len(a_cells))))
    # the full-size minors' slots follow the smaller minors' records
    top = count_full_size_selections(k - 1, n) + 1
    tally = [0, 0]
    for pos, slot, _ in minor_sweep(g, selections, 1, run, tally):
        if slot >= top:
            a = unit_block_diag(parts, q, gray_digits(q, len(a_cells), tally[0] - 1))
            return VerificationReport(
                False,
                witness={
                    "transform": {"A": diagonal_blocks(a, parts, parts)},
                    "rows": list(range(k)),
                    "cols": list(selections.selection(slot)[1]),
                },
                checked_count=tally[0],
                detail=counts | {"minors": pos + 1, "charge": charge},
            )
    return VerificationReport(
        True,
        checked_count=counts["transform_count"],
        detail=counts | {"minors": tally[1], "charge": charge},
    )


# -- the (B, A~, C) transform family --------------------------------------------


def family_counts(ks, nks, q: int) -> tuple[int, int, int]:
    """Numbers of B, A~ and C choices for row blocks ks and column blocks
    nks: q to the number of each family's free cells."""
    return tuple(q ** len(block_diag_cells(rows, cols, upper))
                 for rows, cols, upper in ((ks, ks, True), (nks, nks, True),
                                           (ks, nks, False)))


def check_transform_family(
    p: Matrix,
    ks,
    nks,
    constrained: bool,
    budget: int,
) -> VerificationReport:
    """True iff diag(B_i) P diag(A~_i) + diag(C_i) satisfies the predicate
    for every tuple over F_q, q = P's base field: B_i (A~_i) nonsingular
    upper triangular of size ks[i] (nks[i]), C_i any ks[i] x nks[i] matrix.
    The predicate is full superregularity, or when constrained
    superregularity on the grid BlockGrid(ks, nks) (diagonals in blocks
    (s, t) with s <= t).  Every family is enumerated lazily and in full:
    B slowest, then A~, both unit upper triangular, standing for all
    (matrix.enum_block_diag), both in product order, then every C, in
    gray_steps order over _c_cells' list, so a True is exhaustive.  A
    False witness holds the diagonal blocks of B, A~ and C and the
    vanishing minor, as JSON.

    Each pair makes one predicate call, with the run of its C values
    (superregular.minor_sweep), over one selection list built for the
    call: B P A~ and every C in reflected q-ary Gray order, each step
    moving one C cell by +-1 (the witness C is gray_digits at its T), so
    the first vanishing minor, hence every report, is a full sweep's per
    T in that order.  checked_count adds up the T swept, detail's minors
    the minors evaluated and its charge the minors the runs can evaluate,
    counted (superregular.count_block_selections) before the list is
    built, so a family over budget builds none.  A C matrix is built only
    for a witness.
    """
    q = p.field.q
    grid = BlockGrid(ks, nks) if constrained else None
    b_count, a_count, c_count = family_counts(ks, nks, q)
    counts = {"b_count": b_count, "a_count": a_count, "c_count": c_count}
    # counted, so a refused family builds no list
    total, held = count_block_selections(tuple(ks), tuple(nks), constrained)
    cells, cell_held = _c_cells(ks, nks, held)
    # budget unit: one minor evaluation (_run_charge)
    charge = b_count * a_count * _run_charge(total, cell_held, q)
    if charge > budget:
        return VerificationReport(
            INFEASIBLE,
            detail=counts | {"charge": charge, "budget": budget},
        )
    selections = square_selections(p.rows, p.cols, grid)
    f = p.field
    # the Gray walk's steps, entry j << 1 | (d < 0) moving C cell j by d
    walk = gray_moves(q, len(cells))
    c_moves = [(j, ((i, d),)) for j, i in enumerate(cells) for d in (1, f.neg(1))]
    c_groups = [(i,) for i in cells]
    checked = 0
    minors = 0
    for b in enum_block_diag(ks, q):
        bp = b @ p
        for a in enum_block_diag(nks, q):
            bpa, run = bp @ a, (c_groups, map(c_moves.__getitem__, walk))
            rep = (is_full_superregular(bpa, entries=selections, run=run) if grid is None
                   else is_superregular_constrained(bpa, grid, entries=selections, run=run))
            checked += rep.detail["matrices"]
            minors += rep.checked_count
            if rep.verdict is False:
                c = Matrix(p.rows, p.cols, f.base())
                for i, v in zip(cells, gray_digits(q, len(cells), rep.detail["matrices"] - 1)):
                    c.data[i] = v
                return VerificationReport(
                    False,
                    witness={
                        "transform": {"B": diagonal_blocks(b, ks, ks),
                                      "A": diagonal_blocks(a, nks, nks),
                                      "C": diagonal_blocks(c, ks, nks)},
                        "rows": rep.witness["rows"],
                        "cols": rep.witness["cols"],
                    },
                    checked_count=checked,
                    detail=counts | {"minors": minors, "charge": charge},
                )
    return VerificationReport(
        True,
        checked_count=checked,
        detail=counts | {"minors": minors, "charge": charge},
    )


def _c_cells(ks, nks, held) -> tuple[list, list]:
    """(cells, held per cell): the C cells of block_diag_cells(ks, nks,
    False), block by block, each block row-major, the blocks in a stable
    sort of held (the selections holding a cell of each) descending, so
    the most-held blocks move slowest.  Cell i moves (q-1) q^i times in
    gray_steps order, so by the rearrangement inequality this order gives
    the least _run_charge of any block order."""
    per_cell = [h for h, k, w in zip(held, ks, nks) for _ in range(k * w)]
    order = sorted(zip(block_diag_cells(ks, nks, False), per_cell), key=lambda t: -t[1])
    return [i for i, _ in order], [h for _, h in order]


def gray_steps(q: int, c: int):
    """The steps of the reflected q-ary Gray order over c cells, last cell
    fastest (Knuth, TAOCP 4A, 7.2.1.1), from all zeros: (cell, d) for each
    of the q^c - 1 value tuples after the first, where the cell moves by
    d = +-1 and no other does.  At step s the cell is the one whose digit,
    counted from the fastest, is the base-q valuation j of s, and d is +1
    when s // q^(j+1) is even: cell i (from the slowest) moves
    (q-1) q^i times."""
    for s in range(1, q ** c):
        j, t = 0, s
        while not t % q:
            j, t = j + 1, t // q
        yield c - 1 - j, 1 - 2 * (t // q & 1)


def gray_digits(q: int, c: int, s: int) -> list[int]:
    """The c digits, the slowest cell first, after the first s steps of
    gray_steps(q, c): digit i of s in base q, counted from the fastest,
    reflected to q - 1 - it when s // q^(i+1) is odd."""
    out = []
    for _ in range(c):
        s, b = divmod(s, q)
        out.append(q - 1 - b if s & 1 else b)
    return out[::-1]


@lru_cache(maxsize=16)
def gray_moves(q: int, c: int) -> bytes:
    """gray_steps(q, c) as a table, one byte per step: j << 1 | (d < 0)
    for cell j moving by d (c < 128), the index into a table of the
    walk's superregular.minor_sweep steps."""
    return bytes(j << 1 | (d < 0) for j, d in gray_steps(q, c))


def _run_charge(first: int, held, q: int) -> int:
    """Minors an exhaustive run in gray_steps order evaluates: `first` for
    its first matrix, and held[i], the selections holding free cell i's
    group, for each of the (q-1) q^i steps that move cell i."""
    return first + sum((q - 1) * q**i * h for i, h in enumerate(held))


def witness_minor_vanishes(t: Matrix, witness: dict, grid: BlockGrid | None = None) -> bool:
    """The witnessed minor of t is zero and is one the predicate checks:
    rows and cols strictly increasing and, with a grid, grid-qualifying.
    rows or cols that are not lists of integers raise ValueError."""
    rows, cols = witness.get("rows"), witness.get("cols")
    if not is_code_rows([rows, cols]):
        raise ValueError("witness rows and cols must be lists of integers")
    return (
        minor(t, rows, cols) == 0
        and all(a < b for idx in (rows, cols) for a, b in zip(idx, idx[1:]))
        and (grid is None or grid.diagonal_allowed(rows, cols))
    )


# -- systematic-side checkers ---------------------------------------------------


def check_mrd_systematic(
    p: Matrix, budget: int = DEFAULT_SELECTION_BUDGET
) -> VerificationReport:
    """MRD iff B P A~ + C is full superregular for every nonsingular
    upper-triangular B (k x k), A~ ((n-k) x (n-k)) and every C over F_q."""
    code = SystematicBlockCode(LengthPartition([p.rows + p.cols]), (p.rows,), p)
    return check_msrd_systematic(code, budget=budget)


def check_msrd_systematic(
    code: SystematicBlockCode, budget: int = DEFAULT_SELECTION_BUDGET
) -> VerificationReport:
    """MSRD iff diag(B_i) P diag(A~_i) + diag(C_i) is full superregular for
    every block tuple over F_q: check_transform_family with row blocks
    (k_i), column blocks (n_i - k_i) and no grid.  The witness C is the
    whole k x (n-k) matrix."""
    return check_transform_family(
        code.parity, code.dim_partition, code.parity_widths, False, budget)


# -- constructors -----------------------------------------------------------


def construct_gabidulin(n: int, k: int, field: Field) -> Matrix:
    """Moore-matrix generator with evaluation points 1, a, ..., a^(n-1):
    entry (i, j) = (a^j)^(q^i).  Requires M >= n; the code is MRD."""
    if field.M < n:
        raise ValueError(f"Gabidulin code needs M >= n (M={field.M}, n={n})")
    if not 1 <= k <= n:
        raise ValueError(f"invalid dimension k={k} for length n={n}")
    g = Matrix(k, n, field)
    for j in range(n):
        pt = field.alpha_pow(j)
        for i in range(k):
            g[i, j] = field.frobenius(pt, i)
    return g


def recheck_family_witness(p: Matrix, ks, nks, constrained: bool, witness: dict) -> bool:
    """Re-evaluate a check_transform_family witness: its B, A~ and C must
    parse into the family (_parse_transform), and the witnessed minor of
    T = B P A~ + C, one the predicate checks, must vanish."""
    tr = _parse_transform(witness, p.field.base(),
                          {"B": (ks, ks), "A": (nks, nks), "C": (ks, nks)})
    grid = BlockGrid(ks, nks) if constrained else None
    return tr is not None and witness_minor_vanishes(
        transformed_parity(p, tr["B"], tr["A"], tr["C"]), witness, grid)


def transformed_parity(p: Matrix, b: Matrix, a: Matrix, c: Matrix) -> Matrix:
    """T = B P A~ + C."""
    return (b @ p @ a).add(c)


def recheck_witness(code: SystematicBlockCode, witness: dict) -> bool:
    """Re-evaluate a systematic-side witness: the tuple must belong to the
    transform family, and the witnessed minor of B P A~ + C must vanish."""
    return recheck_family_witness(code.parity, code.dim_partition,
                                  code.parity_widths, False, witness)


def recheck_transform_witness(
    g: Matrix, partition: LengthPartition, witness: dict
) -> bool:
    """Re-evaluate a transform-side witness: every block of A must be
    nonsingular upper triangular of its part's size, and the witnessed
    full-size minor of G A must vanish."""
    parts = partition.parts
    tr = _parse_transform(witness, g.field.base(), {"A": (parts, parts)})
    return (tr is not None and witness_minor_vanishes(g @ tr["A"], witness)
            and len(witness["rows"]) == g.rows)


def witness_block(rows, r: int, c: int, f: Field) -> Matrix | None:
    """The r x c matrix over f of JSON rows, or None when they have another
    shape or an entry outside f.  Rows of other types raise ValueError."""
    if not is_code_rows(rows):
        raise ValueError("a witness block must be a list of lists of integers")
    if len(rows) == r and all(len(row) == c and all(0 <= v < f.order for v in row)
                              for row in rows):
        return Matrix(r, c, f, [v for row in rows for v in row])
    return None


def _parse_transform(witness: dict, f: Field, shapes: dict) -> dict | None:
    """The block-diagonal matrices over f that witness["transform"] names,
    or None when one is outside the family the check decided: shapes maps
    each name to its block sizes (rows, cols), one block of that shape per
    size, and every block but C's is nonsingular upper triangular.  Other
    names, or values that are not lists, raise ValueError."""
    tr = witness.get("transform")
    if (not isinstance(tr, dict) or set(tr) != set(shapes)
            or not all(isinstance(blocks, list) for blocks in tr.values())):
        raise ValueError(f"a witness transform names block lists {', '.join(shapes)}")
    out = {}
    for name, (rows, cols) in shapes.items():
        blocks = [witness_block(b, r, c, f) for b, r, c in zip(tr[name], rows, cols)]
        if len(tr[name]) != len(rows) or None in blocks or name != "C" and not all(
                is_upper_triangular(b) and all(b[i, i] for i in range(b.rows))
                for b in blocks):
            return None
        out[name] = block_diag(blocks)
    return out


def load_code(obj_or_path) -> SystematicBlockCode:
    import json
    from pathlib import Path

    if isinstance(obj_or_path, dict):
        return SystematicBlockCode.from_json(obj_or_path)
    return SystematicBlockCode.from_json(json.loads(Path(obj_or_path).read_text()))
