"""Systematic block codes and the MDS / MRD / MSRD verifier ladder.

Every checker here decides one base-field transform family, and every
family is "each F_q value tuple of a list of free cells"
(matrix.block_diag_cells): block-diagonal matrices with unit
upper-triangular blocks (B, A~ and the transform-side A) or with
arbitrary blocks (C), so a family with c free cells has q^c members.
The unit blocks stand for every nonsingular upper-triangular one: the
predicates only ask which minors vanish, and diagonal scaling over F_q^*
changes none (matrix.enum_block_diag states the argument).  Every minor
is evaluated through superregular.minor_sweep, one memoized Laplace
sweep over a matrix or over a run of matrices that differ in a few
cells.  Each run steps in reflected q-ary Gray order (gray_steps; a C
run walks it inside the sweep, from gray_moves' table), so a later
matrix moves one free cell and re-evaluates only the minors that hold
it.  The transform side, check_msrd_transforms, is one run over
every A: an A rewrites the one column of G A that holds the cell it
moves, and no G A is multiplied out.  The systematic side runs one
engine, check_transform_family: it enumerates (B, A~) pairs and tests a
superregularity predicate on diag(B_i) P diag(A~_i) + diag(C_i), one
predicate call per pair, its C values one run on B P A~.  For block
codes the predicate is full superregularity; the convolutional m-MSR
check (conv_codes) runs the same engine once, on the sliding parity
P_j^c of its top level j, with row blocks (k)^(j+1), column blocks
(n-k)^(j+1) and the block-grid predicate.  Its base-field filter tests
exactly the minors the predicate checks; a True detail says how many
pairs rest on random C samples (sampled_pairs).  Both sides charge their
budget in the minors their runs can evaluate (_run_charge).  Every
witness has one layout: {"transform": {name: diagonal blocks}, "rows",
"cols"}, naming B, A~ and C on the systematic side and A on the
transform side, and one parser (_parse_transform) reads it back into the
family's block-diagonal matrices, or rejects it.  Each recheck is that
parse and the witnessed minor by Gaussian elimination (matrix.minor),
independently of the sweep.  A Gabidulin constructor supplies positive
MRD instances for the oracles.
"""

from __future__ import annotations

import random
import time
from functools import lru_cache

from .field import Field
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

FILTER_RESAMPLE_COUNT = 1000


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
    +-1, which rewrites column c of G A as itself +- G's column r', so an
    edit names the k cells of one column (_column_edits) and re-evaluates
    the selections that hold it.  The verdict, checked_count (the A swept)
    and witness are a full sweep's per A, in that order.  detail gives the
    minors evaluated and the charge, those the run can evaluate
    (_run_charge), equal on a True; the charge is counted before any list
    is built."""
    start = time.perf_counter()
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
            elapsed=time.perf_counter() - start,
        )
    selections = full_size_selections(k, n)
    groups = [tuple(range(c, k * n, n)) for c in cols]
    digits, tally = [0] * len(a_cells), [0, 0]
    run = (groups, _column_edits(g, a_cells, cols, digits)) if cols else None
    for pos, _, ci, _ in minor_sweep(g, selections, 1, run, tally):
        if len(ci) == k:
            a = unit_block_diag(parts, q, digits)
            return VerificationReport(
                False,
                witness={
                    "transform": {"A": diagonal_blocks(a, parts, parts)},
                    "rows": list(range(k)),
                    "cols": list(ci),
                },
                checked_count=tally[0],
                elapsed=time.perf_counter() - start,
                detail=counts | {"minors": pos + 1, "charge": charge},
            )
    return VerificationReport(
        True,
        checked_count=counts["transform_count"],
        elapsed=time.perf_counter() - start,
        detail=counts | {"minors": tally[1], "charge": charge},
    )


def _column_edits(g: Matrix, a_cells, cols, digits):
    """check_msrd_transforms' edits, one per A in gray_steps order over the
    free cells a_cells, whose values digits keeps current: free cell j =
    (r', c) moving by d = +-1 adds d times G's column r' to column c, and
    the edit names its group, position t of c in cols, with the values
    sum of a_r'c G[r, r'] over the free cells (r', c), r = 0..k-1."""
    f, k, n = g.field, g.rows, g.cols
    moves = []
    for i in a_cells:
        src = g.col(i // n)
        moves.append((cols.index(i % n), src, [f.neg(y) for y in src]))
    offsets = [[0] * k for _ in cols]
    yield 0, offsets[0]
    for j, d in gray_steps(f.q, len(a_cells)):
        digits[j] += d
        t, up, down = moves[j]
        offsets[t] = [f.add(x, y) for x, y in zip(offsets[t], up if d > 0 else down)]
        yield t, offsets[t]


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
    mode: str,
    budget: int,
) -> VerificationReport:
    """True iff diag(B_i) P diag(A~_i) + diag(C_i) satisfies the predicate
    for every tuple over F_q, q = P's base field: B_i (A~_i) nonsingular
    upper triangular of size ks[i] (nks[i]), C_i any ks[i] x nks[i] matrix.
    The predicate is full superregularity, or when constrained
    superregularity on the grid BlockGrid(ks, nks) (diagonals in blocks
    (s, t) with s <= t).  Every family is enumerated lazily: B slowest,
    then A~, both unit upper triangular, standing for all
    (matrix.enum_block_diag), both in product order, then C (every value
    tuple of the cells matrix.block_diag_cells(ks, nks, False) lists, in
    gray_steps order over that list).

    mode "exact" enumerates every C.  mode "filter" first tests that every
    minor the predicate checks of B P A~ lies outside F_q; pairs that pass
    draw FILTER_RESAMPLE_COUNT random C from the call's own stream, seeded
    0 (every C, when there are no more), pairs that fail enumerate every C.
    A True detail counts the pairs that passed the filter (filtered_pairs)
    and those whose C were drawn at random (sampled_pairs); the verdict is
    exhaustive only when sampled_pairs is 0.  A False witness holds the
    diagonal blocks of B, A~ and C and the vanishing minor, as JSON.

    Each pair makes one predicate call, on B P A~ with the run of its C
    values (superregular.minor_sweep), over one selection list built for
    the call: every C in reflected q-ary Gray order, each after the first
    moving one C cell, which the sweep walks from gray_moves' table and
    whose values it keeps (the witness C is read from them), or every C
    cell for a sampled draw (_c_draws), so the first vanishing minor, hence
    every report, is a full sweep's per T in that order.  checked_count
    adds up the T swept, detail's minors the minors evaluated and its
    charge the minors the runs can evaluate, counted
    (superregular.count_block_selections) before the list is built, so a
    family over budget builds none.  A C matrix is
    built only for a witness.
    """
    if mode not in ("exact", "filter"):
        raise ValueError(f"unknown mode {mode!r}")
    start = time.perf_counter()
    q = p.field.q
    grid = BlockGrid(ks, nks) if constrained else None
    b_count, a_count, c_count = family_counts(ks, nks, q)
    counts = {"b_count": b_count, "a_count": a_count, "c_count": c_count}
    # counted, so a refused family builds no list
    total, held, meeting = count_block_selections(tuple(ks), tuple(nks), constrained)
    # budget unit: one minor evaluation (_run_charge).  A filter pair adds
    # its filter sweep; one that samples may instead sweep once and
    # re-evaluate the selections holding any C cell for every other drawn
    # C, and is charged the larger of the two.
    per_pair = _run_charge(total, [h for h, k, w in zip(held, ks, nks)
                                   for _ in range(k * w)], q)
    if mode == "filter":
        sampling = (total + (FILTER_RESAMPLE_COUNT - 1) * meeting
                    if c_count > FILTER_RESAMPLE_COUNT else 0)
        per_pair = total + max(per_pair, sampling)
    charge = b_count * a_count * per_pair
    if charge > budget:
        return VerificationReport(
            INFEASIBLE,
            detail=counts | {"charge": charge, "budget": budget},
            elapsed=time.perf_counter() - start,
        )
    selections = square_selections(p.rows, p.cols, grid)
    cells = block_diag_cells(ks, nks, False)
    rng = random.Random(0)
    checked = 0
    filtered = 0
    sampled = 0
    minors = 0
    for b in enum_block_diag(ks, q):
        bp = b @ p
        for a in enum_block_diag(nks, q):
            bpa = bp @ a
            sample = False
            if mode == "filter" and _minors_outside_base(bpa, selections):
                filtered += 1
                sample = c_count > FILTER_RESAMPLE_COUNT
                sampled += sample
            digits = [0] * len(cells)
            # every C in Gray order, the sweep moving one cell per step, or
            # the drawn C, each rewriting every cell
            run = (((tuple(cells),), _c_draws(q, digits, rng)) if sample
                   else (cells, gray_moves(q, len(cells)), digits))
            rep = (is_full_superregular(bpa, entries=selections, run=run) if grid is None
                   else is_superregular_constrained(bpa, grid, entries=selections, run=run))
            checked += rep.detail["matrices"]
            minors += rep.checked_count
            if rep.verdict is False:
                c = iter(digits)  # C's cells, block by block, row-major
                return VerificationReport(
                    False,
                    witness={
                        "transform": {
                            "B": diagonal_blocks(b, ks, ks),
                            "A": diagonal_blocks(a, nks, nks),
                            "C": [[[next(c) for _ in range(w)] for _ in range(k)]
                                  for k, w in zip(ks, nks)]},
                        "rows": rep.witness["rows"],
                        "cols": rep.witness["cols"],
                    },
                    checked_count=checked,
                    elapsed=time.perf_counter() - start,
                    detail=counts | {"minors": minors, "charge": charge},
                )
    return VerificationReport(
        True,
        checked_count=checked,
        elapsed=time.perf_counter() - start,
        detail=counts | {"mode": mode, "filtered_pairs": filtered,
                         "sampled_pairs": sampled, "minors": minors,
                         "charge": charge},
    )


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


@lru_cache(maxsize=16)
def gray_moves(q: int, c: int) -> bytes:
    """gray_steps(q, c) as a table for superregular.minor_sweep, one byte
    per step: j << 1 | (d < 0) for cell j moving by d (c < 128)."""
    return bytes(j << 1 | (d < 0) for j, d in gray_steps(q, c))


def _run_charge(first: int, held, q: int) -> int:
    """Minors an exhaustive run in gray_steps order evaluates: `first` for
    its first matrix, and held[i], the selections holding free cell i's
    group, for each of the (q-1) q^i steps that move cell i."""
    return first + sum((q - 1) * q**i * h for i, h in enumerate(held))


def _c_draws(q: int, digits: list, rng):
    """check_transform_family's edits for a pair whose C are drawn:
    FILTER_RESAMPLE_COUNT draws from rng, each rewriting every C cell (the
    run's one group), cell by cell in the order C is listed, with digits
    kept current."""
    for _ in range(FILTER_RESAMPLE_COUNT):
        digits[:] = [rng.randrange(q) for _ in digits]
        yield 0, digits


def _minors_outside_base(m: Matrix, entries) -> bool:
    """Base-field filter: every minor the predicate checks (the entries,
    m's grid-filtered square_selections) lies outside F_q, so is nonzero."""
    sweep = minor_sweep(m, entries, m.field.q)
    return next(sweep, None) is None


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
    p: Matrix,
    mode: str = "exact",
    budget: int = DEFAULT_SELECTION_BUDGET,
) -> VerificationReport:
    """MRD iff B P A~ + C is full superregular for every nonsingular
    upper-triangular B (k x k), A~ ((n-k) x (n-k)) and every C over F_q."""
    code = SystematicBlockCode(LengthPartition([p.rows + p.cols]), (p.rows,), p)
    return check_msrd_systematic(code, mode=mode, budget=budget)


def check_msrd_systematic(
    code: SystematicBlockCode,
    mode: str = "exact",
    budget: int = DEFAULT_SELECTION_BUDGET,
) -> VerificationReport:
    """MSRD iff diag(B_i) P diag(A~_i) + diag(C_i) is full superregular for
    every block tuple over F_q: check_transform_family with row blocks
    (k_i), column blocks (n_i - k_i) and no grid.  The witness C is the
    whole k x (n-k) matrix."""
    return check_transform_family(
        code.parity, code.dim_partition, code.parity_widths,
        False, mode, budget,
    )


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
