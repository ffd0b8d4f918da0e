"""Dense matrices over a Field, with the linear algebra the verifiers need.

Entries are integer element codes stored row-major.  Matrices over the
prime field F_q and over an extension F_{q^M} share this type; products
that mix the two lift base-field entries through the natural inclusion
(constant polynomials keep their codes, so lifting is a no-op on data).
det, rank and inverse run one forward elimination (_eliminate); inverse
adds only its back-substitution.
"""

from __future__ import annotations

from itertools import combinations, product

from .field import Field, base_field


class MatrixError(ValueError):
    pass


class Matrix:
    __slots__ = ("rows", "cols", "field", "data")

    def __init__(self, rows: int, cols: int, field: Field, data=None):
        self.rows = rows
        self.cols = cols
        self.field = field
        if data is None:
            self.data = [0] * (rows * cols)
        else:
            self.data = list(data)
            if len(self.data) != rows * cols:
                raise MatrixError(
                    f"data length {len(self.data)} != {rows}x{cols}"
                )
            for v in self.data:
                if not 0 <= v < field.order:
                    raise MatrixError(f"entry code {v} outside field of order {field.order}")

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_rows(cls, rows_of_codes, field: Field) -> "Matrix":
        """The matrix of equal-length lists of integer codes, else MatrixError."""
        if not is_code_rows(rows_of_codes):
            raise MatrixError("matrix rows must be lists of integer codes")
        rows = len(rows_of_codes)
        cols = len(rows_of_codes[0]) if rows else 0
        flat = []
        for r in rows_of_codes:
            if len(r) != cols:
                raise MatrixError("ragged rows")
            flat.extend(r)
        return cls(rows, cols, field, flat)

    @classmethod
    def identity(cls, n: int, field: Field) -> "Matrix":
        m = cls(n, n, field)
        for i in range(n):
            m.data[i * n + i] = 1
        return m

    # -- element access ---------------------------------------------------

    def __getitem__(self, rc):
        r, c = rc
        return self.data[r * self.cols + c]

    def __setitem__(self, rc, v):
        r, c = rc
        self.data[r * self.cols + c] = v

    def row(self, r: int) -> list[int]:
        return self.data[r * self.cols : (r + 1) * self.cols]

    def col(self, c: int) -> list[int]:
        return self.data[c :: self.cols]

    def to_rows(self) -> list[list[int]]:
        return [self.row(r) for r in range(self.rows)]

    def copy(self) -> "Matrix":
        return Matrix(self.rows, self.cols, self.field, self.data)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.field == other.field
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.field, tuple(self.data)))

    def __repr__(self):
        return f"Matrix({self.to_rows()!r} over {self.field.descriptor()})"

    # -- algebra ----------------------------------------------------------

    def transpose(self) -> "Matrix":
        out = Matrix(self.cols, self.rows, self.field)
        for r in range(self.rows):
            for c in range(self.cols):
                out.data[c * self.rows + r] = self.data[r * self.cols + c]
        return out

    def lift(self, field: Field) -> "Matrix":
        """Reinterpret a base-field matrix inside an extension of the same q."""
        if self.field == field:
            return self
        if self.field.q != field.q or self.field.M != 1:
            raise MatrixError(
                f"cannot lift matrix over {self.field.descriptor()} "
                f"into {field.descriptor()}"
            )
        return Matrix(self.rows, self.cols, field, self.data)

    def add(self, other: "Matrix") -> "Matrix":
        a, b = _align(self, other)
        if (a.rows, a.cols) != (b.rows, b.cols):
            raise MatrixError("shape mismatch in add")
        f = a.field
        return Matrix(a.rows, a.cols, f, [f.add(x, y) for x, y in zip(a.data, b.data)])

    def scale(self, c: int) -> "Matrix":
        f = self.field
        return Matrix(self.rows, self.cols, f, [f.mul(c, x) for x in self.data])

    def matmul(self, other: "Matrix") -> "Matrix":
        a, b = _align(self, other)
        if a.cols != b.rows:
            raise MatrixError(f"shape mismatch {a.rows}x{a.cols} @ {b.rows}x{b.cols}")
        f = a.field
        add, mul = f.add, f.mul
        out = Matrix(a.rows, b.cols, f)
        for i in range(a.rows):
            arow = a.data[i * a.cols : (i + 1) * a.cols]
            orow = out.data
            for t, av in enumerate(arow):
                if av == 0:
                    continue
                brow = b.data[t * b.cols : (t + 1) * b.cols]
                base = i * b.cols
                if av == 1:
                    for j, bv in enumerate(brow):
                        if bv:
                            orow[base + j] = add(orow[base + j], bv)
                else:
                    for j, bv in enumerate(brow):
                        if bv:
                            orow[base + j] = add(orow[base + j], mul(av, bv))
        return out

    def __matmul__(self, other):
        return self.matmul(other)

    def hstack(self, other: "Matrix") -> "Matrix":
        a, b = _align(self, other)
        if a.rows != b.rows:
            raise MatrixError("row mismatch in hstack")
        out = Matrix(a.rows, a.cols + b.cols, a.field)
        for r in range(a.rows):
            out.data[r * out.cols : r * out.cols + a.cols] = a.row(r)
            out.data[r * out.cols + a.cols : (r + 1) * out.cols] = b.row(r)
        return out

    def submatrix(self, row_indices, col_indices) -> "Matrix":
        ri = list(row_indices)
        ci = list(col_indices)
        f = self.field
        data = [self.data[r * self.cols + c] for r in ri for c in ci]
        return Matrix(len(ri), len(ci), f, data)

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "field": self.field.descriptor(),
            "rows": self.rows,
            "cols": self.cols,
            "data": self.to_rows(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Matrix":
        from .field import parse_descriptor

        if not isinstance(obj, dict):
            raise MatrixError("a matrix must be a JSON object")
        f = parse_descriptor(obj["field"])
        m = cls.from_rows(obj["data"], f)
        if (m.rows, m.cols) != (obj["rows"], obj["cols"]):
            raise MatrixError("matrix JSON dimensions disagree with data")
        return m


def is_code_rows(value) -> bool:
    """value is a list of lists of integers, the JSON form of a matrix's
    rows (of any lengths)."""
    return isinstance(value, list) and all(
        isinstance(r, list) and all(type(v) is int for v in r) for r in value)


def block_diag(blocks) -> Matrix:
    """Block-diagonal matrix of one or more blocks over the first block's
    field.  Each block starts after the rows and the columns of those
    before it, so blocks may be rectangular and 0-size blocks take no room."""
    blocks = list(blocks)
    out = Matrix(sum(b.rows for b in blocks), sum(b.cols for b in blocks),
                 blocks[0].field)
    r0 = c0 = 0
    for b in blocks:
        for r in range(b.rows):
            start = (r0 + r) * out.cols + c0
            out.data[start : start + b.cols] = b.row(r)
        r0 += b.rows
        c0 += b.cols
    return out


def _align(a: Matrix, b: Matrix) -> tuple[Matrix, Matrix]:
    """Lift whichever operand lives in the prime subfield of the other."""
    if a.field == b.field:
        return a, b
    if a.field.M == 1:
        return a.lift(b.field), b
    if b.field.M == 1:
        return a, b.lift(a.field)
    raise MatrixError(
        f"incompatible fields {a.field.descriptor()} vs {b.field.descriptor()}"
    )


# -- elimination-based operations -----------------------------------------


def _eliminate(a: list[list[int]], f: Field):
    """Forward elimination of the rows a (lists of codes) in place, for
    det, rank and inverse: per column, pivot on the first nonzero at or
    below the current row, swap it up, yield (row, column, swapped), then
    clear the column below it.  A caller may stop at any yield."""
    width = len(a[0]) if a else 0
    r = 0
    for c in range(width):
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        yield r, c, piv != r
        prow = a[r]
        pinv = f.inv(prow[c])
        for arow in a[r + 1:]:
            if arow[c]:
                factor = f.mul(arow[c], pinv)
                for j in range(c, width):
                    arow[j] = f.sub(arow[j], f.mul(factor, prow[j]))
        r += 1


def det(m: Matrix) -> int:
    """Determinant by forward elimination: the signed product of the
    pivots, 0 at the first column without one."""
    if m.rows != m.cols:
        raise MatrixError("determinant of non-square matrix")
    f = m.field
    a = [m.row(r) for r in range(m.rows)]
    result, r = 1, -1
    for r, c, swapped in _eliminate(a, f):
        if c != r:
            return 0
        result = f.mul(f.neg(result) if swapped else result, a[r][c])
    # r is the last pivot's row: fewer than n pivots leave a zero column
    return result if r == m.rows - 1 else 0


def rank(m: Matrix) -> int:
    """Number of pivots of the forward elimination."""
    return sum(1 for _ in _eliminate([m.row(r) for r in range(m.rows)], m.field))


def inverse(m: Matrix) -> Matrix:
    """Forward elimination of [m | I], then back-substitution from the
    last pivot up."""
    if m.rows != m.cols:
        raise MatrixError("inverse of non-square matrix")
    f = m.field
    n = m.rows
    a = [m.row(r) + [int(r == c) for c in range(n)] for r in range(n)]
    # [m | I] has n pivots; m is singular iff one lies right of the diagonal
    if any(c != r for r, c, _ in _eliminate(a, f)):
        raise MatrixError("matrix is singular")
    for c in range(n - 1, -1, -1):
        pinv = f.inv(a[c][c])
        crow = a[c] = [f.mul(pinv, v) for v in a[c]]
        for arow in a[:c]:
            if arow[c]:
                factor = arow[c]
                for j in range(c, 2 * n):
                    arow[j] = f.sub(arow[j], f.mul(factor, crow[j]))
    return Matrix.from_rows([row[n:] for row in a], f)


def minor(m: Matrix, row_indices, col_indices) -> int:
    """Determinant of the selected square submatrix."""
    ri, ci = list(row_indices), list(col_indices)
    if len(ri) != len(ci):
        raise MatrixError("minor selection is not square")
    if any(not 0 <= r < m.rows for r in ri) or any(not 0 <= c < m.cols for c in ci):
        raise MatrixError("minor selection out of bounds")
    return det(m.submatrix(ri, ci))


def bruhat_decompose(a: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """Factor nonsingular a as V @ Q @ U, V and U upper triangular, Q a permutation.

    Flip rows (B = P_n a), factor B = L P U by Gauss-Jordan with
    first-nonzero pivoting, then conjugate L back to upper triangular
    form: V = P_n L P_n and Q = P_n P.
    """
    if a.rows != a.cols:
        raise MatrixError("bruhat decomposition needs a square matrix")
    n = a.rows
    f = a.field
    # B = P_n a (reverse row order)
    b = [a.row(n - 1 - r) for r in range(n)]
    lmat = [[1 if i == j else 0 for j in range(n)] for i in range(n)]  # L
    umat = [[1 if i == j else 0 for j in range(n)] for i in range(n)]  # U
    pivot_row_of_col = [-1] * n
    used = [False] * n
    for c in range(n):
        piv = None
        for r in range(n):
            if not used[r] and b[r][c]:
                piv = r
                break
        if piv is None:
            raise MatrixError("matrix is singular")
        used[piv] = True
        pivot_row_of_col[c] = piv
        # scale row piv so pivot becomes 1; absorb the scale into L
        pv = b[piv][c]
        if pv != 1:
            pinv = f.inv(pv)
            b[piv] = [f.mul(pinv, v) for v in b[piv]]
            for i in range(n):
                lmat[i][piv] = f.mul(lmat[i][piv], pv)
        # clear below in column c (rows strictly under piv): row_r -= m * row_piv
        for r in range(piv + 1, n):
            if b[r][c]:
                mfac = b[r][c]
                for j in range(n):
                    b[r][j] = f.sub(b[r][j], f.mul(mfac, b[piv][j]))
                # B' = E B with E lower: L absorbs E^{-1} (col op on L)
                for i in range(n):
                    lmat[i][piv] = f.add(lmat[i][piv], f.mul(mfac, lmat[i][r]))
        # clear right of c in row piv: col_j -= m * col_c
        for j in range(c + 1, n):
            if b[piv][j]:
                mfac = b[piv][j]
                for r in range(n):
                    b[r][j] = f.sub(b[r][j], f.mul(mfac, b[r][c]))
                # B' = B F with F upper: U absorbs F^{-1} (row op on U)
                for jj in range(n):
                    umat[c][jj] = f.add(umat[c][jj], f.mul(mfac, umat[j][jj]))
    # b is now the permutation P
    pmat = Matrix.from_rows(b, f)
    l = Matrix.from_rows(lmat, f)
    u = Matrix.from_rows(umat, f)
    # V = P_n L P_n, Q = P_n P
    v = Matrix.from_rows([list(reversed(l.row(n - 1 - r))) for r in range(n)], f)
    qmat = Matrix.from_rows([pmat.row(n - 1 - r) for r in range(n)], f)
    return v, qmat, u


def is_upper_triangular(m: Matrix) -> bool:
    return all(m[r, c] == 0 for r in range(m.rows) for c in range(min(r, m.cols)))


def is_permutation(m: Matrix) -> bool:
    if m.rows != m.cols:
        return False
    for r in range(m.rows):
        if sorted(m.row(r)) != [0] * (m.cols - 1) + [1]:
            return False
    for c in range(m.cols):
        if sorted(m.col(c)) != [0] * (m.rows - 1) + [1]:
            return False
    return True


# -- enumerators ------------------------------------------------------------


def block_diag_cells(rows, cols, upper: bool) -> list[int]:
    """Free cells of a block-diagonal matrix with blocks rows[i] x cols[i],
    as flat indices in enumeration order: blocks left to right, each
    row-major; in an upper block only the cells strictly above its
    diagonal, in any other block every cell."""
    width = sum(cols)
    cells = []
    r0 = c0 = 0
    for br, bc in zip(rows, cols):
        cells += [(r0 + r) * width + c0 + c for r in range(br)
                  for c in range(r + 1 if upper else 0, bc)]
        r0 += br
        c0 += bc
    return cells


def enum_block_diag(sizes, q: int):
    """Every block-diagonal matrix over F_q whose blocks, sizes[i] x sizes[i],
    are unit upper triangular, one at a time: unit_block_diag of each F_q
    value tuple of block_diag_cells(sizes, sizes, True), the first block
    varying slowest.  0-size blocks take no room.

    They stand for every nonsingular upper-triangular block.  Such a B is
    D U, and such an A~ is U' D', with D, D' diagonal over F_q^* and U, U'
    unit upper triangular.  So B P A~ + C = D (U P U' + D^-1 C D'^-1) D',
    C -> D^-1 C D'^-1 permutes the block-diagonal C, and scaling rows and
    columns by F_q^* changes no minor's vanishing (G A = G U' D' likewise
    on the transform side).  A predicate that only asks which minors
    vanish therefore holds for every tuple iff it holds for the unit ones."""
    for values in product(range(q), repeat=len(block_diag_cells(sizes, sizes, True))):
        yield unit_block_diag(sizes, q, values)


def unit_block_diag(sizes, q: int, values) -> Matrix:
    """The block-diagonal matrix over F_q with unit upper-triangular blocks
    sizes[i] x sizes[i] whose free cells, block_diag_cells(sizes, sizes,
    True), hold values: an identity with values written in."""
    m = Matrix.identity(sum(sizes), base_field(q))
    for i, v in zip(block_diag_cells(sizes, sizes, True), values):
        m.data[i] = v
    return m


def diagonal_blocks(m: Matrix, rows, cols) -> list[list[list[int]]]:
    """The diagonal blocks rows[i] x cols[i] of m, each as rows of codes
    (the JSON form of a witness block)."""
    out = []
    r0 = c0 = 0
    for br, bc in zip(rows, cols):
        out.append([m.data[(r0 + r) * m.cols + c0:(r0 + r) * m.cols + c0 + bc]
                    for r in range(br)])
        r0 += br
        c0 += bc
    return out


def gaussian_binomial(n: int, k: int, q: int) -> int:
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def enum_full_rank_column_spaces(n: int, rho: int, q: int):
    """One full-rank n x rho representative per rho-dim column space of F_q^n.

    Representatives are in reduced column-echelon form; their count is
    the Gaussian binomial [n choose rho]_q.  Sufficient wherever only
    the column space matters (e.g. nonsingularity of G @ A*).
    """
    if rho > n or rho < 0:
        raise MatrixError(f"rho={rho} outside [0, {n}]")
    f = base_field(q)
    if rho == 0:
        yield Matrix(n, 0, f)
        return
    for pivots in combinations(range(n), rho):
        # free entries: rows below the column's pivot that are not pivot rows
        free = [
            (r, c)
            for c in range(rho)
            for r in range(pivots[c] + 1, n)
            if r not in pivots
        ]
        for vals in product(range(q), repeat=len(free)):
            m = Matrix(n, rho, f)
            for c in range(rho):
                m[pivots[c], c] = 1
            for (r, c), v in zip(free, vals):
                m[r, c] = v
            yield m
