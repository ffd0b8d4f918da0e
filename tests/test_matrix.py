"""Linear algebra over constructed fields: determinants against the
Leibniz-sum oracle, Bruhat decomposition exhaustively, enumerators
against their counting formulas, and the lazy block-diagonal family
enumerator against the per-block reference it replaced."""

import random
from itertools import combinations, permutations, product

import pytest

from sumrank.field import base_field, field
from sumrank.matrix import (
    Matrix,
    MatrixError,
    block_diag,
    block_diag_cells,
    bruhat_decompose,
    det,
    diagonal_blocks,
    enum_block_diag,
    enum_full_rank_column_spaces,
    gaussian_binomial,
    inverse,
    is_permutation,
    is_upper_triangular,
    minor,
    rank,
)

F2 = base_field(2)
F3 = base_field(3)
F4 = field(2, 2)
F8 = field(2, 3)
F9 = field(3, 2)
F25 = field(5, 2)


def leibniz_det(m: Matrix) -> int:
    """Sign-free Leibniz sum; signs collapse correctly because we negate
    per inversion count via repeated field negation."""
    f = m.field
    total = 0
    for perm in permutations(range(m.rows)):
        term = 1
        for r, c in enumerate(perm):
            term = f.mul(term, m[r, c])
        invs = sum(
            1 for i in range(len(perm)) for j in range(i + 1, len(perm))
            if perm[i] > perm[j]
        )
        if invs % 2:
            term = f.neg(term)
        total = f.add(total, term)
    return total


def random_matrix(rows, cols, f, rng):
    return Matrix(rows, cols, f, [rng.randrange(f.order) for _ in range(rows * cols)])


def reference_full_minors(g: Matrix):
    """Columns of g's first vanishing full-size minor, in lexicographic
    order, by Gaussian elimination (det); None when every one is nonzero."""
    for ci in combinations(range(g.cols), g.rows):
        if det(g.submatrix(range(g.rows), ci)) == 0:
            return ci
    return None


def test_det_examples():
    assert det(Matrix.identity(3, F8)) == 1
    m = Matrix.from_rows([[2, 1], [1, 2]], F4)
    assert det(m) == 2  # alpha^2 - 1 = alpha in characteristic 2


def test_det_matches_leibniz():
    rng = random.Random(3)
    for _ in range(25):
        m = random_matrix(4, 4, F8, rng)
        assert det(m) == leibniz_det(m)
    for _ in range(25):
        m = random_matrix(3, 3, F3, rng)
        assert det(m) == leibniz_det(m)


def _with_dependent_row(m: Matrix, rng) -> Matrix:
    """m with one row replaced by a random combination of the others."""
    f = m.field
    rows = m.to_rows()
    r = rng.randrange(m.rows)
    coeffs = [rng.randrange(f.order) for _ in rows]
    combo = [0] * m.cols
    for i, (row, a) in enumerate(zip(rows, coeffs)):
        if i != r:
            combo = [f.add(x, f.mul(a, y)) for x, y in zip(combo, row)]
    rows[r] = combo
    return Matrix.from_rows(rows, f)


@pytest.mark.parametrize("f", [F8, F9, F25], ids=["F8", "F9", "F25"])
def test_det_matches_leibniz_on_singular_matrices(f):
    rng = random.Random(f.order)
    assert det(Matrix(0, 0, f)) == 1
    for n in range(1, 5):
        for _ in range(10):
            m = random_matrix(n, n, f, rng)
            assert det(m) == leibniz_det(m)
            s = _with_dependent_row(m, rng)
            assert det(s) == leibniz_det(s) == 0


def test_det_multiplicative():
    rng = random.Random(4)
    for _ in range(30):
        a = random_matrix(3, 3, F8, rng)
        b = random_matrix(3, 3, F8, rng)
        assert det(a @ b) == F8.mul(det(a), det(b))


def test_rank_examples():
    assert rank(Matrix(2, 3, F4)) == 0
    assert rank(Matrix.identity(4, F2)) == 4
    # row 2 = alpha * row 1
    assert rank(Matrix.from_rows([[1, 2], [2, 3]], F4)) == 1


@pytest.mark.parametrize("f", [F2, F9, F25], ids=["F2", "F9", "F25"])
def test_rank_equals_the_rank_of_the_transpose(f):
    # a product through k inner columns has rank at most k
    rng = random.Random(f.order + 1)
    for rows, cols in [(2, 5), (3, 4), (5, 2), (4, 3), (4, 4)]:
        for k in range(min(rows, cols) + 1):
            for _ in range(5):
                m = random_matrix(rows, k, f, rng) @ random_matrix(k, cols, f, rng)
                assert rank(m) == rank(m.transpose()) <= k
    assert rank(Matrix(0, 3, F9)) == rank(Matrix(3, 0, F9)) == 0


@pytest.mark.parametrize("f", [F3, F9, F25], ids=["F3", "F9", "F25"])
def test_inverse_over_odd_q(f):
    rng = random.Random(f.order + 2)
    for n in range(1, 5):
        for _ in range(10):
            m = random_matrix(n, n, f, rng)
            if det(m) == 0:
                with pytest.raises(MatrixError):
                    inverse(m)
                continue
            assert inverse(m) @ m == m @ inverse(m) == Matrix.identity(n, f)
        with pytest.raises(MatrixError):
            inverse(_with_dependent_row(random_matrix(n, n, f, rng), rng))


def test_inverse():
    assert inverse(Matrix.identity(2, F2)) == Matrix.identity(2, F2)
    m = Matrix.from_rows([[1, 1], [0, 1]], F2)
    assert inverse(m) == m
    rng = random.Random(5)
    done = 0
    while done < 20:
        m = random_matrix(3, 3, F8, rng)
        if det(m) == 0:
            continue
        assert m @ inverse(m) == Matrix.identity(3, F8)
        done += 1
    with pytest.raises(MatrixError):
        inverse(Matrix(2, 2, F2))


def test_minor_oracle():
    rng = random.Random(6)
    for _ in range(20):
        m = random_matrix(3, 4, F8, rng)
        for ri in [(0, 1), (0, 2), (1, 2)]:
            for ci in [(0, 1), (1, 3), (2, 3)]:
                a, b = m[ri[0], ci[0]], m[ri[0], ci[1]]
                c, d = m[ri[1], ci[0]], m[ri[1], ci[1]]
                expect = F8.sub(F8.mul(a, d), F8.mul(b, c))
                assert minor(m, ri, ci) == expect
        assert minor(m, [1], [2]) == m[1, 2]
    sq = random_matrix(3, 3, F8, random.Random(7))
    assert minor(sq, range(3), range(3)) == det(sq)


def _check_bruhat(a: Matrix):
    v, qm, u = bruhat_decompose(a)
    assert is_upper_triangular(v) and det(v) != 0
    assert is_upper_triangular(u) and det(u) != 0
    assert is_permutation(qm)
    assert v @ qm @ u == a


def test_bruhat_identity_and_swap():
    i2 = Matrix.identity(2, F2)
    v, qm, u = bruhat_decompose(i2)
    assert (v, qm, u) == (i2, i2, i2)
    swap = Matrix.from_rows([[0, 1], [1, 0]], F2)
    v, qm, u = bruhat_decompose(swap)
    assert v == i2 and u == i2 and qm == swap


def test_bruhat_exhaustive_gl_f2():
    counts = {1: 1, 2: 6, 3: 168}
    for n, expect in counts.items():
        seen = 0
        for vals in product(range(2), repeat=n * n):
            m = Matrix(n, n, F2, list(vals))
            if det(m) == 0:
                continue
            seen += 1
            _check_bruhat(m)
        assert seen == expect


def test_bruhat_exhaustive_gl_f3():
    seen = 0
    for vals in product(range(3), repeat=4):
        m = Matrix(2, 2, F3, list(vals))
        if det(m) == 0:
            continue
        seen += 1
        _check_bruhat(m)
    assert seen == 48


# -- reference per-block enumerators, kept to pin enum_block_diag's order --


def enum_ut_unit(s: int, q: int):
    """All s x s unit upper-triangular matrices over F_q, the cells above
    the diagonal varying row-major."""
    f = base_field(q)
    above = [(r, c) for r in range(s) for c in range(r + 1, s)]
    for rest in product(range(q), repeat=len(above)):
        m = Matrix.identity(s, f)
        for (r, c), v in zip(above, rest):
            m[r, c] = v
        yield m


def enum_ut_nonsingular(s: int, q: int):
    """All s x s upper-triangular matrices over F_q with nonzero diagonal;
    the diagonal varies slowest, then the cells above it row-major."""
    f = base_field(q)
    if s == 0:
        yield Matrix(0, 0, f)
        return
    above = [(r, c) for r in range(s) for c in range(r + 1, s)]
    for diag in product(range(1, q), repeat=s):
        for rest in product(range(q), repeat=len(above)):
            m = Matrix(s, s, f)
            for i in range(s):
                m[i, i] = diag[i]
            for (r, c), v in zip(above, rest):
                m[r, c] = v
            yield m


def enum_base_matrices(r: int, c: int, q: int):
    """All q^(r*c) matrices over F_q; empty dimensions yield one empty matrix."""
    f = base_field(q)
    if r == 0 or c == 0:
        yield Matrix(r, c, f)
        return
    for entries in product(range(q), repeat=r * c):
        yield Matrix(r, c, f, list(entries))


def reference_block_diag_family(rows, cols, q, upper):
    """Product of the per-block lists, first block slowest, each tuple
    assembled by block_diag."""
    sets = [list(enum_ut_unit(r, q)) if upper else list(enum_base_matrices(r, c, q))
            for r, c in zip(rows, cols)]
    for blocks in product(*sets):
        yield block_diag(blocks)


def test_enum_block_diag_unit_upper_family():
    # q^len(cells) distinct unit upper-triangular members, one block and
    # several, in the per-block reference order
    for q in (2, 3, 5):
        f = base_field(q)
        for s in range(5 if q < 5 else 4):
            mats = list(enum_block_diag([s], q))
            assert mats == list(reference_block_diag_family([s], [s], q, True))
            assert len(mats) == q ** len(block_diag_cells([s], [s], True))
            assert len(mats) == q ** (s * (s - 1) // 2)
            assert len({tuple(m.data) for m in mats}) == len(mats)
            for m in mats:
                assert m.field == f and is_upper_triangular(m)
                assert all(m[i, i] == 1 for i in range(s))
        for sizes in ([1, 2], [2, 0, 1], [0], [2, 2], [1, 1, 1]):
            mats = list(enum_block_diag(sizes, q))
            assert mats == list(reference_block_diag_family(sizes, sizes, q, True)), (q, sizes)
            assert len(mats) == q ** len(block_diag_cells(sizes, sizes, True))
    assert [m.to_rows() for m in enum_block_diag([1], 2)] == [[[1]]]
    assert [m.to_rows() for m in enum_block_diag([2], 3)] == [
        [[1, v], [0, 1]] for v in range(3)]
    # the free cells of an upper block lie strictly above its diagonal
    assert block_diag_cells([2, 1], [2, 1], True) == [1]
    assert block_diag_cells([3], [3], True) == [1, 2, 5]


def test_unit_upper_times_diagonal_is_every_nonsingular_upper():
    # D U over F_q^* diagonals D and unit U is each nonsingular upper
    # triangular block exactly once, so the unit family loses no member
    for q, s in ((3, 2), (3, 3), (5, 2)):
        f = base_field(q)
        scaled = []
        for d in product(range(1, q), repeat=s):
            dmat = Matrix(s, s, f)
            for i, v in enumerate(d):
                dmat[i, i] = v
            scaled += [tuple((dmat @ u).data) for u in enum_ut_unit(s, q)]
        assert sorted(scaled) == sorted(tuple(m.data) for m in enum_ut_nonsingular(s, q))
        assert len(set(scaled)) == (q - 1) ** s * q ** (s * (s - 1) // 2)


def c_family(rows, cols, q):
    """Every block-diagonal matrix with blocks rows[i] x cols[i] over F_q,
    each value tuple written to block_diag_cells(rows, cols, False) in
    order, as the transform-family engine writes its C cells."""
    cells = block_diag_cells(rows, cols, False)
    for values in product(range(q), repeat=len(cells)):
        m = Matrix(sum(rows), sum(cols), base_field(q))
        for i, v in zip(cells, values):
            m.data[i] = v
        yield m


def test_enum_base_matrices():
    # the C cell order: rectangular and 0-size blocks
    assert sorted(m.data[0] for m in c_family([1], [1], 2)) == [0, 1]
    assert len(list(c_family([2], [1], 2))) == 4
    assert len(list(c_family([2], [2], 3))) == 81
    assert len(list(c_family([0], [3], 2))) == 1  # one empty matrix
    for q in (2, 3):
        for rows, cols in (([2], [1]), ([1, 2], [2, 1]), ([1, 0, 1], [1, 2, 1]),
                           ([0, 2], [3, 0]), ([1, 1], [1, 1])):
            mats = list(c_family(rows, cols, q))
            assert mats == list(reference_block_diag_family(rows, cols, q, False))
            assert len(mats) == q ** sum(r * c for r, c in zip(rows, cols))


def test_diagonal_blocks_inverts_block_diag():
    f = base_field(3)
    blocks = [Matrix.from_rows([[1, 2]], f), Matrix(0, 1, f), Matrix(2, 0, f),
              Matrix.from_rows([[2], [1]], f), Matrix(0, 0, f)]
    rows, cols = [b.rows for b in blocks], [b.cols for b in blocks]
    assert diagonal_blocks(block_diag(blocks), rows, cols) == [b.to_rows() for b in blocks]


def test_enum_full_rank_column_spaces():
    assert len(list(enum_full_rank_column_spaces(2, 0, 2))) == 1
    assert len(list(enum_full_rank_column_spaces(2, 1, 2))) == 3
    assert len(list(enum_full_rank_column_spaces(3, 2, 2))) == 7
    for n in range(1, 5):
        for rho in range(n + 1):
            reps = list(enum_full_rank_column_spaces(n, rho, 2))
            assert len(reps) == gaussian_binomial(n, rho, 2)
            spaces = set()
            for r in reps:
                assert rank(r) == rho
                spans = frozenset(
                    tuple(_combine(r, coeffs))
                    for coeffs in product(range(2), repeat=rho)
                )
                spaces.add(spans)
            assert len(spaces) == len(reps)


def _combine(m: Matrix, coeffs):
    f = m.field
    out = [0] * m.rows
    for c, w in enumerate(coeffs):
        if w:
            for r in range(m.rows):
                out[r] = f.add(out[r], f.mul(w, m[r, c]))
    return out


def test_gaussian_binomial_values():
    assert gaussian_binomial(2, 1, 2) == 3
    assert gaussian_binomial(3, 2, 2) == 7
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(3, 1, 3) == 13


def test_json_round_trip():
    rng = random.Random(8)
    m = random_matrix(2, 3, F8, rng)
    assert Matrix.from_json(m.to_json()) == m


def test_mixed_field_product_lifts_base_entries():
    p = Matrix.from_rows([[2, 3], [1, 2]], F4)
    b = Matrix.from_rows([[1, 1], [0, 1]], F2)
    out = b @ p
    assert out.field is F4
    assert out.to_rows() == [[F4.add(2, 1), F4.add(3, 2)], [1, 2]]


def test_block_diag_places_rectangular_and_empty_blocks():
    f = base_field(3)
    a = Matrix.from_rows([[1, 2]], f)  # 1 x 2
    empty_row = Matrix(0, 1, f)  # takes one column, no row
    b = Matrix.from_rows([[2], [1]], f)  # 2 x 1
    assert block_diag([a, empty_row, b]).to_rows() == [
        [1, 2, 0, 0],
        [0, 0, 0, 2],
        [0, 0, 0, 1],
    ]
    assert block_diag([Matrix(0, 0, f)]).to_rows() == []
