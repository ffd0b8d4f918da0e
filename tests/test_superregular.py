"""Trivial-minor detection against the permutation brute force, the
superregularity predicates, and the minor-counting conventions, the
structural count against one perfect-matching test per selection.  The
bipartite matcher (is_trivial_minor) is the reference the Boolean sweep
(nontrivial_slots) is compared against."""

import random
from itertools import permutations, product

import pytest

from sumrank.cli import TABLE1_ROWS
from sumrank.conv_codes import construct_frobenius, sliding_parity
from sumrank.field import base_field, field
from sumrank.matrix import Matrix
from sumrank.report import INFEASIBLE
from sumrank.superregular import (
    BlockGrid,
    ZeroPattern,
    count_block_selections,
    count_nontrivial_minors,
    is_full_superregular,
    is_superregular,
    is_superregular_constrained,
    iter_square_selections,
    nontrivial_slots,
    square_selections,
)

F2 = base_field(2)
F4 = field(2, 2)


def has_perfect_matching(adj: list[list[int]], n_right: int) -> bool:
    """Perfect matching on a bipartite graph via augmenting paths.

    adj[u] lists the right vertices adjacent to left vertex u.
    """
    match_right = [-1] * n_right

    def augment(u: int, seen: list[bool]) -> bool:
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                if match_right[v] == -1 or augment(match_right[v], seen):
                    match_right[v] = u
                    return True
        return False

    for u in range(len(adj)):
        if not augment(u, [False] * n_right):
            return False
    return True


def is_trivial_minor(pattern: ZeroPattern, row_indices, col_indices) -> bool:
    """True iff no permutation selects all-nonzero entries of the submatrix."""
    ri, ci = list(row_indices), list(col_indices)
    if len(ri) != len(ci):
        raise ValueError("minor selection is not square")
    adj = [
        [j for j, c in enumerate(ci) if pattern[r, c]]
        for r in ri
    ]
    return not has_perfect_matching(adj, len(ci))


def brute_force_trivial(pattern, ri, ci):
    """A minor is trivial iff every permutation term hits a zero."""
    ri, ci = list(ri), list(ci)
    for perm in permutations(range(len(ci))):
        if all(pattern[r, ci[p]] for r, p in zip(ri, perm)):
            return False
    return True


def test_trivial_minor_examples():
    p = ZeroPattern([[True, True], [False, False]])
    assert is_trivial_minor(p, [0, 1], [0, 1])
    p = ZeroPattern([[True, False], [False, True]])
    assert not is_trivial_minor(p, [0, 1], [0, 1])


def test_matcher_equals_brute_force_exhaustive_3x3():
    for bits in product([False, True], repeat=9):
        p = ZeroPattern([list(bits[0:3]), list(bits[3:6]), list(bits[6:9])])
        for ri, ci in iter_square_selections(3, 3):
            assert is_trivial_minor(p, ri, ci) == brute_force_trivial(p, ri, ci)


def test_matcher_equals_brute_force_random_5x5():
    rng = random.Random(9)
    for _ in range(1000):
        p = ZeroPattern([[rng.random() < 0.5 for _ in range(5)] for _ in range(5)])
        for ri, ci in iter_square_selections(5, 5):
            assert is_trivial_minor(p, ri, ci) == brute_force_trivial(p, ri, ci)


def test_is_superregular_examples():
    assert is_superregular(Matrix.from_rows([[2]], F4)).verdict is True
    rep = is_superregular(Matrix.from_rows([[1, 1], [1, 1]], F4))
    assert rep.verdict is False
    assert rep.witness == {"rows": [0, 1], "cols": [0, 1]}
    # lower-triangular Toeplitz: the zero-containing minors are trivial
    assert is_superregular(Matrix.from_rows([[1, 0], [1, 1]], F2)).verdict is True


def test_is_full_superregular_examples():
    assert is_full_superregular(Matrix.from_rows([[1, 1], [1, 2]], F4)).verdict is True
    assert is_full_superregular(Matrix.from_rows([[1, 0], [1, 1]], F2)).verdict is False
    assert is_full_superregular(Matrix.from_rows([[1, 1], [1, 1]], F4)).verdict is False


def test_full_superregular_implies_superregular():
    rng = random.Random(10)
    for _ in range(200):
        m = Matrix(3, 3, F4, [rng.randrange(4) for _ in range(9)])
        if is_full_superregular(m).verdict is True:
            assert is_superregular(m).verdict is True


def test_superregular_transpose_invariant():
    rng = random.Random(11)
    for _ in range(200):
        m = Matrix(2, 3, F4, [rng.randrange(4) for _ in range(6)])
        assert is_superregular(m).verdict == is_superregular(m.transpose()).verdict


def test_constrained_single_block_is_full_superregular():
    rng = random.Random(12)
    grid = BlockGrid.uniform(2, 2, 1)
    for _ in range(100):
        m = Matrix(2, 2, F4, [rng.randrange(4) for _ in range(4)])
        assert (
            is_superregular_constrained(m, grid).verdict
            == is_full_superregular(m).verdict
        )


def test_constrained_block_ut_example():
    grid = BlockGrid.uniform(1, 1, 2)
    m = Matrix.from_rows([[2, 3], [0, 2]], F4)
    assert is_superregular_constrained(m, grid).verdict is True


def _structural_superregular(m, grid):
    """Plain superregularity judged against the block-upper-triangular
    structural pattern (below-diagonal blocks zero, everything else
    treated as support) rather than the numeric zeros."""
    from sumrank.matrix import det

    pattern = ZeroPattern(
        [
            [grid.diagonal_allowed([r], [c]) for c in range(m.cols)]
            for r in range(m.rows)
        ]
    )
    for ri, ci in iter_square_selections(m.rows, m.cols):
        if is_trivial_minor(pattern, ri, ci):
            continue
        if det(m.submatrix(ri, ci)) == 0:
            return False
    return True


def test_constrained_equals_structural_superregularity():
    """Theorem's condition 2 vs condition 3: the diagonal-constrained
    check agrees with superregularity relative to the structural zero
    pattern (a qualifying submatrix is a column permutation of a
    structurally non-trivial selection and vice versa)."""
    rng = random.Random(13)
    grid = BlockGrid.uniform(1, 1, 2)
    for _ in range(300):
        m = Matrix.from_rows(
            [[rng.randrange(4), rng.randrange(4)], [0, rng.randrange(4)]], F4
        )
        assert is_superregular_constrained(m, grid).verdict == (
            _structural_superregular(m, grid)
        )
    grid2 = BlockGrid.uniform(2, 1, 2)
    for _ in range(100):
        rows = [[rng.randrange(4), rng.randrange(4)] for _ in range(2)]
        rows += [[0, rng.randrange(4)] for _ in range(2)]
        m = Matrix.from_rows(rows, F4)
        assert is_superregular_constrained(m, grid2).verdict == (
            _structural_superregular(m, grid2)
        )


def test_count_nontrivial_minors():
    assert count_nontrivial_minors(ZeroPattern([[True]])) == 1
    full2 = ZeroPattern([[True, True], [True, True]])
    assert count_nontrivial_minors(full2) == 5
    # sliding pattern for two parity blocks of a unit-size encoder: the
    # published table counts only minors of size >= 2 (reverse-engineered)
    t1 = ZeroPattern([[True, True], [False, True]])
    assert count_nontrivial_minors(t1, min_size=2) == 1
    assert count_nontrivial_minors(t1) == 4  # literal count with 1x1 minors
    t2 = ZeroPattern(
        [
            [True, True, True],
            [False, True, True],
            [False, False, True],
        ]
    )
    assert count_nontrivial_minors(t2, min_size=2) == 7


def _matching_count(pattern, grid=None, min_size=1):
    """The per-selection count the Laplace sweep replaced: one
    perfect-matching test per (grid-qualifying) square selection."""
    return sum(
        1 for ri, ci in iter_square_selections(pattern.rows, pattern.cols)
        if len(ri) >= min_size
        and (grid is None or grid.diagonal_allowed(ri, ci))
        and not is_trivial_minor(pattern, ri, ci))


def _composition(rng, total, parts):
    """A random split of total into parts positive sizes."""
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def _block_upper_pattern(n, k, m):
    """The support of a sliding parity whose coefficients have no zero
    entry: every k x (n-k) block (s, t) with s <= t."""
    nk = n - k
    return ZeroPattern([[r // k <= c // nk for c in range(nk * (m + 1))]
                        for r in range(k * (m + 1))])


def test_nontrivial_count_matches_the_matching_count():
    for n, k, m, deg, e in TABLE1_ROWS:
        # table1 counts on the construction's own pattern: every Frobenius
        # entry is nonzero, so it is the block-upper-triangular one
        f = field(2, deg)
        enc = construct_frobenius(n, k, m, f, f.alpha_pow(e))
        pattern = ZeroPattern.of(sliding_parity(enc, m))
        assert pattern.support == _block_upper_pattern(n, k, m).support
        grid = BlockGrid.uniform(k, n - k, m + 1)
        want = _matching_count(pattern, min_size=2)
        # on the block-upper-triangular pattern every selection outside the
        # grid is trivial, so the grid changes no count
        assert _matching_count(pattern, grid, min_size=2) == want
        for g in (None, grid):
            assert count_nontrivial_minors(pattern, g, min_size=2) == want
    rng = random.Random(3)
    for rows, cols in [(1, 1), (2, 3), (3, 2), (4, 4), (3, 5), (5, 3)]:
        blocks = rng.randint(1, min(rows, cols))
        grid = BlockGrid(_composition(rng, rows, blocks), _composition(rng, cols, blocks))
        for share in (0.2, 0.5, 0.8):
            pattern = ZeroPattern([[rng.random() < share for _ in range(cols)]
                                   for _ in range(rows)])
            for g in (None, grid):
                for min_size in (1, 2):
                    assert count_nontrivial_minors(pattern, g, min_size=min_size) == \
                        _matching_count(pattern, g, min_size)
    with pytest.raises(ValueError):
        count_nontrivial_minors(ZeroPattern([[True]]), BlockGrid([1], [2]))


def test_selection_enumeration_order():
    sels = list(iter_square_selections(2, 2))
    assert sels[0] == ((0,), (0,))
    assert sels[-1] == ((0, 1), (0, 1))
    assert len(sels) == count_block_selections((2,), (2,), False)[0] == 5


def test_a_grid_of_another_shape_is_refused():
    # the list and its cache decision both read the grid, so it must be
    # rows x cols: a 1 x 2 grid on 3 x 3 once failed inside the grid, and a
    # 3 x 3 grid on 2 x 2 built 4 entries while the decision counted 13
    with pytest.raises(ValueError, match="1 x 2 grid on a 3 x 3"):
        square_selections(3, 3, BlockGrid([1], [2]))
    with pytest.raises(ValueError, match="3 x 3 grid on a 2 x 2"):
        square_selections(2, 2, BlockGrid([1, 1, 1], [1, 1, 1]))
    assert len(square_selections(3, 3, BlockGrid([1, 1, 1], [1, 1, 1]))) == 13


def test_budget_reports_infeasible():
    m = Matrix.identity(5, F2)
    rep = is_full_superregular(m, budget=10)
    assert rep.verdict == INFEASIBLE
    assert rep.infeasible


def test_first_failure_witness_is_deterministic():
    m = Matrix.from_rows([[1, 0], [1, 1]], F2)
    rep = is_full_superregular(m)
    assert rep.witness == {"rows": [0], "cols": [1]}
