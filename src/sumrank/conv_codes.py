"""Polynomial encoders, sliding matrices, the transformed-parity family of
the m-MSR criterion, its rank-profile oracle, systematization of general
encoders, and the Frobenius-power construction with its exponent search.

Level i of the m-MSR check is the block systematic check on the sliding
parity P_i^c: block_codes.check_transform_family with row blocks
(k)^(i+1), column blocks (n-k)^(i+1) and the block-grid predicate in
place of full superregularity.  The levels are nested, so
check_mMSR(enc, j) runs that engine once, at level j, and level j
passing certifies every level below it.  A witness belongs to the level
of the last block it touches: it is the engine's witness, each block
list cut to that level, plus the level, and it rechecks as a block
witness (block_codes.recheck_family_witness) on that level's P_i^c."""

from __future__ import annotations

from itertools import combinations, product
from math import gcd, prod

from .block_codes import (
    check_transform_family,
    family_counts,
    recheck_family_witness,
    witness_block,
)
from .core import expand_rank
from .field import Field, base_field, check_field_key
from .matrix import (
    Matrix,
    block_diag,
    det,
    enum_full_rank_column_spaces,
    gaussian_binomial,
    inverse,
    rank,
)
from .metrics import BudgetExceeded, column_distances
from .report import INFEASIBLE, VerificationReport
from .superregular import DEFAULT_SELECTION_BUDGET, BlockGrid


class EncoderError(ValueError):
    pass


class PolyEncoder:
    """Convolutional encoder G(D) = G_0 + G_1 D + ... + G_m D^m (k x n)."""

    def __init__(self, n: int, k: int, coeffs: list):
        self.n = n
        self.k = k
        self.coeffs = coeffs  # Matrix, k x n, index = coefficient degree
        if not 0 < k <= n:
            raise EncoderError(f"need 0 < k <= n, got k={k}, n={n}")
        if not self.coeffs:
            raise EncoderError("an encoder needs at least G_0")
        for g in self.coeffs:
            if (g.rows, g.cols) != (self.k, self.n):
                raise EncoderError(
                    f"coefficient is {g.rows}x{g.cols}, expected {self.k}x{self.n}"
                )
            if g.field != self.field:
                raise EncoderError("coefficients live in different fields")
        if all(v == 0 for v in self.coeffs[-1].data) and len(self.coeffs) > 1:
            raise EncoderError("top coefficient G_m is zero")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.k, self.coeffs) == (other.n, other.k, other.coeffs)

    @property
    def field(self) -> Field:
        return self.coeffs[0].field

    @property
    def m(self) -> int:
        return len(self.coeffs) - 1

    @property
    def systematic(self) -> bool:
        g0 = self.coeffs[0]
        k = self.k
        for r in range(k):
            for c in range(k):
                if g0[r, c] != (1 if r == c else 0):
                    return False
        for g in self.coeffs[1:]:
            for r in range(k):
                for c in range(k):
                    if g[r, c] != 0:
                        return False
        return True

    def parity_coeffs(self) -> list[Matrix]:
        """P_0 ... P_m (k x (n-k)) of a systematic encoder."""
        if not self.systematic:
            raise EncoderError("encoder is not in systematic form")
        k, n = self.k, self.n
        return [g.submatrix(range(k), range(k, n)) for g in self.coeffs]

    @classmethod
    def from_parity(cls, parity_coeffs: list[Matrix]) -> "PolyEncoder":
        """Systematic encoder [I_k P(D)] from parity coefficients."""
        p0 = parity_coeffs[0]
        k = p0.rows
        n = k + p0.cols
        f = p0.field
        coeffs = [Matrix.identity(k, f).hstack(p0)]
        coeffs += [Matrix(k, k, f).hstack(p) for p in parity_coeffs[1:]]
        return cls(n, k, coeffs)

    def to_json(self) -> dict:
        return {
            "field": self.field.descriptor(),
            "n": self.n,
            "k": self.k,
            "m": self.m,
            "systematic": self.systematic,
            "coeffs": [g.to_json() for g in self.coeffs],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "PolyEncoder":
        if (not isinstance(obj, dict) or not isinstance(obj.get("coeffs"), list)
                or any(type(obj.get(key)) is not int for key in ("n", "k"))):
            raise EncoderError("an encoder needs integers n, k and a list of coeffs")
        coeffs = [Matrix.from_json(g) for g in obj["coeffs"]]
        enc = cls(obj["n"], obj["k"], coeffs)
        check_field_key(obj, enc.field)
        if obj.get("m") is not None and obj["m"] != enc.m:
            raise EncoderError("encoder JSON memory disagrees with coefficients")
        return enc


# -- sliding matrices -------------------------------------------------------


def _sliding(coeffs: list[Matrix], j: int, rows: int, cols: int) -> Matrix:
    if j < 0:
        raise EncoderError("j must be non-negative")
    f = coeffs[0].field
    m = len(coeffs) - 1
    out = Matrix(rows * (j + 1), cols * (j + 1), f)
    for s in range(j + 1):
        for t in range(s, j + 1):
            d = t - s
            if d > m:
                continue
            g = coeffs[d]
            for r in range(rows):
                for c in range(cols):
                    out[s * rows + r, t * cols + c] = g[r, c]
    return out


def sliding_generator(enc: PolyEncoder, j: int) -> Matrix:
    """Block upper-triangular k(j+1) x n(j+1) matrix, block (s, t) = G_{t-s}."""
    return _sliding(enc.coeffs, j, enc.k, enc.n)


def sliding_parity(enc: PolyEncoder, j: int) -> Matrix:
    """Block upper-triangular k(j+1) x (n-k)(j+1) matrix from P_0 ... P_j."""
    return _sliding(enc.parity_coeffs(), j, enc.k, enc.n - enc.k)


def parity_grid(enc: PolyEncoder, j: int) -> BlockGrid:
    return BlockGrid.uniform(enc.k, enc.n - enc.k, j + 1)


# -- the m-MSR checker -------------------------------------------------------


def check_mMSR(
    enc: PolyEncoder,
    j: int | None = None,
    mode: str = "exact",
    budget: int = DEFAULT_SELECTION_BUDGET,
) -> VerificationReport:
    """True iff the transformed sliding parity stays superregular (in the
    diagonal-constrained sense) for every transform tuple, at every level
    i <= j.  A true verdict certifies d^i = (i+1)(n-k)+1 for all i <= j.

    Level i is block_codes.check_transform_family on P_i^c with row blocks
    (k)^(i+1), column blocks (n-k)^(i+1) and the block grid.  The levels
    are nested: P_i^c is the top-left (i+1) x (i+1) block corner of P_j^c,
    and since B, A~ and C are block diagonal, the level-i family and its
    grid-qualifying selections are the level-j ones cut to the first i+1
    blocks.  So level j passing certifies every level i <= j (the sum-rank
    form of "d^c_j maximal implies d^c_i maximal"), and the engine runs
    once, at the largest level i* <= j whose family fits the budget:
    False there reads False, True at j reads True, and True at i* < j
    reads INFEASIBLE.  A witness belongs to the level of its last selected
    column's block, the last block its rows or columns touch; its B, A~
    and C blocks are cut to that level.

    mode "filter" skips C enumeration for pairs whose grid-qualifying
    minors all avoid the base field, sampling random C tuples (the
    engine's stream, seeded 0 per call) instead; pairs failing the filter
    fall back to exact C enumeration.  A filter-mode True is exhaustive
    only when its level's sampled_pairs is 0.
    """
    if not enc.systematic:
        raise EncoderError("m-MSR check needs a systematic encoder")
    if j is None:
        j = enc.m
    if not 0 <= j <= enc.m:
        raise EncoderError(f"level j={j} outside [0, m={enc.m}]")
    k, nk = enc.k, enc.n - enc.k
    refused = None
    for i in range(j, -1, -1):
        rep = check_transform_family(sliding_parity(enc, i), [k] * (i + 1),
                                     [nk] * (i + 1), True, mode, budget)
        rep.detail = {"level": i} | rep.detail
        if rep.verdict != INFEASIBLE:
            break
        if refused is None:
            refused = rep
    levels = [rep.detail | {"verdict": rep.verdict}]
    checked = rep.checked_count
    if rep.verdict is False:
        w = rep.witness
        level = w["cols"][-1] // nk
        # the witness level's first diagonal blocks of B, A~ and C
        w["transform"] = {name: b[:level + 1] for name, b in w["transform"].items()}
        w["level"] = level
    elif refused is not None:
        rep = refused
    elif rep.verdict is True:
        rep.detail = {"mode": mode}
    rep.detail["levels"] = levels
    rep.checked_count = checked
    return rep


def transform_counts(enc: PolyEncoder, i: int):
    k, nk = enc.k, enc.n - enc.k
    return family_counts([k] * (i + 1), [nk] * (i + 1), enc.field.q)


def recheck_mMSR_witness(enc: PolyEncoder, witness: dict) -> bool:
    """Recheck a level-i witness (i + 1 diagonal blocks of B, A~ and C)
    with block_codes.recheck_family_witness on P_i^c and its grid.  The
    level must be one check_mMSR tests, 0 <= i <= m: past the memory,
    P_i^c has zero blocks whose minors vanish for every encoder.  A level
    that is not an integer raises ValueError."""
    i = witness.get("level")
    if type(i) is not int:
        raise ValueError("an m-MSR witness level must be an integer")
    if not 0 <= i <= enc.m:
        return False
    return recheck_family_witness(
        sliding_parity(enc, i), [enc.k] * (i + 1), [enc.n - enc.k] * (i + 1), True, witness)


# -- rank-profile oracle ------------------------------------------------------


def iter_rank_profiles(n: int, k: int, j: int):
    """Profiles (rho_0..rho_j), 0 <= rho_i <= n, partial sums <= k(i+1),
    equality at i = j; lexicographic order."""

    def rec(prefix, total):
        i = len(prefix)
        if i == j + 1:
            if total == k * (j + 1):
                yield tuple(prefix)
            return
        remaining = j + 1 - i - 1
        for rho in range(0, n + 1):
            t = total + rho
            if t > k * (i + 1):
                continue
            if t + remaining * n < k * (j + 1):
                continue
            yield from rec(prefix + [rho], t)

    yield from rec([], 0)


def is_rank_profile(profile, n: int, k: int) -> bool:
    """Whether profile is one iter_rank_profiles(n, k, len(profile) - 1)
    yields, tested on the definition: each rho_i an int in [0, n], each
    partial sum at most k(i+1), the total k(j+1)."""
    total = 0
    for i, rho in enumerate(profile):
        if type(rho) is not int or not 0 <= rho <= n:
            return False
        total += rho
        if total > k * (i + 1):
            return False
    return total == k * len(profile)


def check_mMSR_oracle(
    enc: PolyEncoder, j: int, budget: int = DEFAULT_SELECTION_BUDGET
) -> VerificationReport:
    """Independent criterion: d^j is maximal iff G_j^c A* is nonsingular for
    every admissible rank profile and every block-diagonal A* built from
    one full-rank representative per column space.

    A* = diag(A_0, ..., A_j) with A_i an n x rho_i block, so by
    Cauchy-Binet det(G_j^c A*) = sum_J det(G_j^c[:, J]) prod_i
    det(A_i[J_i, :]), J running over the column sets with |J_i| = rho_i in
    block i.  Per profile, each minor of G_j^c is computed once by
    matrix.det (elimination, independent of the minor sweep), and each
    representative's Plucker coordinates det(A_i[J_i, :]) once per rho.
    The A* are tried in product order, the first block slowest: choosing
    A_i contracts the minors' tensor along block i, and a leaf's
    contraction is det(G_j^c A*).  The first A* whose determinant vanishes
    is the witness, and checked_count counts the A* tried up to it.
    Over q = 2 the coordinates are bits and a tensor is one packed int,
    so a contraction is an XOR of slices; odd q contracts with Field.add
    and Field.mul."""
    f = enc.field
    n, k = enc.n, enc.k
    profiles = list(iter_rank_profiles(n, k, j))
    total = sum(
        prod(gaussian_binomial(n, rho, f.q) for rho in prof) for prof in profiles
    )
    if total > budget:
        return VerificationReport(
            INFEASIBLE,
            detail={"profile_count": len(profiles), "a_star_count": total,
                    "budget": budget},
        )
    gjc = sliding_generator(enc, j)
    rows = range(gjc.rows)
    row_sets = [list(combinations(range(n), rho)) for rho in range(n + 1)]
    reps = {}  # rho -> [(representative, its nonzero Plucker coordinates)]
    checked = 0
    for prof in profiles:
        for rho in prof:
            if rho not in reps:
                reps[rho] = [(b, _plucker(b, row_sets[rho]))
                             for b in enum_full_rank_column_spaces(n, rho, f.q)]
        minors = [det(gjc.submatrix(rows, [i * n + c for i, cols in enumerate(js)
                                           for c in cols]))
                  for js in product(*(row_sets[rho] for rho in prof))]
        blocks, tried = _first_singular(
            minors, [reps[rho] for rho in prof], [len(row_sets[rho]) for rho in prof], f)
        checked += tried
        if blocks is not None:
            return VerificationReport(
                False,
                witness={
                    "profile": list(prof),
                    "blocks": [b.to_rows() for b in blocks],
                },
                checked_count=checked,
            )
    return VerificationReport(
        True,
        checked_count=checked,
        detail={"profile_count": len(profiles), "a_star_count": total},
    )


def _plucker(block: Matrix, row_sets) -> list[tuple[int, int]]:
    """(t, det(block[J, :])) for the t-th row set J of row_sets, nonzero
    minors only.  Over F_2 a coordinate is 1 exactly when J's rows, packed
    as bit vectors, are independent (core.expand_rank's XOR elimination);
    odd q takes matrix.det."""
    if block.field.q == 2:
        packed = [sum(v << c for c, v in enumerate(block.row(r))) for r in range(block.rows)]
        return [(t, 1) for t, rs in enumerate(row_sets)
                if expand_rank([packed[r] for r in rs], 2, len(rs)) == len(rs)]
    cols = range(block.cols)
    minors = ((t, det(block.submatrix(rs, cols))) for t, rs in enumerate(row_sets))
    return [(t, d) for t, d in minors if d]


def _first_singular(minors, levels, sizes, f: Field):
    """(blocks, tried): the first A* in product order over levels (one
    [(block, Plucker coordinates)] list per diagonal block, the first
    slowest) whose det(G A*) vanishes, None if none does, and the A*
    tried.  minors is the tensor det(G[:, J]) flattened with block 0's
    row-set index most significant, sizes its extent per block."""
    strides = [prod(sizes[i + 1:]) for i in range(len(sizes))]
    if f.q == 2:
        width = f.M
        # code t of the tensor sits at bits t*M: a slice is a shift and a mask
        tensor = sum(g << (t * width) for t, g in enumerate(minors))

        def split(packed, size, stride):
            bits = stride * width
            mask = (1 << bits) - 1
            return [(packed >> (a * bits)) & mask for a in range(size)]

        def contract(slices, coords):
            acc = 0
            for a, _ in coords:
                acc ^= slices[a]
            return acc

        zero = 0
    else:
        tensor = minors
        add, mul = f.add, f.mul

        def split(flat, size, stride):
            return [flat[a * stride:(a + 1) * stride] for a in range(size)]

        def contract(slices, coords):
            acc = [0] * len(slices[0])
            for a, p in coords:
                for r, x in enumerate(slices[a]):
                    acc[r] = add(acc[r], mul(p, x))
            return acc

        zero = [0]  # a leaf's one-entry tensor

    last = len(levels) - 1
    tried = 0

    def descend(i, t):
        nonlocal tried
        slices = split(t, sizes[i], strides[i])
        if i == last:
            for block, coords in levels[i]:
                tried += 1
                if contract(slices, coords) == zero:
                    return [block]
            return None
        for block, coords in levels[i]:
            found = descend(i + 1, contract(slices, coords))
            if found is not None:
                return [block] + found
        return None

    try:
        return descend(0, tensor), tried
    finally:
        # descend refers to itself: unbind it so the levels go now, not at
        # the next cyclic garbage collection
        descend = None


def recheck_oracle_witness(enc: PolyEncoder, witness: dict) -> bool:
    """Re-evaluate a rank-profile witness: the profile must be admissible
    (is_rank_profile, which enumerates nothing), each block an n x rho_i
    matrix over F_q of rank rho_i, and det(G_j^c A*) must vanish.  Without
    the first two checks a zero column or a rank-deficient block would
    make any encoder's determinant vanish.  A profile or blocks that are
    not lists raise ValueError."""
    n, f = enc.n, base_field(enc.field.q)
    profile, rows = witness.get("profile"), witness.get("blocks")
    if not isinstance(profile, list) or not isinstance(rows, list):
        raise ValueError("an oracle witness needs a profile and a list of blocks")
    j = len(rows) - 1
    if j < 0 or len(profile) != j + 1 or not is_rank_profile(profile, n, enc.k):
        return False
    blocks = [witness_block(b, n, rho, f) for rho, b in zip(profile, rows)]
    if any(b is None or rank(b) != rho for b, rho in zip(blocks, profile)):
        return False
    return det(sliding_generator(enc, j) @ block_diag(blocks)) == 0


# -- systematization ----------------------------------------------------------


def laurent_systematize(
    s_coeffs: list[Matrix], q_coeffs: list[Matrix], depth: int
) -> list[Matrix]:
    """First depth+1 coefficients of the expansion S(D)^{-1} Q(D), via the
    recursion P_i = Q_i - sum_{h>=1} S_h P_{i-h}; requires S_0 = I_k."""
    k = s_coeffs[0].rows
    f = s_coeffs[0].field
    if s_coeffs[0] != Matrix.identity(k, f):
        raise EncoderError("systematization requires S_0 = I_k")
    nk = q_coeffs[0].cols
    out = []
    for i in range(depth + 1):
        acc = q_coeffs[i] if i < len(q_coeffs) else Matrix(k, nk, f)
        for h in range(1, min(i, len(s_coeffs) - 1) + 1):
            term = s_coeffs[h] @ out[i - h]
            acc = acc.add(term.scale(f.neg(1)))
        out.append(acc)
    return out


def systematize(enc: PolyEncoder, depth: int | None = None) -> PolyEncoder:
    """Systematic encoder sharing the sliding-matrix full-size minor
    structure with [S(D) Q(D)], truncated at the requested depth."""
    if depth is None:
        depth = enc.m
    k, n = enc.k, enc.n
    f = enc.field
    s_coeffs = [g.submatrix(range(k), range(k)) for g in enc.coeffs]
    q_coeffs = [g.submatrix(range(k), range(k, n)) for g in enc.coeffs]
    if s_coeffs[0] != Matrix.identity(k, f):
        if det(s_coeffs[0]) == 0:
            raise EncoderError("leading coefficient S_0 is singular")
        s0_inv = inverse(s_coeffs[0])
        s_coeffs = [s0_inv @ s for s in s_coeffs]
        q_coeffs = [s0_inv @ qm for qm in q_coeffs]
    parity = laurent_systematize(s_coeffs, q_coeffs, depth)
    while len(parity) > 1 and all(v == 0 for v in parity[-1].data):
        parity.pop()
    return PolyEncoder.from_parity(parity)


# -- constructions ------------------------------------------------------------


def construct_frobenius(
    n: int, k: int, m: int, field: Field, alpha: int | None = None
) -> PolyEncoder:
    """Systematic encoder whose parity coefficient P_i has entry
    (r, c) = alpha^(q^(R i + r + c)) with R = max(k, n - k); Frobenius
    exponents reduce modulo M since alpha^(q^M) = alpha.

    alpha must be primitive; it defaults to the field's canonical
    generator.  Whether the encoder is m-MSR depends on the choice: the
    conjugacy class of alpha matters at the smallest achievable field
    sizes, so reproducing published search results may need a specific
    primitive element (see find_frobenius_alpha)."""
    if not 0 < k < n:
        raise EncoderError(f"need 0 < k < n, got k={k}, n={n}")
    if m < 0:
        raise EncoderError(f"need memory m >= 0, got m={m}")
    r_step = max(k, n - k)
    if alpha is None:
        alpha = field.alpha
    elif alpha == 0 or gcd(field.log[alpha], field.order - 1) != 1:
        # alpha = a^log(alpha) generates F_{q^M}^* iff its log is coprime to q^M - 1
        raise EncoderError("alpha is not a primitive element")
    parity = []
    for i in range(m + 1):
        p = Matrix(k, n - k, field)
        for r in range(k):
            for c in range(n - k):
                p[r, c] = field.frobenius(alpha, r_step * i + r + c)
        parity.append(p)
    return PolyEncoder.from_parity(parity)


def frobenius_class_exponents(field: Field):
    """Exponents e in ascending order, coprime to q^M - 1, that are the
    least of their Frobenius class {e q^i mod q^M - 1}: alpha^e runs over
    one primitive element per conjugacy class."""
    n, q = field.order - 1, field.q
    for e in range(1, n):
        if gcd(e, n) == 1 and all(e * q**i % n >= e for i in range(1, field.M)):
            yield e


def find_frobenius_alpha(
    n: int,
    k: int,
    m: int,
    field: Field,
    budget: int = DEFAULT_SELECTION_BUDGET,
) -> int | None:
    """Smallest exponent e (coprime to q^M - 1) such that the construction
    seeded with alpha^e is m-MSR, i.e. has maximal column distances d^j
    for all j <= m; None when no exponent works.

    Conjugate exponents e q^i seed entrywise Frobenius images of one
    encoder, which the field automorphism maps minor by minor, so they
    share the verdict: only the least of each class is tried
    (frobenius_class_exponents), in ascending order, and the smallest
    working exponent is always one of them.  Each is screened by the exact
    check_mMSR.  A hit is confirmed by the brute-force column distances
    when they fit the budget (a disagreement raises RuntimeError); when the
    check is over budget they decide alone."""
    for e in frobenius_class_exponents(field):
        enc = construct_frobenius(n, k, m, field, field.alpha_pow(e))
        verdict = check_mMSR(enc, budget=budget).verdict
        if verdict is False:
            continue
        try:
            dists, bounds = column_distances(enc, m, budget=budget)
            maximal = dists == bounds
        except BudgetExceeded:
            if verdict is True:
                return e
            raise
        if verdict is True and not maximal:
            raise RuntimeError(f"check_mMSR and the column distances disagree at e={e}")
        if maximal:
            return e
    return None


def compute_L(delta: int, n: int, k: int) -> int:
    """Largest time index with growing column distances for a degree-delta
    code: floor(delta/k) + floor(delta/(n-k))."""
    if not 0 < k < n:
        raise ValueError(f"need 0 < k < n, got k={k}, n={n}")
    if delta < 0:
        raise ValueError("degree must be non-negative")
    return delta // k + delta // (n - k)


def load_encoder(obj_or_path) -> PolyEncoder:
    import json
    from pathlib import Path

    if isinstance(obj_or_path, dict):
        return PolyEncoder.from_json(obj_or_path)
    return PolyEncoder.from_json(json.loads(Path(obj_or_path).read_text()))
