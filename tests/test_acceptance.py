"""Acceptance criteria.  Each test prints one pass/fail line (visible with
pytest -s or through capsys.disabled) and enforces a wall-clock limit."""

import random
import time
from itertools import product

from sumrank.block_codes import (
    SystematicBlockCode,
    assemble_generator,
    check_mds,
    check_mrd_systematic,
    check_mrd_transforms,
    check_msrd_systematic,
    check_msrd_transforms,
    construct_gabidulin,
    systematic_form,
)
from sumrank.conv_codes import (
    check_mMSR,
    check_mMSR_oracle,
    construct_frobenius,
)
from sumrank.field import base_field, field
from sumrank.matrix import Matrix, bruhat_decompose, det, is_permutation, is_upper_triangular
from sumrank.metrics import (
    LengthPartition,
    column_distances,
    column_sum_rank_distance,
    min_sum_rank_distance,
    singleton_bounds,
)
from sumrank.superregular import (
    ZeroPattern,
    iter_square_selections,
    nontrivial_slots,
    square_selections,
)

F2 = base_field(2)
F4 = field(2, 2)
F8 = field(2, 3)

# (distance, bound) pairs accumulated by criteria 1-7 and re-audited by
# criterion 10
_BOUND_LEDGER = []


def _finish(capsys, criterion, desc, ok, start, limit):
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < limit
    with capsys.disabled():
        print(
            f"criterion {criterion}: {'PASS' if ok else 'FAIL'} "
            f"({elapsed:.2f}s / limit {limit:.0f}s) {desc}"
        )
    assert ok, f"criterion {criterion} failed after {elapsed:.2f}s"


def _conv_distances_maximal(enc):
    """Brute-force column distances vs their bounds; feeds the ledger."""
    dists, bounds = column_distances(enc, enc.m)
    _BOUND_LEDGER.extend(zip(dists, bounds))
    return dists == bounds


def test_criterion_1_desk_instance(capsys):
    start = time.perf_counter()
    enc = construct_frobenius(2, 1, 1, F4)
    ok = check_mMSR(enc).verdict is True
    ok = ok and check_mMSR_oracle(enc, 0).verdict is True
    ok = ok and check_mMSR_oracle(enc, 1).verdict is True
    ok = ok and column_sum_rank_distance(enc, 1) == [2, 3]
    ok = ok and _conv_distances_maximal(enc)
    _finish(capsys, 1, "[2,1,1] over F_4: checker, oracle, distances agree",
            ok, start, 1.0)


def test_criterion_2_memory_two(capsys):
    start = time.perf_counter()
    enc = construct_frobenius(2, 1, 2, F8)
    ok = check_mMSR(enc, mode="exact").verdict is True
    for j in range(3):
        ok = ok and check_mMSR_oracle(enc, j).verdict is True
    ok = ok and column_sum_rank_distance(enc, 2) == [2, 3, 4]
    ok = ok and _conv_distances_maximal(enc)
    _finish(capsys, 2, "[2,1,2] over F_8: d^j = j+2 by all three methods",
            ok, start, 10.0)


def test_criterion_3_filter_vs_exact(capsys):
    start = time.perf_counter()
    ok = True
    for n, k, m, deg, e in ((3, 2, 1, 4, 7), (3, 1, 1, 5, 3)):
        f = field(2, deg)
        enc = construct_frobenius(n, k, m, f, f.alpha_pow(e))
        filt = check_mMSR(enc, mode="filter")
        exact = check_mMSR(enc, mode="exact")
        ok = ok and filt.verdict is True and exact.verdict is True
        ok = ok and check_mMSR_oracle(enc, m).verdict is True
        ok = ok and _conv_distances_maximal(enc)
    _finish(capsys, 3,
            "[3,2,1]/F_16 and [3,1,1]/F_32: filter (1000 resamples), exact C "
            "enumeration and the distance oracle agree", ok, start, 300.0)


def test_criterion_4_flagship_instance(capsys):
    start = time.perf_counter()
    f = field(2, 7)
    enc = construct_frobenius(3, 2, 2, f, f.alpha_pow(3))
    ok = check_mMSR(enc, mode="filter").verdict is True
    dists, bounds = column_distances(enc, 2)
    _BOUND_LEDGER.extend(zip(dists, bounds))
    ok = ok and dists == [2, 3, 4]
    _finish(capsys, 4,
            "[3,2,2] over F_128: filtered checker true, d = 2, 3, 4 by brute "
            "force", ok, start, 900.0)


def test_criterion_5_mds_ladder(capsys):
    start = time.perf_counter()
    part = LengthPartition((1, 1, 1, 1))
    ok = True
    for vals in product(range(4), repeat=4):
        parity = Matrix(2, 2, F4, list(vals))
        code = SystematicBlockCode(LengthPartition([4]), (2,), parity)
        d = min_sum_rank_distance(assemble_generator(code), part)
        _BOUND_LEDGER.append((d, 3))
        ok = ok and check_mds(parity).verdict == (d == 3)
    _finish(capsys, 5,
            "all 256 2x2 parities over F_4: MDS verdict matches Hamming "
            "distance 3", ok, start, 1.0)


def test_criterion_6_mrd_gabidulin(capsys):
    start = time.perf_counter()
    ok = True
    for k in (2, 1):
        g = construct_gabidulin(3, k, F8)
        p = systematic_form(g)
        d = min_sum_rank_distance(g, LengthPartition((3,)))
        _BOUND_LEDGER.append((d, 3 - k + 1))
        ok = ok and check_mrd_systematic(p).verdict is True
        ok = ok and check_mrd_transforms(g).verdict is True
        ok = ok and d == 3 - k + 1
        # perturb one parity entry into the base field: all three must fail
        bad = p.copy()
        bad[0, 0] = 1
        bad_code = SystematicBlockCode(LengthPartition([3]), (k,), bad)
        bad_g = assemble_generator(bad_code)
        d_bad = min_sum_rank_distance(bad_g, LengthPartition((3,)))
        _BOUND_LEDGER.append((d_bad, 3 - k + 1))
        ok = ok and check_mrd_systematic(bad).verdict is False
        ok = ok and check_mrd_transforms(bad_g).verdict is False
        ok = ok and d_bad < 3 - k + 1
    _finish(capsys, 6,
            "Gabidulin [3,2] and [3,1] over F_8 pass all three MRD methods; "
            "base-field perturbations fail all three", ok, start, 60.0)


def test_criterion_7_msrd_classification(capsys):
    start = time.perf_counter()
    part = LengthPartition((2, 2))
    ok = True
    positives = 0
    for vals in product(range(4), repeat=4):
        parity = Matrix(2, 2, F4, list(vals))
        code = SystematicBlockCode(part, (1, 1), parity)
        g = assemble_generator(code)
        sysv = check_msrd_systematic(code).verdict
        trv = check_msrd_transforms(g, part).verdict
        d = min_sum_rank_distance(g, part)
        _BOUND_LEDGER.append((d, 3))
        ok = ok and sysv == trv == (d == 3)
        positives += sysv is True
    _finish(capsys, 7,
            f"all 256 (2,2)-partition codes over F_4 classified identically "
            f"by both MSRD checkers and the distance oracle "
            f"({positives} positive)", ok, start, 120.0)


def test_criterion_8_bruhat_exhaustive(capsys):
    start = time.perf_counter()
    ok = True

    def check(m):
        v, qm, u = bruhat_decompose(m)
        return (is_upper_triangular(v) and det(v) != 0
                and is_upper_triangular(u) and det(u) != 0
                and is_permutation(qm) and v @ qm @ u == m)

    f3 = base_field(3)
    for n in (1, 2, 3):
        for vals in product(range(2), repeat=n * n):
            m = Matrix(n, n, F2, list(vals))
            if det(m) != 0:
                ok = ok and check(m)
    for n in (1, 2):
        for vals in product(range(3), repeat=n * n):
            m = Matrix(n, n, f3, list(vals))
            if det(m) != 0:
                ok = ok and check(m)
    _finish(capsys, 8,
            "Bruhat decomposition verified on all of GL(n, F_2) for n <= 3 "
            "and GL(n, F_3) for n <= 2", ok, start, 60.0)


def test_criterion_9_trivial_minor_sweep(capsys):
    from itertools import permutations

    start = time.perf_counter()

    def brute(pattern, ri, ci):
        ri, ci = list(ri), list(ci)
        for perm in permutations(range(len(ci))):
            if all(pattern[r, ci[p]] for r, p in zip(ri, perm)):
                return False
        return True

    def agrees(p, entries):
        # the triviality decision is_superregular and count_nontrivial_minors
        # read: one Boolean sweep flag per selection's memo slot
        nontrivial = nontrivial_slots(p, entries)
        # one flag per record, the record at position p's at slot p + 1,
        # after the empty selection's at slot 0
        slots = range(1, len(entries) + 1)
        return len(nontrivial) == len(entries) + 1 and nontrivial[0] and all(
            (not nontrivial[slot]) == brute(p, *entries.selection(slot))
            for slot in slots)

    ok = True
    entries = square_selections(3, 3)
    for bits in product([False, True], repeat=9):
        p = ZeroPattern([list(bits[0:3]), list(bits[3:6]), list(bits[6:9])])
        ok = ok and agrees(p, entries)
    rng = random.Random(99)
    entries = square_selections(5, 5)
    for _ in range(1000):
        p = ZeroPattern([[rng.random() < 0.5 for _ in range(5)] for _ in range(5)])
        ok = ok and agrees(p, entries)
    ok = ok and len(entries) == sum(1 for _ in iter_square_selections(5, 5))
    _finish(capsys, 9,
            "trivial-minor sweep equals the permutation brute force on all "
            "512 3x3 patterns and 1000 random 5x5 patterns", ok, start, 120.0)


def test_criterion_10_no_bound_violated(capsys):
    start = time.perf_counter()
    ok = len(_BOUND_LEDGER) > 0 and all(d <= b for d, b in _BOUND_LEDGER)
    # spot re-audit with the refined bounds on a block instance
    g = construct_gabidulin(4, 2, field(2, 4))
    for parts in ((4,), (2, 2), (1, 1, 1, 1)):
        lp = LengthPartition(parts)
        d = min_sum_rank_distance(g, lp)
        rr, rs, cl = singleton_bounds(4, 2, 4, lp)
        ok = ok and d <= cl and (rs is None or d <= rs)
    _finish(capsys, 10,
            f"no distance among {len(_BOUND_LEDGER)} recorded values exceeds "
            f"its Singleton-type bound", ok, start, 60.0)
