"""The transform-family engine's incremental sweep against a full sweep of
every T.  check_transform_family keeps one sweep memo across its C values,
which step in reflected q-ary Gray order, and re-evaluates only the
selections that hold the C cell a step moves; reference_family
(test_transform_family) sweeps each T's whole selection list, in the
same order.  Both must give the same verdict, checked_count and witness,
for the full predicate (block codes, no grid) and the grid one (m-MSR
level 1), over F_2^M and over F_9, F_25 and F_27; every witness
rechecks; a True evaluates the minors its charge counts.  The engine's
detail counts the minors it evaluated, which is what a traced call
counts as superregular.minors."""

import random
import sys

import pytest
from conftest import ROOT
from hypothesis import given, settings
from hypothesis import strategies as st
from test_transform_family import (
    _TABLE_NEGATIVE,
    gray_run_minors,
    memory_one_encoders,
    odd_encoders,
    reference_family,
)

from sumrank.block_codes import (
    SystematicBlockCode,
    check_msrd_systematic,
    check_transform_family,
    construct_gabidulin,
    recheck_family_witness,
    systematic_form,
)
from sumrank.conv_codes import PolyEncoder, check_mMSR, sliding_parity
from sumrank.field import field
from sumrank.matrix import Matrix
from sumrank.metrics import LengthPartition
from sumrank.superregular import DEFAULT_SELECTION_BUDGET, BlockGrid, square_selections

Q2_FIELDS = (field(2, 2), field(2, 3), field(2, 4))
ODD_FIELDS = (field(3, 2), field(5, 2), field(3, 3))

derandomized = settings(derandomize=True, deadline=None, max_examples=30)


@st.composite
def block_codes_with_c_cells(draw):
    """Parities whose C has 2 to 6 cells: (2,)x(2,), (1,1)x(1,1),
    (2,1)x(1,1) and, over F_2^M, (3,)x(2,) and (2,)x(3,)."""
    f = draw(st.sampled_from(Q2_FIELDS + ODD_FIELDS))
    shapes = [((2,), (2,)), ((1, 1), (1, 1)), ((2, 1), (1, 1))]
    if f.q == 2:
        shapes += [((3,), (2,)), ((2,), (3,))]
    ks, nks = draw(st.sampled_from(shapes))
    count = sum(ks) * sum(nks)
    data = draw(st.lists(st.integers(0, f.order - 1), min_size=count, max_size=count))
    return SystematicBlockCode(LengthPartition([k + w for k, w in zip(ks, nks)]), ks,
                               Matrix(sum(ks), sum(nks), f, data))


def _same_as_full_sweep(p, ks, nks, constrained):
    rep = check_transform_family(p, ks, nks, constrained, DEFAULT_SELECTION_BUDGET)
    grid = BlockGrid(ks, nks) if constrained else None
    assert (rep.verdict, rep.checked_count, rep.witness) == reference_family(p, ks, nks, grid)
    if rep.verdict is True:
        assert rep.detail["minors"] == rep.detail["charge"] == gray_run_minors(
            ks, nks, grid, p.field.q)
    else:
        assert recheck_family_witness(p, ks, nks, constrained, rep.witness)
    return rep


@derandomized
@given(block_codes_with_c_cells())
def test_block_engine_matches_the_full_sweep(code):
    p, ks, nks = code.parity, code.dim_partition, code.parity_widths
    _same_as_full_sweep(p, ks, nks, False)


@derandomized
@given(st.one_of(memory_one_encoders(), odd_encoders(fields=ODD_FIELDS)))
def test_grid_engine_matches_the_full_sweep(enc):
    k, nk = enc.k, enc.n - enc.k
    _same_as_full_sweep(sliding_parity(enc, 1), [k] * 2, [nk] * 2, True)


@pytest.mark.parametrize("f", [field(2, 2), field(2, 8), field(2, 11), field(3, 2),
                               field(3, 3)], ids=["F4", "F256", "F2048", "F9", "F27"])
@pytest.mark.parametrize("constrained", [False, True], ids=["full", "grid"])
def test_gray_runs_match_the_full_sweep_over_each_field(f, constrained):
    # three random parities per field: a one-block 2 x 2 code, or the level-1
    # sliding parity of a [3,1,1] encoder (blocks (1,1) x (2,2))
    rng = random.Random(f"{f.descriptor()}/{constrained}")
    outcomes = set()
    for _ in range(3):
        if constrained:
            enc = PolyEncoder.from_parity(
                [Matrix(1, 2, f, [rng.randrange(1, f.order) for _ in range(2)])
                 for _ in range(2)])
            p, ks, nks = sliding_parity(enc, 1), [1, 1], [2, 2]
        else:
            p = Matrix(2, 2, f, [rng.randrange(f.order) for _ in range(4)])
            ks, nks = (2,), (2,)
        outcomes.add(_same_as_full_sweep(p, ks, nks, constrained).verdict)
    # the large fields give True verdicts, hence whole runs
    if f.order >= 256:
        assert True in outcomes


@pytest.mark.parametrize("case", ["gf16", "gf27"])
def test_late_block_witnesses_match_the_full_sweep(case):
    # found by drawing parities until a witness came late
    f, data = {"gf16": (field(2, 4), [9, 11, 8, 5]),
               "gf27": (field(3, 3), [3, 26, 7, 21])}[case]
    p = Matrix(2, 2, f, data)
    rep = _same_as_full_sweep(p, (2,), (2,), False)
    # the witness C is past its pair's first q, so a Gray step has moved
    # a C cell other than the last before it
    assert rep.verdict is False
    assert (rep.checked_count - 1) % rep.detail["c_count"] >= f.q


def test_table_negative_matches_the_full_sweep():
    # [4,2,2] over F_2^11 at e = 1: the witness is T 68, the first pair's
    # 68th C of 4,096
    p = sliding_parity(_TABLE_NEGATIVE, 2)
    rep = _same_as_full_sweep(p, [2] * 3, [2] * 3, True)
    assert (rep.verdict, rep.checked_count) == (False, 68)
    assert rep.detail["minors"] == 11_079


# -- the minors the engine evaluates ---------------------------------------------


def _traced(call):
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from tracer import Tracer
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    import sumrank.cli  # noqa: F401  (the tracer wraps names in every module)

    with Tracer() as tr:
        rep = call()
    return rep, tr.metrics()["superregular.minors"]


def test_minors_detail_is_the_traced_count():
    f = field(3, 4)
    code = SystematicBlockCode(LengthPartition([4]), (2,),
                               systematic_form(construct_gabidulin(4, 2, f)))
    rep, traced = _traced(lambda: check_msrd_systematic(code))
    # 729 T over 5 selections each swept in full would be 3,645 minors; a
    # pair sweeps its 5 once, then the 2 that hold the C cell of each of
    # its 80 Gray steps
    assert (rep.verdict, rep.checked_count) == (True, 729)
    assert len(square_selections(2, 2)) == 5
    assert rep.detail["minors"] == rep.detail["charge"] == traced == 9 * (5 + 80 * 2)
    rep, traced = _traced(lambda: check_mMSR(_TABLE_NEGATIVE))
    [level] = rep.detail["levels"]
    assert level["minors"] == traced > 0
