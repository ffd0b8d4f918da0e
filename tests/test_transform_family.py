"""The shared (B, A~, C) engine in odd characteristic and across its entry
points: block MSRD checks over F_9 and F_27 against the transform side and
the distance oracle, [2,1,1] encoders against the rank-profile oracle and
the column distances, and level 0 of the m-MSR check against the block
check it reduces to.  Draws are derandomized, so every run sees the same
codes."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from sumrank.block_codes import (
    SystematicBlockCode,
    assemble_generator,
    check_msrd_systematic,
    check_msrd_transforms,
)
from sumrank.conv_codes import PolyEncoder, check_mMSR, check_mMSR_oracle
from sumrank.field import field
from sumrank.matrix import Matrix
from sumrank.metrics import (
    LengthPartition,
    column_distance_bound,
    column_sum_rank_distance,
    min_sum_rank_distance,
)

F8 = field(2, 3)
F9 = field(3, 2)
F27 = field(3, 3)

derandomized = settings(derandomize=True, deadline=None, max_examples=25)


def _entries(f, count):
    return st.lists(st.integers(0, f.order - 1), min_size=count, max_size=count)


@st.composite
def odd_block_codes(draw):
    f = draw(st.sampled_from([F9, F27]))
    parts, dims = draw(st.sampled_from([((2, 2), (1, 1)), ((4,), (2,))]))
    parity = Matrix(2, 2, f, draw(_entries(f, 4)))
    return SystematicBlockCode(LengthPartition(parts), dims, parity)


@st.composite
def odd_encoders(draw):
    f = draw(st.sampled_from([F9, F27]))
    p0 = draw(st.integers(0, f.order - 1))
    p1 = draw(st.integers(1, f.order - 1))
    return PolyEncoder.from_parity([Matrix(1, 1, f, [p0]), Matrix(1, 1, f, [p1])])


@st.composite
def memory_one_encoders(draw):
    f = draw(st.sampled_from([F8, F9]))
    k = draw(st.sampled_from([1, 2]))
    nk = 3 - k
    coeffs = [Matrix(k, nk, f, draw(_entries(f, k * nk))) for _ in range(2)]
    if not any(coeffs[1].data):
        coeffs[1][0, 0] = 1
    return PolyEncoder.from_parity(coeffs)


_POSITIVE_F27 = SystematicBlockCode(
    LengthPartition((2, 2)), (1, 1),
    Matrix(2, 2, F27, [F27.alpha_pow(e) for e in (1, 2, 3, 5)]),
)

# P_0 = [a, a^2] over F_8: 1, a, a^2 are independent over F_2, so the
# [3,1] block code is MRD and level 0 is a positive
_MRD_LEVEL_ZERO = PolyEncoder.from_parity(
    [Matrix(1, 2, F8, [F8.alpha_pow(1), F8.alpha_pow(2)]), Matrix(1, 2, F8, [1, 1])]
)


@derandomized
@given(odd_block_codes())
@example(_POSITIVE_F27)
def test_block_checkers_agree_in_odd_characteristic(code):
    g = assemble_generator(code)
    exact = check_msrd_systematic(code)
    assert check_msrd_systematic(code, mode="filter").verdict == exact.verdict
    assert check_msrd_transforms(g, code.length_partition).verdict == exact.verdict
    d = min_sum_rank_distance(g, code.length_partition)
    assert exact.verdict == (d == code.n - code.k + 1)


def test_pinned_examples_are_positives():
    assert check_msrd_systematic(_POSITIVE_F27).verdict is True
    assert check_mMSR(_MRD_LEVEL_ZERO, 0).verdict is True


@derandomized
@given(odd_encoders())
def test_conv_checkers_agree_in_odd_characteristic(enc):
    exact = check_mMSR(enc, mode="exact").verdict
    assert check_mMSR(enc, mode="filter").verdict == exact
    maximal = [
        column_sum_rank_distance(enc, j) == column_distance_bound(j, enc.n, enc.k)
        for j in range(2)
    ]
    assert exact == all(maximal)
    for j in range(2):
        assert check_mMSR_oracle(enc, j).verdict == maximal[j]


@derandomized
@given(memory_one_encoders(), st.sampled_from(["exact", "filter"]))
@example(_MRD_LEVEL_ZERO, "exact")
@example(_MRD_LEVEL_ZERO, "filter")
def test_level_zero_is_the_block_systematic_check(enc, mode):
    p0 = enc.parity_coeffs()[0]
    code = SystematicBlockCode(LengthPartition([enc.n]), (enc.k,), p0)
    conv = check_mMSR(enc, 0, mode=mode)
    block = check_msrd_systematic(code, mode=mode)
    assert conv.verdict == block.verdict
    assert conv.checked_count == block.checked_count
    if block.verdict is False:
        w = block.witness
        assert (conv.witness["rows"], conv.witness["cols"]) == (w["rows"], w["cols"])
        assert conv.witness["transform"] == {"B": w["B"], "A": w["A"], "C": [w["C"]]}
