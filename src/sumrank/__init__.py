"""Finite-field coding-theory toolkit: MRD/MSRD block codes and m-MSR
convolutional codes, verified through superregularity criteria with
independent brute-force oracles."""

from __future__ import annotations

__version__ = "0.1.0"

from .field import Field, FieldError, base_field, field, parse_descriptor
from .matrix import Matrix, MatrixError, bruhat_decompose
from .metrics import (
    BudgetExceeded,
    LengthPartition,
    PartitionError,
    column_distance_bound,
    column_sum_rank_distance,
    free_distance_bound,
    min_sum_rank_distance,
    rank_weight,
    singleton_bounds,
    sum_rank_distance,
    sum_rank_weight,
)
from .report import INFEASIBLE, VerificationReport
from .superregular import (
    BlockGrid,
    ZeroPattern,
    is_full_superregular,
    is_superregular,
    is_superregular_constrained,
)
from .block_codes import (
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
from .conv_codes import (
    PolyEncoder,
    check_mMSR,
    check_mMSR_oracle,
    compute_L,
    construct_frobenius,
    find_frobenius_alpha,
    laurent_systematize,
    sliding_generator,
    sliding_parity,
    systematize,
)

__all__ = [name for name in dir() if not name.startswith("_")]
