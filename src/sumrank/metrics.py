"""Expansion to the base field, (sum-)rank weights, brute-force distances
and the Singleton-type bounds."""

from __future__ import annotations

from . import core
from .core import BudgetExceeded  # noqa: F401  (re-exported for callers)
from .field import Field
from .matrix import Matrix

DEFAULT_MESSAGE_BUDGET = 1 << 24


class PartitionError(ValueError):
    pass


class _Frozen:
    """Immutable value, equal and hashed by the attributes named in FIELDS."""

    FIELDS: tuple = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.FIELDS)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        args = ", ".join(f"{n}={v!r}" for n, v in zip(self.FIELDS, self._fields()))
        return f"{type(self).__name__}({args})"


class LengthPartition(_Frozen):
    FIELDS = ("parts",)

    def __init__(self, parts):
        parts = tuple(int(p) for p in parts)
        if not parts or any(p < 1 for p in parts):
            raise PartitionError(f"invalid length partition {parts}")
        object.__setattr__(self, "parts", parts)

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def blocks(self) -> int:
        return len(self.parts)

    def offsets(self):
        pos = 0
        for p in self.parts:
            yield pos, pos + p
            pos += p


class SumRankProfile(_Frozen):
    FIELDS = ("per_block_ranks", "total")

    def __init__(self, per_block_ranks: tuple, total: int):
        object.__setattr__(self, "per_block_ranks", per_block_ranks)
        object.__setattr__(self, "total", total)


def expand(v, field: Field) -> Matrix:
    """Expand a vector over F_{q^M} into the M x n matrix of polynomial-basis
    coordinates over F_q (column i = digits of v[i])."""
    base = field.base()
    cols = [field.digits(code) for code in v]
    data = []
    for r in range(field.M):
        for col in cols:
            data.append(col[r])
    return Matrix(field.M, len(v), base, data)


def rank_weight(v, field: Field) -> int:
    return core.expand_rank(list(v), field.q, field.M)


def sum_rank_weight(v, partition: LengthPartition, field: Field) -> SumRankProfile:
    v = list(v)
    if partition.n != len(v):
        raise PartitionError(
            f"partition sums to {partition.n}, vector has length {len(v)}"
        )
    ranks = tuple(
        core.expand_rank(v[a:b], field.q, field.M) for a, b in partition.offsets()
    )
    return SumRankProfile(ranks, sum(ranks))


def sum_rank_distance(u, w, partition: LengthPartition, field: Field) -> int:
    diff = [field.sub(a, b) for a, b in zip(u, w)]
    return sum_rank_weight(diff, partition, field).total


def hamming_weight(v) -> int:
    return sum(1 for x in v if x)


def min_sum_rank_distance(
    generator: Matrix,
    partition: LengthPartition,
    budget: int = DEFAULT_MESSAGE_BUDGET,
) -> int:
    """Brute-force minimum sum-rank weight over all nonzero messages.

    Raises BudgetExceeded when q^(M k) - 1 messages are over budget.
    """
    field = generator.field
    if partition.n != generator.cols:
        raise PartitionError("partition does not sum to the code length")
    best, _ = core.block_min_sum_rank(
        generator.to_rows(), list(partition.parts), field.q, field.M, field.order,
        field.exp, field.log, budget,
    )
    return best


def column_sum_rank_distance(
    encoder, j: int, budget: int = DEFAULT_MESSAGE_BUDGET
) -> list[int]:
    """Column sum-rank distances d^0 .. d^j of a convolutional encoder,
    from one brute-force search to depth j with block-by-block pruning;
    that search gets the whole budget.  Raises BudgetExceeded when it
    still visits more nodes than the budget allows."""
    field = encoder.field
    coeff_rows = [g.to_rows() for g in encoder.coeffs]
    dists, _ = core.conv_column_distance(
        coeff_rows, encoder.k, encoder.n, j, field.q, field.M, field.order,
        field.exp, field.log, budget, encoder.systematic,
    )
    return dists


def column_distance_bound(j: int, n: int, k: int) -> int:
    return (j + 1) * (n - k) + 1


def column_distances(
    encoder, j: int, budget: int = DEFAULT_MESSAGE_BUDGET
) -> tuple[list[int], list[int]]:
    """(column distances, their bounds) at levels 0..j, the distances from
    one search to depth j that gets the whole budget.  d^i meets its bound
    at every i <= j iff the two lists are equal."""
    return (column_sum_rank_distance(encoder, j, budget=budget),
            [column_distance_bound(i, encoder.n, encoder.k) for i in range(j + 1)])


def free_distance_bound(m: int, n: int, k: int) -> int:
    """Maximum possible free sum-rank distance of a memory-m systematic code;
    reported as a bound only."""
    return (n - k) * (m + 1) + 1


def singleton_bounds(n: int, k: int, M: int, partition: LengthPartition):
    """(refined rank bound, refined sum-rank bound, classical bound).

    The refined sum-rank bound requires equal block lengths; it is None
    for unequal partitions.
    """
    classical = n - k + 1
    # distances are integers, so the fractional bounds floor cleanly
    refined_rank = (n - k if M >= n else M * (n - k) // n) + 1
    if len(set(partition.parts)) == 1:
        ell = partition.blocks
        refined_sum_rank = (n - k if ell * M >= n else ell * M * (n - k) // n) + 1
    else:
        refined_sum_rank = None
    return refined_rank, refined_sum_rank, classical
