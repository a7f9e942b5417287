"""Ordered partitions of an exponent vector with length-constrained parts.

A partition here is always ordered: the concatenation of its parts is the
source vector.  Two families matter:

* "pre-fat": every part except possibly the last has length >= 2;
* "fat": every part, including the last, has length >= 2.

A vector of length t has F_t pre-fat and F_{t-1} fat partitions (Fibonacci,
F_1 = F_2 = 1).  Each partition carries a dependent multi-index r whose
per-entry ranges are recomputed from the earlier entries; see
:func:`index_bound`.  :func:`index_assignments` yields each r as a plain
tuple of per-part index vectors.

Iteration order is part of the module contract so downstream symbolic
output is reproducible: partitions come in lexicographic order of their cut
positions, and index assignments in odometer order with the leftmost index
varying fastest.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence

__all__ = [
    "PartitionKind",
    "OrderedPartition",
    "enumerate_partitions",
    "index_bound",
    "index_assignments",
    "inflate",
]


class PartitionKind(Enum):
    PRE_FAT = "pre-fat"
    FAT = "fat"


@dataclass(frozen=True)
class OrderedPartition:
    """An ordered partition stored as cut positions into the source vector.

    ``cuts`` lists the boundaries strictly between parts (prefix lengths),
    so ``cuts == (2,)`` splits a length-4 source into two length-2 parts.
    """

    source: tuple[int, ...]
    cuts: tuple[int, ...]

    def __post_init__(self) -> None:
        t = len(self.source)
        if t < 1:
            raise ValueError("empty source vector")
        prev = 0
        for c in self.cuts:
            if not prev < c < t:
                raise ValueError(f"invalid cuts {self.cuts} for length {t}")
            prev = c

    @property
    def parts(self) -> tuple[tuple[int, ...], ...]:
        bounds = (0,) + self.cuts + (len(self.source),)
        return tuple(
            self.source[bounds[i] : bounds[i + 1]] for i in range(len(bounds) - 1)
        )

    def is_pre_fat(self) -> bool:
        return all(len(p) >= 2 for p in self.parts[:-1])

    def is_fat(self) -> bool:
        return all(len(p) >= 2 for p in self.parts)


# Most partitions enumerate_partitions builds: 18 ones have F_18 = 2,584
# pre-fat partitions, and the partitions verb prints 22 ones' 17,711 in
# 100 MB.
_MAX_PARTITIONS = 10_000


def enumerate_partitions(
    s: Sequence[int], kind: PartitionKind
) -> list[OrderedPartition]:
    """All partitions of ``s`` of the given kind, lexicographic in cuts.
    Raises ValueError, before building any, when their count F_t (pre-fat)
    or F_(t-1) (fat) is over _MAX_PARTITIONS."""
    src = tuple(s)
    t = len(src)
    if t < 1:
        raise ValueError("empty source vector")
    min_last = 1 if kind is PartitionKind.PRE_FAT else 2
    count, nxt = 0, 1  # F_0, F_1
    for _ in range(t + 1 - min_last):
        count, nxt = nxt, count + nxt
    if count > _MAX_PARTITIONS:
        raise ValueError(f"{count} {kind.value} partitions exceed the budget of {_MAX_PARTITIONS}")

    out: list[OrderedPartition] = []

    def rec(start: int, cuts: tuple[int, ...]) -> None:
        remaining = t - start
        if remaining >= min_last:
            out.append(OrderedPartition(src, cuts))
        # Non-final parts need length >= 2 and must leave room for a last part.
        for length in range(2, remaining - min_last + 1):
            rec(start + length, cuts + (start + length,))

    rec(0, ())
    return out


def index_bound(part: Sequence[int], r_prefix: Sequence[int], i: int) -> int:
    """Upper bound for the i-th index (1-based) of a part, given the earlier
    entries of its index vector:

        floor( max(sigma_i(part) - 2*sigma_{i-1}(r), part[i+1]) / 2 )

    where sigma denotes partial sums (sigma_0 = 0).
    """
    head = sum(part[:i]) - 2 * sum(r_prefix[: i - 1])
    return max(head, part[i]) // 2


def _part_index_vectors(part: tuple[int, ...], count: int) -> list[tuple[int, ...]]:
    """All index vectors of the given length for one part, leftmost-fastest."""
    vectors: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...]) -> None:
        if len(prefix) == count:
            vectors.append(prefix)
            return
        i = len(prefix) + 1
        for r in range(index_bound(part, prefix, i) + 1):
            rec(prefix + (r,))

    rec(())
    vectors.sort(key=lambda v: v[::-1])
    return vectors


def index_lengths(P: OrderedPartition, kind: PartitionKind) -> tuple[int, ...]:
    """Length of the index vector attached to each part.

    Non-last parts always get len(part) - 2 indices.  The last part gets
    len(part) - 1 in the pre-fat index set (vacuous for a singleton part)
    and len(part) - 2 in the fat index set.
    """
    parts = P.parts
    if kind is PartitionKind.FAT and not P.is_fat():
        raise ValueError(f"{P} is not a fat partition")
    if not P.is_pre_fat():
        raise ValueError(f"{P} is not a pre-fat partition")
    out = [len(p) - 2 for p in parts]
    if kind is PartitionKind.PRE_FAT:
        out[-1] = len(parts[-1]) - 1
    return tuple(out)


def index_assignments(
    P: OrderedPartition, kind: PartitionKind
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Iterate the dependent index set of a partition in odometer order.

    Each assignment is one choice of the dependent multi-index r: a tuple
    of index vectors, one per part.  Parts of length 2 (and a length-1
    final part) get the empty vector, whose empty product is 1.  The first
    part's indices vary fastest, and within a part the leftmost entry
    varies fastest.  Every emitted assignment satisfies
    ``0 <= r_{j,i} <= index_bound(part_j, r_j[:i-1], i)``.
    """
    lengths = index_lengths(P, kind)
    per_part = [
        _part_index_vectors(part, n) for part, n in zip(P.parts, lengths)
    ]
    for combo in itertools.product(*reversed(per_part)):
        yield tuple(reversed(combo))


def inflate(j: Sequence[int], positions: Sequence[int], t: int) -> tuple[int, ...]:
    """Stretch vector ``j`` to length ``t``: entry j_a goes to the 1-based
    position positions_a, every other slot gets 1."""
    if len(j) != len(positions):
        raise ValueError(
            f"vector length {len(j)} != position count {len(positions)}"
        )
    if any(not 1 <= p <= t for p in positions) or len(set(positions)) != len(
        positions
    ):
        raise ValueError(f"positions {positions} invalid for length {t}")
    out = [1] * t
    for val, pos in zip(j, positions):
        out[pos - 1] = val
    return tuple(out)
