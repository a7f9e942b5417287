"""Ordered partitions of an exponent vector with length-constrained parts.

A partition here is always ordered and is the plain tuple of its parts:
the concatenation of its parts is the source vector.  Two families matter:

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

import collections
import itertools
from enum import Enum
from typing import Iterator, Sequence

__all__ = [
    "PartitionKind",
    "enumerate_partitions",
    "index_bound",
    "index_assignments",
    "count_index_assignments",
    "inflate",
]


class PartitionKind(Enum):
    PRE_FAT = "pre-fat"
    FAT = "fat"


# Most partitions enumerate_partitions builds: 18 ones have F_18 = 2,584
# pre-fat partitions, and the partitions verb prints 22 ones' 17,711 in
# 100 MB.
_MAX_PARTITIONS = 10_000


def enumerate_partitions(
    s: Sequence[int], kind: PartitionKind
) -> list[tuple[tuple[int, ...], ...]]:
    """All partitions of ``s`` of the given kind, each the tuple of its
    parts, lexicographic in the cut positions between parts.
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

    out: list[tuple[tuple[int, ...], ...]] = []

    def rec(start: int, parts: tuple[tuple[int, ...], ...]) -> None:
        remaining = t - start
        if remaining >= min_last:
            out.append(parts + (src[start:],))
        # Non-final parts need length >= 2 and must leave room for a last part.
        for length in range(2, remaining - min_last + 1):
            rec(start + length, parts + (src[start : start + length],))

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
    vectors: list[tuple[int, ...]] = [()]
    for i in range(1, count + 1):
        vectors = [v + (r,) for v in vectors for r in range(index_bound(part, v, i) + 1)]
    return sorted(vectors, key=lambda v: v[::-1])


def _index_lengths(parts: tuple[tuple[int, ...], ...], kind: PartitionKind) -> list[int]:
    lengths = [len(part) - 2 for part in parts]
    if kind is PartitionKind.PRE_FAT:
        lengths[-1] += 1
    if min(lengths) < 0:
        raise ValueError(f"{parts} is not a {kind.value} partition")
    return lengths


def index_assignments(
    parts: tuple[tuple[int, ...], ...], kind: PartitionKind
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Iterate the dependent index set of a partition in odometer order.

    Each assignment is one choice of the dependent multi-index r: a tuple
    of index vectors, one per part.  A non-last part gets len(part) - 2
    indices; the last gets len(part) - 1 (pre-fat) or len(part) - 2 (fat).
    So parts of length 2 (and a length-1 pre-fat last part) get the empty
    vector, whose empty product is 1, and ValueError is raised when a
    length would be negative: the partition is not of the kind.  The first
    part's indices vary fastest, and within a part the leftmost entry
    varies fastest.  Every emitted assignment satisfies
    ``0 <= r_{j,i} <= index_bound(part_j, r_j[:i-1], i)``.
    """
    per_part = [_part_index_vectors(part, n) for part, n in zip(parts, _index_lengths(parts, kind))]
    for combo in itertools.product(*reversed(per_part)):
        yield tuple(reversed(combo))


def count_index_assignments(parts: tuple[tuple[int, ...], ...], kind: PartitionKind, cap: int) -> int:
    """The number of assignments :func:`index_assignments` yields, counted
    without building them: index_bound depends on an index vector's prefix
    only through its sum, so each part's vectors are counted by prefix sum,
    one index at a time.  The work stays within the count: past ``cap``
    the count stops early and returns some number over cap."""
    total = 1
    for part, n in zip(parts, _index_lengths(parts, kind)):
        by_sum, paths = {0: 1}, 1  # the vector's prefixes by their sum, and their number
        for i in range(1, n + 1):
            nxt, paths = collections.Counter(), 0
            for acc, c in by_sum.items():
                top = index_bound(part, (acc,), i)  # any prefix with sum acc
                paths += c * (top + 1)
                if total * paths > cap:
                    return cap + 1
                for r in range(top + 1):
                    nxt[acc + r] += c
            by_sum = nxt
        total *= paths
    return total


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
