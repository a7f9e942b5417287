import itertools
from math import comb

import pytest
from hypothesis import given, strategies as st

from mtzeta.partitions import (
    PartitionKind,
    count_index_assignments,
    enumerate_partitions,
    index_assignments,
    index_bound,
    inflate,
)


def fib(n):
    a, b = 1, 1
    for _ in range(n - 1):
        a, b = b, a + b
    return a


def cuts(parts):
    # the cut positions between parts: the prefix lengths before each later part
    return tuple(itertools.accumulate(len(p) for p in parts[:-1]))


def test_basic_examples():
    fat = enumerate_partitions((1, 2, 3, 4), PartitionKind.FAT)
    assert fat == [((1, 2, 3, 4),), ((1, 2), (3, 4))]
    pre = enumerate_partitions((5, 7), PartitionKind.PRE_FAT)
    assert pre == [((5, 7),)]


def test_fibonacci_counts():
    for t in range(2, 13):
        s = tuple(range(1, t + 1))
        assert len(enumerate_partitions(s, PartitionKind.FAT)) == fib(t - 1)
        assert len(enumerate_partitions(s, PartitionKind.PRE_FAT)) == fib(t)


def test_fat_subset_of_prefat():
    s = (1, 1, 2, 1, 3, 1)
    fat = set(enumerate_partitions(s, PartitionKind.FAT))
    pre = set(enumerate_partitions(s, PartitionKind.PRE_FAT))
    assert fat <= pre
    extra = pre - fat
    for parts in extra:
        assert len(parts[-1]) == 1


def test_concatenation_invariant_and_order():
    s = (2, 1, 1, 3, 2)
    seen = []
    for parts in enumerate_partitions(s, PartitionKind.PRE_FAT):
        assert sum(parts, ()) == s
        seen.append(cuts(parts))
    assert seen == sorted(seen)
    assert len(seen) == len(set(seen))


def test_empty_source_rejected():
    with pytest.raises(ValueError):
        enumerate_partitions((), PartitionKind.FAT)


def test_single_prefat_part_range():
    # one part (s1, s2): one index ranging 0..floor(max(s1,s2)/2)
    parts = enumerate_partitions((3, 5), PartitionKind.PRE_FAT)[0]
    assignments = list(index_assignments(parts, PartitionKind.PRE_FAT))
    assert assignments == [((r,),) for r in range(0, 3)]


def test_length2_nonlast_part_has_no_indices():
    for a in index_assignments(((1, 2), (3, 4)), PartitionKind.FAT):
        assert a[0] == ()


def test_prefat_221_example():
    # ((2,2),(1)): the non-last part (2,2) has len-2 = 0 indices and the
    # singleton last part is vacuous, so the index set is the single empty
    # assignment.  (Anything else breaks the product-expansion oracle for
    # s = (2,2,1); see test_bernprod.)
    got = list(index_assignments(((2, 2), (1,)), PartitionKind.PRE_FAT))
    assert got == [((), ())]


def test_index_assignments_reject_wrong_kind():
    # a non-last part shorter than 2 is neither kind; a last part shorter
    # than 2 is pre-fat but not fat
    for kind in PartitionKind:
        with pytest.raises(ValueError):
            list(index_assignments(((1,), (2, 3)), kind))
    with pytest.raises(ValueError):
        list(index_assignments(((1, 2), (3,)), PartitionKind.FAT))
    assert list(index_assignments(((1, 2), (3,)), PartitionKind.PRE_FAT)) == [((), ())]


def test_assignments_unique_and_within_bounds():
    s = (2, 3, 1, 2, 2)
    for kind in PartitionKind:
        for parts in enumerate_partitions(s, kind):
            seen = set()
            for a in index_assignments(parts, kind):
                assert a not in seen
                seen.add(a)
                for part, r in zip(parts, a):
                    for i, ri in enumerate(r, start=1):
                        assert 0 <= ri <= index_bound(part, r[: i - 1], i)


def test_partial_weights_stay_positive():
    # bernprod._part_factor's invariant: every index vector within
    # index_bound keeps each partial weight A_{i+1} = A_i + part[i+1] - 2 r_i
    # >= 1, with C(A_i, 2 r_i) or C(part[i+1], 2 r_i) >= 1, so no index
    # factor of a part vanishes
    for t in range(1, 6):
        for s in itertools.product(range(1, 5), repeat=t):
            for kind in PartitionKind:
                for parts in enumerate_partitions(s, kind):
                    for assignment in index_assignments(parts, kind):
                        for part, r in zip(parts, assignment):
                            a = part[0]
                            for ri, nxt in zip(r, part[1:]):
                                assert comb(a, 2 * ri) or comb(nxt, 2 * ri), (s, parts, assignment)
                                a += nxt - 2 * ri
                                assert a >= 1, (s, parts, assignment)


@given(st.lists(st.integers(min_value=1, max_value=4), min_size=2, max_size=6))
def test_index_count_per_part(s):
    s = tuple(s)
    for parts in enumerate_partitions(s, PartitionKind.PRE_FAT):
        for a in index_assignments(parts, PartitionKind.PRE_FAT):
            for j, (part, r) in enumerate(zip(parts, a)):
                expect = len(part) - 1 if j == len(parts) - 1 else len(part) - 2
                assert len(r) == expect


@given(st.lists(st.integers(min_value=1, max_value=7), min_size=1, max_size=6), st.integers(min_value=0, max_value=60))
def test_assignment_count_equals_enumeration(s, cap):
    # the count builds no assignment; past its cap it only says "over"
    for kind in PartitionKind:
        if len(s) < 2 and kind is PartitionKind.FAT:
            continue
        for parts in enumerate_partitions(s, kind):
            n = sum(1 for _ in index_assignments(parts, kind))
            assert count_index_assignments(parts, kind, n) == n
            got = count_index_assignments(parts, kind, cap)
            assert got == n if n <= cap else got > cap
    with pytest.raises(ValueError, match="not a fat partition"):
        count_index_assignments(((1, 2), (3,)), PartitionKind.FAT, 10)


def test_inflate():
    assert inflate((3,), (2,), 3) == (1, 3, 1)
    assert inflate((2, 5), (1, 3), 4) == (2, 1, 5, 1)
    assert sum(inflate((2, 5), (1, 3), 4)) == 7 - 2 + 4
    with pytest.raises(ValueError):
        inflate((1, 2), (1,), 3)
