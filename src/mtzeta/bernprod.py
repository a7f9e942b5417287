"""Expansions of products of Bernoulli polynomials into the Bernoulli basis.

Four independent routes produce the same object, a linear combination of
single Bernoulli polynomials plus a constant:

* :func:`naive_product` -- exact polynomial multiplication followed by
  descending-degree elimination against the Bernoulli basis.  This is the
  oracle the formula implementations are tested against.
* :func:`carlitz_product` -- the classical two-factor closed formula.
* :func:`expand_by_subsets` -- the closed formula summing over proper
  subsets of slots and bounded transfer indices (not weight-homogeneous).
* :func:`expand_by_partitions` -- the weight-homogeneous formula summing
  over pre-fat partitions (polynomial part) and fat partitions (constant
  part) with their dependent index sets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, prod
from typing import Any, Mapping, Sequence

from .exact import bernoulli, bernoulli_poly, multinomial, product_integral
from .partitions import (
    PartitionKind,
    enumerate_partitions,
    index_assignments,
    inflate,
)

__all__ = [
    "BernCombo",
    "naive_product",
    "carlitz_product",
    "expand_by_subsets",
    "expand_by_partitions",
]


@dataclass(frozen=True)
class BernCombo:
    """Combination sum_m terms[m] * B_m(x) + constant, m >= 1, no zero terms."""

    terms: Mapping[int, Fraction]
    constant: Fraction = Fraction(0)

    @staticmethod
    def build(raw: Mapping[int, Fraction], constant: Fraction) -> "BernCombo":
        cleaned: dict[int, Fraction] = {}
        const = Fraction(constant)
        for m, c in raw.items():
            if not c:
                continue
            if m == 0:
                const += c  # B_0(x) = 1 folds into the constant
            else:
                cleaned[m] = Fraction(c)
        return BernCombo(dict(sorted(cleaned.items())), const)


def _poly_mul(a: Sequence[Any], b: Sequence[Any]) -> list[Any]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            if bj:
                out[i + j] += ai * bj
    return out


def naive_product(s: Sequence[int]) -> BernCombo:
    """Multiply the B_{s_j}(x) exactly, then rewrite in the Bernoulli basis.

    Elimination runs from the top degree down; it terminates because every
    B_m(x) is monic.  The remaining degree-0 coefficient is the constant.
    """
    if len(s) < 1 or any(e < 1 for e in s):
        raise ValueError(f"need positive integer exponents, got {s}")
    bernoulli(sum(s))  # the top degree's: past the limit, refuse before the table grows
    poly = [Fraction(1)]
    for e in s:
        poly = _poly_mul(poly, bernoulli_poly(e))
    terms: dict[int, Fraction] = {}
    for m in range(len(poly) - 1, 0, -1):
        c = poly[m]
        if not c:
            continue
        terms[m] = c
        for k, b in enumerate(bernoulli_poly(m)):
            poly[k] -= c * b
    return BernCombo.build(terms, poly[0])


def carlitz_product(s1: int, s2: int) -> BernCombo:
    """Two-factor expansion

        B_{s1}(x) B_{s2}(x) =
            sum_{r=0}^{floor(max(s1,s2)/2)}
                [C(s1,2r) s2 + C(s2,2r) s1] B_{2r} B_{s1+s2-2r}(x) / (s1+s2-2r)
            - (-1)^{s2} s1! s2! / (s1+s2)! * B_{s1+s2}.
    """
    if s1 < 1 or s2 < 1:
        raise ValueError("exponents must be >= 1")
    w = s1 + s2
    # B_w first, the largest index: past the limit, refuse before the table grows
    const = -((-1) ** s2) * Fraction(factorial(s1) * factorial(s2), factorial(w)) * bernoulli(w)
    terms = {
        w - 2 * r: Fraction(comb(s1, 2 * r) * s2 + comb(s2, 2 * r) * s1) * bernoulli(2 * r) / (w - 2 * r)
        for r in range(max(s1, s2) // 2 + 1)
    }
    return BernCombo.build(terms, const)


# Budget of (subset, j-vector) pairs of expand_by_subsets, about 5 s on one
# x86-64 core: ten ones make 3^10 = 59,049 pairs, ten twos 4^10.
_MAX_SUBSET_PAIRS = 1 << 17


def expand_by_subsets(s: Sequence[int]) -> BernCombo:
    """Expansion over proper subsets of slots:

        B_s(x) = C_s + sum_{i proper subset of [t]} sum_{0 <= j_i <= s_i}
                 (|s|-|j|+l(i)-t choose s - Inf(j)) * prod B_{j}/j! *
                 s! B_{n}(x) / n!,     n = |s| - |j| + l(i) - t + 1,

    with the multinomial taken over the differences s_l - 1 (l outside i)
    and s_l - j_l, all >= 0.  Slot i allows the 2 + s_i // 2 indices j <= 1
    or even, whose B_j are nonzero, so the (subset, j) pairs number at most
    prod (3 + s_i // 2); past _MAX_SUBSET_PAIRS it raises ValueError
    before the sum starts, as it does when the largest Bernoulli index
    used, the largest even index <= max(s), passes the limit.
    """
    s = tuple(s)
    t = len(s)
    if t < 2 or any(e < 1 for e in s):
        raise ValueError("need at least two positive integer exponents")
    pairs = prod(3 + e // 2 for e in s)
    if pairs > _MAX_SUBSET_PAIRS:
        raise ValueError(f"{pairs} (subset, index) pairs exceed the budget of {_MAX_SUBSET_PAIRS}")
    bernoulli(max(s) // 2 * 2)  # the largest index used: refuse before the table grows
    w = sum(s)
    s_fact = 1
    for e in s:
        s_fact *= factorial(e)
    terms: dict[int, Fraction] = {}
    slots = list(range(1, t + 1))
    for size in range(t):  # proper subsets only
        for positions in itertools.combinations(slots, size):
            # Transfer index j_l runs 0..s_l per chosen slot; odd Bernoulli
            # indices > 1 contribute nothing and are skipped outright.
            ranges = [
                [j for j in range(s[p - 1] + 1) if j <= 1 or j % 2 == 0]
                for p in positions
            ]
            for jvec in itertools.product(*ranges):
                bprod = Fraction(1)
                jfact = 1
                for j in jvec:
                    bprod *= bernoulli(j)
                    jfact *= factorial(j)
                inflated = inflate(jvec, positions, t)
                mult = multinomial(a - b for a, b in zip(s, inflated))
                n = w - sum(jvec) + size - t + 1
                terms[n] = terms.get(n, Fraction(0)) + bprod * mult * s_fact / (jfact * factorial(n))
    return BernCombo.build(terms, product_integral(s))


def _part_factor(part: tuple[int, ...], r: tuple[int, ...], closed: bool) -> tuple[Fraction, int]:
    """The factor of one part with index vector r, and its last partial
    weight A.  The walk A_1 = part[0], A_{i+1} = A_i + part[i+1] - 2 r_i
    multiplies in, per index,

        [C(A_i, 2 r_i) * part[i+1] + C(part[i+1], 2 r_i) * A_i] * B_{2 r_i} / A_{i+1};

    a closed part, whose r has len(part) - 2 entries, then closes with

        (-1)^(1+last) * A! * last! / (A+last)! * B_{A+last},   last = part[-1].

    For the pre-fat last part, with len(part) - 1 indices, A is the index m
    of its B_m(x).  Index vectors within ``index_bound`` have
    2 r_i <= max(A_i, part[i+1]), so A_{i+1} >= min(A_i, part[i+1]) >= 1 and
    one of the two binomials is >= 1: each index factor is nonzero, and only
    an odd closing index A + last > 1 makes the factor 0.
    """
    factor, a = Fraction(1), part[0]
    for ri, nxt in zip(r, part[1:]):
        b = a + nxt - 2 * ri
        factor *= Fraction(comb(a, 2 * ri) * nxt + comb(nxt, 2 * ri) * a) * bernoulli(2 * ri) / b
        a = b
    if closed:
        last = part[-1]
        sign = -1 if last % 2 == 0 else 1  # (-1)^(1+last)
        factor *= sign * Fraction(factorial(a) * factorial(last), factorial(a + last)) * bernoulli(a + last)
    return factor, a


def expand_by_partitions(s: Sequence[int]) -> BernCombo:
    """Weight-homogeneous expansion over pre-fat and fat partitions.

    The pre-fat sum contributes B_m(x) terms (the last part supplies the
    polynomial factor, every earlier part a Bernoulli-number factor); the
    fat sum, where every part closes with a number, contributes the
    constant.  The largest Bernoulli index used is |s|, the closing number
    of the one-part fat partition: past the limit, it raises ValueError
    after the partition budgets and before the sums.
    """
    s = tuple(s)
    if len(s) < 2 or any(e < 1 for e in s):
        raise ValueError("need at least two positive integer exponents")
    pre_fat = enumerate_partitions(s, PartitionKind.PRE_FAT)
    fat = enumerate_partitions(s, PartitionKind.FAT)
    bernoulli(sum(s))  # the largest index used: refuse before the table grows

    terms: dict[int, Fraction] = {}
    constant = Fraction(0)

    for parts in pre_fat:
        for assignment in index_assignments(parts, PartitionKind.PRE_FAT):
            coeff = prod(_part_factor(part, r, True)[0] for part, r in zip(parts[:-1], assignment[:-1]))
            if coeff:  # 0 only for an odd closing index
                factor, m = _part_factor(parts[-1], assignment[-1], False)
                terms[m] = terms.get(m, Fraction(0)) + coeff * factor

    for parts in fat:
        for assignment in index_assignments(parts, PartitionKind.FAT):
            constant += prod(_part_factor(part, r, True)[0] for part, r in zip(parts, assignment))

    return BernCombo.build(terms, constant)
