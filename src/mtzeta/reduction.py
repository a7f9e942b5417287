"""Reduction identities for signed cyclic sums of Mordell-Tornheim values.

The central object is the expression E(s, i, alpha) attached to a subset i
of the first k slots: a sum over pre-fat partitions of s(i) and their
dependent index sets, whose terms are products of even zeta values, a
parity-filtered zeta per non-last part (zeta(m) for even m; odd m kills
the term), and a single lower-depth MT value carrying the symbolic
variable z.  The cyclic-sum identity states

    (-1)^(k+|s|) MT(s, z; 0..0, alpha)
      + sum_j (-1)^(s_j) MT(s with z at slot j, s_j; alpha at slot j)
    = sum over subsets i with |i| >= 2 of (-1)^(|i|) E(s, i, alpha),

valid away from singular points; all evaluation here stays in Re(z) >= 1.

An exact finite-truncation check (:func:`finite_sum_check`) validates the
sign and range conventions end to end: at every truncation level N the
zero-frequency coefficient of a product of one- and two-sided exponential
polynomials equals a signed sum of constrained lattice sums, compared as
the int coefficients of e(n alpha) n^-z, so for every alpha and z at once.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Iterable, Iterator, Sequence

from .bernprod import _poly_mul
from .exact import binomial, multinomial
from .numerics import DEFAULT_CONFIG, EvalConfig, EvalResult, eval_expr
from .partitions import PartitionKind, count_index_assignments, enumerate_partitions, index_assignments
from .symexpr import Atom, EvenZeta, Expr, Z, _canon_color, lerch, mt_value, mzv

__all__ = [
    "Identity",
    "subset_reduction",
    "cyclic_sum_identity",
    "finite_sum_check",
    "depth2_identity",
    "quad_e2",
    "quad_e3",
    "quad_e4",
    "quad_identity",
    "quad_ones_identity",
    "strong_reduction_pair",
]


@dataclass(frozen=True)
class Identity:
    """A constructed identity: signed MT values on the left, a reduced
    expression on the right, equal for all admissible z."""

    lhs: tuple[tuple[Fraction, Atom], ...]
    rhs: Expr
    s: tuple[int, ...]
    alpha: Fraction

    def lhs_expr(self) -> Expr:
        return Expr(((atom,), coeff) for coeff, atom in self.lhs)

    def residual(self, z0: Any, cfg: EvalConfig = DEFAULT_CONFIG) -> EvalResult:
        """Evaluate lhs - rhs at a point; bound is the combined majorant."""
        return eval_expr(self.lhs_expr() - self.rhs, z0, cfg)


def subset_reduction(
    s: Sequence[int], subset: Sequence[int], alpha: Fraction | int = 0
) -> Expr:
    """E(s, i, alpha): the reduced contribution of subset i (|i| >= 2).

    Every term is (-1)^(|s(i)|) 2^(|i|-q) times a product of per-index
    factors [C(A-1, s-1) + C(A-1, s-2r)] zeta(2r), a parity-filtered zeta
    for each non-last part, and the closing MT value of depth k+1-|i|.
    The parity filter is applied here, at construction: a term whose
    filtered argument m is odd is never built, and an even m gives the
    atom zeta(m).
    """
    s = tuple(s)
    k = len(s)
    subset = tuple(sorted(subset))
    if not 2 <= len(subset) <= k:
        raise ValueError(f"subset size must be in [2, {k}], got {subset}")
    if any(not 1 <= j <= k for j in subset) or len(set(subset)) != len(subset):
        raise ValueError(f"subset {subset} is not a subset of 1..{k}")
    if any(e < 1 for e in s):
        raise ValueError("exponents must be positive")
    _check_work(s, [subset], 1)
    return Expr(_subset_terms(s, subset, alpha))


# Each index assignment costs the weight of s, since the binomials of its
# coefficient grow with the weight, whether or not it makes a term.  1^10
# needs 276,290 units, 1^11 997,161 and (3,3,3,3,3) 5,295.
_MAX_WORK = 500_000


def _check_work(s: tuple[int, ...], subsets: Iterable[tuple[int, ...]], n: int) -> None:
    """Refuse, before any term is built, the index assignments of the n
    given subsets of s past _MAX_WORK.  Each subset has one at least, so n
    alone may pass it; else they are grouped by exponents and counted."""
    allowed, count = _MAX_WORK // sum(s), n
    if count <= allowed:
        groups = collections.Counter(tuple(s[j - 1] for j in sub) for sub in subsets)
        count = 0
        for parts, mult in ((p, m) for sub, m in groups.items() for p in enumerate_partitions(sub, PartitionKind.PRE_FAT)):
            count += mult * count_index_assignments(parts, PartitionKind.PRE_FAT, (allowed - count) // mult)
            if count > allowed:
                break
    if count > allowed:
        raise ValueError(f"reduction exceeded its budget of {_MAX_WORK} units (index assignments times weight)")


def _part_factor(
    part: tuple[int, ...], r: tuple[int, ...], closed: bool
) -> tuple[int, list[Atom]]:
    """The int factor and the atoms of one part with index vector r:
    [C(top, s-1) + C(top, s-2r)] zeta(2r) per index, then, for a part that
    closes with a number, the parity-filtered zeta(m) and the sign of the
    part's last exponent.  Only an odd m makes the factor 0: top is
    A_{i+1} - 1 of ``bernprod._part_factor``, so one binomial is >= 1."""
    c, atoms = 1, []
    for n_i, rv in enumerate(r, start=1):
        # partial sum of r through rv itself: the coefficient
        # index runs one ahead of the raw expansion's
        top = sum(part[: n_i + 1]) - 2 * sum(r[:n_i]) - 1
        c *= binomial(top, part[n_i] - 1) + binomial(top, part[n_i] - 2 * rv)
        atoms.append(EvenZeta(2 * rv))
    if closed:
        m = sum(part) - 2 * sum(r)
        if m % 2:  # parity-filtered zeta vanishes
            return 0, atoms
        atoms.append(EvenZeta(m))
        if part[-1] % 2:
            c = -c
    return c, atoms


def _subset_terms(
    s: tuple[int, ...], subset: tuple[int, ...], alpha: Fraction | int
) -> Iterator[tuple[list[Atom], int]]:
    """The (atoms, coefficient) terms of E(s, i, alpha).  The closing MT
    value has the exponents outside the subset, then z, then the closing
    number m of the last part; only the z slot is colored."""
    sub = tuple(s[j - 1] for j in subset)
    sign = -1 if sum(sub) % 2 else 1
    rest = tuple(e for j, e in enumerate(s, start=1) if j not in subset)
    colors = (0,) * len(rest) + (alpha, 0)
    for parts in enumerate_partitions(sub, PartitionKind.PRE_FAT):
        q = len(parts)
        prefactor = sign * 2 ** (len(subset) - q)
        for assignment in index_assignments(parts, PartitionKind.PRE_FAT):
            coeff, atoms = prefactor, []
            for pj, (part, r) in enumerate(zip(parts, assignment), start=1):
                c, part_atoms = _part_factor(part, r, pj < q)
                coeff *= c
                if not coeff:
                    break
                atoms += part_atoms
            else:
                m = sum(parts[-1]) - 2 * sum(assignment[-1])
                atoms.append(mt_value(rest + (Z, m), colors))
                yield atoms, coeff


def _cyclic_lhs(
    s: tuple[int, ...], alpha: Fraction
) -> tuple[tuple[Fraction, Atom], ...]:
    k = len(s)
    zeros = (Fraction(0),) * k
    full_sign = Fraction(-1 if (k + sum(s)) % 2 else 1)
    out = [(full_sign, mt_value(s + (Z,), zeros + (alpha,)))]
    for j in range(1, k + 1):
        exps = s[: j - 1] + (Z,) + s[j:] + (s[j - 1],)
        colors = zeros[: j - 1] + (alpha,) + zeros[j:] + (Fraction(0),)
        sign = Fraction(-1 if s[j - 1] % 2 else 1)
        out.append((sign, mt_value(exps, colors)))
    return tuple(out)


def _subsets(items: Sequence[int], min_size: int = 2):
    for size in range(min_size, len(items) + 1):
        yield from itertools.combinations(items, size)


def cyclic_sum_identity(s: Sequence[int], alpha: Fraction | int = 0) -> Identity:
    """The full reduction identity for the signed cyclic sum over s.

    Raises ValueError when its index assignments, each charged the weight
    of s, pass the budget ``_MAX_WORK``."""
    s = tuple(s)
    k = len(s)
    if k < 2:
        raise ValueError("depth must be >= 2")
    if any(not isinstance(e, int) or e < 1 for e in s):
        raise ValueError("exponents must be positive integers")
    alpha = _canon_color(alpha)
    _check_work(s, _subsets(range(1, k + 1)), 2**k - k - 1)
    rhs = Expr(
        (atoms, -coeff if len(subset) % 2 else coeff)
        for subset in _subsets(range(1, k + 1))
        for atoms, coeff in _subset_terms(s, subset, alpha)
    )
    return Identity(_cyclic_lhs(s, alpha), rhs, s, alpha)


# ---------------------------------------------------------------------------
# exact finite-truncation cross-check


def finite_sum_check(
    s: Sequence[int], subset: Sequence[int], N: int
) -> tuple[list[int], list[int]]:
    """Both sides of the truncation-exact integral identity at level N: the
    coefficients c_1..c_N of e(n alpha) n^-z, as ints at the common scale
    lcm(1..N)^|s|.  Equal lists prove it for every alpha and z at once.

    Left: the zero-frequency coefficient of prod_{j in i} f_{s_j,N} prod_{j
    not in i} f^+_{s_j,N} f^+_{z,N}(x + alpha), f^+_{s,N} = sum_{m<=N}
    e(mx)/m^s and f = f^+ + (-1)^s f^+(-x); c_n is the first k factors'
    coefficient at frequency -n, by frequency convolution.  Right: the sum
    over nonempty J within i of (-1)^(|s(J)|) S_N(s, J), S_N the lattice sum
    over m_1..m_{k+1} <= N with sum_{j in J} m_j = sum of the rest, grouped
    by n = m_{k+1}, by value-bucket convolution, a distinct pipeline.
    """
    s = tuple(s)
    k = len(s)
    subset = tuple(sorted(subset))
    if not subset or any(not 1 <= j <= k for j in subset):
        raise ValueError(f"subset {subset} invalid for k={k}")
    if N < 1:
        raise ValueError("N must be >= 1")
    L = math.lcm(*range(1, N + 1))
    # index m holds m^-e scaled by L^e, for m = 0..N (0 at m = 0)
    one = {e: [0] + [(L // m) ** e for m in range(1, N + 1)] for e in set(s)}

    def product(factors) -> list[int]:
        return functools.reduce(_poly_mul, factors, [1])

    # left: frequency-space product; each two-sided factor starts at -N
    poly = product(
        [(-1) ** e * x for x in one[e][:0:-1]] + one[e] if j in subset else one[e]
        for j, e in enumerate(s, start=1)
    )
    left = [poly[N * len(subset) - n] for n in range(1, N + 1)]

    # right: signed constrained lattice sums via value buckets
    right = [0] * N
    for sub in _subsets(subset, 1):
        ua = product(one[s[j - 1]] for j in sub)
        vb = product(one[s[j - 1]] for j in range(1, k + 1) if j not in sub)
        sign = (-1) ** sum(s[j - 1] for j in sub)
        right = [c + sign * sum(map(operator.mul, ua[n:], vb)) for n, c in enumerate(right, 1)]
    return left, right


# ---------------------------------------------------------------------------
# closed specializations


def depth2_identity(a: int, b: int, alpha: Fraction | int = 0) -> Identity:
    """Depth-2 identity with the right side built from the closed display

        2 sum_r [C(a+b-2r-1, a-1) + C(a+b-2r-1, a-2r)] zeta(2r) phi(a+b+z-2r)

    (normalized by (-1)^(a+b) to the cyclic-sum convention), constructed
    independently of :func:`subset_reduction` so the two can cross-check.
    """
    if a < 1 or b < 1:
        raise ValueError("exponents must be >= 1")
    alpha = _canon_color(alpha)
    sign = Fraction(-1 if (a + b) % 2 else 1)

    def terms():
        for r in range(max(a, b) // 2 + 1):
            c = binomial(a + b - 2 * r - 1, a - 1) + binomial(a + b - 2 * r - 1, a - 2 * r)
            yield (EvenZeta(2 * r), lerch(Z.shift(a + b - 2 * r), alpha)), sign * 2 * c

    return Identity(_cyclic_lhs((a, b), alpha), Expr(terms()), (a, b), alpha)


def quad_e2(n: int, alpha: Fraction | int = 0) -> Expr:
    """Size-2 subset term for four equal exponents:
    4 sum_r C(2n-2r-1, n-1) zeta(2r) MT(n, n, z, 2n-2r; 0,0,alpha,0)."""
    return Expr(
        (
            (EvenZeta(2 * r), mt_value((n, n, Z, 2 * n - 2 * r), (0, 0, alpha, 0))),
            4 * binomial(2 * n - 2 * r - 1, n - 1),
        )
        for r in range(n // 2 + 1)
    )


def quad_e3(n: int, alpha: Fraction | int = 0) -> Expr:
    """Size-3 subset term for four equal exponents.  Its parity-filtered
    zeta~(2n) is always even, so it is built as zeta(2n)."""
    sgn = Fraction(-1 if n % 2 else 1)

    def terms():
        yield (EvenZeta(2 * n), mt_value((n, Z, n), (0, alpha, 0))), 2
        for mu in range(n // 2 + 1):
            for nu in range(max(2 * n - 2 * mu, n) // 2 + 1):
                c = binomial(2 * n - 2 * mu - 1, n - 1) * binomial(
                    3 * n - 2 * mu - 2 * nu - 1, n - 1
                ) + multinomial((n - 2 * mu, n - 1, n - 2 * nu))
                atoms = (
                    EvenZeta(2 * mu),
                    EvenZeta(2 * nu),
                    mt_value((n, Z, 3 * n - 2 * mu - 2 * nu), (0, alpha, 0)),
                )
                yield atoms, sgn * 8 * c

    return Expr(terms())


def quad_e4(n: int, alpha: Fraction | int = 0) -> Expr:
    """Size-4 subset term for four equal exponents.  The parity filter is
    applied at construction: zeta~(2n) is built as zeta(2n), and the
    zeta~(3n-2mu) terms, which vanish for odd n, are built only for even n."""
    sgn = Fraction(-1 if n % 2 else 1)

    def terms():
        for mu in range(n // 2 + 1):
            for nu in range(max(2 * n - 2 * mu, n) // 2 + 1):
                for lam in range(max(3 * n - 2 * mu - 2 * nu, n) // 2 + 1):
                    w = 4 * n - 2 * (mu + nu + lam)
                    c = (
                        binomial(2 * n - 2 * mu - 1, n - 1)
                        * binomial(3 * n - 2 * mu - 2 * nu - 1, n - 1)
                        * binomial(w - 1, n - 1)
                        + multinomial((n - 2 * mu, n - 1, n - 2 * nu))
                        * binomial(w - 1, n - 1)
                        + binomial(2 * n - 2 * mu - 1, n - 1)
                        * multinomial((2 * n - 2 * mu - 2 * nu, n - 1, n - 2 * lam))
                        + multinomial((n - 2 * mu, n - 1, n - 2 * nu, n - 2 * lam))
                    )
                    atoms = (
                        EvenZeta(2 * mu),
                        EvenZeta(2 * nu),
                        EvenZeta(2 * lam),
                        lerch(Z.shift(w), alpha),
                    )
                    yield atoms, 16 * c
        for mu in range(n // 2 + 1):
            c = 8 * binomial(2 * n - 2 * mu - 1, n - 1)
            yield (EvenZeta(2 * n), EvenZeta(2 * mu), lerch(Z.shift(2 * n - 2 * mu), alpha)), sgn * c
            if n % 2 == 0:  # zeta~(3n - 2mu) vanishes for odd n
                yield (EvenZeta(2 * mu), EvenZeta(3 * n - 2 * mu), lerch(Z.shift(n), alpha)), c

    return Expr(terms())


def quad_identity(n: int, alpha: Fraction | int = 0) -> Identity:
    """Four equal exponents: lhs collapses to two distinct MT values with
    multiplicities 1 and 4; rhs is (4 choose 2) E2 - (4 choose 3) E3 + E4.

    The rotated-term sign is (-1)^n as the general identity requires; the
    printed specialization shows -4 outright, which holds only for odd n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    alpha = _canon_color(alpha)
    rhs = quad_e2(n, alpha).scale(6) - quad_e3(n, alpha).scale(4) + quad_e4(n, alpha)
    return Identity(_cyclic_lhs((n, n, n, n), alpha), rhs, (n, n, n, n), alpha)


def quad_ones_identity(alpha: Fraction | int = 0) -> Identity:
    """All-ones case, in its rearranged display form:

        4 MT({1}_3, z, 1) - MT({1}_4, z) = 12 MT(1,1,z,2)
            + 24 [zeta(2) MT(1,z,1) - MT(1,z,3) - zeta(2) phi(z+2) + phi(z+4)],

    with the color alpha riding on the z slot throughout.
    """
    alpha = _canon_color(alpha)
    lhs = (
        (Fraction(4), mt_value((1, 1, 1, Z, 1), (0, 0, 0, alpha, 0))),
        (Fraction(-1), mt_value((1, 1, 1, 1, Z), (0, 0, 0, 0, alpha))),
    )
    rhs = (
        Expr.term(12, (mt_value((1, 1, Z, 2), (0, 0, alpha, 0)),))
        + Expr.term(24, (EvenZeta(2), mt_value((1, Z, 1), (0, alpha, 0))))
        - Expr.term(24, (mt_value((1, Z, 3), (0, alpha, 0)),))
        - Expr.term(24, (EvenZeta(2), lerch(Z.shift(2), alpha)))
        + Expr.term(24, (lerch(Z.shift(4), alpha),))
    )
    return Identity(lhs, rhs, (1, 1, 1, 1), alpha)


def strong_reduction_pair(n: int) -> tuple[Expr, Expr]:
    """The all-ones identity at z = n, trivial color, with the right side
    strongly reduced to plain MZVs.  Returns (lhs, rhs); both sides are
    z-free and evaluate to equal numbers (72 zeta(5) at n = 1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    lhs = Expr.term(4, (mt_value((1, 1, 1, n, 1), (0,) * 5),)) - Expr.term(
        1, (mt_value((1, 1, 1, 1, n), (0,) * 5),)
    )

    def zt(*exps: int) -> Atom:
        return mzv(exps, (0,) * len(exps))

    z2 = EvenZeta(2)

    # The depth-3 double-sum family is implemented with the transfer index
    # in the middle slot and multiplicity two, and the companion single sum
    # closes with 2 zeta(3+nu, n-nu, 1); splitting these into the two
    # transposed copies one sees printed elsewhere is only correct at n=1.
    def inner():
        yield (zt(n + 4),), 2
        yield (zt(n + 3, 1),), -2
        yield (zt(n + 2, 1, 1),), 2
        yield (z2, zt(n + 1, 1)), 2
        yield (z2, zt(n + 2)), -2
        for nu in range(n):
            for mu in range(n - nu):
                yield (zt(3 + nu, 1 + mu, n - nu - mu),), 2
        for nu in range(n):
            yield (z2, zt(2 + nu, n - nu)), 2
            yield (zt(4 + nu, n - nu),), -2
            yield (zt(3 + nu, n - nu, 1),), 2

    return lhs, Expr((atoms, 12 * c) for atoms, c in inner())
