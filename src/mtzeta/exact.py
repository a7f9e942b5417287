"""Exact rational arithmetic: Bernoulli numbers and polynomials, binomial and
multinomial coefficients, and integrals of Bernoulli-polynomial products.

Conventions:

* Bernoulli numbers follow the generating function t*e^(x*t)/(e^t - 1), so
  B_1 = -1/2 and B_n = 0 for odd n >= 3.
* Out-of-range binomials vanish: C(n, k) = 0 for k < 0 or k > n.  Several
  depth-2 coefficient formulas produce such indices, so this convention is
  load-bearing.  Negative n is rejected (generalized binomials never occur).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Iterable, Sequence

__all__ = [
    "bernoulli",
    "binomial",
    "multinomial",
    "bernoulli_poly",
    "product_integral",
]

# Largest Bernoulli index computed.  The table grows by an O(n^2)-term
# Fraction recurrence: B_976 takes about 8 s on one x86-64 core.  976 is the
# largest even n below 978, from which the split route (numerics._li_terms)
# refuses zeta(n), so zeta(n) is refused from n = 978 whatever its parity.
# It is far above the B_326 that periodic.phi_em needs at 958 bits.
_MAX_BERNOULLI = 976

# B_0..B_n, grown on demand.  The table is a tuple, rebound after each
# extension and never changed in place: a reader keeps the tuple it read, and
# two threads that extend it at once each build a correct prefix.
_bernoulli_cache: tuple[Fraction, ...] = (Fraction(1), Fraction(-1, 2))


def bernoulli(n: int) -> Fraction:
    """Return the Bernoulli number B_n (convention B_1 = -1/2).  Raises
    ValueError for n past _MAX_BERNOULLI, before any work."""
    global _bernoulli_cache
    if not 0 <= n <= _MAX_BERNOULLI:
        raise ValueError(f"Bernoulli index must be in [0, {_MAX_BERNOULLI}], got {n}")
    if n > 1 and n % 2 == 1:
        return Fraction(0)
    table = _bernoulli_cache
    if n >= len(table):
        ext = list(table)
        while len(ext) <= n:
            # Defining recurrence: sum_{k=0}^{m} C(m+1, k) B_k = 0 for m >= 1.
            m = len(ext)
            ext.append(-sum(Fraction(comb(m + 1, k)) * ext[k] for k in range(m)) / (m + 1))
        table = _bernoulli_cache = tuple(ext)
    return table[n]


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k) with C(n, k) = 0 for k < 0 or k > n.

    Negative n is rejected: no call site needs generalized binomials, and a
    negative upper index would silently change several coefficient formulas.
    """
    if n < 0:
        raise ValueError(f"negative upper binomial index: C({n}, {k})")
    if k < 0 or k > n:
        return 0
    return comb(n, k)


def multinomial(parts: Iterable[int]) -> int:
    """Multinomial coefficient (sum(parts) choose parts).

    Returns 0 when any part is negative; this matches the vanishing of the
    corresponding generating-function coefficient.
    """
    parts = tuple(parts)
    if any(p < 0 for p in parts):
        return 0
    out = 1
    total = 0
    for p in parts:
        total += p
        out *= comb(total, p)
    return out


def bernoulli_poly(n: int) -> tuple[Fraction, ...]:
    """Coefficients of B_n(x) = sum_k C(n, k) B_{n-k} x^k, ascending powers."""
    if n < 0:
        raise ValueError(f"Bernoulli polynomial degree must be >= 0, got {n}")
    return tuple(Fraction(comb(n, k)) * bernoulli(n - k) for k in range(n + 1))


def _even_or_unit(s: int) -> list[int]:
    # Indices r with B_{s-r} possibly nonzero: s-r in {0, 1} or even.
    return [r for r in range(s + 1) if s - r <= 1 or (s - r) % 2 == 0]


def product_integral(s: Sequence[int]) -> Fraction:
    """Integral over [0, 1] of the product of B_{s_j}(x), j = 1..t.

    Computed by the closed double sum
        sum_{0 <= r <= s} prod_j C(s_j, r_j) * prod_j B_{s_j - r_j} / (|r| + 1),
    not by polynomial multiplication, so it can serve as one side of an
    exact cross-check against direct integration.
    """
    if len(s) < 1 or any(e < 1 for e in s):
        raise ValueError(f"need a nonempty vector of positive integers, got {s}")
    total = Fraction(0)
    choices = [_even_or_unit(e) for e in s]

    def rec(idx: int, coeff: Fraction, rsum: int) -> None:
        nonlocal total
        if idx == len(s):
            total += coeff / (rsum + 1)
            return
        e = s[idx]
        for r in choices[idx]:
            b = bernoulli(e - r)
            if b:
                rec(idx + 1, coeff * comb(e, r) * b, rsum + r)

    rec(0, Fraction(1), 0)
    return total
