from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from mtzeta.exact import (
    bernoulli,
    bernoulli_poly,
    binomial,
    multinomial,
    product_integral,
)


def test_bernoulli_small_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(7) == 0
    assert bernoulli(10) == Fraction(5, 66)
    assert bernoulli(12) == Fraction(-691, 2730)


def test_bernoulli_generating_series_order_12():
    # Expand t*e^{xt}/(e^t-1) at x=0 to order 12 independently: the series
    # t/(e^t-1) = sum B_n t^n/n! is inverted from e^t-1 term by term.
    order = 13
    # coefficients of (e^t - 1)/t = sum_{k>=0} t^k/(k+1)!
    from math import factorial

    g = [Fraction(1, factorial(k + 1)) for k in range(order)]
    # b with sum_{j} b_j g_{n-j} = [n == 0]
    b = []
    for n in range(order):
        acc = Fraction(1) if n == 0 else Fraction(0)
        for j in range(n):
            acc -= b[j] * g[n - j]
        b.append(acc / g[0])
    for n in range(order):
        assert bernoulli(n) == b[n] * factorial(n)


def test_bernoulli_defining_recurrence_up_to_40():
    from math import comb

    for n in range(1, 41):
        assert sum(Fraction(comb(n + 1, k)) * bernoulli(k) for k in range(n + 1)) == 0


def test_binomial_conventions():
    assert binomial(0, -1) == 0
    assert binomial(4, 2) == 6
    assert binomial(3, 5) == 0
    with pytest.raises(ValueError):
        binomial(-1, 0)


def test_binomial_complementary_identity_depth2_indices():
    # C(a+b-2r-1, a-2r) == C(a+b-2r-1, b-1) whenever in range
    a, b, r = 3, 2, 1
    assert binomial(a + b - 2 * r - 1, a - 2 * r) == binomial(a + b - 2 * r - 1, b - 1) == 2


@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=3),
)
def test_binomial_complement_property(a, b, r):
    n = a + b - 2 * r - 1
    if n >= 0:
        assert binomial(n, a - 2 * r) == binomial(n, b - 1)


def test_multinomial():
    assert multinomial((1, 2, 1)) == 12
    assert multinomial((0, 0)) == 1
    assert multinomial((2, -1)) == 0


def test_bernoulli_poly_low_degrees():
    assert bernoulli_poly(0) == (Fraction(1),)
    assert bernoulli_poly(1) == (Fraction(-1, 2), Fraction(1))
    assert bernoulli_poly(2) == (Fraction(1, 6), Fraction(-1), Fraction(1))


def test_bernoulli_poly_derivative_rule():
    # coefficients of B_5'(x) equal 5*B_4(x)
    b5 = bernoulli_poly(5)
    b4 = bernoulli_poly(4)
    deriv = tuple(k * b5[k] for k in range(1, 6))
    assert deriv == tuple(5 * c for c in b4)


def test_bernoulli_poly_at_zero_is_bernoulli_number():
    for n in range(31):
        assert bernoulli_poly(n)[0] == bernoulli(n)


def test_bernoulli_poly_eval_special_points():
    # B_n(1) = B_n for n != 1; B_1(1) = 1/2; B_n(1/2) = (2^(1-n) - 1) B_n
    def at(n, x):
        return sum(c * x**k for k, c in enumerate(bernoulli_poly(n)))

    assert at(1, Fraction(1)) == Fraction(1, 2)
    for n in (0, 2, 3, 6, 9):
        assert at(n, Fraction(1)) == bernoulli(n)
        assert at(n, Fraction(1, 2)) == (Fraction(2) ** (1 - n) - 1) * bernoulli(n)


def _integrate_product(s):
    poly = [Fraction(1)]
    for e in s:
        coeffs = bernoulli_poly(e)
        new = [Fraction(0)] * (len(poly) + len(coeffs) - 1)
        for i, a in enumerate(poly):
            for j, c in enumerate(coeffs):
                new[i + j] += a * c
        poly = new
    return sum(c / (k + 1) for k, c in enumerate(poly))


def test_product_integral_examples():
    assert product_integral((1, 1)) == Fraction(1, 12)
    assert product_integral((2, 2)) == Fraction(1, 180)
    for n in range(1, 21):
        assert product_integral((n,)) == 0


def test_product_integral_matches_direct_integration():
    import itertools

    for t in (1, 2, 3):
        for s in itertools.product(range(1, 6), repeat=t):
            assert product_integral(s) == _integrate_product(s), s
