import itertools
from fractions import Fraction

import pytest

from mtzeta.exact import binomial
from mtzeta.mzvconvert import (
    mt_convergent,
    mt_to_mzv,
    mt_to_mzv_depth2,
    mt_to_mzv_depth3,
    per_sum,
)
from mtzeta.symexpr import EvenZeta, Expr, MZValue, lerch, mzv


def test_per_sum_orderings():
    seen = []

    def f(*args):
        seen.append(args)
        return Expr()

    per_sum(("a", "b"), f)
    assert seen == [("b", "a"), ("a", "b")]
    seen.clear()
    per_sum(("a", "b", "c"), f)
    assert seen == [("b", "c", "a"), ("a", "c", "b"), ("a", "b", "c")]


def test_per_sum_symmetric_gives_multiple():
    x = Expr.atom(EvenZeta(2))
    assert per_sum((1, 2, 3), lambda *a: x) == x.scale(3)


def test_convergence_guard():
    assert mt_convergent((1, 1, 1))
    assert mt_convergent((1, 1, 2))
    assert not mt_convergent((1, 1, 0))
    assert not mt_convergent((0, 2, 1))  # sorted head starts at 0: 1+0 = 1 not > 1
    with pytest.raises(ValueError):
        mt_to_mzv_depth2(1, 1, 0)


def test_depth2_examples():
    assert mt_to_mzv_depth2(1, 1, 1) == Expr.term(2, (mzv((2, 1), (0, 0)),))
    got = mt_to_mzv_depth2(2, 2, 1)
    expect = Expr.term(2, (mzv((3, 2), (0, 0)),)) + Expr.term(4, (mzv((4, 1), (0, 0)),))
    assert got == expect
    for a in range(1, 4):
        for b in range(1, 4):
            assert mt_to_mzv_depth2(a, b, 2) == mt_to_mzv_depth2(b, a, 2)


def test_depth2_weight_conservation():
    for a, b, c in itertools.product(range(1, 4), repeat=3):
        for atoms, _ in mt_to_mzv_depth2(a, b, c).items():
            (atom,) = atoms
            assert sum(atom.exps) == a + b + c


def test_general_matches_depth2():
    for a in range(1, 4):
        for b in range(1, 4):
            for c in range(1, 4):
                assert mt_to_mzv((a, b, c)) == mt_to_mzv_depth2(a, b, c), (a, b, c)


def test_general_depth1_identity():
    assert mt_to_mzv((3,), (Fraction(1, 3),)) == Expr.atom(lerch(3, Fraction(1, 3)))
    assert mt_to_mzv((2, 1)) == Expr.atom(lerch(3, 0))


def test_general_weight_depth_conserved():
    e = mt_to_mzv((1, 1, 1, 1))
    for atoms, _ in e.items():
        (atom,) = atoms
        assert isinstance(atom, MZValue)
        assert atom.depth == 3
        assert sum(atom.exps) == 4
        assert atom.exps[0] >= 2


def test_general_color_pattern_depth2():
    g1, g2, g3 = Fraction(1, 3), Fraction(1, 2), Fraction(1, 5)
    e = mt_to_mzv((1, 1, 2), (g1, g2, g3))
    expect = Expr()
    # surviving x = m1: zeta(s2+s3+i, s1-i) with colors (g2+g3, g1-g2)
    for i in range(1):
        expect = expect + Expr.term(
            binomial(1 - 1 + i, i), (mzv((3 + i, 1 - i), (g2 + g3, g1 - g2)),)
        )
    for i in range(1):
        expect = expect + Expr.term(
            binomial(1 - 1 + i, i), (mzv((3 + i, 1 - i), (g1 + g3, g2 - g1)),)
        )
    assert e == expect


def test_general_matches_depth3():
    for s in itertools.product(range(1, 4), repeat=4):
        if mt_convergent(s):
            assert mt_to_mzv(s) == mt_to_mzv_depth3(*s), s


def _sign(g, n):
    """e(g n) for a color g in {0, 1/2}."""
    return -1 if (2 * g * n) % 2 else 1


def _mt_coefficients(exps, colors, top):
    """c[N] = sum over m_1 + ... + m_k = N of prod e(g_i m_i) / m_i^s_i,
    times e(g_total N) / N^t, for N <= top."""
    series = [Fraction(1)] + [Fraction(0)] * top
    for s, g in zip(exps[:-1], colors[:-1]):
        factor = [Fraction(0)] + [Fraction(_sign(g, m), m**s) for m in range(1, top + 1)]
        series = [
            sum(series[j] * factor[n - j] for j in range(n + 1)) for n in range(top + 1)
        ]
    t, g = exps[-1], colors[-1]
    return [Fraction(0)] + [
        series[n] * Fraction(_sign(g, n), n**t) for n in range(1, top + 1)
    ]


def _mzv_coefficients(atom, top):
    """c[N] = sum over N = n_1 > ... > n_d >= 1 of prod e(h_j n_j) / n_j^a_j."""
    inner = None
    for e, h in reversed(list(zip(atom.exps, atom.colors))):
        below = Fraction(0)
        row = [Fraction(0)]
        for n in range(1, top + 1):
            term = Fraction(_sign(h, n), n**e)
            row.append(term if inner is None else term * below)
            if inner is not None:
                below += inner[n]
        inner = row
    return inner


@pytest.mark.parametrize(
    "exps, colors",
    [
        ((2, 1, 3, 1, 2), (0,) * 5),
        ((1, 1, 1, 1, 2), (Fraction(1, 2), 0, Fraction(1, 2), 0, Fraction(1, 2))),
        ((2,) * 6, (0, Fraction(1, 2), 0, 0, Fraction(1, 2), 0)),
        # the case above has no odd-N terms; here the total slot's color shows
        ((2, 1, 3, 1, 2), (Fraction(1, 2), 0, 0, Fraction(1, 2), Fraction(1, 2))),
    ],
)
def test_general_matches_truncated_sums(exps, colors):
    # every coefficient of the N-th partial sum agrees exactly
    top = 12
    expect = _mt_coefficients(exps, colors, top)
    got = [Fraction(0)] * (top + 1)
    for (atom,), c in mt_to_mzv(exps, colors).items():
        assert isinstance(atom, MZValue)
        for n, v in enumerate(_mzv_coefficients(atom, top)):
            got[n] += c * v
    assert got == expect


def test_general_term_count_3_6():
    assert len(mt_to_mzv((3,) * 6)) == 273
