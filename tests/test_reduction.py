import itertools
import math
import time
from fractions import Fraction

import pytest
from mpmath import mp

from mtzeta import reduction
from mtzeta.exact import binomial
from mtzeta.mzvconvert import mt_to_mzv
from mtzeta.numerics import EvalConfig, eval_expr
from mtzeta.partitions import PartitionKind, enumerate_partitions, index_assignments
from mtzeta.reduction import (
    cyclic_sum_identity,
    depth2_identity,
    finite_sum_check,
    quad_e2,
    quad_e3,
    quad_e4,
    quad_identity,
    quad_ones_identity,
    strong_reduction_pair,
    subset_reduction,
)
from mtzeta.symexpr import EvenZeta, Expr, MTValue, MZValue, Z, lerch, mt_value, mzv


def test_subset_reduction_smallest_case():
    # E((1,1), {1,2}, a) = 4 zeta(0) phi(z+2, a), i.e. -2 phi(z+2, a)
    a = Fraction(1, 5)
    e = subset_reduction((1, 1), (1, 2), a)
    assert e == Expr.term(4, (EvenZeta(0), lerch(Z.shift(2), a)))


def test_subset_reduction_rejects_small_subsets():
    with pytest.raises(ValueError):
        subset_reduction((1, 2), (1,), 0)


def test_subset_reduction_depth_bound():
    # every MT atom has depth k+1-len(subset) <= k-1
    s = (1, 2, 1, 2)
    for size in (2, 3, 4):
        for subset in itertools.combinations(range(1, 5), size):
            for atoms, _ in subset_reduction(s, subset, 0).items():
                for a in atoms:
                    if isinstance(a, MTValue):
                        assert a.depth == len(s) + 1 - size <= len(s) - 1
                    else:
                        assert isinstance(a, MZValue) and a.depth == 1  # phi, or its even form zeta(2r)


def test_cyclic_lhs_sign_pattern():
    # relative signs match the published depth-3 arrangement: dividing out
    # the full term's sign, rotation j carries -(-1)^{s_j} ... i.e. the
    # pattern (+, -(-1)^{s_1}, ...) after scaling by (-1)^{k+|s|}
    s = (2, 3, 1)
    ident = cyclic_sum_identity(s, 0)
    full_sign = ident.lhs[0][0]
    assert full_sign == (-1) ** (3 + sum(s))
    for j, (sign, _) in enumerate(ident.lhs[1:], start=1):
        assert sign == (-1) ** s[j - 1]


def test_worked_identity_11():
    ident = cyclic_sum_identity((1, 1), 0)
    assert ident.rhs == Expr.term(4, (EvenZeta(0), lerch(Z.shift(2), 0)))
    # at z=2: MT(1,1,2) - 2 MT(2,1,1) = -2 zeta(4) = -pi^4/45
    lhs_val = eval_expr(ident.lhs_expr(), 2)
    with mp.workprec(280):
        assert abs(mp.mpc(lhs_val.value) + mp.pi**4 / 45) <= lhs_val.bound + 1e-70
    r = ident.residual(2)
    assert abs(complex(r.value)) <= r.bound
    assert abs(complex(r.value)) < 1e-10


def test_worked_identity_12():
    # rearranges to MT(2,2,1) = -3 zeta(5) + 2 zeta(2) zeta(3)
    ident = cyclic_sum_identity((1, 2), 0)
    r = ident.residual(2)
    assert abs(complex(r.value)) <= r.bound
    assert abs(complex(r.value)) < 1e-10
    mt221 = eval_expr(Expr.atom(mt_value((2, 2, 1), (0, 0, 0))))
    with mp.workprec(280):
        target = -3 * mp.zeta(5) + 2 * (mp.pi**2 / 6) * mp.zeta(3)
        assert abs(mp.mpc(mt221.value) - target) <= mt221.bound + 1e-60


def test_inclusion_exclusion_lemma():
    for k in range(2, 13):
        for r in range(1, k):
            assert sum(binomial(k - r, t - r) * (-1) ** t for t in range(r, k + 1)) == 0


@pytest.mark.parametrize("alpha", [0, Fraction(1, 3)])
def test_depth2_equals_generic(alpha):
    for a in range(1, 5):
        for b in range(1, 5):
            d2 = depth2_identity(a, b, alpha)
            th = cyclic_sum_identity((a, b), alpha)
            assert d2.lhs == th.lhs
            assert d2.rhs == th.rhs


@pytest.mark.parametrize("alpha", [0, Fraction(1, 3)])
def test_cyclic_rhs_is_signed_sum_of_subset_reductions(alpha):
    # the one-pass right side against the subset expressions assembled with
    # the ring operations
    for k in (2, 3, 4):
        for s in itertools.product((1, 2, 3), repeat=k):
            oracle = Expr()
            for size in range(2, k + 1):
                for subset in itertools.combinations(range(1, k + 1), size):
                    e = subset_reduction(s, subset, alpha)
                    oracle = oracle - e if size % 2 else oracle + e
            assert cyclic_sum_identity(s, alpha).rhs == oracle, s


def test_depth2_rhs_symmetric_in_ab():
    for a in range(1, 5):
        for b in range(1, 5):
            assert depth2_identity(a, b, 0).rhs == depth2_identity(b, a, 0).rhs


def test_quad_terms_match_generic_subsets():
    for n in (1, 2, 3):
        s4 = (n,) * 4
        alpha = Fraction(1, 3)
        assert quad_e2(n, alpha) == subset_reduction(s4, (1, 2), alpha)
        assert quad_e3(n, alpha) == subset_reduction(s4, (1, 2, 3), alpha)
        assert quad_e4(n, alpha) == subset_reduction(s4, (1, 2, 3, 4), alpha)
        # subsets of equal size coincide for equal exponents
        for subset in itertools.combinations(range(1, 5), 2):
            assert subset_reduction(s4, subset, alpha) == quad_e2(n, alpha)


def test_quad_identity_structure_and_value():
    qi = quad_identity(2, 0)
    th = cyclic_sum_identity((2, 2, 2, 2), 0)
    assert qi.rhs == th.rhs
    assert qi.lhs_expr() == th.lhs_expr()
    r = quad_identity(1, 0).residual(2)
    assert abs(complex(r.value)) <= r.bound
    assert abs(complex(r.value)) < 1e-10


def test_quad_ones_identity():
    qo = quad_ones_identity(0)
    th = cyclic_sum_identity((1, 1, 1, 1), 0)
    assert qo.lhs_expr() == th.lhs_expr().scale(-1)
    r = qo.residual(2)
    assert abs(complex(r.value)) <= r.bound
    assert abs(complex(r.value)) < 1e-10
    # e2/e3/e4 specializations printed for n=1 (zeta(0) kept symbolic)
    a = Fraction(1, 7)
    assert quad_e2(1, a) == Expr.term(
        4, (EvenZeta(0), mt_value((1, 1, Z, 2), (0, 0, a, 0)))
    )


def test_strong_reduction_matches_conversion_route():
    for n in (1, 2, 3):
        lhs, rhs = strong_reduction_pair(n)
        derived = (
            mt_to_mzv((1, 1, n, 2)).scale(12)
            + Expr.atom(EvenZeta(2)) * mt_to_mzv((1, n, 1)).scale(24)
            - mt_to_mzv((1, n, 3)).scale(24)
            - Expr.atom(EvenZeta(2)) * Expr.atom(mzv((n + 2,), (0,))).scale(24)
            + Expr.atom(mzv((n + 4,), (0,))).scale(24)
        )
        assert rhs == derived


def test_strong_reduction_72_zeta5():
    lhs, rhs = strong_reduction_pair(1)
    lv, rv = eval_expr(lhs), eval_expr(rhs)
    with mp.workprec(280):
        target = 72 * mp.zeta(5)
        assert abs(mp.mpc(lv.value) - target) <= lv.bound + 1e-60
        assert abs(mp.mpc(rv.value) - target) <= rv.bound + 1e-60


def test_mordell_shortcut():
    # 4 MT({1}_3,1,1) - MT({1}_4,1) = 3 MT({1}_5) = 3*4! zeta(5)
    lhs, _ = strong_reduction_pair(1)
    v = eval_expr(lhs)
    w = eval_expr(Expr.atom(mt_value((1,) * 5, (0,) * 5)).scale(3))
    assert abs(complex(v.value) - complex(w.value)) <= v.bound + w.bound


def test_finite_sum_check_n1_hand_case():
    # k=3, i={1,2}, N=1: exactly one admissible tuple on each side
    # S for j={1}: m1 = m2+m3+m4 impossible at N=1; j={2} same;
    # j={1,2}: m1+m2 = m3+m4 holds at all-ones: value (-1)^{s1+s2} * 1
    assert finite_sum_check((1, 2, 1), (1, 2), 1) == ([-1], [-1])


@pytest.mark.parametrize(
    "s,subset,N",
    [
        ((2, 1), (1, 2), 30),
        ((1, 1, 1), (1, 2), 20),
        ((3, 3), (2,), 25),
        ((1, 2, 3), (1, 2, 3), 15),
    ],
)
def test_finite_sum_check_cases(s, subset, N):
    lhs, rhs = finite_sum_check(s, subset, N)
    assert lhs == rhs


def _finite_sums_by_enumeration(s, subset, N):
    """Both sides of finite_sum_check from their definitions, by visiting
    every tuple in Fraction: c_n, the coefficient of e(n alpha) n^-z."""
    k = len(s)
    # left: signed frequencies of f_(s_j) for j in i, positive ones of
    # f^+_(s_j) otherwise, and n of f^+_z, summing to frequency 0
    left = [Fraction(0)] * N
    ranges = [[m for m in range(-N, N + 1) if m] if j in subset else range(1, N + 1) for j in range(1, k + 1)]
    for ms in itertools.product(*ranges, range(1, N + 1)):
        if sum(ms) == 0:
            w = Fraction(1)
            for m, e in zip(ms, s):
                w *= Fraction((-1) ** e if m < 0 else 1, abs(m) ** e)
            left[ms[-1] - 1] += w
    # right: (-1)^|s(J)| S_N(s, J) over nonempty J within i, S_N over
    # m_1..m_(k+1) <= N with sum_(j in J) m_j = sum of the rest
    right = [Fraction(0)] * N
    for size in range(1, len(subset) + 1):
        for J in itertools.combinations(subset, size):
            sign = (-1) ** sum(s[j - 1] for j in J)
            for ms in itertools.product(range(1, N + 1), repeat=k + 1):
                if 2 * sum(ms[j - 1] for j in J) == sum(ms):
                    w = Fraction(1)
                    for m, e in zip(ms, s):
                        w /= m**e
                    right[ms[-1] - 1] += sign * w
    return left, right


@pytest.mark.parametrize("s,subset,N", [((1, 2, 3), (1, 2, 3), 4), ((1, 1, 2, 1), (1, 3), 3)])
def test_finite_sum_check_matches_enumeration(s, subset, N):
    # ties both int pipelines to the definitions; k = 4 lies outside
    # criterion 3's grid
    scale = math.lcm(*range(1, N + 1)) ** sum(s)
    lhs, rhs = finite_sum_check(s, subset, N)
    left, right = _finite_sums_by_enumeration(s, subset, N)
    assert [Fraction(c, scale) for c in lhs] == left
    assert [Fraction(c, scale) for c in rhs] == right
    assert any(left)


def test_numeric_truth_small_grid():
    # identities hold numerically at several z and colors; bounds may be
    # weak on the direct-summation path (z = 3/2) but must contain the
    # residual
    cfg = EvalConfig(precision_bits=160, target_tol=1e-12)
    for s in [(1, 1), (2, 1), (2, 2), (3, 1), (1, 1, 1), (2, 1, 1), (2, 2, 3)]:
        for alpha in (0, Fraction(1, 2), Fraction(1, 3)):
            ident = cyclic_sum_identity(s, alpha)
            for z0 in (1, 2, Fraction(3, 2)):
                r = ident.residual(z0, cfg)
                assert abs(complex(r.value)) <= r.bound, (s, alpha, z0)


def test_identity_sweep_certifies_small_weights():
    # every ordered s of weight <= 6 and depth 2-4, each alpha and integer
    # z: the residual lies inside its bound, and the bound certifies 30
    # digits at 128 bits.  Weight 6 is the largest whose sweep stays within
    # 5 s (weight 7, 91 vectors, takes 5-7 s on two shared x86-64 cores)
    cfg = EvalConfig(precision_bits=128)
    vectors = [s for k in (2, 3, 4) for s in itertools.product(range(1, 6), repeat=k) if sum(s) <= 6]
    assert len(vectors) == 50
    for s in vectors:
        for alpha in (0, Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(1, 6)):
            ident = cyclic_sum_identity(s, alpha)
            for z0 in (1, 2, 3):
                r = ident.residual(z0, cfg)
                assert abs(complex(r.value)) <= r.bound <= 1e-30, (s, alpha, z0, r.bound)


def test_cyclic_sum_identity_input_validation():
    with pytest.raises(ValueError):
        cyclic_sum_identity((3,), 0)
    with pytest.raises(ValueError):
        cyclic_sum_identity((1, 0), 0)
    with pytest.raises(ValueError):
        cyclic_sum_identity((1, 1), 0).residual(Fraction(1, 2))


def test_rhs_atoms_have_lower_depth():
    for s in [(1, 2), (2, 1, 1), (1, 1, 2, 1)]:
        ident = cyclic_sum_identity(s, Fraction(1, 3))
        for atoms, _ in ident.rhs.items():
            for a in atoms:
                if isinstance(a, MTValue):
                    assert a.depth <= len(s) - 1
                else:
                    assert isinstance(a, MZValue) and a.depth == 1  # phi, or its even form zeta(2r)


def _units(s, subsets=None):
    # the index assignments of the subsets (by default every subset of size
    # >= 2), built one by one, times the weight: what the budget charges
    if subsets is None:
        subsets = [c for size in range(2, len(s) + 1) for c in itertools.combinations(range(1, len(s) + 1), size)]
    return sum(s) * sum(
        1
        for sub in subsets
        for parts in enumerate_partitions(tuple(s[j - 1] for j in sub), PartitionKind.PRE_FAT)
        for _ in index_assignments(parts, PartitionKind.PRE_FAT)
    )


@pytest.mark.parametrize("s", [(1,) * 5, (3, 3, 3, 3, 3), (1, 2, 3, 2), (4, 1, 4, 1, 2), (6, 1, 5)])
def test_budget_refuses_exactly_past_the_count_before_any_term(monkeypatch, s):
    # the count from s equals the assignments built; at that many units the
    # identity or subset term is built, one fewer is refused before the
    # first term
    alpha, last = Fraction(1, 3), (2, len(s))
    for units, build in ((_units(s), lambda: cyclic_sum_identity(s, alpha)), (_units(s, [last]), lambda: subset_reduction(s, last, alpha))):
        monkeypatch.setattr(reduction, "_MAX_WORK", units)
        build()
        monkeypatch.setattr(reduction, "_MAX_WORK", units - 1)
        with monkeypatch.context() as m:
            m.setattr(reduction, "_subset_terms", lambda *_: pytest.fail("a term was built"))
            with pytest.raises(ValueError, match="budget"):
                build()


def test_budget_counts_match_the_recorded_units():
    # the figures of the _MAX_WORK comment; 1^11 and 1^12 are refused, 1^12
    # by a count that stops at the budget
    assert [_units(s) for s in ((1,) * 10, (3,) * 5)] == [276_290, 5_295]
    for s in ((1,) * 11, (1,) * 12, (1,) * 40, (1000, 1000, 1000, 1000), (30_000, 1, 1)):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="budget"):
            cyclic_sum_identity(s, 0)
        assert time.perf_counter() - start < 0.5, s
