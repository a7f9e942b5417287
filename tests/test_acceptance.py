"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -v -s``).  Tolerances are fixed
here, not configurable.  Where a closed-form oracle exists, the reported
error bound must contain the discrepancy (bound soundness is criterion 12
and is also asserted in place)."""

import itertools
import math
import random
import time
from fractions import Fraction

from mpmath import mp, mpc

from _oracles import hurwitz_zeta
from mtzeta.bernprod import (
    carlitz_product,
    expand_by_partitions,
    expand_by_subsets,
    naive_product,
)
from mtzeta.dirichlet import character_identities, enumerate_characters
from mtzeta.numerics import (
    EvalConfig,
    eval_expr,
    even_zeta,
    lerch_phi,
    mt_via_mzv,
    mzv_eval,
)
from mtzeta.partitions import PartitionKind, enumerate_partitions
from mtzeta.reduction import (
    cyclic_sum_identity,
    depth2_identity,
    finite_sum_check,
    quad_e2,
    quad_e3,
    quad_e4,
    strong_reduction_pair,
    subset_reduction,
)
from mtzeta.symexpr import EvenZeta, Expr, mt_value, mzv

CFG = EvalConfig(precision_bits=192, target_tol=1e-16)
FAST = EvalConfig(precision_bits=128, target_tol=1e-14)


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num:2d}: {name}  {detail}")
    assert ok, f"criterion {num}: {name} {detail}"


def _mag(x) -> float:
    return float(abs(mpc(x)))


def test_criterion_01_fibonacci_counts():
    t0 = time.time()
    fib = [0, 1, 1]
    while len(fib) < 14:
        fib.append(fib[-1] + fib[-2])
    ok = True
    for t in range(2, 13):
        s = tuple((i % 3) + 1 for i in range(t))
        fat = len(enumerate_partitions(s, PartitionKind.FAT))
        pre = len(enumerate_partitions(s, PartitionKind.PRE_FAT))
        ok = ok and fat == fib[t - 1] and pre == fib[t]
    _report(1, "Fibonacci partition counts t=2..12", ok, f"({time.time()-t0:.2f}s)")


def test_criterion_02_bernoulli_product_oracle():
    t0 = time.time()
    ok = True
    for t in range(2, 5):
        for s in itertools.product(range(1, 6), repeat=t):
            expect = naive_product(s)
            if t == 2:
                ok = ok and carlitz_product(*s) == expect
            ok = ok and expand_by_subsets(s) == expect
            ok = ok and expand_by_partitions(s) == expect
            if not ok:
                break
    rng = random.Random(20260810)
    for _ in range(200):
        t = rng.choice((5, 6))
        s = tuple(rng.randint(1, 6) for _ in range(t))
        expect = naive_product(s)
        ok = ok and expand_by_subsets(s) == expect
        ok = ok and expand_by_partitions(s) == expect
        if not ok:
            break
    _report(
        2,
        "product expansions equal the polynomial oracle (grid + 200 random)",
        ok,
        f"({time.time()-t0:.1f}s)",
    )


def test_criterion_03_finite_truncation_exactness():
    t0 = time.time()
    cases = unequal = nonzero = 0
    for k in (2, 3):
        for s in itertools.product(range(1, 4), repeat=k):
            for size in range(1, k + 1):
                for subset in itertools.combinations(range(1, k + 1), size):
                    for N in (10, 30):
                        lhs, rhs = finite_sum_check(s, subset, N)
                        cases += 1
                        unequal += lhs != rhs
                        nonzero += any(lhs)
    _report(
        3,
        "finite-N integral identity exact in ints, for every alpha and z",
        unequal == 0 and nonzero > 0,
        f"{cases} cases, {unequal} unequal, {nonzero} with a nonzero coefficient ({time.time()-t0:.1f}s)",
    )


def test_criterion_04_worked_closed_forms():
    t0 = time.time()
    with mp.workprec(280):
        ident = cyclic_sum_identity((1, 1), 0)
        lhs = eval_expr(ident.lhs_expr(), 2, CFG)
        oracle = -(mp.pi**4) / 45
        err1 = _mag(mpc(lhs.value) - oracle)
        resid1 = _mag(ident.residual(2, CFG).value)
        sound1 = err1 <= lhs.bound

        ident2 = cyclic_sum_identity((1, 2), 0)
        resid2 = _mag(ident2.residual(2, CFG).value)
        mt221 = eval_expr(Expr.atom(mt_value((2, 2, 1), (0, 0, 0))), cfg=CFG)
        z5 = hurwitz_zeta(5, cfg=CFG)
        z3 = hurwitz_zeta(3, cfg=CFG)
        oracle2 = -3 * mpc(z5.value) + 2 * (mp.pi**2 / 6) * mpc(z3.value)
        err2 = _mag(mpc(mt221.value) - oracle2)
        sound2 = err2 <= mt221.bound + 3 * z5.bound + 2 * z3.bound
    ok = err1 < 1e-10 and resid1 < 1e-10 and err2 < 1e-10 and resid2 < 1e-10
    _report(
        4,
        "worked identities at z=2 hit -2*zeta(4) and -3*zeta(5)+2*zeta(2)*zeta(3)",
        ok and sound1 and sound2,
        f"errs {err1:.1e}/{err2:.1e} ({time.time()-t0:.1f}s)",
    )


def test_criterion_05_mordell_values():
    t0 = time.time()
    ok = True
    detail = []
    for k in (2, 3, 4):
        got = mt_via_mzv((1,) * (k + 1), cfg=CFG)
        z = lerch_phi(k + 1, Fraction(0), CFG)
        with mp.workprec(280):
            err = _mag(mpc(got.value) - math.factorial(k) * mpc(z.value))
        ok = ok and err <= 1e-10 and err <= got.bound + math.factorial(k) * z.bound
        detail.append(f"k={k}:{err:.1e}")
    _report(5, "Mordell values k! zeta(k+1), k=2..4", ok, " ".join(detail) + f" ({time.time()-t0:.1f}s)")


def test_criterion_06_specialization_coherence():
    t0 = time.time()
    ok = True
    for a in range(1, 5):
        for b in range(1, 5):
            d2 = depth2_identity(a, b, 0)
            th = cyclic_sum_identity((a, b), 0)
            ok = ok and d2.lhs == th.lhs and d2.rhs == th.rhs
    alpha = Fraction(1, 3)
    for n in (1, 2, 3):
        s4 = (n,) * 4
        ok = ok and quad_e2(n, alpha) == subset_reduction(s4, (1, 2), alpha)
        ok = ok and quad_e3(n, alpha) == subset_reduction(s4, (1, 2, 3), alpha)
        ok = ok and quad_e4(n, alpha) == subset_reduction(s4, (1, 2, 3, 4), alpha)
    _report(6, "closed specializations equal the generic engine canonically", ok, f"({time.time()-t0:.1f}s)")


def _mt(*e):
    return Expr.atom(mt_value(e, (0,) * len(e)))


def _zt(*e):
    return Expr.atom(mzv(e, (0,) * len(e)))


def test_criterion_07_weight10_decimal():
    t0 = time.time()
    z2, z4, z10 = (Expr.atom(EvenZeta(n)) for n in (2, 4, 10))
    intermediate = (
        (z2 * _mt(2, 2, 2, 2)).scale(2)
        + (z2 * _mt(2, 2, 4)).scale(24)
        - (z4 * _mt(2, 2, 2)).scale(10)
        - _mt(2, 2, 6).scale(30)
        - _mt(2, 2, 2, 4).scale(3)
    ).scale(Fraction(12, 5)) + z10.scale(2)
    final = z10.scale(7) + (
        _zt(8, 2).scale(5)
        + _zt(9, 1).scale(10)
        - (z2 * _zt(6, 2)).scale(4)
        - (z2 * _zt(7, 1)).scale(8)
    ).scale(36)
    r1 = eval_expr(intermediate, cfg=CFG)
    r2 = eval_expr(final, cfg=CFG)
    with mp.workprec(280):
        target = mp.mpf("0.163501600521337009")
        e1 = _mag(mpc(r1.value) - target)
        e2 = _mag(mpc(r2.value) - target)
        cross = _mag(mpc(r1.value) - mpc(r2.value))
    ok = e1 <= 1e-12 and e2 <= 1e-12 and cross <= r1.bound + r2.bound
    _report(
        7,
        "MT({2}_5) = 0.163501600521337009 via both displayed forms",
        ok,
        f"errs {e1:.1e}/{e2:.1e} ({time.time()-t0:.1f}s)",
    )


def test_criterion_08_weight12_decimals():
    t0 = time.time()
    z2 = Expr.atom(EvenZeta(2))
    z2p = [Expr.constant(1)]
    for _ in range(6):
        z2p.append(z2p[-1] * z2)
    # this closed form reduces the full k=5 signed cyclic sum; with five
    # equal even exponents that sum collapses to -MT + 5 MT = 4 MT({2}_6),
    # so divide by 4 for the single value
    display = (
        (
            (z2 * _zt(5) * _zt(5)).scale(21)
            + (z2 * _zt(8, 2)).scale(33)
            + (z2 * _zt(3) * _zt(7)).scale(30)
            + _zt(8, 2, 1, 1).scale(12)
            - _zt(3) * _zt(3) * _zt(3) * _zt(3)
        ).scale(1200)
        + (
            (z2p[3] * _zt(3) * _zt(3)).scale(Fraction(1056, 7))
            - (_zt(3) * _zt(9)).scale(4264)
            - _zt(10, 2).scale(1068)
            - (_zt(5) * _zt(7)).scale(6627)
        ).scale(60)
        + ((_zt(5) * _zt(3) * z2p[2]) + (z2p[2] * _zt(6, 2)).scale(2)).scale(7488)
        + z2p[6].scale(Fraction(13944719168, 525525))
    ).scale(Fraction(1, 4))
    r1 = eval_expr(display, cfg=CFG)
    # independent second method: the k=5 cyclic identity at z=2 collapses
    # its left side to 4 MT({2}_6)
    ident = cyclic_sum_identity((2, 2, 2, 2, 2), 0)
    r2 = eval_expr(ident.rhs, 2, CFG)
    with mp.workprec(280):
        t26 = mp.mpf("0.15311508886")
        e1 = _mag(mpc(r1.value) - t26)
        e2 = _mag(mpc(r2.value) / 4 - t26)
    v3 = mt_via_mzv((3,) * 6, cfg=FAST)
    with mp.workprec(280):
        e3 = _mag(mpc(v3.value) - mp.mpf("0.01255766232"))
    ok = e1 <= 1e-9 and e2 <= 1e-9 and e3 <= 1e-9
    _report(
        8,
        "MT({2}_6) and MT({3}_6) reference decimals (two methods each)",
        ok,
        f"errs {e1:.1e}/{e2:.1e}/{e3:.1e} ({time.time()-t0:.1f}s)",
    )


def test_criterion_09_mzv_weight6_relation():
    t0 = time.time()
    a = mzv_eval((4, 2), cfg=CFG)
    b = mzv_eval((5, 1), cfg=CFG)
    c = even_zeta(6, CFG)
    with mp.workprec(280):
        resid = _mag(mpc(a.value) + 2 * mpc(b.value) - mpc(c.value) / 6)
    ok = resid <= 1e-12 and resid <= a.bound + 2 * b.bound + c.bound / 6
    _report(9, "zeta(4,2) + 2 zeta(5,1) = zeta(6)/6", ok, f"resid {resid:.1e} ({time.time()-t0:.1f}s)")


def test_criterion_10_strong_reducibility():
    t0 = time.time()
    lhs1, rhs1 = strong_reduction_pair(1)
    lv1 = eval_expr(lhs1, cfg=CFG)
    rv1 = eval_expr(rhs1, cfg=CFG)
    z5 = lerch_phi(5, Fraction(0), CFG)
    with mp.workprec(280):
        target = 72 * mpc(z5.value)
        e_l = _mag(mpc(lv1.value) - target)
        e_r = _mag(mpc(rv1.value) - target)
    sound = e_l <= lv1.bound + 72 * z5.bound and e_r <= rv1.bound + 72 * z5.bound
    lhs2, rhs2 = strong_reduction_pair(2)
    lv2 = eval_expr(lhs2, cfg=CFG)
    rv2 = eval_expr(rhs2, cfg=CFG)
    with mp.workprec(280):
        d2 = _mag(mpc(lv2.value) - mpc(rv2.value))
    ok = e_l <= 1e-10 and e_r <= 1e-10 and d2 <= lv2.bound + rv2.bound and sound
    _report(
        10,
        "strong reduction: n=1 both sides 72 zeta(5); n=2 within bounds",
        ok,
        f"errs {e_l:.1e}/{e_r:.1e}, n=2 diff {d2:.1e} ({time.time()-t0:.1f}s)",
    )


def test_criterion_11_character_identity():
    t0 = time.time()
    ok = True
    details = []
    # the second gate asks the colored MZVs for working precision
    for tol, gate in ((1e-10, 1e-6), (1e-30, 1e-20)):
        cfg = EvalConfig(precision_bits=128, target_tol=tol)
        for f in (3, 4):
            chi = next(
                c for c in enumerate_characters(f) if c.primitive and not c.principal
            )
            fam = character_identities((2, 2), chi, cfg)
            total, bound = mpc(0), 0.0
            for w, ident in fam:
                r = ident.residual(2, cfg)
                total += mpc(w.value) * mpc(r.value)
                wm, rm = _mag(w.value), _mag(r.value)
                bound += wm * r.bound + rm * w.bound + w.bound * r.bound
            resid = _mag(total)
            ok = ok and resid <= bound and bound <= gate
            details.append(f"mod {f} at {tol:.0e}: {resid:.1e}<= {bound:.1e}")
    _report(11, "character identities mod 3 and mod 4 at z=2", ok, "; ".join(details) + f" ({time.time()-t0:.1f}s)")


def test_criterion_12_bound_soundness():
    t0 = time.time()
    checks = []
    with mp.workprec(280):
        # even zeta vs Euler-Maclaurin route
        for n in (2, 4, 6, 8):
            a = even_zeta(n, CFG)
            b = hurwitz_zeta(n, cfg=CFG)
            checks.append(_mag(mpc(a.value) - mpc(b.value)) <= a.bound + b.bound)
        # Euler identity
        a = mzv_eval((2, 1), cfg=CFG)
        b = lerch_phi(3, Fraction(0), CFG)
        checks.append(_mag(mpc(a.value) - mpc(b.value)) <= a.bound + b.bound)
        # Mordell
        for k in (2, 3, 4):
            got = mt_via_mzv((1,) * (k + 1), cfg=CFG)
            z = lerch_phi(k + 1, Fraction(0), CFG)
            checks.append(
                _mag(mpc(got.value) - math.factorial(k) * mpc(z.value))
                <= got.bound + math.factorial(k) * z.bound
            )
        # worked identity value
        ident = cyclic_sum_identity((1, 1), 0)
        lhs = eval_expr(ident.lhs_expr(), 2, CFG)
        checks.append(_mag(mpc(lhs.value) + mp.pi**4 / 45) <= lhs.bound)
        # weight-6 MZV relation
        a = mzv_eval((4, 2), cfg=CFG)
        b = mzv_eval((5, 1), cfg=CFG)
        c = even_zeta(6, CFG)
        checks.append(
            _mag(mpc(a.value) + 2 * mpc(b.value) - mpc(c.value) / 6)
            <= a.bound + 2 * b.bound + c.bound
        )
        # 72 zeta(5)
        lhs1, rhs1 = strong_reduction_pair(1)
        lv = eval_expr(lhs1, cfg=CFG)
        z5 = lerch_phi(5, Fraction(0), CFG)
        checks.append(_mag(mpc(lv.value) - 72 * mpc(z5.value)) <= lv.bound + 72 * z5.bound)
    _report(
        12,
        "every closed-form comparison sits inside its reported bound",
        all(checks),
        f"{len(checks)} checks ({time.time()-t0:.1f}s)",
    )
