"""Independent oracles for the tests, which no route of the library calls.

hurwitz_zeta is an Euler-Maclaurin Hurwitz zeta that shares no code with
periodic.phi_em or the split kernel: it sums with mpmath numbers in a
private context built for the call.  So it evaluates zeta(s, a), and phi
through phi(s, p/q) = q^-s sum_r e(rp/q) zeta(s, r/q), a second way.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Any

from mpmath import mp
from mpmath.ctx_mp import MPContext

from mtzeta.exact import bernoulli
from mtzeta.numerics import _MAX_HEAD_TERMS, DEFAULT_CONFIG, EvalConfig, EvalResult, _eps

__all__ = ["hurwitz_zeta"]


def _in_context(s: Any, prec: int) -> tuple[MPContext, Any]:
    """A private mpmath context at prec bits, built for the call (rf,
    factorial and complex powers change a context's precision while they
    run, so mpmath's global one is never used), and s in it: an int, float
    or Fraction as an mpf, any other number as an mpc."""
    ctx = MPContext()
    ctx.prec = prec
    if isinstance(s, Fraction):
        return ctx, ctx.mpf(s.numerator) / ctx.mpf(s.denominator)
    return ctx, ctx.mpf(s) if isinstance(s, (int, float)) else ctx.mpc(s)


def hurwitz_zeta(s: Any, a: Fraction = Fraction(1), cfg: EvalConfig = DEFAULT_CONFIG) -> EvalResult:
    """zeta(s, a) = sum_{j>=0} (j+a)^{-s} for Re(s) > 1, 0 < a <= 1.

    Euler-Maclaurin with the classical remainder control: after the B_{2R}
    correction term, the error is at most the first omitted term times
    |s+2R+1|/(Re(s)+2R+1).  The M head terms must stay within
    _MAX_HEAD_TERMS, or it raises ValueError before the head is summed.

    The rising factorial (s)_(2r-1) of correction r is the previous one
    times (s+2r-3)(s+2r-2): two additions and two complex products, each
    within 2 eps relative, so its relative error is at most 8 r eps <= 8 R
    eps.  With the power and the scaling, term r errs by at most (8 R + 8)
    eps |term r|; the head's M powers and all the sums add at most
    (M + R + 8) eps mag.  That is (M + 9 R + 16) eps mag in all, below the
    8 (M + R) eps mag charged, because M >= 2 R and M >= 32.
    """
    a = Fraction(a)
    if not 0 < a <= 1:
        raise ValueError(f"need 0 < a <= 1, got {a}")
    prec = cfg.prec
    ctx, sv = _in_context(s, prec)
    sig = float(ctx.re(sv))
    if sv == 1:
        raise ValueError("zeta(s, a) has a pole at s = 1")
    if sig <= 1:
        raise ValueError(f"Re(s) > 1 required, got {s!r}")
    av = ctx.mpf(a.numerator) / ctx.mpf(a.denominator)
    R = max(12, prec // 6)
    target = max(cfg.target_tol / 8, 4.0 * _eps(prec))
    M = max(32, 2 * R, int(2 * abs(complex(sv))) + 8)
    # in mpf: B_{2R+2}, (2R+2)! and the rising factorial leave float
    # range once 2R+2 >= 171, though the remainder itself is small
    b_next = bernoulli(2 * R + 2)
    ratio = abs(ctx.mpf(b_next.numerator) / b_next.denominator) / ctx.factorial(2 * R + 2)
    ratio *= abs(ctx.rf(sv, 2 * R + 1))
    while True:
        if M > _MAX_HEAD_TERMS:
            raise ValueError(f"Hurwitz zeta at s = {complex(sv)} needs {M} head terms, over the budget of {_MAX_HEAD_TERMS}")
        x = M + av
        t_next = ratio * x ** ctx.mpf(-sig - 2 * R - 1)
        rem = float(t_next * abs(sv + 2 * R + 1) / (sig + 2 * R + 1))
        if rem <= target:
            break
        M *= 2
    head = sum((j + av) ** (-sv) for j in range(M))
    mag = sum(float((j + av) ** (-sig)) for j in range(M))
    tail = x ** (1 - sv) / (sv - 1) + x ** (-sv) / 2
    mag += float(abs(tail))
    corr, rf = ctx.mpc(0), sv
    for r in range(1, R + 1):
        if r > 1:
            rf *= (sv + 2 * r - 3) * (sv + 2 * r - 2)
        b = bernoulli(2 * r)
        term = (
            ctx.mpf(b.numerator)
            / ctx.mpf(b.denominator)
            / math.factorial(2 * r)
            * rf
            * x ** (-sv - 2 * r + 1)
        )
        corr += term
        mag += float(abs(term))
    value = head + tail + corr
    roundoff = 8 * (M + R) * _eps(prec) * mag
    value = mp.make_mpf(value._mpc_[0]) if ctx.im(value) == 0 else mp.make_mpc(value._mpc_)
    return EvalResult(value, rem + roundoff)
