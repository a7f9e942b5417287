"""phi(s; p/q) = sum_{n>=1} e(n p/q) n^-s at a non-integer exponent s,
Re(s) > 1, such as a substituted complex z, trivial color (q = 1)
included: the periodic zeta that numerics.lerch_phi hands over for any s
other than an int >= 2, and imports on first use, so that evaluations
with integer exponents only never load this module.

With M head terms per residue class, phi = sum_{n <= qM} e(n p/q) n^-s +
q^-s sum_{r=1..q} e(r p/q) zeta(s, M + r/q).  The head is one fixed-point
pass on ints scaled by 2^F (_phi_head): one libmp power per prime, one
product per composite.  The q tails are Euler-Maclaurin sums from one
coefficient table per call (_phi_tails).  Roundoff is counted per term in
ulps 2^-F.  The remainder after the B_2R term is at most the first omitted
term times |s+2R+1|/(Re s+2R+1), the classical Euler-Maclaurin control,
taken at the worst shift M + 1/q (_phi_terms).  Every step is a libmp call
at an explicit precision or an int operation; no mpmath context is built.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Any

from mpmath import libmp, mp

from .exact import bernoulli
from .numerics import _GUARD_BITS, _MAX_HEAD_TERMS, _RND, EvalConfig, EvalResult, _e_of, _eps, _mag, _parts

__all__ = ["phi_em"]


def _raw_number(s: Any, prec: int) -> tuple:
    """s as raw (re, im) at prec bits, each part rounded to nearest once:
    a Fraction or an int exactly as a rational, a float or complex from its
    doubles, an mpf or mpc as numerics._parts rounds it."""
    if isinstance(s, Fraction):
        return libmp.from_rational(s.numerator, s.denominator, prec, _RND), libmp.fzero
    if isinstance(s, int):
        return libmp.from_int(s, prec, _RND), libmp.fzero
    if isinstance(s, (float, complex)):
        s = complex(s)
        return libmp.from_float(s.real, prec, _RND), libmp.from_float(s.imag, prec, _RND)
    return _parts(s, prec)


def _em_remainder(lead: float, sig: float, R: int, x: float) -> float:
    """Majorant of the Euler-Maclaurin remainder of zeta(s, x) after the
    B_2R term, 2^lead x^-(sig + 2R + 1), with lead from _phi_terms; the
    float logarithms get a relative slack of 1e-9 on the exponent."""
    lg = lead - (sig + 2 * R + 1) * math.log2(x)
    return 2.0 ** max(lg + 1e-9 * (1 + abs(lg)), -1074.0)


def _phi_terms(s: complex, q: int, prec: int, target_tol: float) -> tuple[int, int, float]:
    """(M, R, lead) of phi_em at s and color denominator q: R corrections,
    lead the log2 of |B_(2R+2)/(2R+2)! (s)_(2R+1)| |s+2R+1|/(Re s+2R+1),
    and M from max(32, 2R, 2|s| + 8), doubled until the remainder at the
    worst shift x = M + 1/q (_em_remainder) meets max(target/8, 4 eps).
    Raises ValueError once qM passes _MAX_HEAD_TERMS, before any power."""
    R = max(12, prec // 6)
    target = max(target_tol / 8, 4.0 * _eps(prec))
    b = bernoulli(2 * R + 2)
    sig = s.real
    lead = math.log2(abs(b.numerator)) - math.log2(b.denominator) - math.lgamma(2 * R + 3) / math.log(2)
    lead += sum(math.log2(abs(s + k)) for k in range(2 * R + 1))
    lead += math.log2(abs(s + 2 * R + 1) / (sig + 2 * R + 1))
    M = max(32, 2 * R, int(2 * abs(s)) + 8)
    while True:
        if q * M > _MAX_HEAD_TERMS:
            raise ValueError(f"phi at s = {s} needs {q} x {M} head terms, over the budget of {_MAX_HEAD_TERMS}")
        if _em_remainder(lead, sig, R, M + 1 / q) <= target:
            return M, R, lead
        M *= 2


def _pow_neg(n: int, s: tuple, wp: int) -> tuple:
    """n^-s = exp(-s ln n) for an int n >= 2 as raw (re, im) at wp bits,
    within (4 |s| ln n + 8) 2^-wp relative: ln n, the two products and
    exp, cos and sin each within an ulp."""
    ln = libmp.mpf_log(libmp.from_int(n), wp)
    re = libmp.mpf_neg(libmp.mpf_mul(s[0], ln, wp))
    if s[1] == libmp.fzero:
        return libmp.mpf_exp(re, wp), libmp.fzero
    return libmp.mpc_exp((re, libmp.mpf_neg(libmp.mpf_mul(s[1], ln, wp))), wp)


def _least_factors(N: int) -> bytearray:
    """f[n] = the least prime factor of a composite n <= N, 0 where n is 1
    or prime: the primes up to isqrt(N), largest first, mark their
    multiples from p^2, so the least one is written last.  Such a factor
    is at most isqrt(N), so it fits a byte while N < 257^2; the head
    budget keeps N <= 2^16."""
    f = bytearray(N + 1)
    for p in range(math.isqrt(N), 1, -1):
        if all(p % d for d in range(2, math.isqrt(p) + 1)):
            f[p * p :: p] = bytes([p]) * len(range(p * p, N + 1, p))
    return f


def _phi_head(s: tuple, N: int, q: int, F: int, wp: int) -> tuple[list[int], list[int], int]:
    """(re, im, err): the sums over n <= N, n = k mod q, of n^-s, k = 0..q-1,
    as ints scaled by 2^F, within err ulps 2^-F together.

    n^-s is completely multiplicative: a prime takes one _pow_neg, a
    composite n = p m (p its least prime factor, so p, m <= N/2) one
    fixed-point product of entries of the table, which keeps n <= N/2
    only.  A prime is within 2 ulps (1/4 from the power at wp, 1 per part
    from truncating to 2^F); with |n^-s| < 1 a product adds the errors of
    its factors and 2 ulps of floors.  So n^-s errs by at most 4 Omega(n)
    - 2 ulps, Omega(n) its prime factors with multiplicity, and the sums,
    exact in ints, by at most the sum of these."""
    half = N // 2
    lpf = _least_factors(N)
    tr, ti, omega = [0] * (half + 1), [0] * (half + 1), bytearray(half + 1)
    re, im = [0] * q, [0] * q
    re[1 % q] = 1 << F
    total = 0  # sum of Omega(n) over 2 <= n <= N
    for n in range(2, N + 1):
        p = lpf[n]
        if p:
            m = n // p
            ar, ai, br, bi = tr[p], ti[p], tr[m], ti[m]
            xr, xi, w = (ar * br - ai * bi) >> F, (ar * bi + ai * br) >> F, omega[m] + 1
        else:
            pr, pi = _pow_neg(n, s, wp)
            xr, xi, w = libmp.to_fixed(pr, F), libmp.to_fixed(pi, F), 1
        if n <= half:
            tr[n], ti[n], omega[n] = xr, xi, w
        total += w
        k = n % q
        re[k] += xr
        im[k] += xi
    return re, im, 4 * total - 2 * (N - 1)


def _phi_tails(s: tuple, q: int, M: int, R: int, F: int, wp: int) -> tuple[list[int], list[int], float]:
    """(re, im, err): q^-s zeta(s, M + r/q) for r = 1..q by Euler-Maclaurin
    to the B_2R term, at index r mod q as ints scaled by 2^F, within err
    ulps together (the remainder is not included).

    With x = M + r/q = n/q, n = qM + r, and t = M/x, the tail is n^-s B,
    B = x/(s-1) + 1/2 + sum_k D_k t^(2k-1), D_k = B_2k/(2k)! (s)_(2k-1)
    M^(1-2k), each computed once per call at wp bits (2k + 1 roundings of
    2^-wp relative) and truncated to 2^F: within 2 ulps.  As M >= 2R and M
    >= 2|s|, |D_1| <= 1/24 and |D_(k+1)/D_k| <= ((|s| + 2k)/(2 pi M))^2 <=
    0.057, so every Horner partial sum h in v = t^2 has |h| < 0.045, and a
    step h v + D_k adds 2 (D_k) + 0.05 (v, 1 ulp) + 1.5 (floors) ulps: the
    sum times t is within 4R ulps.  x/(s-1) errs by x (2 + |1/(s-1)|
    2^(1+F-wp)) + 2 and n^-s by 2 ulps (_phi_head), so the product by 2
    |B| + err(B) + 2."""
    one = 1 << F
    rf, coeffs = s, []
    for k in range(1, R + 1):
        if k > 1:
            pair = libmp.mpc_mul(*(libmp.mpc_add_mpf(s, libmp.from_int(j), wp) for j in (2 * k - 3, 2 * k - 2)), wp)
            rf = libmp.mpc_mul(rf, pair, wp)
        b = bernoulli(2 * k)
        g = libmp.from_rational(b.numerator, b.denominator * math.factorial(2 * k) * M ** (2 * k - 1), wp)
        coeffs.append(tuple(libmp.to_fixed(x, F) for x in libmp.mpc_mul_mpf(rf, g, wp)))
    coeffs.reverse()
    w = libmp.mpc_div((libmp.fone, libmp.fzero), (libmp.mpf_sub(s[0], libmp.fone, wp), s[1]), wp)
    wr, wi = (libmp.to_fixed(x, F) for x in w)
    w_err = 2 + _mag(w, 53) * 2.0 ** (1 + F - wp)
    re, im, err = [0] * q, [0] * q, 0.0
    for r in range(1, q + 1):
        n = q * M + r
        t, v = ((q * M) << F) // n, ((q * M) ** 2 << F) // n**2
        hr, hi = coeffs[0]
        for dr, di in coeffs[1:]:
            hr, hi = (hr * v >> F) + dr, (hi * v >> F) + di
        br = (n * wr) // q + (one >> 1) + (hr * t >> F)
        bi = (n * wi) // q + (hi * t >> F)
        pr, pi = (libmp.to_fixed(x, F) for x in _pow_neg(n, s, wp))
        k = r % q
        re[k] += (pr * br - pi * bi) >> F
        im[k] += (pr * bi + pi * br) >> F
        err += 2 * math.hypot(br / one, bi / one) + n / q * w_err + 4 * R + 4
    return re, im, err


def phi_em(s: Any, alpha: Fraction, cfg: EvalConfig) -> EvalResult:
    """phi(s; alpha) for Re(s) > 1 and alpha = p/q in lowest terms (q = 1
    for 0): sum_{n <= qM} e(n alpha) n^-s (_phi_head) plus q^-s sum_r
    e(r alpha) zeta(s, M + r/q) (_phi_tails), r = 1..q, each class
    weighted once.  Everything is summed in ints scaled by 2^F, F = prec +
    _GUARD_BITS, the libmp steps at wp bits; no mpmath context is built.

    The bound is the roundoff counted in ulps 2^-F, per term: the head's
    per-term count, the tails', and 2 |S_k| + 2 for weighting class sum
    S_k by e(k alpha) (truncated to 2^F, within 2 ulps; exact for q = 1);
    plus q^-Re(s) times the q remainders (_em_remainder) and the final
    rounding to prec bits."""
    prec = cfg.prec
    sv = _raw_number(s, prec)
    sc = complex(libmp.to_float(sv[0]), libmp.to_float(sv[1]))
    if sv == (libmp.fone, libmp.fzero) and alpha == 0:
        raise ValueError("zeta(s) has a pole at s = 1")
    if sc.real <= 1:
        raise ValueError(f"Re(s) > 1 required, got {s!r}")
    q = alpha.denominator
    M, R, lead = _phi_terms(sc, q, prec, cfg.target_tol)
    F = prec + _GUARD_BITS
    # extra bits keep each power, D_k and 1/(s-1) within 1/4 ulp of 2^-F
    wp = F + (int(4 * abs(sc) * math.log(q * M + q)) + 8 * R + 16).bit_length() + 2
    re, im, err = _phi_head(sv, q * M, q, F, wp)
    tr, ti, terr = _phi_tails(sv, q, M, R, F, wp)
    sr, si = [a + b for a, b in zip(re, tr)], [a + b for a, b in zip(im, ti)]
    err += terr
    one, vr, vi = 1 << F, 0, 0
    for k in range(q):
        er, ei = (libmp.to_fixed(x, F) for x in _e_of(alpha * k, F + 8))
        vr += (er * sr[k] - ei * si[k]) >> F
        vi += (er * si[k] + ei * sr[k]) >> F
        err += 2 * math.hypot(sr[k] / one, si[k] / one) + 2
    rem = sum(_em_remainder(lead, sc.real, R, M + r / q) for r in range(1, q + 1)) * q**-sc.real
    value = (libmp.from_man_exp(vr, -F, prec, _RND), libmp.from_man_exp(vi, -F, prec, _RND))
    bound = math.ldexp(err, -F) + rem + _mag(value, prec) * _eps(prec)
    return EvalResult(mp.make_mpf(value[0]) if vi == 0 else mp.make_mpc(value), bound)
