"""Arbitrary-precision evaluation with rigorous error bounds.

Every kernel returns an :class:`EvalResult` whose ``bound`` is a sound
majorant of ``|returned - true|``: truncation tails are bounded by integral
comparison or geometric domination, and floating-point roundoff by the
standard forward-error estimate n * eps * sum(|terms|) (with eps taken at
the working precision).  Bounds are propagated, never estimated, so a loose
bound is acceptable but an invalid one is a bug.

Evaluation routes:

* even zeta values are exact rationals times a power of pi;
* Riemann/Hurwitz zeta by Euler-Maclaurin with the explicit remainder,
  for Re(s) > 1 (absolute convergence; nothing is continued analytically);
* Lerch (periodic zeta) at rational color p/q via the q-term Hurwitz sum;
* trivial-color MZVs by splitting the defining iterated integral at 1/2,
  which turns the value into a short sum of products of multiple
  polylogarithms at 1/2 (geometric convergence, all terms positive).
  These run in fixed point on Python ints scaled by 2^F: every term is
  one floor division, which loses less than one ulp 2^-F and always
  rounds down, so their roundoff is an exact count of ulps, not an
  estimate.  The route never reads or sets mpmath's global precision;
* colored MZVs by truncated nested prefix sums (numpy) with an integral
  tail majorant;
* MT values either through the exact rewriting into MZVs (integer
  exponents) or by direct truncated summation (depth <= 3).
"""

from __future__ import annotations

import functools
import math
import os
import threading
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Any, Sequence

import numpy as np
from mpmath import libmp, mp, mpc, mpf

from .exact import bernoulli
from .mzvconvert import check_mt_convergence, mt_to_mzv
from .symexpr import Atom, EvenZeta, Expr, Lerch, MTValue, MZValue, atom_has_z

__all__ = [
    "EvalConfig",
    "EvalResult",
    "even_zeta_rational",
    "even_zeta",
    "zeta_int",
    "hurwitz_zeta",
    "lerch_phi",
    "mzv_eval",
    "mt_direct",
    "mt_via_mzv",
    "eval_expr",
]

_GUARD_BITS = 16
# Fraction bits of the fixed-point _li_half kernel beyond the working
# precision; they keep its counted roundoff far below eps.
_LI_GUARD_BITS = 48
# Term budget of the truncated-sum routes (colored MZVs, direct MT sums).
_MAX_TERMS = 4_000_000
# Largest precision_bits whose bound terms stay normal floats.  The
# smallest scale any bound term carries is the ulp 2^-F of _li_half, with
# F = precision_bits + _GUARD_BITS + _LI_GUARD_BITS (eps and the 2^-M of
# its truncation are larger), and normal doubles reach down to 2^-1022.
_MAX_PRECISION_BITS = 1022 - _GUARD_BITS - _LI_GUARD_BITS


@dataclass(frozen=True)
class EvalConfig:
    """Working precision and truncation targets for the numeric kernels."""

    precision_bits: int = 256
    target_tol: float = 1e-32

    def __post_init__(self) -> None:
        if not 64 <= self.precision_bits <= _MAX_PRECISION_BITS:
            raise ValueError(f"precision_bits must be in [64, {_MAX_PRECISION_BITS}]")
        if not self.target_tol > 0:
            raise ValueError("target_tol must be positive")


DEFAULT_CONFIG = EvalConfig()


@dataclass(frozen=True)
class EvalResult:
    """A complex value at working precision plus a sound error majorant."""

    value: Any
    bound: float

    def __repr__(self) -> str:
        return f"EvalResult({mp.nstr(mpc(self.value), 20)}, bound={self.bound:.3e})"


def _ev_mul(a: EvalResult, b: EvalResult) -> EvalResult:
    va, vb = mpc(a.value), mpc(b.value)
    bound = float(abs(va)) * b.bound + float(abs(vb)) * a.bound + a.bound * b.bound
    return EvalResult(va * vb, bound)


def _ev_scale(c: Fraction, a: EvalResult) -> EvalResult:
    return EvalResult(mpc(a.value) * mpf(c.numerator) / mpf(c.denominator), abs(float(c)) * a.bound)


def _eps(prec: int) -> float:
    return math.ldexp(1.0, 1 - prec)


# mpmath's global precision state is not safe under concurrent mutation;
# every kernel that touches it runs under this lock.
_mp_lock = threading.RLock()


@functools.cache
def _pi(prec: int):
    with mp.workprec(prec):
        return +mp.pi


def _e_of(x: Fraction, prec: int):
    """e(x) = exp(2 pi i x) for exact rational x."""
    with mp.workprec(prec):
        return mp.expjpi(2 * mpf(x.numerator) / mpf(x.denominator))


def _to_mp(s: Any):
    """Exact conversion of supported scalar types to mpf/mpc."""
    if isinstance(s, Fraction):
        return mpf(s.numerator) / mpf(s.denominator)
    if isinstance(s, (int, float)):
        return mpf(s)
    return mpc(s)


# ---------------------------------------------------------------------------
# zeta at integers


def even_zeta_rational(n: int) -> Fraction:
    """Exact rational r with zeta(n) = r * pi^n for even n >= 0."""
    if n < 0 or n % 2:
        raise ValueError(f"even non-negative argument required, got {n}")
    if n == 0:
        return Fraction(-1, 2)
    return abs(bernoulli(n)) * Fraction(2 ** (n - 1), math.factorial(n))


def even_zeta(n: int, cfg: EvalConfig = DEFAULT_CONFIG) -> EvalResult:
    prec = cfg.precision_bits + _GUARD_BITS
    with _mp_lock, mp.workprec(prec):
        r = even_zeta_rational(n)
        value = mpf(r.numerator) / mpf(r.denominator) * _pi(prec) ** n
        return EvalResult(value, float(abs(value)) * (n + 4) * _eps(prec))


def zeta_int(n: int, cfg: EvalConfig = DEFAULT_CONFIG) -> EvalResult:
    """zeta(n) for integer n >= 2 (even: closed form; odd: Euler-Maclaurin)."""
    if n % 2 == 0:
        return even_zeta(n, cfg)
    return hurwitz_zeta(n, Fraction(1), cfg)


# ---------------------------------------------------------------------------
# Hurwitz zeta by Euler-Maclaurin


def hurwitz_zeta(
    s: Any, a: Fraction = Fraction(1), cfg: EvalConfig = DEFAULT_CONFIG
) -> EvalResult:
    """zeta(s, a) = sum_{j>=0} (j+a)^{-s} for Re(s) > 1, 0 < a <= 1.

    Euler-Maclaurin with the classical remainder control: after the B_{2R}
    correction term, the error is at most the first omitted term times
    |s+2R+1|/(Re(s)+2R+1).
    """
    a = Fraction(a)
    if not 0 < a <= 1:
        raise ValueError(f"need 0 < a <= 1, got {a}")
    prec = cfg.precision_bits + _GUARD_BITS
    with _mp_lock, mp.workprec(prec):
        sv = _to_mp(s)
        sig = float(mp.re(sv))
        if sv == 1:
            raise ValueError("zeta(s, a) has a pole at s = 1")
        if sig <= 1:
            raise ValueError(f"Re(s) > 1 required, got {s!r}")
        av = mpf(a.numerator) / mpf(a.denominator)
        R = max(12, prec // 6)
        target = max(cfg.target_tol / 8, 4.0 * _eps(prec))
        M = max(32, 2 * R, int(2 * abs(complex(sv))) + 8)
        # in mpf: B_{2R+2}, (2R+2)! and the rising factorial leave float
        # range once 2R+2 >= 171, though the remainder itself is small
        b_next = bernoulli(2 * R + 2)
        ratio = abs(mpf(b_next.numerator) / b_next.denominator) / mp.factorial(2 * R + 2)
        for _ in range(40):
            x = M + av
            t_next = ratio * abs(mp.rf(sv, 2 * R + 1)) * x ** mpf(-sig - 2 * R - 1)
            rem = float(t_next * abs(sv + 2 * R + 1) / (sig + 2 * R + 1))
            if rem <= target or M > 1 << 22:
                break
            M *= 2
        x = M + av
        head = sum((j + av) ** (-sv) for j in range(M))
        mag = sum(float((j + av) ** (-sig)) for j in range(M))
        tail = x ** (1 - sv) / (sv - 1) + x ** (-sv) / 2
        mag += float(abs(tail))
        corr = mpc(0)
        for r in range(1, R + 1):
            b = bernoulli(2 * r)
            term = (
                mpf(b.numerator)
                / mpf(b.denominator)
                / math.factorial(2 * r)
                * mp.rf(sv, 2 * r - 1)
                * x ** (-sv - 2 * r + 1)
            )
            corr += term
            mag += float(abs(term))
        value = head + tail + corr
        roundoff = 8 * (M + R) * _eps(prec) * mag
        if mp.im(value) == 0:
            value = mp.re(value)
        return EvalResult(value, rem + roundoff)


def lerch_phi(
    s: Any, alpha: Fraction, cfg: EvalConfig = DEFAULT_CONFIG
) -> EvalResult:
    """phi(s, alpha) = sum_{m>=1} e(m alpha)/m^s for rational alpha and
    Re(s) > 1.

    Computed as q^{-s} * sum_{a=1}^{q} e(a p/q) zeta(s, a/q) with q the
    reduced denominator; trivial color is plain zeta.
    """
    alpha = Fraction(alpha) % 1
    if alpha == 0:
        return hurwitz_zeta(s, Fraction(1), cfg)
    prec = cfg.precision_bits + _GUARD_BITS
    q = alpha.denominator
    with _mp_lock, mp.workprec(prec):
        sv = _to_mp(s)
        total = mpc(0)
        bound = 0.0
        for r in range(1, q + 1):
            hz = hurwitz_zeta(sv, Fraction(r, q), cfg)
            phase = _e_of(alpha * r, prec)
            total += phase * mpc(hz.value)
            bound += hz.bound + float(abs(mpc(hz.value))) * 4 * _eps(prec)
        scale = q ** (-sv)
        value = scale * total
        smag = float(abs(scale))
        return EvalResult(value, smag * bound + float(abs(value)) * (q + 8) * _eps(prec))


# ---------------------------------------------------------------------------
# trivial-color MZVs via the iterated-integral split at 1/2

def _word_to_exponents(word: tuple[int, ...]) -> tuple[int, ...]:
    assert word and word[-1] == 1
    exps = []
    run = 0
    for c in word:
        if c == 0:
            run += 1
        else:
            exps.append(run + 1)
            run = 0
    return tuple(exps)


# Level arrays of the _li_half calls inside one _mzv_split_half call, keyed
# by (exponent suffix, M).  The split sets a fresh dict and drops it when it
# returns; _li_half stays a plain function of (word, prec) for its cache.
_split_levels: ContextVar[dict | None] = ContextVar("_split_levels", default=None)


def _inner_levels(exps: tuple[int, ...], M: int, F: int, levels: dict) -> list[int]:
    """2^F * sum_{m > n_2 > ... > n_d >= 1} prod_{i>=2} n_i^{-e_i} for
    m = 0..M, built level by level from the longest suffix in ``levels``."""
    i = 1
    while i < len(exps) and (exps[i:], M) not in levels:
        i += 1
    inner = levels.get((exps[i:], M)) or [1 << F] * (M + 1)
    for j in range(i - 1, 0, -1):
        e = exps[j]
        # new[m] = sum over n < m of inner[n] // n^e
        inner = [0, 0, *accumulate(inner[n] // n**e for n in range(1, M))]
        levels[(exps[j:], M)] = inner
    return inner


@functools.cache
def _li_half(word: tuple[int, ...], prec: int) -> tuple[int, float]:
    """Multiple polylogarithm at 1/2 for a {0,1} word ending in 1:

        Li(word) = sum_{n_1 > ... > n_d >= 1} 2^{-n_1} / prod n_i^{e_i},

    returned as (V, bound) with V an int, |Li - V 2^-F| <= bound and
    F = prec + _LI_GUARD_BITS.

    The sum is truncated at n_1 <= M and computed in fixed point: each
    term is one floor division of an int scaled by 2^F, which loses less
    than one ulp 2^-F and rounds down.  The prefix-sum level of exponent
    e_j adds fewer than M - 1 ulps and carries the error of the level
    below times at most S(e_j) = sum_{n<M} n^-e_j, which is below
    s1 = floor(ln M) + 2 for e_j = 1 and below 2 otherwise; the outer sum
    adds fewer than M more.  So the roundoff is below ulps * 2^-F, where
    ulps = M + delta_2, delta_{d+1} = 0 and delta_j = M - 1 + S(e_j)
    delta_{j+1}, an exact integer count.
    """
    F = prec + _LI_GUARD_BITS
    if not word:
        return (1 << F, 0.0)
    exps = _word_to_exponents(word)
    d = len(exps)
    M = max(prec + 24, 4 * d + 16)
    levels = _split_levels.get()
    inner = _inner_levels(exps, M, F, {} if levels is None else levels)
    e0 = exps[0]
    total = sum(inner[m] // (m**e0 << m) for m in range(1, M + 1))
    # tail: 2^{-m} m^{d-1} decays geometrically with ratio <= 0.65
    # once m >= 4(d-1), which M satisfies
    trunc = 2.0 * 2.0 ** (-M) * float(M + 1) ** (d - 1)
    s1 = int(math.log(M)) + 2
    ulps = 0
    for e in reversed(exps[1:]):
        ulps = M - 1 + (s1 if e == 1 else 2) * ulps
    ulps += M
    return (total, trunc + math.ldexp(ulps, -F))


def _mzv_word(exps: Sequence[int]) -> tuple[int, ...]:
    word: list[int] = []
    for s in exps:
        word.extend([0] * (s - 1) + [1])
    return tuple(word)


def _mzv_split_half(exps: Sequence[int], cfg: EvalConfig) -> EvalResult:
    """zeta(exps) = sum over splits of the word w = uv of
    Li(dual(reverse(u))) * Li(v), both at 1/2.

    The products are summed exactly as ints scaled by 2^(2F) and rounded
    to the working precision once, so the only roundoff beyond the
    _li_half bounds is that last rounding."""
    prec = cfg.precision_bits + _GUARD_BITS
    F = prec + _LI_GUARD_BITS
    one = 1 << F
    word = _mzv_word(exps)
    total = 0
    bound = 0.0
    token = _split_levels.set({})
    try:
        for cut in range(len(word) + 1):
            left = tuple(1 - c for c in reversed(word[:cut]))
            lv, lb = _li_half(left, prec)
            rv, rb = _li_half(word[cut:], prec)
            total += lv * rv
            bound += lv / one * rb + rv / one * lb + lb * rb
    finally:
        _split_levels.reset(token)
    value = mp.make_mpf(libmp.from_man_exp(total, -2 * F, prec, "n"))
    return EvalResult(value, bound + float(value) * _eps(prec))


# ---------------------------------------------------------------------------
# colored MZVs by truncated prefix sums


def _log_tail_integral(sigma: float, p: int, N: int) -> float:
    """Upper bound for the integral over [N, inf) of x^(-sigma) (1+ln x)^p dx,
    finite for sigma > 1 (exact recursion in p after u = ln x)."""
    a = sigma - 1.0
    if a <= 0:
        return math.inf
    L = math.log(N)
    e = math.exp(-a * L)
    out = e / a  # p = 0
    for j in range(1, p + 1):
        out = (1.0 + L) ** j * e / a + (j / a) * out
    return out


def _phase_array(m: np.ndarray, color: Fraction) -> np.ndarray:
    if color == 0:
        return np.ones(len(m))
    q = color.denominator
    roots = np.exp(2j * np.pi * (color.numerator % q) * np.arange(q) / q)
    return roots[np.mod(m, q)]


def _mzv_colored_dp(
    exps: Sequence[int], colors: Sequence[Fraction], cfg: EvalConfig
) -> EvalResult:
    k = len(exps)
    s1 = exps[0]
    if s1 < 2:
        raise ValueError("colored MZV evaluation needs leading exponent >= 2")
    target = max(cfg.target_tol, 1e-13)
    N = 64
    nmax = max(1024, _MAX_TERMS // max(k, 1))
    while _log_tail_integral(s1, k - 1, N) > target and N < nmax:
        N *= 2
    N = min(N, nmax)
    m = np.arange(1, N + 1)
    mm = m.astype(np.float64)
    acc = None
    for e, g in zip(reversed(tuple(exps)), reversed(tuple(colors))):
        base = mm ** float(-e) * _phase_array(m, g)
        if acc is None:
            acc = base
        else:
            inner = np.concatenate(([0.0], np.cumsum(acc)[:-1]))
            acc = base * inner
    value = complex(np.sum(acc))
    trunc = _log_tail_integral(s1, k - 1, N)
    eps = 2.0 ** -52
    s_abs = float(np.sum(np.abs(acc)))
    damped = float(np.sum(mm ** (1.0 - s1) * (1.0 + np.log(mm)) ** (k - 1)))
    roundoff = eps * ((2 * math.log2(N) + 8) * s_abs + 2 * k * damped)
    return EvalResult(mpc(value), trunc + roundoff)


def mzv_eval(
    exps: Sequence[int],
    colors: Sequence[Fraction] | None = None,
    cfg: EvalConfig = DEFAULT_CONFIG,
) -> EvalResult:
    """Evaluate a (colored) MZV, leading slot first.

    Trivial colors go through the exact integral-splitting route (full
    working precision); nontrivial colors through truncated prefix sums
    with an integral tail majorant (double precision, bound-reported).
    """
    exps = tuple(exps)
    if colors is None:
        colors = (Fraction(0),) * len(exps)
    cols = tuple(Fraction(c) % 1 for c in colors)
    if len(exps) != len(cols):
        raise ValueError("exponent/color length mismatch")
    if any(not isinstance(e, int) or e < 1 for e in exps):
        raise ValueError(f"integer exponents >= 1 required, got {exps}")
    if exps[0] < 2:
        raise ValueError(
            f"leading exponent must be >= 2 for evaluation, got {exps}"
        )
    if len(exps) == 1:
        if cols[0] == 0:
            return zeta_int(exps[0], cfg)
        return lerch_phi(exps[0], cols[0], cfg)
    if all(c == 0 for c in cols):
        return _mzv_split_half(exps, cfg)
    return _mzv_colored_dp(exps, cols, cfg)


# ---------------------------------------------------------------------------
# MT values: conversion route and direct truncated summation


def mt_via_mzv(
    exps: Sequence[int],
    colors: Sequence[Fraction] | None = None,
    cfg: EvalConfig = DEFAULT_CONFIG,
) -> EvalResult:
    """MT value with integer exponents via the exact rewriting into MZVs."""
    combo = mt_to_mzv(exps, colors)
    return eval_expr(combo, cfg=cfg)


def _mt_tail(sigmas: Sequence[float], sigma_tot: float, N: int) -> float:
    """Majorant for the part of an MT sum where some index exceeds N.

    Uses (sum m)^sigma_tot >= m_i^(sigma_tot/2) * (sum_others)^(sigma_tot/2)
    and AM-GM on the remaining factor; crude but sound, and recursive in
    the depth.
    """
    k = len(sigmas)
    if k == 1:
        s = sigmas[0] + sigma_tot
        return N ** (1.0 - s) / (s - 1.0)
    total = 0.0
    for i, si in enumerate(sigmas):
        others = [s for j, s in enumerate(sigmas) if j != i]
        dec = si + sigma_tot / 2.0
        head = N ** (1.0 - dec) / (dec - 1.0)
        z = 1.0
        for so in others:
            x = so + sigma_tot / (2.0 * (k - 1))
            z *= 1.0 + 1.0 / (x - 1.0)  # zeta(x) <= 1 + 1/(x-1)
        total += head * z
    return total


def mt_direct(
    exps: Sequence[Any],
    colors: Sequence[Fraction] | None = None,
    cfg: EvalConfig = DEFAULT_CONFIG,
) -> EvalResult:
    """Direct truncated summation of an MT value of depth <= 3.

    Exponents may be non-integer (one complex slot is the normal use);
    absolute convergence is required.  The truncation N is the first power
    of two whose tail majorant meets the target, capped so that N^depth
    stays within the term budget.  The tail majorant is weak for small
    exponents, which is the honest price of the direct route.
    """
    exps = tuple(exps)
    k = len(exps) - 1
    if k < 1:
        if colors is None:
            colors = (Fraction(0),)
        return lerch_phi(exps[0], Fraction(colors[0]), cfg)
    if k > 3:
        raise ValueError("direct summation supports depth <= 3; convert instead")
    if colors is None:
        colors = (Fraction(0),) * (k + 1)
    cols = tuple(Fraction(c) % 1 for c in colors)
    check_mt_convergence(exps)
    sigmas = [complex(e).real for e in exps[:-1]]
    sig_tot = complex(exps[-1]).real

    N = 64
    cap = max(64, int(_MAX_TERMS ** (1.0 / k)))
    while _mt_tail(sigmas, sig_tot, N) > cfg.target_tol and N < cap:
        N *= 2
    N = min(N, cap)

    m = np.arange(1, N + 1)
    axes = []
    for j in range(k):
        shape = [1] * k
        shape[j] = N
        e = exps[j]
        base = m.astype(np.float64) ** float(-complex(e).real)
        if complex(e).imag:
            base = base * np.exp(-1j * complex(e).imag * np.log(m))
        axes.append((base * _phase_array(m, cols[j])).reshape(shape))

    chunk = max(1, min(N, int(2e7) // max(N ** (k - 1), 1)))
    total = 0j
    abs_total = 0.0
    e_last = exps[-1]
    for lo in range(0, N, chunk):
        hi = min(N, lo + chunk)
        idx = [slice(None)] * k
        idx[0] = slice(lo, hi)
        part = axes[0][tuple(idx)]
        prod = part
        for j in range(1, k):
            prod = prod * axes[j]
        tot = m[lo:hi].reshape([-1] + [1] * (k - 1))
        for j in range(1, k):
            shape = [1] * k
            shape[j] = N
            tot = tot + m.reshape(shape)
        tfac = tot.astype(np.float64) ** float(-complex(e_last).real)
        if complex(e_last).imag:
            tfac = tfac * np.exp(-1j * complex(e_last).imag * np.log(tot))
        if cols[-1] != 0:
            tfac = tfac * _phase_array(tot.ravel(), cols[-1]).reshape(tot.shape)
        term = prod * tfac
        total += complex(np.sum(term))
        abs_total += float(np.sum(np.abs(term)))

    trunc = _mt_tail(sigmas, sig_tot, N)
    roundoff = 2.0 ** -52 * (2 * k * math.log2(max(N, 2)) + 8) * abs_total
    return EvalResult(mpc(total), trunc + roundoff)


# ---------------------------------------------------------------------------
# whole-expression evaluation


@functools.cache
def _eval_atom(a: Atom, cfg: EvalConfig) -> EvalResult:
    if isinstance(a, EvenZeta):
        return even_zeta(a.n, cfg)
    if atom_has_z(a):
        raise ValueError("unsubstituted z")
    if isinstance(a, Lerch):
        return lerch_phi(a.exp.const, a.color, cfg)
    if isinstance(a, MZValue):
        exps = tuple(e.const for e in a.exps)
        if not all(isinstance(e, int) for e in exps):
            raise ValueError(f"MZV evaluation needs integer exponents: {a}")
        return mzv_eval(exps, a.colors, cfg)
    if isinstance(a, MTValue):
        exps = tuple(e.const for e in a.exps)
        if all(isinstance(e, int) and e >= 1 for e in exps):
            return mt_via_mzv(exps, a.colors, cfg)
        return mt_direct(exps, a.colors, cfg)
    raise TypeError(f"cannot evaluate atom {a!r}")


def _threads() -> int:
    try:
        return max(1, int(os.environ.get("THREADS", "1")))
    except ValueError:
        return 1


def eval_expr(
    e: Expr, z0: Any = None, cfg: EvalConfig = DEFAULT_CONFIG
) -> EvalResult:
    """Evaluate an expression: substitute z (if present), evaluate each
    distinct atom once, and combine with first-order error propagation.

    Per-atom failures are re-raised with the offending atom named.
    """
    if z0 is not None:
        e = e.substitute(z0)
    terms = list(e.items())
    distinct = {a for atoms, _ in terms for a in atoms}

    results: dict[Atom, EvalResult] = {}

    def _run(a: Atom) -> None:
        try:
            results[a] = _eval_atom(a, cfg)
        except ValueError as exc:
            raise ValueError(f"cannot evaluate {a}: {exc}") from exc

    nthreads = _threads()
    if nthreads > 1 and len(distinct) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=nthreads) as pool:
            list(pool.map(_run, distinct))
    else:
        for a in distinct:
            _run(a)

    prec = cfg.precision_bits + _GUARD_BITS
    with _mp_lock, mp.workprec(prec):
        total = EvalResult(mpc(0), 0.0)
        for atoms, coeff in terms:
            term = EvalResult(mpc(1), 0.0)
            for a in atoms:
                term = _ev_mul(term, results[a])
            term = _ev_scale(coeff, term)
            total = EvalResult(
                mpc(total.value) + mpc(term.value), total.bound + term.bound
            )
        value = mpc(total.value)
        if mp.im(value) == 0:
            value = mp.re(value)
        return EvalResult(value, total.bound + float(abs(value)) * 8 * _eps(prec))
