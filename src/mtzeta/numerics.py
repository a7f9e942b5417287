"""Arbitrary-precision evaluation with rigorous error bounds.

Every kernel returns an :class:`EvalResult` whose ``bound`` is a sound
majorant of ``|returned - true|``: truncation tails are bounded by integral
comparison or geometric domination, and floating-point roundoff by the
standard forward-error estimate n * eps * sum(|terms|) (with eps taken at
the working precision).  Bounds are propagated, never estimated, so a loose
bound is acceptable but an invalid one is a bug.

Evaluation routes:

* even zeta values are exact rationals times a power of pi;
* phi (periodic zeta, the depth-1 MZV) at rational color p/q and a
  non-integer exponent (a substituted complex z), trivial color included,
  for Re(s) > 1 (absolute convergence; nothing is continued analytically):
  the head n <= qM in fixed point, one libmp power per prime and one
  product per composite, then q Euler-Maclaurin tails zeta(s, M + r/q),
  one per residue class, from one coefficient table (periodic.phi_em);
* MZVs of every depth and color with integer exponents, the depth-1 values
  (phi at integers and odd zeta(n)) included, by splitting the iterated
  integral at 1/p into products of geometrically convergent nested sums,
  in fixed point on ints scaled by 2^F: roundoff is a count of ulps 2^-F;
* MT values either through the exact rewriting into MZVs (integer
  exponents) or, at depth >= 2 with a non-integer slot, by direct
  truncated summation (mt_direct, the one route that loads numpy, on
  first use) as one-dimensional float64 convolutions over the totals.

_route picks each atom's route, and _eval_atom, which evaluates every atom
of eval_expr and of the CLI's ``eval``, takes it.  Negating every color of
a value with real exponents conjugates it, so of two such MZV (phi at
depth 1) or MT atoms with integer exponents only the one with the smaller
key is evaluated; the other gets the exact conjugate and the same bound.

Every value is computed at an explicit precision (libmp calls on raw
tuples, fixed point or float64; no mpmath context is built): mpmath's
global precision is never read or set, so no result depends on the
caller's mp.prec and no kernel takes a lock.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, count, islice
from operator import floordiv, rshift
from typing import Any, Iterable, Sequence

from mpmath import libmp, mp, mpc

from .exact import bernoulli
from .mzvconvert import check_mt_convergence, mt_to_mzv
from .symexpr import Atom, Expr, MZValue, _by_key, _canon_color, mt_value, mzv

__all__ = [
    "EvalConfig",
    "EvalResult",
    "even_zeta_rational",
    "even_zeta",
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
# Term budget of the truncated-sum routes (split factors, direct MT sums).
_MAX_TERMS = 4_000_000
# Budget of Euler-Maclaurin head terms: the qM of one phi at a non-integer
# exponent (periodic.phi_em), mostly fixed-point products, 0.4 to 0.8 s on
# one x86-64 core at 64 to 256 bits and 2.8 s at 958.  phi(4.5; 1/500)
# needs 500 x 90 at 256.
_MAX_HEAD_TERMS = 1 << 16
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

    @property
    def prec(self) -> int:
        """The working precision of every kernel: precision_bits + _GUARD_BITS."""
        return self.precision_bits + _GUARD_BITS


DEFAULT_CONFIG = EvalConfig()


@dataclass(frozen=True)
class EvalResult:
    """A complex value at working precision plus a sound error majorant."""

    value: Any
    bound: float

    def __repr__(self) -> str:
        return f"EvalResult({mp.nstr(self.value, 20)}, bound={self.bound:.3e})"


def _eps(prec: int) -> float:
    return math.ldexp(1.0, 1 - prec)


_RND = libmp.round_nearest


def _parts(v: Any, prec: int) -> tuple:
    """Raw (re, im) of an mpf or mpc v, each rounded to prec bits, as mpc(v)
    makes them at that precision."""
    re, im = v._mpc_ if hasattr(v, "_mpc_") else (v._mpf_, libmp.fzero)
    return libmp.mpf_pos(re, prec, _RND), libmp.mpf_pos(im, prec, _RND)


def _mag(z: tuple, prec: int) -> float:
    """|z| of raw (re, im) rounded to prec bits, then to the nearest float, as
    float(abs(mpc)) gives it at that precision."""
    return libmp.to_float(libmp.mpc_abs(z, prec, _RND), rnd=_RND)


def _e_of(x: Fraction, prec: int) -> tuple:
    """e(x) = exp(2 pi i x) for exact rational x as raw (re, im) at prec bits.
    x is reduced mod 1 exactly first, so 2x in [0, 2) rounds to within
    2^-prec whatever |x|: each part errs by at most pi + 1 units of 2^-prec."""
    x = _canon_color(x)
    return libmp.mpf_cos_sin_pi(libmp.from_rational(2 * x.numerator, x.denominator, prec, _RND), prec, _RND)


# ---------------------------------------------------------------------------
# depth 1: even zeta(n) and phi


def even_zeta_rational(n: int) -> Fraction:
    """Exact rational r with zeta(n) = r * pi^n for even n >= 0."""
    if n < 0 or n % 2:
        raise ValueError(f"even non-negative argument required, got {n}")
    if n == 0:
        return Fraction(-1, 2)
    return abs(bernoulli(n)) * Fraction(2 ** (n - 1), math.factorial(n))


def even_zeta(n: int, cfg: EvalConfig = DEFAULT_CONFIG) -> EvalResult:
    prec = cfg.prec
    r = even_zeta_rational(n)
    num, den = (libmp.from_int(x, prec, _RND) for x in (r.numerator, r.denominator))
    pi_n = libmp.mpf_pow_int(libmp.mpf_pi(prec, _RND), n, prec, _RND)
    value = libmp.mpf_mul(libmp.mpf_div(num, den, prec, _RND), pi_n, prec, _RND)
    return EvalResult(mp.make_mpf(value), _mag((value, libmp.fzero), prec) * (n + 4) * _eps(prec))


def lerch_phi(
    s: Any, alpha: Fraction, cfg: EvalConfig = DEFAULT_CONFIG
) -> EvalResult:
    """phi(s, alpha) = sum_{m>=1} e(m alpha)/m^s for rational alpha and
    Re(s) > 1.

    An int s >= 2 makes the depth-1 MZV zeta(s; alpha), which _mzv_split
    evaluates at a cost set by the distance of alpha from 0, not by its
    denominator (even zeta(s) keeps its closed form).  Any other s, such
    as a substituted complex z, takes periodic.phi_em: with q the reduced
    denominator (1 for trivial color), the head n <= qM in fixed point,
    then q Euler-Maclaurin tails zeta(s, M + r/q), one per residue class.
    """
    alpha = _canon_color(alpha)
    if isinstance(s, int) and s >= 2:
        return even_zeta(s, cfg) if alpha == 0 and s % 2 == 0 else _mzv_split((s,), (alpha,), cfg)
    from .periodic import phi_em  # loaded on first use (see periodic)

    return phi_em(s, alpha, cfg)


# ---------------------------------------------------------------------------
# MZVs of depth >= 2 via the iterated-integral split at 1/p

def _word_to_exponents(word: tuple) -> tuple[int, ...]:
    assert word and word[-1] != 0
    at = [i for i, c in enumerate(word) if c != 0]
    return tuple(b - a for a, b in zip([-1, *at], at))


class _Letter:
    """A letter y of a split word: y = x e(g), or x (1 - e(g)) if dual, g = 0
    for a real y = x.  _letter builds one per (x, g, dual), and it has no
    __eq__ or __hash__, so the kernel's memos key words on letter identity.
    It holds its modulus, a rational lower bound for |y| (x, or x min(1,
    |1 - e(g)|) if dual), its reciprocal at each scale 2^F asked for (one
    per working precision), and whether it is the letter 2, whose levels
    _inner_levels defers (decided from the value: the LRU may build a
    letter twice)."""

    def __init__(self, x, g, dual: bool):
        self.x, self.g, self.dual = x, g, dual
        self.deferred = (x, g, dual) == (2, 0, False)
        h = min(g, 1 - g)
        self.modulus = x
        if dual and h < Fraction(1, 6):
            self.modulus = x * Fraction(math.floor(2 * math.sin(math.pi * h) * (1 - 2.0**-40) * 2**16), 2**16)
        self._recips = {}

    def recip(self, F: int) -> tuple[int, int | None]:
        """1/y as ints (re, im) scaled by 2^F (im None if y is real), each one
        floor of a rational or of a libmp value good to 2^-(F+12): within 2
        ulps."""
        if F in self._recips:
            return self._recips[F]
        x, g, dual = self.x, self.g, self.dual
        if not g:
            u = (x.denominator << F) // x.numerator, None
        else:
            wp = F + 16
            c, s = libmp.mpf_cos_sin_pi(libmp.from_rational(g.numerator << (not dual), g.denominator, wp), wp)
            w = libmp.from_rational(x.denominator, x.numerator, wp)
            if dual:  # 1/(1 - e(g)) = (1 + i cot(pi g)) / 2
                re, im = libmp.mpf_shift(w, -1), libmp.mpf_mul(libmp.mpf_shift(w, -1), libmp.mpf_div(c, s, wp), wp)
            else:  # 1/e(g) = e(-g)
                re, im = libmp.mpf_mul(w, c, wp), libmp.mpf_neg(libmp.mpf_mul(w, s, wp))
            u = libmp.to_fixed(re, F), libmp.to_fixed(im, F)
        self._recips[F] = u  # another thread may have computed the same u
        return u


# the one maker of letters, 1,024 entries: one colored-characters case list
# (seed 7) builds 32 letters, one paper-decimals list 1
_letter = functools.lru_cache(maxsize=1 << 10)(_Letter)


def _telescope(tr: list[int], ti: list[int] | None, err: float, y, F: int):
    """Level of letter y over terms T(n) = tr[n] + i ti[n] (n < M) within err
    ulps: Q(0) = 0, Q(n+1) = u (Q(n) + T(n)), u = 1/y.  A step damps the
    error by |u| < 1, adding 2 ulps of floors and 2 of u times |Q + T|."""
    ur, ui = y.recip(F)
    rho = float(1 / y.modulus) + 2.0 ** (2 - F)
    mag = (max(map(abs, tr)) + max(map(abs, ti or [0]))) / (1 << F) + math.ldexp(err, -F)
    err = (rho * err + 2 * mag / (1 - rho) + 2) / (1 - rho)
    if not ui:  # a real u keeps the two parts apart
        step = lambda q, t: (q + t) * ur >> F
        outr = list(accumulate(tr, step, initial=0))
        if ti is None and ui is None:
            return outr, None, False, err
        return outr, list(accumulate(ti, step, initial=0)) if ti else [0] * len(outr), False, err
    qr, qi = 0, 0
    outr, outi = [0], [0]
    for x, z in zip(tr, ti or [0] * len(tr)):
        x, z = x + qr, z + qi
        qr, qi = (x * ur - z * ui) >> F, (x * ui + z * ur) >> F
        outr.append(qr)
        outi.append(qi)
    return outr, outi, False, err


# 64 entries of M ints of e log2 M bits: one colored-characters case list
# (seed 7) fills 31, one paper-decimals list 11
@functools.lru_cache(maxsize=64)
def _powers(e: int, M: int) -> tuple[int, ...]:
    """(1^e, 2^e, ..., M^e): the divisors of a level's terms."""
    return tuple(n**e for n in range(1, M + 1))


# The split kernel's level states, one per (word suffix from a letter, M,
# F), at most 64 of them, the least recently used dropped first.  A state
# is fixed by its key, so it outlives the evaluation that built it.  It is
# M + 1 ints of about F bits (two such lists if a letter is not real): 64
# of them held 0.9 MB after verify --s 4,4,4,4 --alpha 1/3 at 128 bits and
# 12 MB after verify --s 2,2,2 --alpha 1/3 at 958, the peak that one
# evaluation reached when each evaluation had its own table.  The bound
# counts states, not bytes: M, and so a state, grows as the smallest letter
# modulus nears 1, up to the _MAX_TERMS budget.  _level only
# hands out slots and never calls itself: _inner_levels builds each state
# from the state inside it, which it holds, so a state that another thread
# evicts between two calls costs one rebuild, not a recursion down the
# word.  One colored-characters case list (seed 7, 128 bits) fills all 64
# and telescopes 1,048 levels.
@functools.lru_cache(maxsize=64)
def _level(suffix: tuple, M: int, F: int) -> list:
    """The slot of the level state of suffix at (M, F): empty until
    _inner_levels puts the state in it."""
    return []


def _inner_levels(word: tuple, exps: tuple[int, ...], M: int, F: int):
    """State (re, im, deferred, err) of P(n) = sum_{n > n_2 > ... > n_d}
    prod_j y_j^-(n_j - n_(j+1)) prod_{j>=2} n_j^-e_j, n = 0..M, built level
    by level from the last letter: each level's state is read from its
    _level slot, or built from the state inside it and kept there.  While
    every letter so far is 2, P(n) = 2^-n re[n] is deferred, re is a plain
    prefix sum and its error is at most err * n ulps at n; otherwise err is
    uniform."""
    one = 1 << F
    at = [end - 1 for end in accumulate(exps)]  # where each letter sits
    for j in range(len(at) - 1, -1, -1):
        slot = _level(word[at[j] :], M, F)
        if slot:
            st = slot[0]
            continue
        y = word[at[j]]
        if j == len(at) - 1:  # P(n) = y^-n for the last letter y
            st = ([one] * (M + 1), None, True, 0) if y.deferred else _telescope([one, *[0] * (M - 1)], None, 0, y, F)
        else:
            re, im, deferred, err = st
            pw = _powers(exps[j + 1], M)  # n^e at pw[n - 1]
            if deferred and y.deferred:
                # new[m] = sum over n < m of re[n] // n^e: m - 1 floors, and
                # errors err * n / n^e <= err, so (err + 1) m ulps in all
                re = [0, 0, *accumulate(map(floordiv, islice(re, 1, M), pw))]
                st = (re, None, True, err + 1)
            else:
                if deferred:  # err * n / 2^n <= err / 2, and one floor
                    re, err = list(map(rshift, re, range(M + 1))), err / 2 + 1
                tr, ti = ([0, *map(floordiv, islice(x, 1, M), pw)] if x else None for x in (re, im))
                st = _telescope(tr, ti, err + 2, y, F)
        slot[:] = [st]  # another thread may have built the same state
    return st


def _li_terms(letters: Iterable[_Letter], d: int, prec: int) -> tuple[int, Fraction | int]:
    """(M, R) of _li_half at prec for a word of d letters other than 0, each
    one of ``letters``: R the smallest letter modulus, M the terms per
    level.  Raises ValueError when M times d passes _MAX_TERMS."""
    R = min(y.modulus for y in letters)
    # the floor, 4d + 16 rounded up to a power of two, keeps rho < 1; a
    # power of two, so that the deep cuts of one evaluation share levels
    M = max(math.ceil((prec + 24) / math.log2(R)), 1 << (4 * d + 15).bit_length())
    if M * d > _MAX_TERMS:
        raise ValueError(f"a letter of modulus {float(R):.8g} needs {M} terms per level")
    return M, R


# 16,384 entries: one colored-characters case list (seed 7, 128 bits) fills
# 2,188, one paper-decimals list 624
@functools.lru_cache(maxsize=1 << 14)
def _li_half(word: tuple, prec: int) -> tuple[Any, float]:
    """L = sum_{n_1 > ... > n_d >= 1} prod_j y_j^-(n_j - n_(j+1)) / n_j^e_j,
    n_(d+1) = 0, for a word over 0 and letters y_j (_Letter), |y_j| > 1,
    ending in a letter; a word over 0 and the letter 2 gives Li at 1/2.
    Its levels come from _level, whose states are fixed by the suffix, M
    and F, so the memo keys on (word, prec) alone.
    Returns (V, bound), V an int (ints (re, im) if a letter is not real),
    |L - V 2^-F| <= bound, F = prec + _LI_GUARD_BITS.  The sum stops at
    n_1 = M >= (prec + 24) / log2 R (_li_terms), R the smallest |y_j|; the
    n_1 = m term is below R^-m m^-e0 (1 + ln m)^(d-1) / (d-1)!, and past M
    these fall by rho or more, which bounds the rest (rounded up to 2^k).
    Every term is a floor (under one ulp 2^-F per part): on a run of
    deferred levels the error at n grows by n ulps a level (_inner_levels),
    and the outer sum adds M (2M if complex) to S(e0) = sum_{n<M} n^-e0 <
    floor(ln M) + 2 (e0 = 1) or 2 times the uniform error of a level that
    is not deferred (sum_n n 2^-n / n^e0 <= 1 times the slope of one that
    is).
    """
    F = prec + _LI_GUARD_BITS
    if not word:
        return (1 << F, 0.0)
    exps = _word_to_exponents(word)
    d, e0 = len(exps), exps[0]
    M, R = _li_terms(filter(None, word), d, prec)
    re, im, deferred, err = _inner_levels(word, exps, M, F)
    m, trunc = M + 1, math.inf
    rho = (1 + 1 / (m * (1 + math.log(m)))) ** (d - 1) / R
    if rho < 1:
        lg = -m * math.log2(R) - e0 * math.log2(m) + (d - 1) * math.log2(1 + math.log(m))
        lg -= math.lgamma(d) / math.log(2) + math.log2(1 - rho)
        trunc = math.ldexp(1.0, max(math.ceil(lg + 1e-9 * (1 + abs(lg))), -1074))
    pw = _powers(e0, M)  # m^e0 at pw[m - 1]
    if deferred:
        # the terms re[m] // (m^e0 2^m), each as (re[m] >> m) // m^e0: floor
        # (floor(a / b) / c) = floor(a / (b c)) for ints b, c > 0
        total = sum(map(floordiv, map(rshift, islice(re, 1, None), count(1)), pw))
        return (total, trunc + math.ldexp(M + err, -F))
    total = sum(map(floordiv, islice(re, 1, None), pw))
    if im is not None:
        total = (total, sum(map(floordiv, islice(im, 1, None), pw)))
    return (total, trunc + math.ldexp(2 * M + (int(math.log(M)) + 2 if e0 == 1 else 2) * err, -F))


def mzv_eval(
    exps: Sequence[int],
    colors: Sequence[Fraction] | None = None,
    cfg: EvalConfig = DEFAULT_CONFIG,
) -> EvalResult:
    """Evaluate a (colored) MZV, leading slot first, by _mzv_split; at depth
    1 through lerch_phi, whose one other route for an int exponent is the
    closed form of even zeta(n)."""
    exps = tuple(exps)
    cols = tuple(_canon_color(c) for c in (colors if colors is not None else [0] * len(exps)))
    if len(exps) != len(cols):
        raise ValueError("exponent/color length mismatch")
    if any(not isinstance(e, int) or e < 1 for e in exps):
        raise ValueError(f"integer exponents >= 1 required, got {exps}")
    if exps[0] < 2:
        raise ValueError(f"leading exponent must be >= 2 for evaluation, got {exps}")
    if len(exps) == 1:
        return lerch_phi(exps[0], cols[0], cfg)
    return _mzv_split(exps, cols, cfg)


def _mzv_split(exps: tuple[int, ...], cols: tuple[Fraction, ...], cfg: EvalConfig) -> EvalResult:
    """zeta(exps; cols), any depth, by the Hoelder convolution (Borwein,
    Bradley, Broadhurst, Lisonek, Trans. AMS 2001).  Slot j writes s_j - 1
    zeros and the letter e(G_j), G_j = -(h_1 + ... + h_j).  With
    I(c_1..c_n) = int_{1>t_1>...>t_n>0} prod dt_i / (t_i - c_i), zeta is
    (-1)^d I(w), and Chen's rule at 1/p, 1/p + 1/q = 1, gives I(w) = sum
    over cuts of (-1)^cut I(q(1-c_cut), ..., q(1-c_1)) I(p c_(cut+1), ...,
    p c_n), each factor (-1)^(its letters) _li_half.  For rational
    r <= min(1, |1 - e(G_j)|), p = 1 + r and q = 1 + 1/r, every letter has
    modulus >= 1 + r (trivial colors: p = q = 2).  The products are summed
    exactly in ints scaled by 2^(2F) and rounded once."""
    prec = cfg.prec
    F = prec + _LI_GUARD_BITS
    one = 1 << F
    Gs, G = [], Fraction(0)  # G_j of the letter e(G_j) that ends slot j
    for h in cols:
        G = _canon_color(G - h) if h else G
        Gs.append(G)
    colors = set(Gs) - {0}
    r = min((_letter(1, c, True).modulus for c in colors), default=1)
    if r == 0:
        raise ValueError("a color this close to 0 is beyond the term budget")
    p, q = (2, 2) if r == 1 else (1 + r, 1 + 1 / r)  # every letter has modulus >= 1 + r
    lq, lp = _letter(q, 0, False), _letter(p, 0, False)
    ql = {c: _letter(q, c, True) for c in colors}
    pl = {c: _letter(p, c, False) for c in colors}
    # every cut's factor is a suffix of lw reversed or of rw, so it has no
    # more letters and no smaller modulus: these two bound all the work.
    # Both are checked from the exponents, before the word (as long as the
    # weight) is built: lw has a letter per zero of the word and per colored
    # letter, rw one per slot.
    zeros = sum(exps) - len(exps)
    _li_terms([*ql.values(), lq] if zeros else ql.values(), zeros + len(Gs) - Gs.count(0), prec)
    _li_terms([*pl.values(), lp] if 0 in Gs else pl.values(), len(Gs), prec)
    word = []  # None for the letter 0, else G for e(G)
    for s, G in zip(exps, Gs):
        word += [None] * (s - 1) + [G]
    lw = tuple(lq if c is None else 0 if c == 0 else ql[c] for c in word)
    rw = tuple(0 if c is None else lp if c == 0 else pl[c] for c in word)
    re, im, bound = 0, 0, 0.0
    for cut in range(len(word) + 1):
        left, right = lw[:cut][::-1], rw[cut:]
        (lv, lb), (rv, rb) = _li_half(left, prec), _li_half(right, prec)
        lr, li = lv if isinstance(lv, tuple) else (lv, 0)
        rr, ri = rv if isinstance(rv, tuple) else (rv, 0)
        sign = (-1) ** (len(exps) + cut + len(word) - left.count(0) - right.count(0))
        re += sign * (lr * rr - li * ri)
        im += sign * (lr * ri + li * rr)
        lm, rm = math.hypot(lr / one, li / one), math.hypot(rr / one, ri / one)
        bound += lm * rb + rm * lb + lb * rb
    value = mp.make_mpf(libmp.from_man_exp(re, -2 * F, prec, "n"))
    if im:
        value = mp.make_mpc((value._mpf_, libmp.from_man_exp(im, -2 * F, prec, "n")))
    return EvalResult(value, bound + math.hypot(re / one / one, im / one / one) * _eps(prec))


# ---------------------------------------------------------------------------
# MT values: conversion route and direct truncated summation


def _terms(m: Any, s: Any, color: Fraction) -> Any:
    """m^-s e(color m) in float64 for the numpy array m = 1.0, 2.0, ...:
    m^-Re(s) by pow, times exp(i theta) with theta = 2 pi r/q - Im(s) ln m,
    r = color q m mod q taken in (-q/2, q/2]."""
    import numpy as np
    s = complex(s)
    x = m ** -s.real
    if not (s.imag or color):
        return x
    theta = -s.imag * np.log(m) if s.imag else 0.0
    if color:
        q = color.denominator
        if q >= 1 << 31:
            raise ValueError(f"color denominator {q} is too large for direct summation")
        r = (color.numerator * m.astype(np.int64)) % q
        theta = theta + 2 * np.pi * (np.where(2 * r > q, r - q, r) / q)
    return x * np.exp(1j * theta)


def _terms_error(s: Any, color: Fraction, n: Any):
    """Relative error of _terms(m, s, color) for m <= n in units of 2^-53,
    with pow, log and exp within 1 ulp: 2 for pow; with a phase, 3 for exp
    and the product, and |d theta| <= 3 |Im s| ln n, or with a color
    4 |Im s| ln n + 11 (2 pi r/q and the sum)."""
    s = complex(s)
    if not (s.imag or color):
        return 2.0
    import numpy as np
    return (4 if color else 3) * abs(s.imag) * np.log(n) + (16 if color else 5)


def mt_via_mzv(
    exps: Sequence[int],
    colors: Sequence[Fraction] | None = None,
    cfg: EvalConfig = DEFAULT_CONFIG,
) -> EvalResult:
    """MT value with integer exponents via the exact rewriting into MZVs."""
    combo = mt_to_mzv(exps, colors)
    return eval_expr(combo, cfg=cfg)


def _mt_tail(sigmas: Sequence[float], sigma_tot: float, N: int) -> float:
    """Majorant for the part of an MT sum of depth k >= 2 where some index
    exceeds N.  Terms with m_i > N: (sum m)^sigma_tot >= m_i^(sigma_tot/2)
    (sum of the others)^(sigma_tot/2) if sigma_tot >= 0, AM-GM on the
    second factor, then N^(1-dec)/(dec-1), dec = sigma_i + sigma_tot/2, for
    the sum over m_i and zeta(x) <= 1 + 1/(x-1), x = sigma_o +
    sigma_tot/(2(k-1)), for each other.  Crude but sound; ValueError where a step fails
    (sigma_tot < 0, some dec <= 1 or some x <= 1)."""
    k = len(sigmas)
    decs = [s + sigma_tot / 2.0 for s in sigmas]
    xs = [s + sigma_tot / (2.0 * (k - 1)) for s in sigmas]
    if sigma_tot < 0 or min(decs) <= 1 or min(xs) <= 1:
        raise ValueError("no tail bound for direct summation at these exponents (see _mt_tail)")
    total = 0.0
    for i, dec in enumerate(decs):
        z = math.prod(1.0 + 1.0 / (x - 1.0) for j, x in enumerate(xs) if j != i)
        total += N ** (1.0 - dec) / (dec - 1.0) * z
    return total


def mt_direct(
    exps: Sequence[Any],
    colors: Sequence[Fraction] | None = None,
    cfg: EvalConfig = DEFAULT_CONFIG,
) -> EvalResult:
    """Direct truncated summation of an MT value of depth k >= 2: k head
    slots and the total slot, as in every MTValue atom (exponents may be
    non-integer; absolute convergence is required).  Depth 1 is phi, which
    lerch_phi evaluates.

    The sum over the cube m_1, ..., m_k <= N is sum_{n=k}^{kN} g(n) (a_1 *
    ... * a_k)(n), a_j(m) = e(c_j m) m^-s_j (m <= N), g(n) = e(c n)
    n^-s_(k+1): k - 1 np.convolve calls and one sum over the totals.  N is
    the first power of two from 64 whose tail majorant (_mt_tail) meets the
    target, capped so that the k(k-1)/2 N^2 products of the convolutions
    stay within _MAX_TERMS (2000 at depth 2, 1154 at depth 3); a cap below
    1 raises.
    The bound keeps the tail at the capped N, so it may miss the target.

    Roundoff, in units u = 2^-53, with A = |a_1| * ... * |a_k| (a second
    chain, on moduli): factor j has relative error eta_j(m) <= eta_j(n)
    (_terms_error) on a term of total n.  Output n of a convolution is a
    complex dot product of at most min(N, n) products in BLAS order, within
    sqrt(2) gamma_(2 min(N, n)) of the sum of their moduli; convolving on
    with |a_j| only carries weight to larger n, so the chain errs by at
    most (sum_j eta_j(n) + 2 sqrt(2) (k - 1) min(N, n)) u A(n).  The
    product p(n) with g adds sqrt(2) gamma_2, and np.sum's pairwise sum of
    the L = kN - k + 1 products (blocks of at most 128 doubles by eight
    accumulators and a remainder, then halving) at most D = ceil(log2 L) +
    19 roundings per part.  So the roundoff is u (sum_n |g(n)| A(n) w(n) +
    D hypot(sum |Re p|, sum |Im p|)), w(n) = sum_j eta_j(n) + 2 sqrt(2)
    ((k - 1) min(N, n) + 1), times 1 + 2^-20 for second-order terms and
    the roundoff of the moduli chain and of these sums.
    """
    import numpy as np  # loaded on first use: no other route needs it

    exps = tuple(exps)
    k = len(exps) - 1
    if k < 2:
        raise ValueError("direct summation needs two head slots and the total slot")
    cols = tuple(_canon_color(c) for c in (colors if colors is not None else [0] * (k + 1)))
    check_mt_convergence(exps)
    sigmas = [complex(e).real for e in exps[:-1]]
    sig_tot = complex(exps[-1]).real
    cap = math.isqrt(2 * _MAX_TERMS // (k * (k - 1)))
    if cap < 1:
        raise ValueError(f"direct summation of depth {k} is beyond the term budget")

    N = 64
    while _mt_tail(sigmas, sig_tot, N) > cfg.target_tol and N < cap:
        N *= 2
    N = min(N, cap)

    totals = np.arange(1, k * N + 1, dtype=np.float64)
    m, n = totals[:N], totals[k - 1 :]
    chain = mods = None
    for e, c in zip(exps[:-1], cols):
        a = _terms(m, e, c)
        chain = a if chain is None else np.convolve(chain, a)
        mods = np.abs(a) if mods is None else np.convolve(mods, np.abs(a))
    g = _terms(n, exps[-1], cols[-1])
    p = g * chain
    value = complex(np.sum(p))
    w = sum(_terms_error(e, c, n) for e, c in zip(exps, cols))
    w = w + 2 * math.sqrt(2) * ((k - 1) * np.minimum(n, N) + 1)
    parts = math.hypot(np.sum(np.abs(p.real)), np.sum(np.abs(p.imag)))
    roundoff = float(np.sum(np.abs(g) * mods * w)) + (math.ceil(math.log2(len(n))) + 19) * parts
    roundoff = math.ldexp(roundoff, -53) * (1 + 2.0**-20)
    value = mp.make_mpc((libmp.from_float(value.real), libmp.from_float(value.imag)))
    return EvalResult(value, _mt_tail(sigmas, sig_tot, N) + roundoff)


# ---------------------------------------------------------------------------
# whole-expression evaluation


def _conjugate_twin(a: Atom) -> Atom | None:
    """The atom with every color negated, whose value is the complex
    conjugate of a's, for a z-free MZV (phi at depth 1) or MT atom with int
    exponents; None when every color is 0 or 1/2 (its own negative)."""
    if all(c.denominator <= 2 for c in a.colors):
        return None
    if not all(isinstance(e, int) for e in a.exps):
        return None
    neg = [-c for c in a.colors]
    return (mzv if isinstance(a, MZValue) else mt_value)(a.exps, neg)


def _route(a: Atom) -> str:
    """lerch at depth 1 (phi, even zeta(n) included), split for a deeper
    MZV, conversion for MT int exponents >= 1, else direct."""
    if len(a.exps) == 1:
        return "lerch"
    if isinstance(a, MZValue):
        return "split"
    return "conversion" if all(isinstance(e, int) and e >= 1 for e in a.exps) else "direct"


# 4,096 entries: one colored-characters case list (seed 7) fills 715, one
# paper-decimals list 119
@functools.lru_cache(maxsize=1 << 12)
def _eval_atom(a: Atom, cfg: EvalConfig) -> EvalResult:
    """Atom a on its _route, each kernel read by its module name at the call
    (perfbench's tracer puts its wrappers under those names)."""
    if a.z_slot is not None:
        raise ValueError("unsubstituted z")
    # of a conjugate pair only the atom with the smaller key is evaluated;
    # the imaginary part is negated exactly (mp.conj would round it)
    twin = _conjugate_twin(a)
    if twin is not None and twin.key < a.key:
        r = _eval_atom(twin, cfg)
        if isinstance(r.value, mpc):
            re, im = r.value._mpc_
            return EvalResult(mp.make_mpc((re, libmp.mpf_neg(im))), r.bound)
        return r
    route = _route(a)
    if route == "lerch":
        # the even form, keyed (0, n), keeps its closed form
        return even_zeta(a.exps[0], cfg) if a.key[0] == 0 else lerch_phi(a.exps[0], a.colors[0], cfg)
    if route == "split":
        return mzv_eval(a.exps, a.colors, cfg)
    return (mt_via_mzv if route == "conversion" else mt_direct)(a.exps, a.colors, cfg)


def eval_expr(
    e: Expr, z0: Any = None, cfg: EvalConfig = DEFAULT_CONFIG
) -> EvalResult:
    """Evaluate an expression: substitute z (if present), evaluate each
    distinct atom once, and combine with first-order error propagation.

    Per-atom failures are re-raised with the offending atom named.  The
    atoms are visited in key order, so that consecutive splits share the
    level states of their word suffixes (_level).
    """
    if z0 is not None:
        e = e.substitute(z0)
    terms = list(e.items())
    distinct = {a for atoms, _ in terms for a in atoms}

    results: dict[Atom, EvalResult] = {}
    for a in sorted(distinct, key=_by_key):
        try:
            results[a] = _eval_atom(a, cfg)
        except ValueError as exc:
            raise ValueError(f"cannot evaluate {a}: {exc}") from exc

    return _assemble(((coeff, [results[a] for a in atoms]) for atoms, coeff in terms), cfg.prec)


def _assemble(terms: Iterable[tuple[Fraction | int, Sequence[EvalResult]]], prec: int) -> EvalResult:
    """sum coeff * prod(factors) over terms (coeff, factors) at prec bits, the
    one routine that combines bounded values: a product x y errs by |x| db +
    |y| da + da db, a term by |coeff| times that, and the sum's rounding by
    8 eps |total|.  The value is an mpf when its imaginary part is 0."""
    total, bound = (libmp.fzero, libmp.fzero), 0.0
    for coeff, factors in terms:
        tv, tb = (libmp.fone, libmp.fzero), 0.0
        for r in factors:
            v = _parts(r.value, prec)
            tb = _mag(tv, prec) * r.bound + _mag(v, prec) * tb + tb * r.bound
            tv = libmp.mpc_mul(tv, v, prec, _RND)
        num, den = (libmp.from_int(x, prec, _RND) for x in (coeff.numerator, coeff.denominator))
        tv = libmp.mpc_div_mpf(libmp.mpc_mul_mpf(tv, num, prec, _RND), den, prec, _RND)
        total = libmp.mpc_add(total, tv, prec, _RND)
        bound += abs(float(coeff)) * tb
    value = mp.make_mpf(total[0]) if total[1] == libmp.fzero else mp.make_mpc(total)
    return EvalResult(value, bound + _mag(total, prec) * 8 * _eps(prec))
