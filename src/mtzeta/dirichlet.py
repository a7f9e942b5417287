"""Dirichlet characters with exact root-of-unity values, Gauss sums, and
assembly of MT L-values from colored MT values.

A character mod f is stored as a table of exact rational angles: the value
at a residue a coprime to f is e(angle), the angle being determined by the
character's exponents on a fixed generating set of the unit group.  All
character arithmetic (products, conjugation, conductor search,
orthogonality) is therefore exact; only Gauss sums and L-values float.

The character-to-color bridge rests on the Fourier expansion of a
primitive character, chi(m) = (1/tau(conj chi)) sum_a conj(chi)(a) e(am/f):
every character-twisted sum is a conj(chi)(a)/tau(conj chi)-weighted
combination of colored values at colors a/f.  (For real characters the
conjugation is invisible; for complex ones a depth-1 check against
L(s, chi) = f^-s sum_a chi(a) zeta(s, a/f) pins the convention.)
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Optional, Sequence

from mpmath import libmp, mp, mpc

from .numerics import (
    DEFAULT_CONFIG,
    EvalConfig,
    EvalResult,
    _RND,
    _assemble,
    _e_of,
    _eps,
    _eval_atom,
    _mag,
    _parts,
)
from .mzvconvert import check_mt_convergence
from .reduction import Identity, cyclic_sum_identity
from .symexpr import _canon_color, mt_value

__all__ = [
    "DirichletCharacter",
    "unit_group",
    "enumerate_characters",
    "gauss_sum",
    "fourier_weights",
    "mt_l_value",
    "character_identities",
]

MAX_MODULUS = 50
MAX_GRID = 100_000


def _factorize(n: int) -> list[tuple[int, int]]:
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def _order_mod(g: int, m: int) -> int:
    x, k = g % m, 1
    while x != 1:
        x = x * g % m
        k += 1
    return k


def _crt_lift(residue: int, q: int, f: int) -> int:
    """The unit mod f that is `residue` mod q and 1 mod f/q."""
    rest = f // q
    for x in range(1, f + 1):
        if x % q == residue % q and x % rest == 1 % rest:
            return x
    raise AssertionError("CRT lift failed")


def unit_group(f: int) -> list[tuple[int, int]]:
    """Generators (g, order) of (Z/f)*, each g congruent to 1 outside its
    own prime-power component."""
    if f == 1:
        return []
    gens: list[tuple[int, int]] = []
    for p, e in _factorize(f):
        q = p**e
        if p == 2:
            if e == 1:
                continue
            if e == 2:
                gens.append((_crt_lift(3, q, f), 2))
            else:
                gens.append((_crt_lift(q - 1, q, f), 2))
                gens.append((_crt_lift(5, q, f), 2 ** (e - 2)))
        else:
            phi = q // p * (p - 1)
            g = next(
                x for x in range(2, q) if math.gcd(x, q) == 1 and _order_mod(x, q) == phi
            )
            gens.append((_crt_lift(g, q, f), phi))
    return gens


@dataclass(frozen=True)
class DirichletCharacter:
    """Character mod f as exact angles: value at a is e(angles[a]), or 0
    when gcd(a, f) > 1 (angles[a] is None there)."""

    modulus: int
    angles: tuple[Optional[Fraction], ...]
    conductor: int
    index: int

    @property
    def primitive(self) -> bool:
        return self.conductor == self.modulus

    @property
    def principal(self) -> bool:
        return all(a is None or a == 0 for a in self.angles)

    def angle(self, n: int) -> Optional[Fraction]:
        return self.angles[n % self.modulus]

    def conjugate(self) -> "DirichletCharacter":
        return DirichletCharacter(
            self.modulus,
            tuple(None if a is None else _canon_color(-a) for a in self.angles),
            self.conductor,
            self.index,
        )

    def value(self, n: int, prec: int = 64) -> Any:
        a = self.angle(n)
        if a is None:
            return mpc(0)
        return mp.make_mpc(_e_of(a, prec))


def _conductor(f: int, angles: Sequence[Optional[Fraction]]) -> int:
    for d in range(1, f + 1):
        if f % d == 0 and all(
            angles[a % f] == 0
            for a in range(1, f + 1)
            if a % d == 1 % d and math.gcd(a, f) == 1
        ):
            return d
    return f


def enumerate_characters(f: int) -> list[DirichletCharacter]:
    """All phi(f) characters mod f, indexed by generator-exponent tuples in
    odometer order (first generator fastest).  Index 0 is principal."""
    if not 1 <= f <= MAX_MODULUS:
        raise ValueError(f"modulus must be in 1..{MAX_MODULUS}, got {f}")
    gens = unit_group(f)
    units = [a for a in range(f) if math.gcd(a, f) == 1] if f > 1 else [0]

    # discrete logs: enumerate the group as products of generator powers
    dlog: dict[int, tuple[int, ...]] = {1 % f: (0,) * len(gens)}
    for i, (g, order) in enumerate(gens):
        current = list(dlog.items())
        for x, expo in current:
            y = x
            for t in range(1, order):
                y = y * g % f
                dlog[y] = expo[:i] + (t,) + expo[i + 1 :]
    assert len(dlog) == len(units)

    out = []
    orders = [order for _, order in gens]
    count = 1
    for o in orders:
        count *= o
    for index in range(count):
        rem, expo = index, []
        for o in orders:
            expo.append(rem % o)
            rem //= o
        angles: list[Optional[Fraction]] = [None] * f
        for a in units:
            t = dlog[a]
            ang = sum(
                (Fraction(e * k, o) for e, k, o in zip(expo, t, orders)),
                Fraction(0),
            )
            angles[a] = _canon_color(ang)
        if f == 1:
            angles = [Fraction(0)]
        out.append(
            DirichletCharacter(f, tuple(angles), _conductor(f, angles), index)
        )
    return out


def gauss_sum(chi: DirichletCharacter, cfg: EvalConfig = DEFAULT_CONFIG) -> EvalResult:
    """tau(chi) = sum_{n=1..f} chi(n) e(n/f) at working precision."""
    f = chi.modulus
    prec = cfg.prec
    total = (libmp.fzero, libmp.fzero)
    for n in range(1, f + 1):
        a = chi.angle(n)
        if a is not None:
            total = libmp.mpc_add(total, _e_of(a + Fraction(n, f), prec), prec, _RND)
    return EvalResult(mp.make_mpc(total), 8 * f * _eps(prec))


def fourier_weights(
    chi: DirichletCharacter, cfg: EvalConfig = DEFAULT_CONFIG
) -> list[Optional[EvalResult]]:
    """The weights w_1..w_f of chi(m) = sum_n w_n e(nm/f) for a primitive
    chi, w_n = conj(chi)(n)/tau(conj chi); None where gcd(n, f) > 1.  Each
    is e(-angle(n)) times 1/tau, bounded by |e(.)| |d(1/tau)| = |d(1/tau)|
    plus 8 eps |w_n| for its roundings: 1/tau within eps/2 relative, e(.)
    within 3 eps (numerics._e_of), the product within eps/2."""
    if not chi.primitive:
        raise ValueError(f"character index {chi.index} mod {chi.modulus} is not primitive")
    prec = cfg.prec
    tau = gauss_sum(chi.conjugate(), cfg)
    tv = _parts(tau.value, prec)
    inv = libmp.mpc_mpf_div(libmp.fone, tv, prec, _RND)
    tm = _mag(tv, prec)
    inv_err = tau.bound / (tm * max(tm - tau.bound, 1e-300))  # |d(1/tau)|
    out: list[Optional[EvalResult]] = []
    for n in range(1, chi.modulus + 1):
        a = chi.angle(n)
        if a is None:
            out.append(None)
            continue
        w = libmp.mpc_mul(_e_of(-a, prec), inv, prec, _RND)
        out.append(EvalResult(mp.make_mpc(w), inv_err + 8 * _eps(prec) * _mag(w, prec)))
    return out


def mt_l_value(
    exps: Sequence[int],
    chis: Sequence[DirichletCharacter],
    cfg: EvalConfig = DEFAULT_CONFIG,
) -> EvalResult:
    """Character-twisted MT value assembled from colored values:

        sum over j in prod [1..f_i] of prod_i w_(j_i)(chi_i)
            * colored MT value at colors (j_1/f_1, ..., j_d/f_d),

    the w being the fourier_weights of each chi_i and each colored value an
    atom of _eval_atom, combined by the same _assemble as eval_expr.
    Requires a convergent sum and every character primitive (the color
    bridge needs it); the f-grid size is at most ``MAX_GRID``.
    """
    exps = tuple(exps)
    if any(not isinstance(e, int) or e < 1 for e in exps):
        raise ValueError(f"assembly needs positive integer exponents, got {exps}")
    check_mt_convergence(exps)
    if len(chis) != len(exps):
        raise ValueError("need one character per slot")
    weights = [fourier_weights(chi, cfg) for chi in chis]
    grid = math.prod(chi.modulus for chi in chis)
    if grid > MAX_GRID:
        raise ValueError(f"f-grid of size {grid} exceeds budget {MAX_GRID}")

    def terms():
        for jvec in itertools.product(*[range(1, chi.modulus + 1) for chi in chis]):
            ws = [w[j - 1] for w, j in zip(weights, jvec)]
            if None in ws:
                continue
            colors = [Fraction(j, chi.modulus) for chi, j in zip(chis, jvec)]
            yield 1, ws + [_eval_atom(mt_value(exps, colors), cfg)]

    return _assemble(terms(), cfg.prec)


def character_identities(
    s: Sequence[int],
    chi: DirichletCharacter,
    cfg: EvalConfig = DEFAULT_CONFIG,
    *,
    coprime_only: bool = False,
) -> list[tuple[EvalResult, Identity]]:
    """The character-level cyclic-sum identity as a weighted family: for
    n = 1..f the fourier_weights w_n paired with the color-n/f identity.
    Their weighted sum is the character identity; non-coprime n carry
    weight exactly zero, and with ``coprime_only`` their identities are
    not built and the family leaves them out."""
    out = []
    for n, w in enumerate(fourier_weights(chi, cfg), start=1):
        if w is None:
            if coprime_only:
                continue
            w = EvalResult(mpc(0), 0.0)
        out.append((w, cyclic_sum_identity(s, Fraction(n, chi.modulus))))
    return out
