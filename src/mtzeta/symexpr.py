"""Canonical algebra for rational-linear combinations of products of
transcendental atoms, with one optional symbolic variable z in exponent slots.

Atoms
-----
* ``MTValue(exps, colors, z_slot)``: a Mordell-Tornheim value of depth >= 2; the
  last slot is the total-sum slot.  The head slots are sorted, since the
  underlying series is symmetric under permuting them jointly with their
  colors.
* ``MZValue(exps, colors, z_slot)``: a (colored) multiple zeta value; slots are
  ordered leading-first and never sorted.  Depth 1 is the periodic zeta
  phi(e; color) = sum over m >= 1 of e(color*m)/m^e, printed ``phi(e; c)``
  and serialized as type "lerch".  Its trivial-color form at an even
  integer n is zeta(n), keyed (0, n), printed ``zeta(n)`` and serialized
  as type "even_zeta"; ``EvenZeta(n)`` builds it (n = 0 is legal and
  evaluates to -1/2).

One function, ``_canonical``, decides every atom's form: the builders
``lerch`` (phi), ``mt_value`` and ``mzv`` call it, and so does
``Expr.substitute``, so a substituted atom is the one a builder makes from
the same numbers.  It checks the slots, reduces the colors, sorts MT head
slots and collapses an MT value of one slot, of two slots, or with a zero
head exponent at depth 2, to an MZV.

Colors are rationals reduced mod 1 by ``_canon_color``, the one place in
the package that reduces a color; color 0 is the trivial phase.
Exponents are plain numbers, and an atom names at most one z slot:
``z_slot`` is the index of the slot whose value is z + exps[z_slot], or
None.  Builders write that slot as ``Z`` or ``Z.shift(k)``, which only
``_canonical`` reads; it refuses two.  A product term may contain at most
one z-bearing atom (constructions that would violate this signal a bug
and are rejected).  ``Expr.substitute`` replaces z by a number, after
which no slot names z and the slots hold plain numbers (int, float,
Fraction or complex).  Each atom computes its key once, when it is built:
equality, hashing and the canonical order all read it.

``Expr`` is a map from atom multisets to rational coefficients.  The map is
canonical: no zero coefficients, atoms sorted by a fixed total order, so
two expressions are equal iff their maps are equal.  ``Expr(pairs)`` builds
the map from all its (atoms, coefficient) terms in one pass; builders pass
every term at once rather than adding one-term expressions in a loop.
``expr_to_json`` writes the JSON output; nothing reads it back.
"""

from __future__ import annotations

import functools
import itertools
import operator
from fractions import Fraction
from numbers import Integral
from typing import Any, Iterable, Iterator, NamedTuple, Optional, Sequence, Union

__all__ = [
    "EvenZeta",
    "MTValue",
    "MZValue",
    "Expr",
    "Z",
    "lerch",
    "mt_value",
    "mzv",
    "expr_to_json",
]


class _ZPlus(NamedTuple):
    """z + k in a builder's slot list; only ``_canonical`` reads it."""

    k: int = 0

    def shift(self, c: int) -> "_ZPlus":
        return _ZPlus(self.k + c)


Z = _ZPlus()


def _canon_color(c: Union[int, Fraction]) -> Fraction:
    return Fraction(c) % 1


def _canon_number(v: Any) -> Any:
    """Collapse integral floats/Fractions/complexes to int; keep everything else."""
    if isinstance(v, complex) and v.imag == 0:
        v = v.real
    if isinstance(v, float) and v.is_integer() or isinstance(v, Fraction) and v.denominator == 1:
        return int(v)
    return int(v) if isinstance(v, Integral) else v


class _Atom:
    """The body of MTValue and MZValue: one exponent and one color per slot,
    and ``z_slot``, the index of the slot that holds z + exps[z_slot], or
    None.  Each class sets TAG, which leads its key, TYPE, its JSON type and
    printed name (phi at depth 1), and ``depth``.  An atom is its key,
    computed once when it is built: ==, hash and the canonical order all
    read it.  An exponent enters the key as (holds z, real part, imaginary
    part); ``_canonical`` keys the even form (0, n).  Atoms are not changed
    afterwards."""

    __slots__ = ("exps", "colors", "z_slot", "key", "_hash")

    def __init__(
        self, exps: tuple, colors: tuple[Fraction, ...], z_slot: Optional[int] = None, key: Optional[tuple] = None
    ):
        self.exps, self.colors, self.z_slot = exps, colors, z_slot
        if key is None:
            slots = tuple((i == z_slot, e.real, e.imag) for i, e in enumerate(exps))
            key = (self.TAG, len(exps), slots, colors)
        self.key, self._hash = key, hash(key)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Atom) and self.key == other.key

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return str(self)

    def __str__(self) -> str:
        if self.key[0] == 0:
            return f"zeta({self.exps[0]})"
        args = ",".join(
            str(e) if i != self.z_slot else f"z+{e}" if e else "z" for i, e in enumerate(self.exps)
        )
        cols = ",".join(str(c) for c in self.colors)
        return f"{self.TYPE if self.depth > 1 else 'phi'}({args}; {cols})"


class MTValue(_Atom):
    __slots__ = ()
    TAG, TYPE = 4, "mt"

    @property
    def depth(self) -> int:
        return len(self.exps) - 1


class MZValue(_Atom):
    __slots__ = ()
    TAG, TYPE = 3, "mzv"

    @property
    def depth(self) -> int:
        return len(self.exps)


Atom = Union[MTValue, MZValue]


def _canonical(
    cls: type, exps: Sequence[Union[int, _ZPlus]], colors: Sequence[Union[int, Fraction]], z0: Any = None
) -> Atom:
    """The canonical atom of class cls (MTValue or MZValue) on these slots,
    the one place that decides an atom's form.  The exponents are integers,
    at most one of them z + k, written ``Z.shift(k)``, which z0, if given,
    replaces by z0 + k; the colors are reduced mod 1.  An MT value sorts its
    head slots, the integers first in order, then the z or non-integer slot,
    and collapses: one slot is phi, two slots MT(s; t) = phi(s + t), and
    MT(0, b; t) with integers b >= 1, t >= 2 sums its free index out to
    zeta(t, b) with colors (c_1 + c_t, c_2 - c_1).  The trivial-color phi
    at an even integer n is zeta(n), keyed (0, n)."""
    es, z_slot = [], None
    for i, e in enumerate(exps):
        if isinstance(e, _ZPlus):
            if z_slot is not None:
                raise ValueError("at most one slot may carry z")
            z_slot, e = i, e.k
        elif not isinstance(e, Integral):
            raise TypeError(f"exponent slot needs an integer or Z.shift(k), got {e!r}")
        es.append(int(e))
    if z0 is not None and z_slot is not None:
        es[z_slot], z_slot = _canon_number(es[z_slot] + z0), None
    cs = [_canon_color(c) for c in colors]
    if len(es) != len(cs):
        raise ValueError("exponent/color length mismatch")
    if not es:
        raise ValueError("an atom needs at least one slot")
    if cls is MTValue and len(es) == 2:
        es, cs, z_slot = [es[0] + es[1]], [_canon_color(cs[0] + cs[1])], None if z_slot is None else 0
    if cls is MTValue and len(es) > 2:
        order = sorted(
            range(len(es) - 1), key=lambda i: (i == z_slot or not isinstance(es[i], int), es[i], cs[i])
        ) + [len(es) - 1]
        es, cs = [es[i] for i in order], [cs[i] for i in order]
        z_slot = None if z_slot is None else order.index(z_slot)
        if len(es) == 3 and es[0] == 0 and z_slot is None and all(isinstance(e, int) for e in es):
            if es[1] >= 1 and es[2] >= 2:
                return MZValue((es[2], es[1]), (_canon_color(cs[0] + cs[2]), _canon_color(cs[1] - cs[0])))
        return MTValue(tuple(es), tuple(cs), z_slot)
    even = len(es) == 1 and z_slot is None and not cs[0] and isinstance(es[0], int) and es[0] % 2 == 0
    return MZValue(tuple(es), tuple(cs), z_slot, (0, es[0]) if even else None)


def lerch(exp: Union[int, _ZPlus], color: Union[int, Fraction]) -> Atom:
    """phi(exp; color), the depth-1 MZV."""
    return mzv((exp,), (color,))


def mt_value(
    exps: Sequence[Union[int, _ZPlus]], colors: Sequence[Union[int, Fraction]]
) -> Atom:
    """MT atom in its canonical form (``_canonical``)."""
    return _canonical(MTValue, exps, colors)


def mzv(
    exps: Sequence[Union[int, _ZPlus]], colors: Sequence[Union[int, Fraction]]
) -> Atom:
    """Colored MZV atom, leading slot first; its depth-1 value is phi."""
    return _canonical(MZValue, exps, colors)


@functools.lru_cache(maxsize=1 << 8)
def EvenZeta(n: int) -> MZValue:
    """zeta(n) at an even n >= 0, the trivial-color phi, built once per n."""
    if n < 0 or n % 2:
        raise ValueError(f"EvenZeta argument must be even >= 0, got {n}")
    return _canonical(MZValue, (n,), (0,))


TermKey = tuple  # sorted tuple of atoms


class Expr:
    """Canonical rational-linear combination of products of atoms.

    ``Expr(pairs)`` takes every (atoms, coefficient) term of the expression
    at once, so a builder yields its terms into one constructor call instead
    of summing single-term expressions.  The constructor is the only code
    that sorts atoms, merges equal products, drops zero coefficients and
    then rejects a term with two z-bearing atoms; the ring operations pass
    their terms straight to it.
    """

    __slots__ = ("terms",)

    def __init__(self, pairs: Iterable[tuple[Iterable[Atom], Any]] = ()):
        terms: dict[TermKey, Fraction] = {}
        for atoms, coeff in pairs:
            coeff = Fraction(coeff)
            if not coeff:
                continue
            key = tuple(sorted(atoms, key=_by_key))
            if sum(a.z_slot is not None for a in key) > 1:
                raise ValueError("term with two z-bearing atoms")
            acc = terms.get(key, 0) + coeff
            if acc:
                terms[key] = acc
            else:
                del terms[key]
        object.__setattr__(self, "terms", terms)

    # -- constructors -------------------------------------------------

    @staticmethod
    def constant(c: Union[int, Fraction]) -> "Expr":
        return Expr([((), c)])

    @staticmethod
    def term(coeff: Union[int, Fraction], atoms: Iterable[Atom] = ()) -> "Expr":
        return Expr([(atoms, coeff)])

    @staticmethod
    def atom(a: Atom) -> "Expr":
        return Expr([((a,), 1)])

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "Expr") -> "Expr":
        return Expr(itertools.chain(self.terms.items(), other.terms.items()))

    def __sub__(self, other: "Expr") -> "Expr":
        return self + other.scale(-1)

    def __neg__(self) -> "Expr":
        return self.scale(-1)

    def scale(self, c: Union[int, Fraction]) -> "Expr":
        c = Fraction(c)
        return Expr((k, v * c) for k, v in self.terms.items())

    def __mul__(self, other: "Expr") -> "Expr":
        return Expr(
            (ka + kb, ca * cb)
            for ka, ca in self.terms.items()
            for kb, cb in other.terms.items()
        )

    # -- inspection ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Expr):
            return NotImplemented
        return self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def items(self) -> Iterator[tuple[TermKey, Fraction]]:
        return iter(sorted(self.terms.items(), key=lambda kv: tuple(a.key for a in kv[0])))

    def atoms(self) -> Iterator[Atom]:
        for k in self.terms:
            yield from k

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for atoms, c in self.items():
            prod = "*".join(str(a) for a in atoms) or "1"
            bits.append(f"({c})*{prod}")
        return " + ".join(bits)

    __repr__ = __str__

    # -- substitution ---------------------------------------------------

    def substitute(self, z0: Any) -> "Expr":
        """Replace z by a number everywhere: each atom that held z becomes
        the one a builder makes of its numbers.  Requires Re(z0) >= 1
        (evaluation domain)."""
        if complex(z0).real < 1:
            raise ValueError(f"substitution requires Re(z) >= 1, got {z0!r}")
        return Expr(
            (tuple(_substitute_atom(a, z0) for a in atoms), c)
            for atoms, c in self.terms.items()
        )


def _substitute_atom(a: Atom, z0: Any) -> Atom:
    i = a.z_slot
    if i is None:
        return a
    return _canonical(type(a), a.exps[:i] + (Z.shift(a.exps[i]),) + a.exps[i + 1 :], a.colors, z0)


_by_key = operator.attrgetter("key")


# -- JSON schema ------------------------------------------------------------
# Expr: [{"coeff": "p/q", "atoms": [atom, ...]}, ...] in canonical order.


def _frac_str(c: Fraction) -> str:
    return f"{c.numerator}/{c.denominator}" if c.denominator != 1 else str(c.numerator)


def _exp_json(a: Atom, i: int) -> Any:
    return {"const": a.exps[i], "z": True} if i == a.z_slot else a.exps[i]


def atom_to_json(a: Atom) -> dict:
    if a.key[0] == 0:
        return {"type": "even_zeta", "n": a.exps[0]}
    if isinstance(a, MZValue) and len(a.exps) == 1:
        return {"type": "lerch", "exp": _exp_json(a, 0), "color": _frac_str(a.colors[0])}
    return {
        "type": a.TYPE,
        "exps": [_exp_json(a, i) for i in range(len(a.exps))],
        "colors": [_frac_str(c) for c in a.colors],
    }


def expr_to_json(e: Expr) -> list[dict]:
    return [
        {"coeff": _frac_str(c), "atoms": [atom_to_json(a) for a in atoms]}
        for atoms, c in e.items()
    ]

