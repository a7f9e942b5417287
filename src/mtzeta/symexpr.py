"""Canonical algebra for rational-linear combinations of products of
transcendental atoms, with one optional symbolic variable z in exponent slots.

Atoms
-----
* ``EvenZeta(n)``: zeta at an even integer n >= 0 (kept symbolic; n = 0 is
  legal and evaluates to -1/2).
* ``MTValue(exps, colors, z_slot)``: a Mordell-Tornheim value of depth >= 2; the
  last slot is the total-sum slot.  The first-depth slots are sorted, since
  the underlying series is symmetric under permuting them jointly with
  their colors.  Input of one slot, or of two (depth 1), collapses to
  phi, the depth-1 ``MZValue``.
* ``MZValue(exps, colors, z_slot)``: a (colored) multiple zeta value; slots are
  ordered leading-first and never sorted.  Depth 1 is the periodic zeta
  phi(e; color) = sum over m >= 1 of e(color*m)/m^e, printed ``phi(e; c)``
  and serialized as type "lerch".  Its trivial-color even-integer form is
  ``EvenZeta``, and the constructor rejects it.

Build atoms with ``lerch`` (phi), ``mt_value`` and ``mzv``: they check
and canonicalize their slots in one function (``_slots``), and
``mt_value`` sorts the head slots and collapses one or two slots to phi.

Colors are rationals reduced mod 1 by ``_canon_color``, the one place in
the package that reduces a color; color 0 is the trivial phase.
Exponents are plain numbers, and an atom names at most one z slot:
``z_slot`` is the index of the slot whose value is z + exps[z_slot], or
None.  Builders write that slot as ``Z`` or ``Z.shift(k)``, which only
``_slots`` reads; it refuses two.  A product term may contain at most one
z-bearing atom (constructions that would violate this signal a bug and are
rejected).  ``Expr.substitute`` replaces z by a number, after which no slot
names z, the slots hold plain numbers (int, float, Fraction or complex) and
the atoms keep their classes.  Each atom computes its key once, when it is
built: equality, hashing and the canonical order all read it.

``Expr`` is a map from atom multisets to rational coefficients.  The map is
canonical: no zero coefficients, atoms sorted by a fixed total order, so
two expressions are equal iff their maps are equal.  ``Expr(pairs)`` builds
the map from all its (atoms, coefficient) terms in one pass; builders pass
every term at once rather than adding one-term expressions in a loop.
``expr_to_json`` writes the JSON output; nothing reads it back.
"""

from __future__ import annotations

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
    """z + k in a builder's slot list; only ``_slots`` reads it."""

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
    """An atom is its key, computed once when it is built: ==, hash and the
    canonical order all read it.  A subclass sets ``key`` in its
    constructor through ``_identify``; atoms are not changed afterwards.
    EvenZeta names no z slot."""

    __slots__ = ("key", "_hash")
    z_slot = None

    def _identify(self, key: tuple) -> None:
        self.key, self._hash = key, hash(key)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Atom) and self.key == other.key

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return str(self)


class EvenZeta(_Atom):
    __slots__ = ("n",)

    def __init__(self, n: int):
        if n < 0 or n % 2:
            raise ValueError(f"EvenZeta argument must be even >= 0, got {n}")
        self.n = n
        self._identify((0, n))

    def __str__(self) -> str:
        return f"zeta({self.n})"


class _Slotted(_Atom):
    """The body of MTValue and MZValue: one exponent and one color per slot,
    and ``z_slot``, the index of the slot that holds z + exps[z_slot], or
    None.  Each class sets TAG, which leads its key, TYPE, its JSON type and
    printed name (phi at depth 1), and ``depth``.  An exponent enters the
    key as (holds z, real part, imaginary part)."""

    __slots__ = ("exps", "colors", "z_slot")

    def __init__(self, exps: tuple, colors: tuple[Fraction, ...], z_slot: Optional[int] = None):
        self.exps, self.colors, self.z_slot = exps, colors, z_slot
        slots = tuple((i == z_slot, e.real, e.imag) for i, e in enumerate(exps))
        self._identify((self.TAG, len(exps), slots, colors))

    def __str__(self) -> str:
        args = ",".join(
            str(e) if i != self.z_slot else f"z+{e}" if e else "z" for i, e in enumerate(self.exps)
        )
        cols = ",".join(str(c) for c in self.colors)
        return f"{self.TYPE if self.depth > 1 else 'phi'}({args}; {cols})"


class MTValue(_Slotted):
    __slots__ = ()
    TAG, TYPE = 4, "mt"

    @property
    def depth(self) -> int:
        return len(self.exps) - 1


class MZValue(_Slotted):
    __slots__ = ()
    TAG, TYPE = 3, "mzv"

    def __init__(self, exps: tuple, colors: tuple[Fraction, ...], z_slot: Optional[int] = None):
        if _even_zeta_form(exps, colors, z_slot):
            raise ValueError(f"trivial-color phi at {exps[0]} is EvenZeta")
        super().__init__(exps, colors, z_slot)

    @property
    def depth(self) -> int:
        return len(self.exps)


Atom = Union[EvenZeta, MTValue, MZValue]


def _even_zeta_form(es: tuple, cs: tuple[Fraction, ...], z_slot: Optional[int]) -> bool:
    """Whether the slots are those of a trivial-color phi at an even integer."""
    return len(es) == 1 and z_slot is None and not cs[0] and isinstance(es[0], Integral) and es[0] % 2 == 0


def _slots(
    exps: Sequence[Union[int, _ZPlus]], colors: Sequence[Union[int, Fraction]]
) -> tuple[tuple[int, ...], tuple[Fraction, ...], Optional[int]]:
    """The checked slots of an atom: integer exponents, colors reduced mod
    1, and the index of the one slot given as z + k (which then holds k),
    or None; at least one slot."""
    es, z_slot = [], None
    for i, e in enumerate(exps):
        if isinstance(e, _ZPlus):
            if z_slot is not None:
                raise ValueError("at most one slot may carry z")
            z_slot, e = i, e.k
        elif not isinstance(e, Integral):
            raise TypeError(f"exponent slot needs an integer or Z.shift(k), got {e!r}")
        es.append(int(e))
    cs = tuple(_canon_color(c) for c in colors)
    if len(es) != len(cs):
        raise ValueError("exponent/color length mismatch")
    if not es:
        raise ValueError("an atom needs at least one slot")
    return tuple(es), cs, z_slot


def lerch(exp: Union[int, _ZPlus], color: Union[int, Fraction]) -> Atom:
    """phi(exp; color), the depth-1 MZV."""
    return mzv((exp,), (color,))


def mt_value(
    exps: Sequence[Union[int, _ZPlus]], colors: Sequence[Union[int, Fraction]]
) -> Atom:
    """MT atom with sorted head slots; one slot is phi, and two slots
    MT(s; t) = phi(s + t)."""
    es, cs, z_slot = _slots(exps, colors)
    if len(es) == 2:
        es, cs, z_slot = (es[0] + es[1],), (_canon_color(cs[0] + cs[1]),), None if z_slot is None else 0
    if len(es) == 1:
        return _phi_or_mzv(es, cs, z_slot)
    # the z slot sorts after the other head slots, as its key does
    order = sorted(range(len(es) - 1), key=lambda i: (i == z_slot, es[i], cs[i])) + [len(es) - 1]
    return MTValue(
        tuple(es[i] for i in order),
        tuple(cs[i] for i in order),
        None if z_slot is None else order.index(z_slot),
    )


def mzv(
    exps: Sequence[Union[int, _ZPlus]], colors: Sequence[Union[int, Fraction]]
) -> Atom:
    """Colored MZV atom; a trivial-color even-integer phi is EvenZeta."""
    return _phi_or_mzv(*_slots(exps, colors))


def _phi_or_mzv(es: tuple, cs: tuple[Fraction, ...], z_slot: Optional[int]) -> Atom:
    if _even_zeta_form(es, cs, z_slot):
        return EvenZeta(es[0])
    return MZValue(es, cs, z_slot)


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
        """Replace z by a number everywhere; the slots that held z now hold
        numbers.  Requires Re(z0) >= 1 (evaluation domain)."""
        if complex(z0).real < 1:
            raise ValueError(f"substitution requires Re(z) >= 1, got {z0!r}")
        return Expr(
            (tuple(_substitute_atom(a, z0) for a in atoms), c)
            for atoms, c in self.terms.items()
        )


def _substitute_atom(a: Atom, z0: Any) -> Atom:
    """A depth-1 value may become EvenZeta; MT head slots are not re-sorted."""
    i = a.z_slot
    if i is None:
        return a
    exps = a.exps[:i] + (_canon_number(a.exps[i] + z0),) + a.exps[i + 1 :]
    return _phi_or_mzv(exps, a.colors, None) if isinstance(a, MZValue) else MTValue(exps, a.colors)


_by_key = operator.attrgetter("key")


# -- JSON schema ------------------------------------------------------------
# Expr: [{"coeff": "p/q", "atoms": [atom, ...]}, ...] in canonical order.


def _frac_str(c: Fraction) -> str:
    return f"{c.numerator}/{c.denominator}" if c.denominator != 1 else str(c.numerator)


def _exp_json(a: Atom, i: int) -> Any:
    return {"const": a.exps[i], "z": True} if i == a.z_slot else a.exps[i]


def atom_to_json(a: Atom) -> dict:
    if isinstance(a, EvenZeta):
        return {"type": "even_zeta", "n": a.n}
    if isinstance(a, MZValue) and len(a.exps) == 1:
        return {"type": "lerch", "exp": _exp_json(a, 0), "color": _frac_str(a.colors[0])}
    if isinstance(a, _Slotted):
        return {
            "type": a.TYPE,
            "exps": [_exp_json(a, i) for i in range(len(a.exps))],
            "colors": [_frac_str(c) for c in a.colors],
        }
    raise TypeError(f"cannot serialize {a!r}")


def expr_to_json(e: Expr) -> list[dict]:
    return [
        {"coeff": _frac_str(c), "atoms": [atom_to_json(a) for a in atoms]}
        for atoms, c in e.items()
    ]

