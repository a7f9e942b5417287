"""Canonical algebra for rational-linear combinations of products of
transcendental atoms, with one optional symbolic variable z in exponent slots.

Atoms
-----
* ``EvenZeta(n)``: zeta at an even integer n >= 0 (kept symbolic; n = 0 is
  legal and evaluates to -1/2).
* ``MTValue(exps, colors)``: a Mordell-Tornheim value of depth >= 2; the
  last slot is the total-sum slot.  The first-depth slots are sorted, since
  the underlying series is symmetric under permuting them jointly with
  their colors.  Input of one slot, or of two (depth 1), collapses to
  phi, the depth-1 ``MZValue``.
* ``MZValue(exps, colors)``: a (colored) multiple zeta value; slots are
  ordered leading-first and never sorted.  Depth 1 is the periodic zeta
  phi(e; color) = sum over m >= 1 of e(color*m)/m^e, printed ``phi(e; c)``
  and serialized as type "lerch".  Its trivial-color even-integer form is
  ``EvenZeta``, and the constructor rejects it.

Build atoms with ``lerch`` (phi), ``mt_value`` and ``mzv``: they check
and canonicalize their slots in one function (``_slots``), and
``mt_value`` sorts the head slots and collapses one or two slots to phi.

Colors are rationals reduced mod 1 by ``_canon_color``, the one place in
the package that reduces a color; color 0 is the trivial phase.
Exponents are affine in z with z-coefficient 0 or 1; a product term may
contain at most one z-bearing atom (constructions that would violate this
signal a bug and are rejected).  ``Expr.substitute`` replaces z by a
number, after which the slots hold plain numbers (int, float, Fraction or
complex) and the atoms keep their classes.

``Expr`` is a map from atom multisets to rational coefficients.  The map is
canonical: no zero coefficients, atoms sorted by a fixed total order, so
two expressions are equal iff their maps are equal.  ``Expr(pairs)`` builds
the map from all its (atoms, coefficient) terms in one pass; builders pass
every term at once rather than adding one-term expressions in a loop.
``expr_to_json`` writes the JSON output; nothing reads it back.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from numbers import Integral
from typing import Any, Iterable, Iterator, Sequence, Union

__all__ = [
    "AffineExp",
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


@dataclass(frozen=True)
class AffineExp:
    """Exponent const + z (when has_z) or plain const.  The const is an
    integer while z is symbolic and any number once z is substituted."""

    const: Any
    has_z: bool = False

    def __add__(self, other: "AffineExp") -> "AffineExp":
        if self.has_z and other.has_z:
            raise ValueError("exponent would carry 2*z")
        return AffineExp(self.const + other.const, self.has_z or other.has_z)

    def shift(self, c: int) -> "AffineExp":
        return AffineExp(self.const + c, self.has_z)

    def substitute(self, z0: Any) -> "AffineExp":
        if not self.has_z:
            return self
        return AffineExp(_canon_number(self.const + z0))

    def key(self) -> tuple:
        c = self.const
        if type(c) is int:
            return (self.has_z, c, 0)
        c = complex(c)
        return (self.has_z, c.real, c.imag)

    def __str__(self) -> str:
        if self.has_z:
            return f"z+{self.const}" if self.const else "z"
        return str(self.const)


Z = AffineExp(0, True)


def _canon_color(c: Union[int, Fraction]) -> Fraction:
    return Fraction(c) % 1


def _canon_number(v: Any) -> Any:
    """Collapse integral floats/Fractions to int; keep everything else."""
    if isinstance(v, Integral):
        return int(v)
    if isinstance(v, Fraction):
        return int(v) if v.denominator == 1 else v
    if isinstance(v, float):
        return int(v) if v.is_integer() else v
    if isinstance(v, complex):
        if v.imag == 0:
            return _canon_number(v.real)
        return v
    return v


@dataclass(frozen=True)
class EvenZeta:
    n: int

    def __post_init__(self) -> None:
        if self.n < 0 or self.n % 2:
            raise ValueError(f"EvenZeta argument must be even >= 0, got {self.n}")

    def key(self) -> tuple:
        return (0, self.n)

    def __str__(self) -> str:
        return f"zeta({self.n})"


@dataclass(frozen=True)
class _Slotted:
    """The body of MTValue and MZValue: one exponent and one color per slot.
    Each class sets TAG, which leads its key, TYPE, its JSON type and
    printed name (phi at depth 1), and ``depth``.  Equality is per class."""

    exps: tuple[AffineExp, ...]
    colors: tuple[Fraction, ...]

    def key(self) -> tuple:
        return (
            self.TAG,
            len(self.exps),
            tuple(e.key() for e in self.exps),
            self.colors,
        )

    def __str__(self) -> str:
        args = ",".join(str(e) for e in self.exps)
        cols = ",".join(str(c) for c in self.colors)
        return f"{self.TYPE if self.depth > 1 else 'phi'}({args}; {cols})"


class MTValue(_Slotted):
    TAG, TYPE = 4, "mt"

    @property
    def depth(self) -> int:
        return len(self.exps) - 1


@dataclass(frozen=True)
class MZValue(_Slotted):
    TAG, TYPE = 3, "mzv"

    def __post_init__(self) -> None:
        if len(self.exps) == 1 and not self.colors[0] and _even_integer(self.exps[0]):
            raise ValueError(f"trivial-color phi at {self.exps[0]} is EvenZeta")

    @property
    def depth(self) -> int:
        return len(self.exps)


Atom = Union[EvenZeta, MTValue, MZValue]


def atom_has_z(a: Atom) -> bool:
    return not isinstance(a, EvenZeta) and any(e.has_z for e in a.exps)


def _even_integer(e: AffineExp) -> bool:
    return not e.has_z and isinstance(e.const, Integral) and e.const % 2 == 0


def _slots(
    exps: Sequence[Union[int, AffineExp]], colors: Sequence[Union[int, Fraction]]
) -> tuple[tuple[AffineExp, ...], tuple[Fraction, ...]]:
    """The checked slots of an atom: exponents as AffineExp (an integer n
    as AffineExp(n)), colors reduced mod 1, at least one slot and at most
    one z."""
    for e in exps:
        if not isinstance(e, (AffineExp, Integral)):
            raise TypeError(f"exponent slot needs an integer or AffineExp, got {e!r}")
    es = tuple(e if isinstance(e, AffineExp) else AffineExp(int(e)) for e in exps)
    cs = tuple(_canon_color(c) for c in colors)
    if len(es) != len(cs):
        raise ValueError("exponent/color length mismatch")
    if not es:
        raise ValueError("an atom needs at least one slot")
    if sum(e.has_z for e in es) > 1:
        raise ValueError("at most one slot may carry z")
    return es, cs


def lerch(exp: Union[int, AffineExp], color: Union[int, Fraction]) -> Atom:
    """phi(exp; color), the depth-1 MZV."""
    return mzv((exp,), (color,))


def mt_value(
    exps: Sequence[Union[int, AffineExp]], colors: Sequence[Union[int, Fraction]]
) -> Atom:
    """MT atom with sorted head slots; one slot is phi, and two slots
    MT(s; t) = phi(s + t)."""
    es, cs = _slots(exps, colors)
    if len(es) == 2:
        es, cs = (es[0] + es[1],), (cs[0] + cs[1],)
    if len(es) == 1:
        return mzv(es, cs)
    head = sorted(zip(es[:-1], cs[:-1]), key=lambda p: (p[0].key(), p[1]))
    es = tuple(e for e, _ in head) + (es[-1],)
    cs = tuple(c for _, c in head) + (cs[-1],)
    return MTValue(es, cs)


def mzv(
    exps: Sequence[Union[int, AffineExp]], colors: Sequence[Union[int, Fraction]]
) -> Atom:
    """Colored MZV atom; a trivial-color even-integer phi is EvenZeta."""
    es, cs = _slots(exps, colors)
    if len(es) == 1 and not cs[0] and _even_integer(es[0]):
        return EvenZeta(es[0].const)
    return MZValue(es, cs)


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
            key = tuple(sorted(atoms, key=lambda a: a.key()))
            if sum(atom_has_z(a) for a in key) > 1:
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
        return iter(sorted(self.terms.items(), key=lambda kv: _term_sort_key(kv[0])))

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
    if not atom_has_z(a):
        return a
    exps = tuple(e.substitute(z0) for e in a.exps)
    return mzv(exps, a.colors) if isinstance(a, MZValue) else MTValue(exps, a.colors)


def _term_sort_key(atoms: TermKey) -> tuple:
    return tuple(a.key() for a in atoms)


# -- JSON schema ------------------------------------------------------------
# Expr: [{"coeff": "p/q", "atoms": [atom, ...]}, ...] in canonical order.


def _frac_str(c: Fraction) -> str:
    return f"{c.numerator}/{c.denominator}" if c.denominator != 1 else str(c.numerator)


def _exp_json(e: AffineExp) -> Any:
    return {"const": e.const, "z": True} if e.has_z else e.const


def atom_to_json(a: Atom) -> dict:
    if isinstance(a, EvenZeta):
        return {"type": "even_zeta", "n": a.n}
    if isinstance(a, MZValue) and len(a.exps) == 1:
        return {"type": "lerch", "exp": _exp_json(a.exps[0]), "color": _frac_str(a.colors[0])}
    if isinstance(a, _Slotted):
        return {
            "type": a.TYPE,
            "exps": [_exp_json(e) for e in a.exps],
            "colors": [_frac_str(c) for c in a.colors],
        }
    raise TypeError(f"cannot serialize {a!r}")


def expr_to_json(e: Expr) -> list[dict]:
    return [
        {"coeff": _frac_str(c), "atoms": [atom_to_json(a) for a in atoms]}
        for atoms, c in e.items()
    ]

