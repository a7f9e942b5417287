"""Conversion of (colored) Mordell-Tornheim values with positive integer
exponents into rational-linear combinations of (colored) multiple zeta
values of the same weight and depth.

Free variable m_i of MT(s_1, ..., s_k; t) with colors g_1, ..., g_k and
g_total corresponds to the iterated-integral word x0^(s_i-1) y(g_i), and

    MT = sum over w in x0^(s_1-1) y(g_1) sh ... sh x0^(s_k-1) y(g_k)
         of zeta(x0^t w),

the shuffle product of iterated integrals (Borwein, Bradley, Broadhurst,
Lisonek, "Special values of multiple polylogarithms", Trans. AMS 2001).
Reading w = x0^(a_1-1) y(g'_1) ... x0^(a_d-1) y(g'_d) gives the MZV with
exponents (a_1 + t, a_2, ..., a_d) and colors h_1 = g'_1 + g_total,
h_j = g'_j - g'_(j-1): the colors are the successive differences of the
y-letters' colors.

Closed two- and three-variable formulas are implemented separately and
serve as cross-checks for the general rewriting.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence

from .exact import binomial, multinomial
from .symexpr import Atom, Expr, MTValue, MZValue, mt_value, mzv

__all__ = [
    "mt_convergent",
    "check_mt_convergence",
    "per_sum",
    "mt_to_mzv_depth2",
    "mt_to_mzv_depth3",
    "mt_to_mzv",
]


def mt_convergent(exps: Sequence[float]) -> bool:
    """Absolute-convergence test for an MT value (last slot = total slot):
    after sorting the first k real parts ascending, require
    sigma_{k+1} + sigma_1 + ... + sigma_r > r for every r = 1..k."""
    if len(exps) < 2:
        return complex(exps[0]).real > 1
    head = sorted(complex(e).real for e in exps[:-1])
    tail = complex(exps[-1]).real
    acc = tail
    for r, sigma in enumerate(head, start=1):
        acc += sigma
        if not acc > r:
            return False
    return True


def check_mt_convergence(exps: Sequence[float]) -> None:
    if not mt_convergent(exps):
        raise ValueError(f"MT value with exponents {tuple(exps)} diverges")


def per_sum(args: Sequence, f: Callable[..., Expr]) -> Expr:
    """sum_{j=1}^{n} f(x_1, ..., x_{j-1}, x_{j+1}, ..., x_n, x_j)."""
    args = tuple(args)
    return Expr(
        pair
        for j in range(len(args))
        for pair in f(*args[:j], *args[j + 1 :], args[j]).terms.items()
    )


def mt_to_mzv_depth2(a: int, b: int, c: int) -> Expr:
    """Two free variables:  MT(a,b,c) = per{a,b} sum_{v<b} C(a+v-1, v)
    zeta(c+a+v, b-v)."""
    for e in (a, b, c):
        if not isinstance(e, int) or e < 1:
            raise ValueError("exponents must be positive integers")
    check_mt_convergence((a, b, c))

    def body(x: int, y: int) -> Expr:
        return Expr(
            ((mzv((c + x + v, y - v), (0, 0)),), binomial(x + v - 1, v))
            for v in range(y)
        )

    return per_sum((a, b), body)


def mt_to_mzv_depth3(a: int, b: int, c: int, d: int) -> Expr:
    """Three free variables, literal triple-sum formula."""
    for e in (a, b, c, d):
        if not isinstance(e, int) or e < 1:
            raise ValueError("exponents must be positive integers")
    check_mt_convergence((a, b, c, d))

    def terms(x: int, y: int, w: int):
        for v1 in range(x):
            for v2 in range(y):
                m = multinomial((v1, v2, w - 1))
                for v3 in range(x - v1):
                    yield (
                        (mzv((w + d + v1 + v2, y - v2 + v3, x - v1 - v3), (0, 0, 0)),),
                        m * binomial(y - v2 + v3 - 1, v3),
                    )
                for v3 in range(y - v2):
                    # second kind keeps y and transfers from x, so the
                    # surviving-variable slot (last) holds y's exponent
                    yield (
                        (mzv((w + d + v1 + v2, x - v1 + v3, y - v2 - v3), (0, 0, 0)),),
                        m * binomial(x - v1 + v3 - 1, v3),
                    )

    return per_sum((a, b, c), lambda x, y, w: Expr(terms(x, y, w)))


# ---------------------------------------------------------------------------
# General rewriting: the shuffle of the module docstring, written out one
# letter at a time from the front of the word.  The unfinished suffixes
# x0^zeros y(g) form a sorted tuple of (zeros, g); equal suffixes are taken
# once, times their multiplicity.  Partial words that agree on the
# unfinished suffixes and on the letters written so far merge, with
# coefficients summed.  Layers are a loop, not a recursion, so words of
# thousands of letters stay clear of the recursion limit.

# Each emitted term costs the length of its key, unfinished suffixes plus
# finished slots (the depth k).  The two live layers hold at most the terms
# emitted so far, so the budget bounds memory as well as time, whatever the
# depth.  (3,)^9 needs 1,959,344 units and eight distinct colors 876,800.
_MAX_STEPS = 4_000_000


def mt_to_mzv(
    exps: Sequence[int], colors: Sequence[Fraction | int] | None = None
) -> Expr:
    """Rewrite a colored MT value (last slot = total) as a combination of
    colored MZVs of the same weight and depth.

    A shuffled word whose y-letters carry colors g'_1..g'_d gives the MZV
    with colors h_1 = g'_1 + g_total and h_j = g'_j - g'_(j-1); the total
    exponent is added to its first slot.
    """
    exps = tuple(exps)
    if any(not isinstance(e, int) or e < 1 for e in exps):
        raise ValueError(f"exponents must be positive integers, got {exps}")
    check_mt_convergence(exps)
    atom = mt_value(exps, (0,) * len(exps) if colors is None else colors)
    if not isinstance(atom, MTValue):  # one or two slots: phi
        return Expr.atom(atom)
    exps, cols = atom.exps, atom.colors

    k = len(exps) - 1
    weight = sum(exps)
    # every layer costs at least one step
    if weight - exps[-1] > _MAX_STEPS:
        raise ValueError(f"rewriting needs {weight - exps[-1]} layers, over its budget of {_MAX_STEPS} key entries")
    # Colors travel as indices into `palette`, since small ints hash fast.
    palette = sorted(set(cols[:-1]))
    start = tuple(sorted((e - 1, palette.index(g)) for e, g in zip(exps, cols[:-1])))
    # (unfinished suffixes, finished slots (exponent, color), x0 letters
    # written since the last y) -> coefficient
    layer: dict[tuple, int] = {(start, (), 0): 1}
    steps = 0
    for _ in range(weight - exps[-1]):
        nxt: dict[tuple, int] = {}
        for (state, slots, run), coeff in layer.items():
            for i, (zeros, g) in enumerate(state):
                if i and state[i - 1] == state[i]:
                    continue
                steps += len(state) + len(slots)
                if steps > _MAX_STEPS:
                    raise ValueError(
                        f"rewriting exceeded its budget of {_MAX_STEPS} key entries"
                    )
                rest = state[:i] + state[i + 1 :]
                if zeros:
                    key = (tuple(sorted(rest + ((zeros - 1, g),))), slots, run + 1)
                else:
                    key = (rest, slots + ((run + 1, g),), 0)
                nxt[key] = nxt.get(key, 0) + coeff * state.count(state[i])
        layer = nxt

    def terms():
        for (_, slots, _), coeff in layer.items():
            es = [e for e, _ in slots]
            es[0] += exps[-1]
            gs = [palette[g] for _, g in slots]
            hs = [gs[0] + cols[-1]] + [b - a for a, b in zip(gs, gs[1:])]
            yield (mzv(es, hs),), coeff

    out = Expr(terms())
    for atom in out.atoms():
        _check_conserved(atom, weight, k)
    return out


def _check_conserved(atom: Atom, weight: int, depth: int) -> None:
    # an MT value of depth >= 2 rewrites to MZVs of depth >= 2
    if not isinstance(atom, MZValue):  # pragma: no cover
        raise AssertionError(f"unexpected atom {atom!r}")
    assert sum(atom.exps) == weight, "weight not conserved"
    assert len(atom.exps) == depth, "depth not conserved"
