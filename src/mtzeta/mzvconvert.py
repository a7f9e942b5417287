"""Conversion of (colored) Mordell-Tornheim values with positive integer
exponents into rational-linear combinations of (colored) multiple zeta
values of the same weight and depth.

The engine is the exact two-variable partial-fraction identity

    1/(x^a y^b) = sum_{i<a} C(b-1+i, i) / (x^(a-i) (x+y)^(b+i))
                + sum_{i<b} C(a-1+i, i) / (y^(b-i) (x+y)^(a+i)),

applied repeatedly to pairs of summation variables until the denominators
form a strictly decreasing chain.  Phases transform exactly alongside:
e(g_x x) e(g_y y) = e(g_y (x+y)) e((g_x - g_y) x).

Closed two- and three-variable formulas are implemented separately and
serve as cross-checks for the general rewriting.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence

from .exact import binomial, multinomial
from .symexpr import Atom, Expr, lerch, mzv

__all__ = [
    "mt_convergent",
    "check_mt_convergence",
    "partial_fraction_pair",
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


def partial_fraction_pair(a: int, b: int) -> list[tuple[int, int, int]]:
    """Terms of the two-variable identity as (which, i, coeff):
    which=0 keeps x with exponent a-i and gives (x+y) exponent b+i;
    which=1 keeps y with exponent b-i and gives (x+y) exponent a+i."""
    if a < 1 or b < 1:
        raise ValueError("partial fractions need positive exponents")
    out = [(0, i, binomial(b - 1 + i, i)) for i in range(a)]
    out += [(1, i, binomial(a - 1 + i, i)) for i in range(b)]
    return out


def per_sum(args: Sequence, f: Callable[..., Expr]) -> Expr:
    """sum_{j=1}^{n} f(x_1, ..., x_{j-1}, x_{j+1}, ..., x_n, x_j)."""
    args = tuple(args)
    total = Expr.zero()
    for j in range(len(args)):
        rest = args[:j] + args[j + 1 :] + (args[j],)
        total = total + f(*rest)
    return total


def mt_to_mzv_depth2(a: int, b: int, c: int) -> Expr:
    """Two free variables:  MT(a,b,c) = per{a,b} sum_{v<b} C(a+v-1, v)
    zeta(c+a+v, b-v)."""
    for e in (a, b, c):
        if not isinstance(e, int) or e < 1:
            raise ValueError("exponents must be positive integers")
    check_mt_convergence((a, b, c))

    def body(x: int, y: int) -> Expr:
        out = Expr.zero()
        for v in range(y):
            out = out + Expr.term(
                binomial(x + v - 1, v), (mzv((c + x + v, y - v), (0, 0)),)
            )
        return out

    return per_sum((a, b), body)


def mt_to_mzv_depth3(a: int, b: int, c: int, d: int) -> Expr:
    """Three free variables, literal triple-sum formula."""
    for e in (a, b, c, d):
        if not isinstance(e, int) or e < 1:
            raise ValueError("exponents must be positive integers")
    check_mt_convergence((a, b, c, d))

    def body(x: int, y: int, w: int) -> Expr:
        out = Expr.zero()
        for v1 in range(x):
            for v2 in range(y):
                m = multinomial((v1, v2, w - 1))
                inner = Expr.zero()
                for v3 in range(x - v1):
                    inner = inner + Expr.term(
                        binomial(y - v2 + v3 - 1, v3),
                        (mzv((w + d + v1 + v2, y - v2 + v3, x - v1 - v3), (0, 0, 0)),),
                    )
                for v3 in range(y - v2):
                    # second kind keeps y and transfers from x, so the
                    # surviving-variable slot (last) holds y's exponent
                    inner = inner + Expr.term(
                        binomial(x - v1 + v3 - 1, v3),
                        (mzv((w + d + v1 + v2, x - v1 + v3, y - v2 - v3), (0, 0, 0)),),
                    )
                out = out + inner.scale(m)
        return out

    return per_sum((a, b, c), body)


# ---------------------------------------------------------------------------
# General rewriting.  A state is a tree of summation variables:
#   node = (exp, color, rel, children)
# where children is a tuple of node ids and rel constrains them:
#   '=' : sum(children) == value of this node,
#   '<' : sum(children) <  value of this node.
# Leaves range freely over integers >= 1.  The MT value starts as a root
# (total slot) whose children, under '=', are the k free variables.  The
# state is a chain exactly when every node has one child under '<'; reading
# exponents root-down then gives a colored MZV.


_Node = tuple[int, Fraction, str, tuple[int, ...]]
_State = dict[int, _Node]

_MAX_STEPS = 20_000_000


def _find_contraction(state: _State) -> int | None:
    for nid, (_, _, rel, ch) in state.items():
        if rel == "=" and len(ch) == 1:
            return nid
    return None


def _find_wide(state: _State) -> int | None:
    best = None
    for nid, (_, _, _, ch) in state.items():
        if len(ch) >= 2 and (best is None or nid < best):
            best = nid
    return best


def _merge_branches(
    state: _State, vid: int, next_id: int
) -> list[tuple[int, _State, int]]:
    """All partial-fraction branches from merging the two lowest-id children
    of node vid.  Returns (coefficient, new state, new next id) triples."""
    e_v, g_v, rel_v, ch_v = state[vid]
    u, w = sorted(ch_v)[:2]
    rest = tuple(c for c in ch_v if c not in (u, w))
    out = []
    for keep, gone in ((u, w), (w, u)):
        e_k, g_k, rel_k, ch_k = state[keep]
        e_g, g_g, rel_g, ch_g = state[gone]
        for i in range(e_k):
            coeff = binomial(e_g - 1 + i, i)
            new = dict(state)
            del new[gone]
            new[keep] = (e_k - i, (g_k - g_g) % 1, rel_k, ch_k)
            sigma_children = (keep,) + ch_g
            sigma_rel = rel_g if ch_g else "<"
            new[next_id] = (e_g + i, g_g, sigma_rel, sigma_children)
            new[vid] = (e_v, g_v, rel_v, rest + (next_id,))
            out.append((coeff, new, next_id + 1))
    return out


def _read_chain(state: _State, root: int) -> Atom:
    exps: list[int] = []
    colors: list[Fraction] = []
    nid = root
    while True:
        e, g, rel, ch = state[nid]
        exps.append(e)
        colors.append(g)
        if not ch:
            break
        if rel != "<" or len(ch) != 1:
            raise AssertionError("state is not a chain")
        nid = ch[0]
    return mzv(exps, colors)


def mt_to_mzv(
    exps: Sequence[int], colors: Sequence[Fraction | int] | None = None
) -> Expr:
    """Rewrite a colored MT value (last slot = total) as a combination of
    colored MZVs of the same weight and depth.

    Merge order is deterministic: the two lowest-numbered unmerged
    variables combine first, so identical inputs give identical output.
    """
    exps = tuple(exps)
    if colors is None:
        colors = (0,) * len(exps)
    cols = tuple(Fraction(c) % 1 for c in colors)
    if len(exps) != len(cols):
        raise ValueError("exponent/color length mismatch")
    if any(not isinstance(e, int) or e < 1 for e in exps):
        raise ValueError(f"exponents must be positive integers, got {exps}")
    check_mt_convergence(exps)

    if len(exps) == 1:
        return Expr.atom(lerch(exps[0], cols[0]))

    k = len(exps) - 1
    weight = sum(exps)
    state: _State = {j: (exps[j], cols[j], "<", ()) for j in range(k)}
    state[k] = (exps[-1], cols[-1], "=", tuple(range(k)))

    result: dict[tuple, Fraction] = {}
    stack: list[tuple[Fraction, _State, int]] = [(Fraction(1), state, k + 1)]
    steps = 0
    while stack:
        steps += 1
        if steps > _MAX_STEPS:
            raise ValueError(
                f"rewriting exceeded its budget of {_MAX_STEPS} steps"
            )
        coeff, st, nxt = stack.pop()
        cid = _find_contraction(st)
        if cid is not None:
            e, g, _, (child,) = st[cid]
            ec, gc, relc, chc = st[child]
            st = dict(st)
            del st[child]
            st[cid] = (e + ec, (g + gc) % 1, relc, chc)
            stack.append((coeff, st, nxt))
            continue
        vid = _find_wide(st)
        if vid is None:
            key = (_read_chain(st, k),)
            result[key] = result.get(key, Fraction(0)) + coeff
            continue
        for c, new_state, new_next in _merge_branches(st, vid, nxt):
            stack.append((coeff * c, new_state, new_next))

    out = Expr(result)
    for atom in out.atoms():
        _check_conserved(atom, weight, k)
    return out


def _check_conserved(atom: Atom, weight: int, depth: int) -> None:
    from .symexpr import EvenZeta, Lerch, MZValue

    if isinstance(atom, EvenZeta):
        vals = [atom.n]
    elif isinstance(atom, Lerch):
        vals = [atom.exp.const]
    elif isinstance(atom, MZValue):
        vals = [e.const for e in atom.exps]
    else:  # pragma: no cover - rewriting emits only the above
        raise AssertionError(f"unexpected atom {atom!r}")
    assert sum(vals) == weight, "weight not conserved"
    assert len(vals) == depth, "depth not conserved"
