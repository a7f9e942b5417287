from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mtzeta.numerics import EvalConfig, eval_expr, mt_direct
from mtzeta.symexpr import (
    EvenZeta,
    Expr,
    MTValue,
    MZValue,
    Z,
    _canonical,
    atom_to_json,
    lerch,
    mt_value,
    mzv,
)


def test_merge_duplicates():
    x = lerch(Z.shift(2), Fraction(1, 3))
    assert Expr.term(2, (x,)) + Expr.term(3, (x,)) == Expr.term(5, (x,))


def test_multiset_key_order_independent():
    a = EvenZeta(2)
    b = lerch(3, Fraction(1, 2))
    assert Expr.term(1, (a, b)) == Expr.term(1, (b, a))


def test_zero_coefficients_dropped():
    x = Expr.atom(EvenZeta(2))
    assert (x - x) == Expr()
    assert not (x - x)


def test_distributivity_and_scaling():
    x = Expr.atom(EvenZeta(2))
    y = Expr.atom(EvenZeta(4))
    z = Expr.atom(lerch(5, Fraction(1, 3)))
    assert (x + y) * z == x * z + y * z
    assert x.scale(Fraction(1, 2)).scale(2) == x
    assert x * Expr() == Expr()


def test_two_z_atoms_rejected():
    a = lerch(Z.shift(2), 0)
    b = lerch(Z.shift(3), Fraction(1, 2))
    with pytest.raises(ValueError):
        Expr.atom(a) * Expr.atom(b)


def test_mt_depth1_collapses_to_lerch():
    a = mt_value((2, 3), (Fraction(1, 3), Fraction(1, 2)))
    assert a == MZValue((5,), (Fraction(5, 6),))
    trivial = mt_value((2, 2), (0, 0))
    assert trivial == EvenZeta(4)
    # one slot is phi itself, as for mzv
    for e, c in ((5, Fraction(4, 3)), (Z.shift(2), Fraction(1, 2)), (4, 0), (3, 0)):
        assert mt_value((e,), (c,)) == lerch(e, c) == mzv((e,), (c,))


def test_mt_slot_symmetry():
    a = mt_value((1, Z, 1), (0, Fraction(1, 3), 0))
    b = mt_value((Z, 1, 1), (Fraction(1, 3), 0, 0))
    assert a == b
    c = mt_value((1, 1, Z), (0, 0, Fraction(1, 3)))
    assert a != c  # z in the total slot is a different value


def test_mzv_not_sorted():
    assert mzv((2, 3), (0, 0)) != mzv((3, 2), (0, 0))


def test_colors_mod_one():
    assert lerch(3, Fraction(4, 3)) == lerch(3, Fraction(1, 3))
    assert mt_value((1, 1, 2), (1, 0, 0)) == mt_value((1, 1, 2), (0, 0, 0))


def test_substitute_examples():
    e = Expr.atom(lerch(Z.shift(2), 0))
    s = e.substitute(2)
    assert s == Expr.atom(EvenZeta(4))
    m = Expr.atom(mt_value((1, 1, Z), (0, 0, Fraction(1, 3))))
    sm = m.substitute(2)
    ((atoms, coeff),) = list(sm.items())
    assert coeff == 1
    assert atoms[0] == MTValue((1, 1, 2), (Fraction(0), Fraction(0), Fraction(1, 3)))
    assert atoms[0].z_slot is None and next(m.atoms()).z_slot == 2
    # MT(3, z, 2) at z = 1 is the built MT(1, 3, 2)
    e = Expr.atom(mt_value((3, Z, 2), (0, 0, 0))) - Expr.atom(mt_value((1, 3, 2), (0, 0, 0)))
    assert e.substitute(1) == Expr()


def test_substitute_domain():
    e = Expr.atom(lerch(Z.shift(2), 0))
    with pytest.raises(ValueError):
        e.substitute(0.5)
    e.substitute(1)  # boundary allowed


def test_substitute_odd_integer_stays_numeric_request():
    e = Expr.atom(lerch(Z.shift(2), 0)).substitute(3)
    ((atoms, _),) = list(e.items())
    assert atoms[0] == MZValue((5,), (Fraction(0),))


def test_substitute_mixed_slots_sort_and_evaluate():
    # z rides a head slot, which keeps its place and holds a complex number;
    # ordering the terms compares it with the integer slot of a z-free atom
    m = mt_value((1, Z, 2), (0, Fraction(1, 3), 0))
    plain = mt_value((1, 3, 2), (0, 0, 0))
    s = (Expr.term(2, (m,)) + Expr.atom(plain)).substitute(2 + 1j)
    head = MTValue((1, 2 + 1j, 2), m.colors)
    assert [atoms for atoms, _ in s.items()] == [(head,), (plain,)]
    cfg = EvalConfig(precision_bits=64, target_tol=1e-6)
    r = eval_expr(Expr.atom(m), 2 + 1j, cfg)
    d = mt_direct((1, 2 + 1j, 2), m.colors, cfg)
    assert r.value == d.value and r.bound >= d.bound


def test_lerch_rejects_even_zeta_form():
    # the trivial-color phi at an even integer is its even form zeta(n), keyed
    # (0, n); a colored, odd or z-bearing phi is a genuine phi value
    assert lerch(4, 0) == EvenZeta(4) and lerch(4, 0).key == (0, 4)
    for a in (lerch(4, Fraction(1, 2)), lerch(5, 0), lerch(Z.shift(4), 0)):
        assert a.key[:2] == (3, 1) and str(a).startswith("phi(")


def test_even_zeta_is_one_atom():
    # EvenZeta(n), mzv((n,), (0,)), lerch(n, 0) and phi(z + j; 0) at z = n - j
    # are one atom, printed zeta(n) and serialized as even_zeta
    for n in (0, 2, 4, 10):
        subs = [Expr.atom(lerch(Z.shift(j), 0)).substitute(n - j) for j in (-1, 0, n - 1) if n - j >= 1]
        atoms = [EvenZeta(n), mzv((n,), (0,)), lerch(n, 0)] + [next(e.atoms()) for e in subs]
        for a in atoms:
            assert (a, a.key, hash(a), str(a)) == (atoms[0], (0, n), hash((0, n)), f"zeta({n})")
            assert atom_to_json(a) == {"type": "even_zeta", "n": n}


def test_zero_head_exponent_is_an_mzv():
    # MT(0, b; t) sums its free index out: zeta(t, b) with colors
    # (c_1 + c_t, c_2 - c_1); at depth 3, or with z, it stays an MT value
    c = (Fraction(1, 5), Fraction(1, 3), Fraction(1, 2))
    assert mt_value((2, 0, 3), (c[1], c[0], c[2])) == mzv((3, 2), (c[0] + c[2], c[1] - c[0]))
    assert mt_value((0, 2, 3), (0, 0, 0)) == mzv((3, 2), (0, 0))
    for exps in ((0, 2, 1, 3), (0, 2, Z), (0, Z, 3), (0, 0, 3), (0, 2, 1)):
        assert isinstance(mt_value(exps, (0,) * len(exps)), MTValue), exps
    (a,) = Expr.atom(mt_value((0, 2, Z), (0, 0, 0))).substitute(3).atoms()
    assert a == mzv((3, 2), (0, 0))


def _four_class_key(a):
    """The sort key of the scheme in which phi was a class of its own, tagged
    2 between even zetas (0), MZVs (3) and MT values (4)."""
    if isinstance(a, MZValue) and a.colors == (0,) and a.z_slot is None and a.exps[0] % 2 == 0:
        return (0, a.exps[0])
    exps = a.key[2]
    if isinstance(a, MZValue) and len(exps) == 1:
        return (2, exps[0], a.colors[0])
    return (3 if isinstance(a, MZValue) else 4, len(exps), exps, a.colors)


_colors = st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1, 4)])
_exps = st.one_of(st.integers(1, 7), st.integers(0, 4).map(Z.shift))


@st.composite
def _any_atom(draw):
    kind = draw(st.sampled_from(["even", "mzv", "lerch", "mt"]))
    if kind == "even":
        return EvenZeta(2 * draw(st.integers(0, 4)))
    if kind == "lerch":
        return lerch(draw(_exps), draw(_colors))
    depth = draw(st.integers(1, 3) if kind == "mzv" else st.integers(2, 3))
    slots = depth + (kind == "mt")
    exps = draw(st.lists(st.integers(1, 5), min_size=slots, max_size=slots))
    if draw(st.booleans()):
        exps[draw(st.integers(0, slots - 1))] = Z.shift(draw(st.integers(0, 3)))
    colors = draw(st.lists(_colors, min_size=slots, max_size=slots))
    return (mzv if kind == "mzv" else mt_value)(exps, colors)


@given(st.lists(_any_atom(), max_size=12))
def test_canonical_order_unchanged_by_phi_fold(atoms):
    # phi is the depth-1 MZValue, keyed (3, 1, ...): the canonical order, and
    # with it every printed expression, is the one of the four-class scheme
    assert sorted(atoms, key=lambda a: a.key) == sorted(atoms, key=_four_class_key)


_small_colors = st.integers(1, 12).flatmap(lambda q: st.builds(Fraction, st.integers(-q, 2 * q), st.just(q)))


@st.composite
def _built(draw, z_slots=st.integers(0, 1)):
    """(builder, slots, colors) for mt_value, mzv or lerch: int slots, of
    which z_slots are Z.shift(k), and colors p/q with q <= 12."""
    builder = draw(st.sampled_from([mt_value, mzv, lerch]))
    nz = draw(z_slots)
    n = 1 if builder is lerch else draw(st.integers(max(nz, 1), 4))
    slots = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    for i in draw(st.permutations(range(n)))[:nz]:
        slots[i] = Z.shift(draw(st.integers(0, 3)))
    return builder, slots, draw(st.lists(_small_colors, min_size=n, max_size=n))


def _build(builder, slots, colors):
    return lerch(slots[0], colors[0]) if builder is lerch else builder(slots, colors)


@st.composite
def _atom_pairs(draw):
    """Two atoms: independent, or the second built from the first's slots
    with MT head slots permuted (jointly with their colors) and colors
    shifted by integers, which names the same atom."""
    x = draw(_built())
    if draw(st.booleans()):
        return _build(*x), _build(*draw(_built()))
    builder, slots, colors = x
    colors = [c + draw(st.integers(-2, 2)) for c in colors]
    if builder is mt_value and len(slots) > 2:
        head = draw(st.permutations(list(zip(slots[:-1], colors[:-1]))))
        slots, colors = [e for e, _ in head] + slots[-1:], [c for _, c in head] + colors[-1:]
    return _build(*x), _build(builder, slots, colors)


@settings(derandomize=True, max_examples=400)
@given(_atom_pairs())
def test_atom_identity_is_its_key(pair):
    # ==, hash and the canonical order read one key; within a class the
    # printed and the JSON forms name an atom exactly as the key does
    a, b = pair
    assert (a == b) == (a.key == b.key)
    if a == b:
        assert hash(a) == hash(b)
    if type(a) is type(b):
        assert (a == b) == (atom_to_json(a) == atom_to_json(b)) == (str(a) == str(b))


@settings(derandomize=True, max_examples=200)
@given(_built(), st.integers(1, 4))
def test_substitution_keys_as_the_built_atom(x, z0):
    # substituting an integer for z gives the atom built with that integer:
    # MT head slots re-sorted, even forms and collapses included
    builder, slots, colors = x
    ((atoms, _),) = Expr.atom(_build(*x)).substitute(z0).items()
    (got,) = atoms
    direct = _build(builder, [z0 + e.k if isinstance(e, type(Z)) else e for e in slots], colors)
    assert got.key == direct.key and got == direct and hash(got) == hash(direct)


@settings(derandomize=True, max_examples=100)
@given(_built(z_slots=st.just(2)).filter(lambda x: x[0] is not lerch))
def test_two_z_slots_refused(x):
    # at _canonical's slot check, before mt_value's two-slot collapse could add z to z
    builder, slots, colors = x
    with pytest.raises(ValueError, match="at most one slot may carry z"):
        _canonical(MZValue, slots, colors)
    with pytest.raises(ValueError, match="at most one slot may carry z"):
        builder(slots, colors)


atoms_strategy = st.sampled_from(
    [
        EvenZeta(0),
        EvenZeta(2),
        EvenZeta(4),
        lerch(3, Fraction(1, 3)),
        lerch(5, 0),
        mzv((3, 1), (0, 0)),
        mzv((2, 2), (Fraction(1, 2), 0)),
    ]
)
exprs = st.lists(
    st.tuples(st.integers(-3, 3), st.lists(atoms_strategy, max_size=2)), max_size=3
).map(lambda ts: sum((Expr.term(c, a) for c, a in ts), Expr()))


z_atoms = [lerch(Z.shift(2), Fraction(1, 3)), mt_value((1, Z, 2), (0, Fraction(1, 3), 0))]


@st.composite
def pair_lists(draw):
    """Term lists with repeated products in permuted atom order, zero
    coefficients and exact cancellations, sometimes with two z atoms."""
    base = draw(
        st.lists(
            st.tuples(
                st.lists(st.one_of(atoms_strategy, st.sampled_from(z_atoms)), max_size=3),
                st.fractions(-3, 3, max_denominator=6),
            ),
            max_size=5,
        )
    )
    pairs = []
    for atoms, c in base:
        pairs.append((atoms, c))
        again = draw(st.sampled_from([-c, Fraction(0), c, Fraction(1, 7)]))
        pairs.append((draw(st.permutations(atoms)), again))
    return draw(st.permutations(pairs))


@given(pair_lists())
def test_one_pass_constructor_matches_ring_sum(pairs):
    def ring_sum():
        return sum((Expr.term(c, atoms) for atoms, c in pairs), Expr())

    if any(c and sum(a.z_slot is not None for a in atoms) > 1 for atoms, c in pairs):
        with pytest.raises(ValueError, match="two z-bearing"):
            Expr(pairs)
        with pytest.raises(ValueError, match="two z-bearing"):
            ring_sum()
        return
    e = Expr(pairs)
    assert e == ring_sum()
    for atoms, c in e.terms.items():
        assert c and list(atoms) == sorted(atoms, key=lambda a: a.key)


def test_builders_pass_all_terms_at_once():
    # an expression is built by one Expr(...) call over all its terms: no
    # Expr.zero() accumulator anywhere in the package, and no `x = x + ...`
    # or `x = x - ...` statement in the symbolic modules, which would copy
    # and re-canonicalize the whole expression for every term
    import ast
    from pathlib import Path

    import mtzeta

    found = []
    for path in sorted(Path(mtzeta.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            f = node.func if isinstance(node, ast.Call) else None
            if isinstance(f, ast.Attribute) and f.attr == "zero" and isinstance(f.value, ast.Name) and f.value.id == "Expr":
                found.append((path.name, node.lineno, "Expr.zero()"))
            if path.stem not in ("reduction", "mzvconvert", "symexpr") or not isinstance(node, ast.Assign):
                continue
            left = node.value
            while isinstance(left, ast.BinOp) and isinstance(left.op, (ast.Add, ast.Sub)):
                left = left.left
            for t in node.targets:
                if left is not node.value and isinstance(t, ast.Name) and isinstance(left, ast.Name) and left.id == t.id:
                    found.append((path.name, node.lineno, f"{t.id} = {t.id} +/- ..."))
    assert not found


@given(exprs, exprs, exprs)
def test_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@given(exprs, exprs)
def test_substitute_is_ring_map(a, b):
    z0 = 2
    assert (a * b).substitute(z0) == a.substitute(z0) * b.substitute(z0)
    assert (a + b).substitute(z0) == a.substitute(z0) + b.substitute(z0)


def test_only_symexpr_reduces_colors():
    # colors are reduced mod 1 by symexpr._canon_color alone, so a new color
    # representation changes one function: no other module writes "% 1"
    import ast
    from pathlib import Path

    import mtzeta

    found = []
    for path in sorted(Path(mtzeta.__file__).parent.glob("*.py")):
        if path.name == "symexpr.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Mod):
                rhs = node.right if isinstance(node, ast.BinOp) else node.value
                if isinstance(rhs, ast.Constant) and rhs.value == 1:
                    found.append((path.name, node.lineno))
    assert not found
