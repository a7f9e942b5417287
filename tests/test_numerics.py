import functools
import itertools
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from mpmath import libmp, mp

from _oracles import hurwitz_zeta
from mtzeta.numerics import (
    EvalConfig,
    EvalResult,
    eval_expr,
    even_zeta,
    even_zeta_rational,
    lerch_phi,
    mt_direct,
    mt_via_mzv,
    mzv_eval,
)
from mtzeta.symexpr import EvenZeta, Expr, Z, lerch, mzv

CFG = EvalConfig()


def assert_close(result: EvalResult, target, extra=0.0):
    err = float(abs(mp.mpc(result.value) - target))
    assert err <= result.bound + extra, (err, result.bound)


def test_even_zeta_rationals():
    assert even_zeta_rational(0) == Fraction(-1, 2)
    assert even_zeta_rational(2) == Fraction(1, 6)
    assert even_zeta_rational(4) == Fraction(1, 90)
    assert even_zeta_rational(10) == Fraction(1, 93555)
    with pytest.raises(ValueError):
        even_zeta_rational(3)


def test_even_zeta_value():
    with mp.workprec(300):
        assert_close(even_zeta(2), mp.pi**2 / 6, 1e-70)
        assert float(even_zeta(0).value) == -0.5


def test_hurwitz_against_closed_forms():
    with mp.workprec(300):
        assert_close(hurwitz_zeta(4), mp.pi**4 / 90, 1e-70)
        assert_close(hurwitz_zeta(2, Fraction(1, 2)), mp.pi**2 / 2, 1e-70)


def test_hurwitz_against_direct_sum():
    # zeta(2, 1/2) = sum 1/(n - 1/2)^2: direct to 10^6 terms
    n = np.arange(1, 10**6 + 1)
    direct = float(np.sum(1.0 / (n - 0.5) ** 2))
    tail = 1.0 / (10**6)  # integral comparison, crude
    got = hurwitz_zeta(2, Fraction(1, 2))
    assert abs(float(got.value) - direct) <= got.bound + 2 * tail


def test_hurwitz_domain():
    with pytest.raises(ValueError):
        hurwitz_zeta(1)
    with pytest.raises(ValueError):
        hurwitz_zeta(Fraction(1, 2))


def test_hurwitz_bound_honesty_refinement():
    loose = hurwitz_zeta(3, cfg=EvalConfig(precision_bits=96, target_tol=1e-20))
    tight = hurwitz_zeta(3, cfg=EvalConfig(precision_bits=256, target_tol=1e-40))
    assert float(abs(mp.mpc(loose.value) - mp.mpc(tight.value))) <= loose.bound


def test_lerch_examples():
    with mp.workprec(300):
        assert_close(lerch_phi(2, Fraction(0)), mp.pi**2 / 6, 1e-70)
        assert_close(lerch_phi(2, Fraction(1, 2)), -(mp.pi**2) / 12, 1e-70)


def test_lerch_alternating_direct():
    n = np.arange(1, 2 * 10**6 + 1)
    direct = float(np.sum((-1.0) ** n / n.astype(float) ** 2))
    got = lerch_phi(2, Fraction(1, 2))
    assert abs(complex(got.value) - direct) <= got.bound + 1e-12


def test_lerch_root_of_unity_sum():
    # sum over colors a/q of phi(s, a/q) equals q^{1-s} zeta(s)
    s, q = 3, 3
    with mp.workprec(300):
        total = mp.mpc(0)
        bound = 0.0
        for a in range(1, q + 1):
            r = lerch_phi(s, Fraction(a, q))
            total += mp.mpc(r.value)
            bound += r.bound
        z = lerch_phi(s, Fraction(0))
        lhs = float(abs(total - mp.mpf(q) ** (1 - s) * mp.mpc(z.value)))
    assert lhs <= bound + z.bound + 1e-70


def test_mzv_euler_identity():
    a = mzv_eval((2, 1))
    b = lerch_phi(3, Fraction(0))
    assert float(abs(mp.mpc(a.value) - mp.mpc(b.value))) <= a.bound + b.bound


def test_mzv_weight6_relation():
    with mp.workprec(300):
        a = mzv_eval((4, 2))
        b = mzv_eval((5, 1))
        c = even_zeta(6)
        resid = float(abs(mp.mpc(a.value) + 2 * mp.mpc(b.value) - mp.mpc(c.value) / 6))
    assert resid <= a.bound + 2 * b.bound + c.bound
    assert resid < 1e-12


def test_mzv_stability_under_precision_increase():
    lo = mzv_eval((9, 1), cfg=EvalConfig(precision_bits=128))
    hi = mzv_eval((9, 1), cfg=EvalConfig(precision_bits=320))
    assert float(abs(mp.mpc(lo.value) - mp.mpc(hi.value))) <= lo.bound
    lo = mzv_eval((8, 2), cfg=EvalConfig(precision_bits=128))
    hi = mzv_eval((8, 2), cfg=EvalConfig(precision_bits=320))
    assert float(abs(mp.mpc(lo.value) - mp.mpc(hi.value))) <= lo.bound


def test_mzv_divergent_rejected():
    with pytest.raises(ValueError):
        mzv_eval((1, 2))


def test_colored_mzv_against_brute_force():
    colors = (Fraction(1, 3), Fraction(1, 2))
    got = mzv_eval((3, 1), colors)
    N = 4000
    m = np.arange(1, N + 1)
    inner = np.cumsum(np.exp(2j * np.pi * m / 2) / m)
    inner = np.concatenate(([0], inner[:-1]))
    brute = np.sum(np.exp(2j * np.pi * m / 3) / m.astype(float) ** 3 * inner)
    assert abs(complex(got.value) - complex(brute)) <= got.bound + 1e-6


def test_mordell_values():
    for k in (2, 3, 4):
        got = mt_via_mzv((1,) * (k + 1))
        target = math.factorial(k) * mp.mpc(lerch_phi(k + 1, Fraction(0)).value)
        assert float(abs(mp.mpc(got.value) - target)) <= got.bound + 1e-60


def test_mt_direct_against_euler():
    with mp.workprec(300):
        got = mt_direct((1, 1, 2))
        assert_close(got, mp.pi**4 / 180)
        got2 = mt_direct((1, 1, 1))
        assert_close(got2, 2 * mp.zeta(3))


def test_mt_dual_path_colored():
    cases = [
        ((2, 2, 2), (0, 0, Fraction(1, 2))),
        ((1, 1, 2), (Fraction(1, 3), 0, Fraction(1, 2))),
        ((2, 1, 2), (0, Fraction(1, 3), 0)),
        ((1, 2, 2, 2), (0, 0, Fraction(1, 2), 0)),
        ((1, 2, 1, 2, 2), (0, Fraction(1, 3), 0, Fraction(1, 2), 0)),
    ]
    for exps, colors in cases:
        via = mt_via_mzv(exps, colors)
        direct = mt_direct(exps, colors)
        diff = float(abs(mp.mpc(via.value) - mp.mpc(direct.value)))
        assert diff <= via.bound + direct.bound, (exps, colors, diff)


def test_mt_direct_divergence():
    with pytest.raises(ValueError):
        mt_direct((1, 1, 0))


def test_mt_direct_refuses_invalid_tail(capsys):
    # MT(0,3;1.5) converges, but the tail majorant needs sigma_i +
    # sigma_tot/2 > 1 (here 0.75), and MT(0,0,0;3.5) needs sigma_o +
    # sigma_tot/(2(k-1)) > 1 (here 0.875): refused, not a negative bound
    from mtzeta.cli import main

    for exps in ((0, 3, 1.5), (0, 0, 0, 3.5)):
        with pytest.raises(ValueError, match="tail bound"):
            mt_direct(exps)
    for s, z in (("0,3", "1.5"), ("0,0,0", "3.5")):
        assert main(["eval", "--s", s, "--z", z]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "tail bound" in captured.err


def _mt_cube_mp(exps, cols, N, prec=128):
    """The MT sum over the cube m_1..m_k <= N by the same convolutions in
    mpmath: the oracle of mt_direct's roundoff bound."""
    k = len(exps) - 1
    with mp.workprec(prec):
        def terms(s, c, ns):
            c = Fraction(c)
            return [mp.expjpi(mp.mpf(2 * c.numerator * n) / c.denominator) * mp.power(n, -mp.mpmathify(s)) for n in ns]

        chain = terms(exps[0], cols[0], range(1, N + 1))
        for e, c in zip(exps[1:-1], cols[1:-1]):
            out = [mp.mpc(0)] * (len(chain) + N - 1)
            for j, y in enumerate(terms(e, c, range(1, N + 1))):
                for i, x in enumerate(chain):
                    out[i + j] += x * y
            chain = out
        g = terms(exps[-1], cols[-1], range(k, k * N + 1))
        return mp.fsum(x * y for x, y in zip(g, chain))


def test_mt_direct_roundoff_sound():
    # at target_tol = 1 the tail already meets the target at N = 64, so the
    # float64 cube sum is compared with the same cube at 128 bits
    from mtzeta.numerics import _mt_tail

    cfg = EvalConfig(precision_bits=64, target_tol=1.0)
    cases = [
        # the phase of n^-it carries an error that grows with |t| ln n
        ((2, 2, 2 + 20000j), (0, 0, 0)),
        ((1, 2 + 1j, 2), (0, Fraction(1, 3), 0)),
        ((2, 3, 2.5 - 0.5j), (Fraction(1, 4), 0, Fraction(2, 5))),
        ((1, 2, 3, 2 + 1j), (0, 0, 0, Fraction(1, 3))),
        ((2, 3, 2 + 1j, 1), (0, Fraction(1, 2), Fraction(1, 3), 0)),
    ]
    for exps, cols in cases:
        sig = [complex(e).real for e in exps]
        tail = _mt_tail(sig[:-1], sig[-1], 64)
        assert tail <= cfg.target_tol
        got = mt_direct(exps, cols, cfg)
        cube = _mt_cube_mp(exps, cols, 64)
        err = float(abs(mp.mpc(got.value) - cube))
        assert err <= got.bound - tail, (exps, err, got.bound - tail)


def test_mt_direct_memory_is_linear_in_N():
    # depth 3 at N = 1154: a few arrays of at most 3N values, not N^3
    import tracemalloc

    cfg = EvalConfig(target_tol=1e-10)
    tracemalloc.start()
    try:
        mt_direct((1, 2, 3, 2 + 1j), (0, 0, 0, Fraction(1, 3)), cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


def test_eval_expr_basics():
    e = Expr.term(1, (EvenZeta(0), EvenZeta(2)))
    r = eval_expr(e)
    with mp.workprec(300):
        assert_close(r, -(mp.pi**2) / 12, 1e-70)
    assert eval_expr(Expr()).value == 0
    assert eval_expr(Expr()).bound == 0


def test_eval_expr_with_z():
    # -2 zeta(z+2) at z = 2
    e = Expr.term(-2, (lerch(Z.shift(2), 0),))
    r = eval_expr(e, z0=2)
    with mp.workprec(300):
        assert_close(r, -2 * mp.pi**4 / 90, 1e-70)


def test_eval_expr_atom_error_naming():
    e = Expr.atom(mzv((1, 1), (0, 0)))
    with pytest.raises(ValueError, match=r"mzv\(1,1; 0,0\)"):
        eval_expr(e)


def test_eval_expr_unsubstituted_z():
    e = Expr.term(-2, (EvenZeta(2), lerch(Z.shift(3), Fraction(1, 3))))
    with pytest.raises(ValueError, match="unsubstituted z"):
        eval_expr(e)


def test_dual_path_randomized_corpus():
    # depth <= 4, weight <= 8, colors in {0, 1/2, 1/3}: conversion route and
    # direct truncated summation agree within summed bounds
    import random

    rng = random.Random(11)
    colors_pool = [Fraction(0), Fraction(1, 2), Fraction(1, 3)]
    cfg = EvalConfig(precision_bits=128, target_tol=1e-12)
    done = 0
    while done < 12:
        depth = rng.choice((2, 3, 4))
        exps = tuple(rng.randint(1, 3) for _ in range(depth + 1))
        if sum(exps) > 8:
            continue
        from mtzeta.mzvconvert import mt_convergent

        if not mt_convergent(exps):
            continue
        cols = tuple(rng.choice(colors_pool) for _ in range(depth + 1))
        via = mt_via_mzv(exps, cols, cfg)
        direct = mt_direct(exps, cols, cfg)
        diff = abs(complex(via.value) - complex(direct.value))
        assert diff <= via.bound + direct.bound, (exps, cols, diff)
        done += 1


def test_concurrent_readers():
    # Bernoulli table extension and atom evaluation under concurrent use:
    # character values at 64 bits (_e_of) interleave with kernels at 272
    # bits, and one more thread keeps switching mpmath's global precision;
    # every kernel works at its own explicit precision and takes no lock,
    # so each job still returns its results bit for bit
    import threading

    import mtzeta.numerics as num
    from mtzeta import exact
    from mtzeta.dirichlet import enumerate_characters

    chi = enumerate_characters(7)[1]
    hi = EvalConfig(precision_bits=256)

    def low():
        return [chi.value(n, 64) for n in range(1, 15)]

    def high():
        return [lerch_phi(2.5 + 1j, Fraction(1, 3), hi), even_zeta(6, hi), hurwitz_zeta(3.5, Fraction(1, 4), hi)]

    def split():
        # the fixed-point route: depth >= 3 words sharing suffixes and a
        # colored word, plus a direct MT atom at complex z
        mid = EvalConfig(precision_bits=128, target_tol=1e-12)
        words = [(2, 1, 1), (3, 1, 1), (2, 2, 1), (4, 2, 1), (3, 2, 1, 1)]
        out = [mzv_eval(w, cfg=mid) for w in words] + [mzv_eval((2, 1), (Fraction(1, 2), 0), mid)]
        return out + [mt_direct((1, 2 + 1j, 2), (0, Fraction(1, 3), 0), mid)]

    jobs = [(low, 100), (high, 2), (split, 2)]
    want = [job() for job, _ in jobs]
    bern = [exact.bernoulli(n) for n in range(40)]
    exact._bernoulli_cache = exact._bernoulli_cache[:2]
    # the threads fill the shared letter and level memos from cold.  A state
    # another thread evicts between two calls is rebuilt once: _level only
    # hands out slots and never calls itself, and _inner_levels builds each
    # state from the state inside it, which it holds, so nothing recurses
    # down a word.  Two threads may build one letter twice; the memos keyed
    # on letter identity then hold two equal states, which changes no value
    num._li_half.cache_clear()
    num._level.cache_clear()
    num._letter.cache_clear()
    errors = []
    done = threading.Event()

    def worker(seed):
        try:
            for n in range(40):
                m = (seed * 7 + n) % 40
                assert exact.bernoulli(m) == bern[m]
            e = Expr.term(1, (EvenZeta(2), lerch(5, 0)))
            eval_expr(e, cfg=EvalConfig(precision_bits=96))
            job, reps = jobs[seed % 3]
            for _ in range(reps):
                assert job() == want[seed % 3]
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    def switcher():
        while not done.is_set():
            mp.prec = 20
            mp.prec = 300

    interval, saved = sys.getswitchinterval(), mp.prec
    sys.setswitchinterval(1e-6)
    flipper = threading.Thread(target=switcher)
    flipper.start()
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
    finally:
        done.set()
        flipper.join(timeout=10)
        sys.setswitchinterval(interval)
        mp.prec = saved
    assert not flipper.is_alive()
    assert not errors
    assert [exact.bernoulli(n) for n in range(40)] == bern
    assert bern[12] == Fraction(-691, 2730)


def test_src_sets_no_global_precision():
    # no module of the package reads or sets mpmath's global precision
    # through its context managers, assigns mp.prec or mp.dps, or keeps a
    # lock for it
    import ast
    from pathlib import Path

    import mtzeta

    banned = {"workprec", "workdps", "extraprec", "extradps", "_mp_lock"}
    found = []
    for path in sorted(Path(mtzeta.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            name = node.attr if isinstance(node, ast.Attribute) else node.id if isinstance(node, ast.Name) else None
            if name in banned:
                found.append((path.name, node.lineno, name))
            targets = node.targets if isinstance(node, ast.Assign) else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign)) else []
            for t in targets:
                if isinstance(t, ast.Attribute) and t.attr in ("prec", "dps") and isinstance(t.value, ast.Name) and t.value.id == "mp":
                    found.append((path.name, t.lineno, f"mp.{t.attr} ="))
    assert not found


def test_atom_cache_hits_on_repeat():
    from mtzeta.numerics import _eval_atom

    e = Expr.term(3, (EvenZeta(2), lerch(3, Fraction(1, 4)))) + Expr.term(
        -1, (mzv((2, 1), (0, 0)), lerch(3, Fraction(1, 4)))
    )
    cfg = EvalConfig(precision_bits=112, target_tol=1e-20)
    first = eval_expr(e, cfg=cfg)
    before = _eval_atom.cache_info()
    again = eval_expr(e, cfg=cfg)
    after = _eval_atom.cache_info()
    assert after.hits - before.hits == len(set(e.atoms())) == 3
    assert after.misses == before.misses
    assert again == first
    eval_expr(e, cfg=EvalConfig(precision_bits=120, target_tol=1e-20))
    assert _eval_atom.cache_info().misses > after.misses


def _li_half_mpf(word, prec):
    """The mpf loop _li_half used before it ran in fixed point, kept as the
    oracle: (value, bound) with roundoff value * (d + 2) * M * eps."""
    from mtzeta.numerics import _eps, _word_to_exponents

    exps = _word_to_exponents(word)
    d = len(exps)
    M = max(prec + 24, 4 * d + 16)
    with mp.workprec(prec):
        inner = [mp.mpf(1)] * (M + 1)
        for e in reversed(exps[1:]):
            acc = mp.mpf(0)
            new = [mp.mpf(0)] * (M + 1)
            for m in range(1, M + 1):
                new[m] = acc
                acc += inner[m] * mp.mpf(m) ** (-e)
            inner = new
        half = mp.mpf(1) / 2
        p = half
        total = mp.mpf(0)
        for m in range(1, M + 1):
            total += p * inner[m] * mp.mpf(m) ** (-exps[0])
            p *= half
        trunc = 2.0 * 2.0 ** (-M) * float(M + 1) ** (d - 1)
        return +total, trunc + float(total) * (d + 2) * M * _eps(prec)


@st.composite
def _words(draw):
    # words over 0 and the letter 2, ending in 2, of weight (length) <= 12
    # and depth (letters 2) <= 6
    from mtzeta.numerics import _letter

    two = _letter(2, 0, False)
    length = draw(st.integers(min_value=0, max_value=11))
    twos = draw(st.sets(st.integers(min_value=0, max_value=max(length - 1, 0)), max_size=min(5, length)))
    return tuple(two if i in twos else 0 for i in range(length)) + (two,)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_words(), st.integers(min_value=64, max_value=400))
def test_li_half_fixed_point_bound_sound(word, prec):
    from mtzeta.numerics import _LI_GUARD_BITS, _li_half

    depth = len(word) - word.count(0)
    assert len(word) <= 12 and depth <= 6 and word[-1].deferred
    v, bound = _li_half(word, prec)
    _, old_bound = _li_half_mpf(word, prec)
    ref, _ = _li_half_mpf(word, 2 * prec)
    with mp.workprec(4 * prec + 128):
        got = mp.ldexp(mp.mpf(v), -(prec + _LI_GUARD_BITS))
        assert float(abs(got - ref)) <= bound, (word, prec)
        if depth == 1:
            e = len(word)
            assert float(abs(got - mp.polylog(e, mp.mpf(1) / 2))) <= bound, (word, prec)
    assert bound <= old_bound, (word, prec)


def test_duality_all_admissible_weight_le_8():
    # the admissible indices of weight w are the words 0 u 1, u in
    # {0,1}^(w-2); the dual index reads the word backwards with 0 and 1
    # swapped
    from mtzeta.numerics import _word_to_exponents

    cfg = EvalConfig(precision_bits=192, target_tol=1e-40)
    checked = 0
    for w in range(2, 9):
        for u in itertools.product((0, 1), repeat=w - 2):
            word = (0, *u, 1)
            dual = tuple(1 - c for c in reversed(word))
            a = mzv_eval(_word_to_exponents(word), cfg=cfg)
            b = mzv_eval(_word_to_exponents(dual), cfg=cfg)
            diff = float(abs(mp.mpf(a.value) - mp.mpf(b.value)))
            assert diff <= a.bound + b.bound, (word, diff)
            checked += 1
    assert checked == 2**7 - 1


def test_hurwitz_beyond_double_range():
    # B_{2R+2}/(2R+2)! and the rising factorial leave float range here
    for bits in (512, 768):
        cfg = EvalConfig(precision_bits=bits, target_tol=1e-300)
        zeta3 = hurwitz_zeta(3, Fraction(1), cfg)
        zeta5 = hurwitz_zeta(5, Fraction(1, 3), cfg)
        with mp.workprec(2 * bits):
            assert_close(zeta3, mp.zeta(3))
            assert_close(zeta5, mp.zeta(5, mp.mpf(1) / 3))


def test_precision_ceiling_keeps_bounds_normal():
    from mtzeta.numerics import _GUARD_BITS, _MAX_PRECISION_BITS, _letter, _li_half

    with pytest.raises(ValueError, match="precision_bits"):
        EvalConfig(precision_bits=_MAX_PRECISION_BITS + 1)
    cfg = EvalConfig(precision_bits=_MAX_PRECISION_BITS)
    two = _letter(2, 0, False)
    _, li_bound = _li_half((0, two, two, 0, 0, two), _MAX_PRECISION_BITS + _GUARD_BITS)
    for bound in (li_bound, mzv_eval((3, 2, 1), cfg=cfg).bound, lerch_phi(3, Fraction(0), cfg).bound):
        assert bound >= sys.float_info.min


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


def _mzv_colored_dp(exps, colors, cfg=CFG):
    """The float64 prefix-sum route colored MZVs took before the split at 1/p
    covered every color, kept as the oracle: (value, bound) with the target
    floored at 1e-13 and an integral tail majorant."""
    from mtzeta.numerics import _MAX_TERMS

    k = len(exps)
    s1 = exps[0]
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
        base = mm ** float(-e) * _phase_array(m, Fraction(g))
        if acc is None:
            acc = base
        else:
            inner = np.concatenate(([0.0], np.cumsum(acc)[:-1]))
            acc = base * inner
    value = complex(np.sum(acc))
    trunc = _log_tail_integral(s1, k - 1, N)
    s_abs = float(np.sum(np.abs(acc)))
    damped = float(np.sum(mm ** (1.0 - s1) * (1.0 + np.log(mm)) ** (k - 1)))
    roundoff = 2.0**-52 * ((2 * math.log2(N) + 8) * s_abs + 2 * k * damped)
    return value, trunc + roundoff


_hurwitz = functools.cache(hurwitz_zeta)


def _lerch_hurwitz(s, alpha, cfg=CFG):
    """phi(s, alpha) = q^-s sum_{r=1}^q e(r alpha) zeta(s, r/q) from the
    oracle hurwitz_zeta, with the bound lerch_phi gave before integer
    exponents took the split kernel, kept as the depth-1 oracle."""
    from mtzeta.numerics import _GUARD_BITS, _e_of, _eps

    alpha = Fraction(alpha) % 1
    if alpha == 0:
        return _hurwitz(s, Fraction(1), cfg)
    q = alpha.denominator
    prec = cfg.precision_bits + _GUARD_BITS
    with mp.workprec(prec):
        total, bound = mp.mpc(0), 0.0
        for r in range(1, q + 1):
            hz = _hurwitz(s, Fraction(r, q), cfg)
            total += mp.make_mpc(_e_of(alpha * r, prec)) * mp.mpc(hz.value)
            bound += hz.bound + float(abs(mp.mpc(hz.value))) * 4 * _eps(prec)
        scale = mp.mpf(q) ** -s
        value = scale * total
        return EvalResult(value, float(abs(scale)) * bound + float(abs(value)) * (q + 8) * _eps(prec))


def test_integer_lerch_matches_hurwitz_sum():
    # integer-exponent Lerch values take the split kernel: each lies within
    # both bounds of the Hurwitz sum, with a bound no looser than its bound
    colors = {Fraction(a, q) for q in (*range(1, 13), 13, 20, 50) for a in range(q)}
    for bits in (64, 128, 300):
        cfg = EvalConfig(precision_bits=bits)
        for s in range(2, 9):
            for alpha in sorted(colors):
                got, ref = lerch_phi(s, alpha, cfg), _lerch_hurwitz(s, alpha, cfg)
                with mp.workprec(2 * bits + 64):
                    err = float(abs(mp.mpc(got.value) - mp.mpc(ref.value)))
                assert err <= got.bound + ref.bound, (s, alpha, bits)
                assert got.bound <= ref.bound, (s, alpha, bits, got.bound, ref.bound)


def test_deferred_levels_error_within_slope():
    # while every letter is 2, level n holds X(n) 2^F, X(n) = sum over
    # n' < n of X_below(n') / n'^e, within err * n ulps (the floors round
    # down, so the error is near (d - 1) n / 2)
    from mtzeta.numerics import _inner_levels, _letter, _level, _word_to_exponents

    F, M = 112, 90
    _level.cache_clear()
    two = _letter(2, 0, False)
    for word in [(two, two), (two,) * 6, (0, two, 0, 0, two, two), (two, 0, 0, two, 0, two, two)]:
        exps = _word_to_exponents(word)
        re, im, deferred, err = _inner_levels(word, exps, M, F)
        assert deferred and im is None
        exact = [Fraction(1)] * (M + 1)
        for e in reversed(exps[1:]):
            exact = [Fraction(0), Fraction(0), *itertools.accumulate(exact[n] / n**e for n in range(1, M))]
        assert all(abs(re[n] - x * 2**F) <= err * n for n, x in enumerate(exact)), word


def test_deep_runs_certify_at_working_precision():
    # a run of d letters 2 adds about d ulps to the bound, not M (ln M)^d:
    # deep words, zeta(s) and phi(s, 1/3) at large s, and MT(2,40;2) keep
    # bounds at the working precision
    from mtzeta.numerics import _LI_GUARD_BITS, _letter, _li_half

    two = _letter(2, 0, False)
    for word, prec in [((two,) * 30, 96), ((0, two) * 20, 160), ((two,) * 60, 200)]:
        v, bound = _li_half(word, prec)
        ref, _ = _li_half_mpf(word, 2 * prec)
        with mp.workprec(4 * prec):
            assert float(abs(mp.ldexp(mp.mpf(v), -(prec + _LI_GUARD_BITS)) - ref)) <= bound, word
        assert bound <= 2.0**-prec, (word, bound)
    cfg = EvalConfig(precision_bits=128)
    for s in (21, 41, 101):
        for alpha in (Fraction(0), Fraction(1, 3)):
            got, ref = lerch_phi(s, alpha, cfg), _lerch_hurwitz(s, alpha, cfg)
            with mp.workprec(320):
                err = float(abs(mp.mpc(got.value) - mp.mpc(ref.value)))
            assert err <= got.bound + ref.bound, (s, alpha)
            assert got.bound <= ref.bound, (s, alpha, got.bound, ref.bound)
    assert mt_via_mzv((2, 40, 2), cfg=cfg).bound <= 1e-35


def test_integer_depth1_skips_hurwitz(monkeypatch, capsys):
    # colored Lerch values, odd zeta(n) and a character identity at integer
    # z never reach the Euler-Maclaurin route, periodic.phi_em
    import mtzeta.numerics as num
    import mtzeta.periodic as periodic
    from mtzeta.cli import main

    def refuse(*args, **kwargs):
        raise AssertionError(f"phi_em{args}")

    monkeypatch.setattr(periodic, "phi_em", refuse)
    num._eval_atom.cache_clear()
    lerch_phi(3, Fraction(1, 7))
    lerch_phi(5, Fraction(0))
    assert main(["verify", "--s", "2,3", "--chi", "7,3", "--z", "2", "--precision-bits", "128"]) == 0
    assert '"pass": true' in capsys.readouterr().out


def test_fine_color_refused_before_any_work(monkeypatch):
    # a factor word over the term budget is refused before the first
    # _li_half call, not after the cuts ahead of it have been summed
    import mtzeta.numerics as num

    calls = []
    li_half = num._li_half

    def counting(word, prec):
        calls.append(word)
        return li_half(word, prec)

    monkeypatch.setattr(num, "_li_half", counting)
    for fine in (
        lambda: mzv_eval((2, 1), (Fraction(1, 100000), 0)),
        lambda: lerch_phi(2, Fraction(1, 100000)),
    ):
        with pytest.raises(ValueError, match="terms per level"):
            fine()
        assert calls == []


@st.composite
def _colored_mzvs(draw):
    # depth <= 4, weight <= 9, leading exponent >= 2; denominators up to 12
    # give p = 2 or close to it, while 13, 20 and 50 need p well below 2
    depth = draw(st.integers(min_value=1, max_value=4))
    exps = (draw(st.integers(min_value=2, max_value=6)),)
    exps += tuple(draw(st.integers(min_value=1, max_value=3)) for _ in range(depth - 1))
    assume(sum(exps) <= 9)
    den = draw(st.sampled_from([*range(1, 13), 13, 20, 50]))
    return exps, tuple(Fraction(draw(st.integers(min_value=0, max_value=den - 1)), den) for _ in exps)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_colored_mzvs(), st.integers(min_value=64, max_value=300))
def test_mzv_split_bound_sound(word, bits):
    from mtzeta.numerics import _mzv_split

    exps, colors = word
    assert len(exps) <= 4 and sum(exps) <= 9 and exps[0] >= 2
    cfg = EvalConfig(precision_bits=bits)
    got = _mzv_split(exps, colors, cfg)
    ref = _mzv_split(exps, colors, EvalConfig(precision_bits=2 * bits))
    with mp.workprec(4 * bits + 64):
        v = mp.mpc(got.value)
        assert float(abs(v - mp.mpc(ref.value))) <= got.bound, word
        if len(exps) == 1:
            phi = _lerch_hurwitz(exps[0], colors[0], EvalConfig(precision_bits=2 * bits))
            assert float(abs(v - mp.mpc(phi.value))) <= got.bound + phi.bound, word
        else:
            dp, dp_bound = _mzv_colored_dp(exps, colors, cfg)
            assert float(abs(v - dp)) <= got.bound + dp_bound, word


def test_li_half_colored_depth1():
    # one letter y: L = sum_n y^-n / n^e = Li_e(1/y), for y = p e(g) and
    # y = q (1 - e(g)) with p < 2, as the split takes for the color 1/13
    from mtzeta.numerics import _LI_GUARD_BITS, _letter, _li_half

    r = Fraction(25, 64)
    p, q = 1 + r, 1 + 1 / r
    for letter in [_letter(p, Fraction(1, 13), False), _letter(q, Fraction(1, 13), True)]:
        for e in (1, 2, 5):
            (vr, vi), bound = _li_half((0,) * (e - 1) + (letter,), 160)
            with mp.workprec(400):
                root = mp.expjpi(mp.mpf(2) / 13)
                y = mp.mpf(q.numerator) / q.denominator * (1 - root) if letter.dual else mp.mpf(p.numerator) / p.denominator * root
                got = mp.mpc(*(mp.ldexp(v, -(160 + _LI_GUARD_BITS)) for v in (vr, vi)))
                li = mp.fsum(y**-n / mp.mpf(n) ** e for n in range(1, 1200))  # |1/y| < 0.72
                assert float(abs(got - li)) <= bound, (letter, e)


def test_letter_is_built_once_and_carries_its_data():
    # one letter per (x, g, dual) whatever the type of x, only the letter 2
    # deferred, and the modulus and 1/y at three scales equal to the values
    # recorded when a letter was a tuple (with r = 25/64, as the split takes
    # for the color 1/13)
    import hashlib

    from mtzeta.numerics import _letter

    assert _letter(2, 0, False) is _letter(Fraction(2), 0, False)
    r = Fraction(25, 64)
    xs = [1, 2, 1 + r, 1 + 1 / r]
    gs = [Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(1, 7), Fraction(1, 13), Fraction(3, 8), Fraction(1, 2000)]
    grid = [(x, g, dual) for x in xs for g in gs for dual in (False, True)]
    assert [y for y in grid if _letter(*y).deferred] == [(2, 0, False)]
    # a dual letter with min(g, 1 - g) < 1/6 has modulus x times
    # 2 sin(pi g) rounded down to a multiple of 2^-16
    shrink = {
        Fraction(0): Fraction(0),
        Fraction(1, 7): Fraction(28435, 32768),
        Fraction(1, 13): Fraction(31367, 65536),
        Fraction(1, 2000): Fraction(205, 65536),
    }
    assert [_letter(*y).modulus for y in grid] == [x * shrink.get(g, 1) if dual else x for x, g, dual in grid]
    assert _letter(2, 0, False).recip(128) == (1 << 127, None)
    assert _letter(1 + r, Fraction(1, 13), False).recip(128) == (
        216668815973883304701876504270967792772,
        -113716566972447683789678461803720800024,
    )
    recips = [_letter(*y).recip(F) for F in (128, 208, 1006) for y in grid]
    assert hashlib.sha256(repr(recips).encode()).hexdigest() == (
        "840ac0bd998211721410c556435606f8603b32fd0ee9e9a2abc95c8a7fe89898"
    )


def _config_above_ceiling(bits):
    """An EvalConfig at any precision, for a reference value: past the
    ceiling of EvalConfig its bound underflows toward 0, which only makes a
    comparison against it stricter."""
    cfg = object.__new__(EvalConfig)
    object.__setattr__(cfg, "precision_bits", bits)
    object.__setattr__(cfg, "target_tol", 1e-32)
    return cfg


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=199), st.integers(min_value=64, max_value=958))
def test_even_zeta_bound_sound(half, bits):
    # zeta(n), n = 2 half < 400, against its own value at twice the
    # precision: the two values lie within the sum of their bounds
    got = even_zeta(2 * half, EvalConfig(precision_bits=bits))
    ref = even_zeta(2 * half, _config_above_ceiling(2 * bits))
    with mp.workprec(4 * bits + 64):
        assert float(abs(mp.mpf(got.value) - mp.mpf(ref.value))) <= got.bound + ref.bound, (half, bits)


def test_colored_mzv_meets_default_target():
    # colored values certify at working precision, with no 1e-13 floor
    assert mzv_eval((2, 1), (Fraction(1, 3), Fraction(0))).bound <= 1e-32


def test_mt_3x6_certifies_35_digits_at_128_bits():
    # 273 MZVs whose split factors reach depth 14: the tail majorant must
    # grow like (ln M)^(d-1), not like M^(d-1)
    assert mt_via_mzv((3,) * 6, cfg=EvalConfig(precision_bits=128)).bound <= 1e-35


def _mp_parts(v):
    """Raw (re, im) mpf tuples of a kernel value, read without rounding:
    mpc(), .imag and unary minus would round to mpmath's global precision."""
    return v._mpc_ if hasattr(v, "_mpc_") else (v._mpf_, libmp.fzero)


@st.composite
def _conjugate_words(draw):
    # depth <= 3, weight <= 7, leading exponent >= 2, one denominator 2..12
    # for all colors, at least one color not its own negative
    depth = draw(st.integers(min_value=1, max_value=3))
    exps = (draw(st.integers(min_value=2, max_value=5)),)
    exps += tuple(draw(st.integers(min_value=1, max_value=3)) for _ in range(depth - 1))
    assume(sum(exps) <= 7)
    den = draw(st.integers(min_value=2, max_value=12))
    colors = tuple(Fraction(draw(st.integers(min_value=0, max_value=den - 1)), den) for _ in exps)
    assume(any(c.denominator > 2 for c in colors))
    return exps, colors


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_conjugate_words(), st.integers(min_value=64, max_value=300))
def test_conjugate_atoms_are_exact_conjugates(word, bits):
    # zeta(s; -c) = conj zeta(s; c): of the pair only one is evaluated, and
    # the other is its exact conjugate with the same bound, within both
    # bounds of the split run on its own colors
    from mtzeta.numerics import _eval_atom, _mzv_split

    exps, colors = word
    assert len(exps) <= 3 and sum(exps) <= 7 and exps[0] >= 2
    cfg = EvalConfig(precision_bits=bits)
    neg = tuple(-c % 1 for c in colors)
    got, twin = _eval_atom(mzv(exps, colors), cfg), _eval_atom(mzv(exps, neg), cfg)
    assert got.bound == twin.bound, word
    (gr, gi), (tr, ti) = _mp_parts(got.value), _mp_parts(twin.value)
    assert gr == tr and gi == libmp.mpf_neg(ti), word
    for cols, r in ((colors, got), (neg, twin)):
        ref = _mzv_split(exps, cols, cfg)
        with mp.workprec(4 * bits + 64):
            assert float(abs(mp.mpc(r.value) - mp.mpc(ref.value))) <= r.bound + ref.bound, (word, cols)


def test_conjugate_pair_costs_one_split(monkeypatch):
    import mtzeta.numerics as num

    calls = []
    split = num._mzv_split

    def counting(exps, cols, cfg):
        calls.append((exps, cols))
        return split(exps, cols, cfg)

    monkeypatch.setattr(num, "_mzv_split", counting)
    num._eval_atom.cache_clear()
    a, b = mzv((2, 1), (Fraction(1, 3), 0)), mzv((2, 1), (Fraction(2, 3), 0))
    got = eval_expr(Expr.atom(a) + Expr.atom(b), cfg=EvalConfig(precision_bits=128))
    assert calls == [((2, 1), (Fraction(1, 3), Fraction(0)))]
    # the imaginary parts cancel exactly, so the sum comes back real
    assert not hasattr(got.value, "_mpc_")
    ref = split((2, 1), (Fraction(1, 3), 0), EvalConfig(precision_bits=192))
    with mp.workprec(256):
        assert_close(got, 2 * mp.re(mp.mpc(ref.value)), 2 * ref.bound)


def test_hurwitz_complex_exponent_against_mpmath():
    # a complex exponent against mp.zeta at twice the precision; the Lerch
    # value through the q-term sum phi(s, p/q) = q^-s sum_r e(r p/q) zeta(s, r/q)
    for bits in (128, 300):
        cfg = EvalConfig(precision_bits=bits)
        hz = hurwitz_zeta(2 + 1j, Fraction(1, 3), cfg)
        phi = lerch_phi(3.5 + 2j, Fraction(2, 5), cfg)
        assert max(hz.bound, phi.bound) <= 1e-30
        with mp.workprec(2 * bits):
            assert_close(hz, mp.zeta(mp.mpc(2, 1), mp.mpf(1) / 3))
            s = mp.mpc(3.5, 2)
            terms = (mp.expjpi(mp.mpf(4 * r) / 5) * mp.zeta(s, mp.mpf(r) / 5) for r in range(1, 6))
            assert_close(phi, mp.fsum(terms) * mp.mpf(5) ** -s)


@st.composite
def _phi_points(draw):
    # Re s in (1.2, 10], |Im s| <= 20, colors p/q with q <= 12 (q = 1 too)
    sig = draw(st.floats(min_value=1.2, max_value=10, exclude_min=True))
    s = complex(sig, draw(st.floats(min_value=-20, max_value=20)))
    q = draw(st.integers(min_value=1, max_value=12))
    return s, Fraction(draw(st.integers(min_value=0, max_value=q - 1)), q)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(_phi_points(), st.sampled_from([64, 128, 192]))
def test_phi_em_bound_sound(point, bits):
    # phi at a complex exponent lies within its bound of q^-s sum_r e(r p/q)
    # zeta(s, r/q) from mpmath at 2 bits + 64, its bound is no looser than
    # the q-term Hurwitz sum it replaced, and the two agree within both
    s, alpha = point
    assert 1.2 < s.real <= 10 and abs(s.imag) <= 20 and alpha.denominator <= 12
    cfg = EvalConfig(precision_bits=bits)
    new, old = lerch_phi(s, alpha, cfg), _lerch_hurwitz(s, alpha, cfg)
    q = alpha.denominator
    with mp.workprec(2 * bits + 64):
        sv = mp.mpc(s)
        terms = (mp.expjpi(mp.mpf(2 * alpha.numerator * r) / q) * mp.zeta(sv, mp.mpf(r) / q) for r in range(1, q + 1))
        ref = mp.fsum(terms) * mp.mpf(q) ** -sv
        v = mp.mpc(new.value)
        assert float(abs(v - ref)) <= new.bound, point
        assert float(abs(v - mp.mpc(old.value))) <= new.bound + old.bound, point
    assert new.bound <= old.bound, (point, new.bound, old.bound)


def test_phi_em_work(monkeypatch):
    # one phi at a complex exponent builds no mpmath context and takes one
    # complex power per prime up to qM and one per tail, q of them
    from mpmath.ctx_mp import MPContext

    import mtzeta.numerics as num
    from mtzeta.periodic import _phi_terms

    def refuse(*args):
        raise AssertionError("an MPContext was built")

    powers = []
    mpc_exp = libmp.mpc_exp

    def counting(z, prec, *rest):
        powers.append(z)
        return mpc_exp(z, prec, *rest)

    monkeypatch.setattr(MPContext, "__init__", refuse)
    monkeypatch.setattr(libmp, "mpc_exp", counting)
    s, alpha, cfg = 3.5 + 2j, Fraction(2, 5), num.DEFAULT_CONFIG
    M, _, _ = _phi_terms(s, 5, cfg.precision_bits + num._GUARD_BITS, cfg.target_tol)
    got = lerch_phi(s, alpha, cfg)
    primes = sum(all(n % d for d in range(2, math.isqrt(n) + 1)) for n in range(2, 5 * M + 1))
    assert 0 < len(powers) <= primes + 5 + 2, (len(powers), primes, M)
    monkeypatch.undo()
    ref = _lerch_hurwitz(s, alpha, cfg)
    with mp.workprec(600):
        assert float(abs(mp.mpc(got.value) - mp.mpc(ref.value))) <= got.bound + ref.bound


# sha256 of the (value, bound) pairs of a fixed grid, recorded before the
# level table, the power tables and the letter memos went into the split
# kernel: values are compared as raw mpf tuples, so every bit counts
_KERNEL_DIGESTS = {
    "mzv 64": "929a2e6745303d5eea4ff88d8528c9eb66be02e1f1b6e26f3f784dc2bd6974e4",
    "lerch 64": "5d4f39006f4a45b62d0be27c92ab47b4abcde2093f6f73ee97085a73ccfe2b63",
    "mzv 128": "4107b43f7d39748b4ef407fe2e8f2c34045c4fa787e3be8e596891d3fee27c63",
    "lerch 128": "fcbdaa6900a8081ac438fb695c5129019b307da5a5ad6189ce5d3e9344dc7a53",
    "mzv 192": "101d9de52e1cf5df0848a63508b56a6f67e8b4833da29cf01bca06b220292355",
    "lerch 192": "4c724a96424aabd52b6bdd45437b471dd00115f06ec0436243d354c51f36e49f",
    "expr 128": "cc74e39e6e63c366b97f176e4e0f3e5345c0b45089f1c660821a2fcdf36c4cdf",
}


def _raw(r: EvalResult) -> tuple:
    """(value, bound) with the value as its raw mpf tuples, mantissas as int."""
    return tuple((s, int(m), e, b) for s, m, e, b in _mp_parts(r.value)), r.bound


def test_kernel_values_bit_identical():
    import hashlib

    from mtzeta.symexpr import mt_value

    def digest(results):
        return hashlib.sha256(repr([_raw(r) for r in results]).encode()).hexdigest()

    colors = [Fraction(c) for c in ("0", "1/2", "1/3", "1/4", "1/7", "3/8")]
    words = [(3,), (2, 1), (3, 1, 2), (2, 2, 1, 1)]
    got = {}
    for bits in (64, 128, 192):
        cfg = EvalConfig(precision_bits=bits)
        mz, le = [], []
        for c in colors:
            for w in words:
                for cols in (tuple(c * (j + 1) for j in range(len(w))), (0,) * (len(w) - 1) + (c,)):
                    mz.append(mzv_eval(w, cols, cfg))
            le += [lerch_phi(s, c, cfg) for s in (2, 5)]
        got[f"mzv {bits}"], got[f"lerch {bits}"] = digest(mz), digest(le)
    third = Fraction(1, 3)
    e = (
        Expr.atom(mzv((2, 1), (third, 0))) * Expr.atom(lerch(3, Fraction(1, 4)))
        + Expr.atom(mt_value((2, 1, 2), (0, 0, third))).scale(Fraction(3, 7))
        - Expr.atom(mzv((2, 1), (2 * third, 0)))
        + Expr.atom(mzv((3, 1, 1), (0, 0, 0)))
    )
    got["expr 128"] = digest([eval_expr(e, cfg=EvalConfig(precision_bits=128))])
    assert got == _KERNEL_DIGESTS


def test_level_memo_keys_on_precision():
    # at 64 and 80 bits a depth-13 word takes M = 128 terms per level (the
    # depth floor) but a different scale 2^F: with the levels of both
    # precisions in the memo, each precision must find only its own
    import mtzeta.numerics as num

    words = [((2,) + (1,) * 12, (0,) * 13), ((2, 1, 1), (Fraction(1, 3), 0, Fraction(1, 4)))]
    cfgs = [EvalConfig(precision_bits=b) for b in (64, 80)]
    fresh = []
    for cfg in cfgs:
        num._li_half.cache_clear()
        num._level.cache_clear()
        fresh.append([_raw(num._mzv_split(*w, cfg)) for w in words])
    two = num._letter(2, 0, False)
    assert [num._li_terms([two], 13, cfg.precision_bits + num._GUARD_BITS)[0] for cfg in cfgs] == [128, 128]
    num._li_half.cache_clear()
    assert [[_raw(num._mzv_split(*w, cfg)) for w in words] for cfg in cfgs] == fresh


def test_level_memo_is_order_independent():
    # a level state is fixed by its key, so which evaluation built it, and
    # when, cannot show: the same words evaluated in reverse order, from
    # cold memos, give the same raw values and bounds, bit for bit
    import mtzeta.numerics as num

    third, quarter = Fraction(1, 3), Fraction(1, 4)
    words = [
        ((2, 1), (0, 0)), ((3, 1, 1), (0, 0, 0)), ((2, 1, 1, 1), (0, 0, 0, 0)), ((4, 2, 1), (0, 0, 0)),
        ((2, 1), (third, 0)), ((2, 1, 1), (third, 0, quarter)), ((3, 1, 1), (0, third, 0)),
        ((2, 2, 1), (quarter, quarter, 0)), ((2, 1, 1), (Fraction(1, 2), 0, third)),
    ]
    cfg = EvalConfig(precision_bits=96)

    def evaluate(order):
        num._li_half.cache_clear()
        num._level.cache_clear()
        return {w: _raw(num._mzv_split(*w, cfg)) for w in order}

    assert evaluate(words) == evaluate(words[::-1])


def test_deep_word_recursion_stays_shallow():
    # _li_half builds the levels of a 500-letter word innermost first, so no
    # call chain grows with the word
    import mtzeta.numerics as num

    word = (num._letter(2, 0, False),) * 500
    want = num._li_half(word, 64)
    num._li_half.cache_clear()
    num._level.cache_clear()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(100)
    try:
        got = num._li_half(word, 64)
    finally:
        sys.setrecursionlimit(limit)
    assert got == want and want[1] < 2.0**-100


def test_key_ordered_atoms_share_levels(monkeypatch, capsys):
    # eval_expr visits its atoms in key order, so consecutive splits share
    # the level states of their suffixes: with 64 states this identity makes
    # 2,891 telescopes, against 4,069 in set order and 2,014 distinct states
    import hashlib

    import mtzeta.numerics as num
    from mtzeta.cli import main

    calls = []
    telescope = num._telescope

    def counting(*args):
        calls.append(1)
        return telescope(*args)

    for memo in (num._eval_atom, num._li_half, num._level):
        memo.cache_clear()
    monkeypatch.setattr(num, "_telescope", counting)
    assert main(["verify", "--s", "4,4,4,4", "--alpha", "1/3", "--z", "2", "--precision-bits", "128"]) == 0
    assert len(calls) <= 3000, len(calls)
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
        "91bb8b7cf6b05914d55675868345886360243872f8428375b59e267c31299a2e"
    )


def test_e_of_errs_by_a_few_units_whatever_the_argument():
    # periodic.phi_em asks for e(alpha k) with alpha k up to q - 1, and
    # gauss_sum for e(x) with x < 2; each part must stay within a few units
    # of 2^-prec (pi + 1 in theory) however large x is
    from mtzeta.numerics import _e_of

    worst = 0.0
    for prec in (80, 288):
        for q in (3, 50, 500, 4999):
            for k in range(1, q, max(1, q // 97)):
                x = Fraction((q - 1) * k, q)
                re, im = _e_of(x, prec)
                with mp.workprec(prec + 64):
                    ref = mp.expjpi(2 * mp.mpf(x.numerator) / x.denominator)
                    err = max(abs(mp.mpf(re) - ref.real), abs(mp.mpf(im) - ref.imag))
                    worst = max(worst, float(mp.ldexp(err, prec)))
    assert worst <= 5, worst


def test_only_numerics_and_periodic_name_guard_bits():
    # the working precision has one owner, EvalConfig.prec: no other module
    # adds _GUARD_BITS to precision_bits
    import ast
    from pathlib import Path

    import mtzeta

    found = []
    for path in sorted(Path(mtzeta.__file__).parent.glob("*.py")):
        if path.name in ("numerics.py", "periodic.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else node.name if isinstance(node, ast.alias) else None
            if name == "_GUARD_BITS":
                found.append((path.name, getattr(node, "lineno", None)))
    assert not found
