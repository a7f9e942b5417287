import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpc

from mtzeta.dirichlet import (
    character_identities,
    enumerate_characters,
    fourier_weights,
    gauss_sum,
    mt_l_value,
)
from mtzeta.numerics import EvalConfig


def euler_phi(n):
    return sum(1 for a in range(1, n + 1) if math.gcd(a, n) == 1)


def test_counts_and_principal():
    for f in range(1, 51):
        chars = enumerate_characters(f)
        assert len(chars) == euler_phi(f), f
        assert chars[0].principal
        for chi in chars:
            assert chi.angle(1) in (Fraction(0), None) or f == 1
            assert chi.modulus % chi.conductor == 0


def test_modulus_1():
    (chi,) = enumerate_characters(1)
    assert chi.principal and chi.conductor == 1 and chi.primitive


def test_mod4_characters():
    chars = enumerate_characters(4)
    assert len(chars) == 2
    nontrivial = [c for c in chars if not c.principal]
    assert len(nontrivial) == 1
    chi = nontrivial[0]
    assert chi.primitive and chi.conductor == 4
    assert chi.angle(1) == 0 and chi.angle(3) == Fraction(1, 2)
    assert chi.angle(2) is None


def test_complete_multiplicativity_exact():
    for f in (3, 5, 8, 12, 15):
        for chi in enumerate_characters(f):
            for a in range(1, f):
                for b in range(1, f):
                    ca, cb, cab = chi.angle(a), chi.angle(b), chi.angle(a * b)
                    if ca is None or cb is None:
                        assert cab is None
                    else:
                        assert cab == (ca + cb) % 1


def test_orthogonality_exact():
    # chi * conj(chi') is a character psi; its angle multiset over the
    # units is phi(f)/d copies of each j/d (d = order), so the sum of
    # values vanishes exactly unless psi is principal.
    for f in range(2, 21):
        chars = enumerate_characters(f)
        for chi in chars:
            for psi in chars:
                prod = [
                    (a - b) % 1
                    for a, b in zip(chi.angles, psi.angles)
                    if a is not None and b is not None
                ]
                counts = Counter(prod)
                if chi.index == psi.index:
                    assert counts == Counter({Fraction(0): euler_phi(f)})
                else:
                    d = max(x.denominator for x in counts)
                    assert d > 1
                    assert counts == Counter(
                        {Fraction(j, d) % 1: euler_phi(f) // d for j in range(d)}
                    )


def test_gauss_sum_modulus():
    cfg = EvalConfig(precision_bits=128)
    assert complex(gauss_sum(enumerate_characters(1)[0], cfg).value) == 1
    for f in range(2, 21):
        for chi in enumerate_characters(f):
            if not chi.primitive:
                continue
            g = gauss_sum(chi, cfg)
            with mp.workprec(160):
                mag2 = float(abs(mpc(g.value)) ** 2)
            assert abs(mag2 - f) <= 4 * math.sqrt(f) * g.bound + 1e-25, f


def _within_both_bounds(got, ref, bits):
    with mp.workprec(4 * bits + 64):
        return float(abs(mpc(got.value) - mpc(ref.value))) <= got.bound + ref.bound


@settings(derandomize=True, max_examples=250, deadline=None)
@given(st.integers(min_value=3, max_value=50), st.integers(min_value=0), st.sampled_from([64, 128, 256]))
def test_gauss_sum_bound_sound(f, index, bits):
    # any character mod 3..50 against its own gauss sum at twice the
    # precision: the two values lie within the sum of their bounds
    chars = enumerate_characters(f)
    chi = chars[index % len(chars)]
    got = gauss_sum(chi, EvalConfig(precision_bits=bits))
    assert _within_both_bounds(got, gauss_sum(chi, EvalConfig(precision_bits=2 * bits)), bits), (f, chi.index, bits)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.sampled_from([f for f in range(3, 51) if f % 4 != 2]), st.integers(min_value=0), st.sampled_from([64, 128, 256]))
def test_fourier_weights_bound_sound(f, index, bits):
    # every weight of a primitive character mod 3..50 (a modulus 2 mod 4
    # has none) against the same weight at twice the precision
    chars = [c for c in enumerate_characters(f) if c.primitive]
    chi = chars[index % len(chars)]
    got = fourier_weights(chi, EvalConfig(precision_bits=bits))
    ref = fourier_weights(chi, EvalConfig(precision_bits=2 * bits))
    assert [w is None for w in got] == [w is None for w in ref]
    for n, (w, v) in enumerate(zip(got, ref), 1):
        assert w is None or _within_both_bounds(w, v, bits), (chi.modulus, chi.index, bits, n)


def test_l_value_depth1_catalan():
    chars = enumerate_characters(4)
    chi = next(c for c in chars if not c.principal)
    got = mt_l_value((2,), (chi,))
    m = np.arange(0, 10**6)
    catalan = float(np.sum((-1.0) ** m / (2 * m + 1) ** 2))
    assert abs(complex(got.value) - catalan) <= got.bound + 1e-11


def test_l_value_principal_reduces_to_zeta():
    chi1 = enumerate_characters(1)[0]
    got = mt_l_value((1, 1, 2), (chi1, chi1, chi1))
    with mp.workprec(280):
        assert abs(mpc(got.value) - mp.pi**4 / 180) <= got.bound + 1e-60


def test_l_value_depth1_hurwitz_route():
    # assembly equals L(s, chi) = f^{-s} sum_a chi(a) zeta(s, a/f); this is
    # the check that pins the conjugate-weight convention (complex chi)
    from _oracles import hurwitz_zeta

    f = 5
    chi = next(
        c
        for c in enumerate_characters(f)
        if c.primitive and any(a is not None and a.denominator > 2 for a in c.angles)
    )
    got = mt_l_value((3,), (chi,))
    with mp.workprec(280):
        direct = mp.mpc(0)
        err = 0.0
        for a in range(1, f + 1):
            if chi.angle(a) is None:
                continue
            hz = hurwitz_zeta(3, Fraction(a, f))
            direct += chi.value(a, 280) * mpc(hz.value)
            err += hz.bound
        direct = direct * mp.mpf(f) ** -3
        assert abs(mpc(got.value) - direct) <= got.bound + err + 1e-40


def test_l_value_rejects_imprimitive():
    chars = enumerate_characters(8)
    imp = next(c for c in chars if not c.primitive and not c.principal)
    with pytest.raises(ValueError, match="primitive"):
        mt_l_value((2,), (imp,))


def test_l_value_character_twisted_double_sum():
    # depth 2, chi mod 3 on the total slot, against a direct twisted sum
    chars = enumerate_characters(3)
    chi = next(c for c in chars if not c.principal)
    one = enumerate_characters(1)[0]
    got = mt_l_value((2, 2, 2), (one, one, chi))
    N = 2000
    m = np.arange(1, N + 1)
    vals = np.array([complex(chi.value(int(t), 64)) for t in range(3)])
    grid = np.add.outer(m, m)
    tw = vals[np.mod(grid, 3)]
    direct = np.sum(
        tw / (np.outer(m, m).astype(float) ** 2 * grid.astype(float) ** 2)
    )
    assert abs(complex(got.value) - complex(direct)) <= got.bound + 1e-3


def test_character_identity_residuals():
    cfg = EvalConfig(precision_bits=128, target_tol=1e-10)
    for f in (3, 4):
        chi = next(
            c for c in enumerate_characters(f) if c.primitive and not c.principal
        )
        fam = character_identities((2, 2), chi, cfg)
        assert len(fam) == f
        total = mpc(0)
        bound = 0.0
        for w, ident in fam:
            r = ident.residual(2, cfg)
            total += mpc(w.value) * mpc(r.value)
            wm = float(abs(mpc(w.value)))
            rm = float(abs(mpc(r.value)))
            bound += wm * r.bound + rm * w.bound + w.bound * r.bound
        assert abs(complex(total)) <= bound


def test_character_identities_modulus_one():
    chi = enumerate_characters(1)[0]
    ((w, ident),) = character_identities((2, 2), chi)
    assert complex(w.value) == 1
    assert ident.alpha == 0


def test_verify_chi_builds_only_coprime_members(monkeypatch, capsys):
    # a non-coprime n has weight exactly 0: verify --chi builds no identity
    # for it, while reduce --chi still prints the whole family
    from mtzeta import dirichlet
    from mtzeta.cli import main

    built = []
    build = dirichlet.cyclic_sum_identity

    def recording(s, alpha):
        built.append(alpha)
        return build(s, alpha)

    monkeypatch.setattr(dirichlet, "cyclic_sum_identity", recording)
    argv = ["--s", "2,2", "--chi", "8,3", "--precision-bits", "128"]
    assert main(["verify", *argv, "--z", "2", "--tol", "1e-6"]) == 0
    assert built == [Fraction(n, 8) for n in (1, 3, 5, 7)]
    built.clear()
    assert main(["reduce", *argv]) == 0
    assert built == [Fraction(n, 8) for n in range(1, 9)]
    capsys.readouterr()


def test_weights_and_l_value_cover_a_gauss_sum_error(monkeypatch):
    # a Gauss sum off by 1e-6, within its bound of 1e-6, moves each weight
    # e(-a)/tau by about 1e-6/|tau|^2; the weight bounds and the bound of
    # mt_l_value must cover that, whatever |tau| = sqrt(f)
    from mtzeta import dirichlet
    from mtzeta.numerics import EvalResult

    exact_gauss = dirichlet.gauss_sum

    def perturbed(chi, cfg=EvalConfig()):
        return EvalResult(mpc(exact_gauss(chi, cfg).value) + 1e-6, 1e-6)

    monkeypatch.setattr(dirichlet, "gauss_sum", perturbed)
    cfg = EvalConfig(precision_bits=128)
    for f in (4, 5, 7, 8):
        for chi in enumerate_characters(f):
            if not chi.primitive:
                continue
            with mp.workprec(200):
                tau = mpc(exact_gauss(chi.conjugate(), cfg).value)
                for n, (w, _) in enumerate(character_identities((2, 2), chi, cfg), start=1):
                    true_w = mp.conj(chi.value(n, 200)) / tau
                    assert abs(mpc(w.value) - true_w) <= w.bound, (f, chi.index, n)
            got = mt_l_value((2,), (chi,), cfg)
            with mp.workprec(200):
                true_l = sum(chi.value(a, 200) * mp.zeta(2, mp.mpf(a) / f) for a in range(1, f)) / f**2
                assert abs(mpc(got.value) - true_l) <= got.bound, (f, chi.index)
