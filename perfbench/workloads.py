"""Workload case lists, the published reference values and the output checks.

A case is a JSON-able dict with an ``id``, a ``kind`` and its inputs:

* ``{"kind": "cli", "argv": [...]}`` runs ``mtzeta.cli.main(argv)``;
* ``{"kind": "expr", "expr": NAME, "bits": B, "tol": T}`` evaluates one of
  the displayed closed forms below with the public ``eval_expr``.

``build_cases`` makes the list from the seed alone.  ``check_case`` judges
one executed case from its record (exit code, captured stdout or value and
bound) and never imports the program, so the benchmark's self-test can feed
it forged records.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

from mpmath import mp, mpf

WORKLOADS = ("paper-decimals", "identity-construction", "colored-characters")

# Published decimals with the error their printing allows.  MT({2}_6) is
# rounded: half a unit in the last place.  The 18-digit MT({2}_5) is
# truncated: both displayed forms and the MZV conversion agree here on
# 0.16350160052133700968... to 1e-70 at 192 bits, 6.9e-19 above the printed
# value, so it gets a whole unit in the last place.
REFERENCES = {
    "MT({2}_5)": ("0.163501600521337009", mpf("1e-18")),
    "MT({2}_6)": ("0.15311508886", mpf("5e-12")),
}

# Digits printed by ``mtzeta eval`` (mp.nstr(value, 25)).
CLI_DIGITS = 25

PD_BITS, PD_TOL = 192, "1e-16"
CC_BITS = 128
ALPHA = "1/3"


def _cli(case_id: str, *argv: str, **check) -> dict:
    return {"id": case_id, "kind": "cli", "argv": list(argv), "check": check}


def _numeric(verb: str, s: str) -> list[str]:
    return [verb, "--s", s, "--z", "2", "--precision-bits", str(PD_BITS), "--tol", PD_TOL]


def _paper_decimals(rng: random.Random) -> list[dict]:
    cases = [
        # ``mtzeta eval`` rounds value_re to 53 bits before printing it, which
        # is short of the 18 published digits, so MT({2}_5) takes the eval
        # verb's own route (mt_to_mzv, then eval_expr) through the public API.
        {"id": "MT({2}_5) by conversion", "kind": "expr", "expr": "mt25_conversion",
         "bits": PD_BITS, "tol": float(PD_TOL), "check": {"ref": "MT({2}_5)"}},
        {"id": "weight-10 intermediate form", "kind": "expr", "expr": "mt25_intermediate",
         "bits": PD_BITS, "tol": float(PD_TOL), "check": {"ref": "MT({2}_5)"}},
        {"id": "weight-10 final form", "kind": "expr", "expr": "mt25_final",
         "bits": PD_BITS, "tol": float(PD_TOL), "check": {"ref": "MT({2}_5)"}},
        _cli("eval MT({2}_6)", *_numeric("eval", "2,2,2,2,2"), ref="MT({2}_6)"),
        {"id": "weight-12 displayed form", "kind": "expr", "expr": "mt26_display",
         "bits": PD_BITS, "tol": float(PD_TOL), "check": {"ref": "MT({2}_6)"}},
        _cli("verify k=5 cyclic identity", *_numeric("verify", "2,2,2,2,2"), verify=True),
        {"id": "72 zeta(5) strong-reduction pair", "kind": "expr", "expr": "strong_pair_1",
         "bits": PD_BITS, "tol": float(PD_TOL), "check": {"pair": 72}},
    ]
    rng.shuffle(cases)
    return cases


def _reduce_vectors(rng: random.Random) -> list[tuple[int, ...]]:
    """Every vector over {1,2,3} of depth 2..4, the three constant depth-5
    vectors, and for each pair of values one depth-5 vector using both
    values, drawn from the seed."""
    out = [s for k in (2, 3, 4) for s in itertools.product((1, 2, 3), repeat=k)]
    out += [(n,) * 5 for n in (1, 2, 3)]
    for pair in itertools.combinations((1, 2, 3), 2):
        mixed = [s for s in itertools.product(pair, repeat=5) if len(set(s)) == 2]
        out.append(rng.choice(mixed))
    return out


def _bern_vectors(rng: random.Random) -> list[tuple[int, ...]]:
    """Depth-5 vectors of weight 18 and depth-6 vectors of weight 21, entries
    1..6: the seed draws the vectors, the weights keep the work per seed
    nearly constant."""
    out = []
    for depth, weight, count in ((5, 18, 6), (6, 21, 3)):
        while sum(1 for v in out if len(v) == depth) < count:
            v = tuple(rng.randint(1, 6) for _ in range(depth))
            if sum(v) == weight:
                out.append(v)
    return out


CONVERT_VECTORS = ((2,) * 6, (1, 2, 3, 4, 5))


def _identity_construction(rng: random.Random) -> list[dict]:
    cases = []
    for s in _reduce_vectors(rng):
        text = ",".join(map(str, s))
        check: dict = {"digest": True}
        if len(s) == 2:
            check["depth2"] = list(s)
        if len(s) == 4 and len(set(s)) == 1:
            check["quad"] = s[0]
        cases.append(_cli(f"reduce {text}", "reduce", "--s", text, "--alpha", ALPHA, **check))
    for s in CONVERT_VECTORS:
        text = ",".join(map(str, s))
        cases.append(_cli(f"convert {text}", "convert", "--s", text, digest=True))
    for s in _bern_vectors(rng):
        text = ",".join(map(str, s))
        cases.append(_cli(f"bern-expand {text}", "bern-expand", "--s", text, all_equal=True))
    return cases


# Primitive non-principal characters by modulus, as indexed by
# ``mtzeta characters --mod F``.
PRIMITIVE = {3: (1,), 4: (1,), 5: (1, 2, 3), 7: (1, 2, 3, 4, 5), 8: (2, 3)}


def _colored_characters(rng: random.Random) -> list[dict]:
    cases = []
    for f, choices in PRIMITIVE.items():
        index = rng.choice(choices)
        for s in ("2,2", "2,3", "2,2,2"):
            cases.append(_cli(
                f"verify {s} chi {f},{index}", "verify", "--s", s, "--chi", f"{f},{index}",
                "--z", "2", "--precision-bits", str(CC_BITS), "--tol", "1e-6", verify=True))
    for z in ("2", "3", "2+1i", "3+2i"):
        cases.append(_cli(
            f"verify 1,2,3 alpha {ALPHA} z={z}", "verify", "--s", "1,2,3", "--alpha", ALPHA,
            "--z", z, "--precision-bits", str(CC_BITS), "--tol", "1e-6", verify=True))
    rng.shuffle(cases)
    return cases


# Cases a traced run executes once more, in a traced session of their own:
# too slow to repeat in every session.  The (3,)*6 search of the ROADMAP
# baseline visits 144,138 leaves that merge into 273 distinct MZVs.
TRACE_PROBES = {
    "identity-construction": [
        _cli("convert 3,3,3,3,3,3", "convert", "--s", "3,3,3,3,3,3", digest=True, terms=273),
    ],
}


def build_cases(workload: str, seed: int) -> list[dict]:
    rng = random.Random(f"{workload}/{seed}")
    return {
        "paper-decimals": _paper_decimals,
        "identity-construction": _identity_construction,
        "colored-characters": _colored_characters,
    }[workload](rng)


# ---------------------------------------------------------------------------
# displayed closed forms, built from the public symbolic API


def build_expr(name: str):
    """Returns a list of expressions; the case evaluates each of them."""
    from mtzeta.mzvconvert import mt_to_mzv
    from mtzeta.reduction import strong_reduction_pair
    from mtzeta.symexpr import EvenZeta, Expr, mt_value, mzv

    def mt(*e):
        return Expr.atom(mt_value(e, (0,) * len(e)))

    def zt(*e):
        return Expr.atom(mzv(e, (0,) * len(e)))

    z2, z4, z10 = (Expr.atom(EvenZeta(n)) for n in (2, 4, 10))
    if name == "mt25_conversion":
        return [mt_to_mzv((2,) * 5, (0,) * 5)]
    if name == "mt25_intermediate":
        return [(
            (z2 * mt(2, 2, 2, 2)).scale(2)
            + (z2 * mt(2, 2, 4)).scale(24)
            - (z4 * mt(2, 2, 2)).scale(10)
            - mt(2, 2, 6).scale(30)
            - mt(2, 2, 2, 4).scale(3)
        ).scale(Fraction(12, 5)) + z10.scale(2)]
    if name == "mt25_final":
        return [z10.scale(7) + (
            zt(8, 2).scale(5)
            + zt(9, 1).scale(10)
            - (z2 * zt(6, 2)).scale(4)
            - (z2 * zt(7, 1)).scale(8)
        ).scale(36)]
    if name == "mt26_display":
        # closed form of the k=5 signed cyclic sum, which is 4 MT({2}_6)
        z2p = [Expr.constant(1)]
        for _ in range(6):
            z2p.append(z2p[-1] * z2)
        return [(
            (
                (z2 * zt(5) * zt(5)).scale(21)
                + (z2 * zt(8, 2)).scale(33)
                + (z2 * zt(3) * zt(7)).scale(30)
                + zt(8, 2, 1, 1).scale(12)
                - zt(3) * zt(3) * zt(3) * zt(3)
            ).scale(1200)
            + (
                (z2p[3] * zt(3) * zt(3)).scale(Fraction(1056, 7))
                - (zt(3) * zt(9)).scale(4264)
                - zt(10, 2).scale(1068)
                - (zt(5) * zt(7)).scale(6627)
            ).scale(60)
            + ((zt(5) * zt(3) * z2p[2]) + (z2p[2] * zt(6, 2)).scale(2)).scale(7488)
            + z2p[6].scale(Fraction(13944719168, 525525))
        ).scale(Fraction(1, 4))]
    if name == "strong_pair_1":
        lhs, rhs = strong_reduction_pair(1)
        return [lhs, rhs, zt(5)]
    raise KeyError(name)


# ---------------------------------------------------------------------------
# checks


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _close(value: str, bound: float, ref: str, slack) -> bool:
    with mp.workprec(400):
        return abs(mpf(value) - mpf(ref)) <= mpf(bound) + slack


def _print_ulp(value: str):
    """Half a unit in the last of the CLI_DIGITS significant digits."""
    v = abs(float(value))
    return mpf(0) if v == 0 else mpf(10) ** (math.floor(math.log10(v)) - CLI_DIGITS + 1) / 2


def check_case(case: dict, rec: dict, oracles: dict) -> str | None:
    """None when the executed case is correct, otherwise the reason.

    ``rec`` holds ``exit`` and ``error`` and either ``stdout`` (cli cases)
    or ``values``/``bounds`` (expr cases).  ``oracles["expected"]`` maps a
    case id to JSON fields its output must equal; ``oracles["digests"]``
    maps an argv to the recorded sha256 of its output.
    """
    if rec.get("error"):
        return f"raised {rec['error'].splitlines()[-1]}"
    if rec.get("exit") != 0:
        return f"exit code {rec.get('exit')} {rec.get('stderr', '').strip()[-200:]}".rstrip()
    check = case["check"]
    if case["kind"] == "expr":
        values, bounds = rec["values"], rec["bounds"]
        for imag, b in zip(rec["imags"], bounds):
            if imag > b:
                return f"imaginary part {imag} exceeds the bound {b:.3e}"
        if "ref" in check:
            ref, allowance = REFERENCES[check["ref"]]
            if not _close(values[0], bounds[0], ref, allowance):
                return f"{values[0]} is not within {bounds[0]:.3e} + {allowance} of {ref}"
        if "pair" in check:
            (lhs, rhs, z5), (blhs, brhs, bz5) = values, bounds
            with mp.workprec(400):
                target = check["pair"] * mpf(z5)
                slack = check["pair"] * mpf(bz5)
                for side, b in ((lhs, blhs), (rhs, brhs)):
                    if abs(mpf(side) - target) > mpf(b) + slack:
                        return f"{side} is not within the bounds of {check['pair']} zeta(5)"
        return None
    try:
        doc = json.loads(rec["stdout"])
    except ValueError:
        return "stdout is not one JSON document"
    if "ref" in check:
        ref, allowance = REFERENCES[check["ref"]]
        if float(doc["value_im"]) != 0:
            return f"imaginary part {doc['value_im']}"
        if not _close(doc["value_re"], doc["bound"], ref, allowance + _print_ulp(doc["value_re"])):
            return f"{doc['value_re']} is not within {doc['bound']:.3e} + {allowance} of {ref}"
    if check.get("verify") and doc.get("pass") is not True:
        return f"verification failed: residual {doc.get('residual')} bound {doc.get('bound')}"
    if "terms" in check and len(doc["expr"]) != check["terms"]:
        return f"{len(doc['expr'])} MZV terms, expected {check['terms']}"
    if check.get("all_equal") and doc.get("all_equal") is not True:
        return "expansions differ from the naive polynomial oracle"
    if check.get("digest"):
        want = oracles["digests"].get(" ".join(case["argv"]))
        if want is None:
            return "no recorded digest for this case"
        if digest(rec["stdout"]) != want:
            return "output differs from the recorded digest"
    for key, want in oracles.get("expected", {}).get(case["id"], {}).items():
        if doc.get(key) != want:
            return f"identity {key} differs from its closed specialization"
    return None


def certified_digits(case: dict, rec: dict) -> list[float]:
    """-log10 of every bound a numeric case reports."""
    if case["kind"] == "expr":
        bounds = rec["bounds"]
    else:
        try:
            bounds = [json.loads(rec["stdout"])["bound"]]
        except (KeyError, TypeError, ValueError):
            bounds = []
    return [-math.log10(b) if b > 0 else math.inf for b in bounds]
