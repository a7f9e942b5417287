"""Command-line surface with stable JSON output.

Subcommands: reduce, verify, eval, convert, bern-expand, partitions,
characters.  Exit codes: 0 success, 1 malformed flags (usage on stderr),
2 domain errors (divergence, Re(z) < 1, non-primitive character, out of
budget), 3 verification failure (residual above combined bound + tol).

Output is deterministic: expressions serialize in canonical term order and
JSON keys are sorted, so identical requests give byte-identical output.
Schema version: "mtzeta/1".
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import re
import sys
from fractions import Fraction
from typing import Any

from mpmath import libmp

from . import __version__
from .bernprod import carlitz_product, expand_by_partitions, expand_by_subsets, naive_product
from .dirichlet import character_identities, enumerate_characters, gauss_sum, mt_l_value
from .exact import _MAX_BERNOULLI
from .mzvconvert import check_mt_convergence, mt_to_mzv
from .numerics import _MAX_PRECISION_BITS, EvalConfig, _assemble, _eval_atom, _mag, _parts, _route
from .partitions import PartitionKind, enumerate_partitions
from .reduction import Identity, cyclic_sum_identity
from .symexpr import Expr, Z, _canon_color, _canon_number, _frac_str, atom_to_json, expr_to_json, mt_value

SCHEMA = "mtzeta/1"
# verify combines residuals at 53 bits, mpmath's default precision
_VERIFY_BITS = 53


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):  # each flag has one spelling: no prefixes
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message: str) -> None:  # exit 1, not argparse's 2
        print(f"error: {message}", file=sys.stderr)
        self.print_usage(sys.stderr)
        raise SystemExit(1)

    def parse_known_args(self, args=None, namespace=None):
        # argparse reads a token that begins with '-' as an option unless it
        # is a plain negative number; after a flag that takes a value, such a
        # token is that value, as in the FLAG=VALUE spelling, unless it is an
        # option string of this parser (each verb's parser joins its own)
        opts, argv = self._option_string_actions, []
        for tok in sys.argv[1:] if args is None else args:
            flag = argv[-1] if argv else None
            if tok.startswith("-") and tok not in opts and flag in opts and opts[flag].nargs is None:
                argv[-1] = f"{flag}={tok}"
            else:
                argv.append(tok)
        return super().parse_known_args(argv, namespace)


def _ints_arg(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad integer vector {text!r}") from None


def _fraction_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"bad rational {text!r}") from None


def _fractions_arg(text: str) -> list[Fraction]:
    return [_fraction_arg(c) for c in text.split(",")]


def _chi_arg(text: str) -> tuple[int, int]:
    """A --chi flag "MOD,INDEX"; _resolve_character checks the range."""
    try:
        mod, idx = (int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad character {text!r}, expected MOD,INDEX") from None
    return mod, idx


def _complex_arg(text: str) -> tuple[str, Any]:
    """A --z flag: its text, which verify echoes, and its value, an int when
    it is integral (_canon_number), read here once."""
    try:
        z = parse_complex(text)
    except ValueError:
        z = complex(math.nan)
    if not cmath.isfinite(z):
        raise argparse.ArgumentTypeError(f"bad complex value {text!r}, need finite parts")
    return text, _canon_number(z)


def _tol_arg(text: str) -> float:
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not 0 <= tol < math.inf:
        raise argparse.ArgumentTypeError(f"bad tolerance {text!r}, need a finite number >= 0")
    return tol


def _precision_arg(text: str) -> int:
    try:
        bits = int(text)
    except ValueError:
        bits = 0
    if not 64 <= bits <= _MAX_PRECISION_BITS:
        raise argparse.ArgumentTypeError(
            f"bad precision {text!r}, need an integer in [64, {_MAX_PRECISION_BITS}]"
        )
    return bits


def parse_complex(text: str) -> complex:
    """Accepts 'a', 'a+bi', 'a-bi', 'bi' with decimal components."""
    t = text.strip().replace(" ", "")
    m = re.match(r"^([+-]?\d+(?:\.\d+)?)([+-]\d*(?:\.\d+)?)i$", t) or re.match(r"^()([+-]?\d*(?:\.\d+)?)i$", t)
    if not m:
        return complex(float(t), 0.0)
    im = m.group(2)  # a bare sign, or nothing, stands for 1
    return complex(float(m.group(1) or 0), float(im + "1" if im in ("", "+", "-") else im))


def _nstr_parts(value: Any, digits: int, cfg: EvalConfig) -> tuple[str, str]:
    """Real and imaginary parts of a kernel value, rounded to ``digits``
    significant digits at the working precision the value was computed at."""
    re, im = _parts(value, cfg.prec)
    return libmp.to_str(re, digits), libmp.to_str(im, digits)


def _emit(payload: dict, fmt: str, text_lines: list[str] | None = None) -> None:
    if fmt == "text" and text_lines is not None:
        print("\n".join(text_lines))
    else:
        print(json.dumps(payload, sort_keys=True, indent=2))


def identity_to_json(ident: Identity) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "identity",
        "s": list(ident.s),
        "alpha": _frac_str(ident.alpha),
        "depth": len(ident.s),
        "lhs": [
            {"coeff": _frac_str(c), "atom": atom_to_json(a)} for c, a in ident.lhs
        ],
        "rhs": expr_to_json(ident.rhs),
    }


def _cfg(args: argparse.Namespace) -> EvalConfig:
    kwargs: dict[str, Any] = {}
    if getattr(args, "precision_bits", None):
        kwargs["precision_bits"] = args.precision_bits
    if getattr(args, "tol", None):
        kwargs["target_tol"] = min(args.tol, 1e-10)
    return EvalConfig(**kwargs)


def _resolve_character(spec: tuple[int, int]):
    mod, idx = spec
    chars = enumerate_characters(mod)
    if not 0 <= idx < len(chars):
        raise ValueError(f"character index {idx} out of range for modulus {mod}")
    return chars[idx]


# ---------------------------------------------------------------------------
# subcommand handlers (each returns the process exit code)


def _cmd_partitions(args) -> int:
    s = args.s
    kind = PartitionKind.FAT if args.kind == "fat" else PartitionKind.PRE_FAT
    partitions = enumerate_partitions(s, kind)
    payload = {
        "schema": SCHEMA,
        "kind": "partitions",
        "s": list(s),
        "partition_kind": kind.value,
        "count": len(partitions),
        "partitions": [[list(p) for p in parts] for parts in partitions],
    }
    _emit(payload, args.format, [f"{len(partitions)} partitions"] + [
        " | ".join(str(list(p)) for p in parts) for parts in partitions
    ])
    return 0


def _cmd_bern_expand(args) -> int:
    s = args.s
    # the naive route rewrites a polynomial of degree |s| in the Bernoulli
    # basis, so it needs B_|s|: refuse before the table grows
    if sum(s) > _MAX_BERNOULLI:
        raise ValueError(f"weight {sum(s)} passes the Bernoulli limit {_MAX_BERNOULLI}")
    combos = {  # by_subsets first: it refuses a vector over its budget before any work
        "by_subsets": expand_by_subsets(s),
        "naive": naive_product(s),
        "by_partitions": expand_by_partitions(s),
    }
    if len(s) == 2:
        combos["two_factor"] = carlitz_product(*s)
    oracle = combos["naive"]
    payload = {
        "schema": SCHEMA,
        "kind": "bernoulli-product",
        "s": list(s),
        "expansions": {
            name: {
                "terms": {str(m): _frac_str(c) for m, c in sorted(combo.terms.items())},
                "constant": _frac_str(combo.constant),
            }
            for name, combo in sorted(combos.items())
        },
        "all_equal": all(c == oracle for c in combos.values()),
    }
    _emit(payload, args.format)
    return 0


def _cmd_convert(args) -> int:
    s = args.s
    expr = mt_to_mzv(s, args.colors)
    payload = {
        "schema": SCHEMA,
        "kind": "mzv-combination",
        "s": list(s),
        "colors": [_frac_str(_canon_color(c)) for c in (args.colors or [0] * len(s))],
        "expr": expr_to_json(expr),
    }
    _emit(payload, args.format, [str(expr)])
    return 0


def _cmd_characters(args) -> int:
    chars = enumerate_characters(args.mod)
    cfg = _cfg(args)
    rows = []
    for chi in chars:
        tau_re, tau_im = _nstr_parts(gauss_sum(chi, cfg).value, 17, cfg)
        rows.append(
            {
                "index": chi.index,
                "conductor": chi.conductor,
                "primitive": chi.primitive,
                "principal": chi.principal,
                "angles": [
                    None if a is None else _frac_str(a) for a in chi.angles
                ],
                "gauss_sum": {"re": tau_re, "im": tau_im},
            }
        )
    payload = {
        "schema": SCHEMA,
        "kind": "characters",
        "modulus": args.mod,
        "indexing": "little-endian exponents on unit-group generators",
        "characters": rows,
    }
    _emit(
        payload,
        args.format,
        [f"chi_{r['index']}: conductor {r['conductor']}, primitive {r['primitive']}" for r in rows],
    )
    return 0


def _identity_for(args) -> Identity:
    alpha = args.alpha if args.alpha is not None else Fraction(0)
    return cyclic_sum_identity(args.s, alpha)


def _cmd_reduce(args) -> int:
    if args.chi:
        chi = _resolve_character(args.chi)
        cfg = _cfg(args)
        fam = character_identities(args.s, chi, cfg)
        family = []
        for w, ident in fam:
            w_re, w_im = _nstr_parts(w.value, 17, cfg)
            family.append(
                {
                    "weight": {"re": w_re, "im": w_im, "bound": w.bound},
                    "identity": identity_to_json(ident),
                }
            )
        payload = {
            "schema": SCHEMA,
            "kind": "weighted-identities",
            "chi": {"modulus": chi.modulus, "index": chi.index},
            "family": family,
        }
        _emit(payload, args.format)
        return 0
    ident = _identity_for(args)
    _emit(
        identity_to_json(ident),
        args.format,
        ["lhs:"]
        + [f"  {c} * {a}" for c, a in ident.lhs]
        + ["rhs:", f"  {ident.rhs}"],
    )
    return 0


def _cmd_verify(args) -> int:
    cfg = _cfg(args)
    tol = args.tol or 0.0
    if args.z is None:
        raise ValueError("--z is required for a z-dependent target")
    z_text, z0 = args.z
    if args.chi:
        chi = _resolve_character(args.chi)
        # a non-coprime n has weight exactly 0: its member is not built
        fam = character_identities(args.s, chi, cfg, coprime_only=True)
        r = _assemble(((1, (w, ident.residual(z0, cfg))) for w, ident in fam), _VERIFY_BITS)
    else:
        ident = _identity_for(args)
        r = ident.residual(z0, cfg)
    residual = _mag(_parts(r.value, _VERIFY_BITS), _VERIFY_BITS)
    bound = r.bound
    ok = residual <= bound + tol
    payload = {
        "schema": SCHEMA,
        "kind": "verification",
        "s": list(args.s),
        "z": z_text,
        "residual": residual,
        "bound": bound,
        "tol": tol,
        "pass": ok,
    }
    _emit(payload, args.format, [f"residual {residual:.3e} vs bound {bound:.3e} + tol {tol:.1e}: {'PASS' if ok else 'FAIL'}"])
    # a pass whose bound exceeds the tolerance proves nothing at that tolerance
    if ok and bound > (tol or cfg.target_tol):
        print(f"inconclusive: bound {bound:.3e} exceeds tol {tol or cfg.target_tol:.1e}", file=sys.stderr)
    return 0 if ok else 3


def _cmd_eval(args) -> int:
    cfg = _cfg(args)
    s = args.s
    z = args.z[1] if args.z else None
    exps = s if z is None else s + (z,)
    if args.chi:
        chi = _resolve_character(args.chi)
        ones = enumerate_characters(1)[0]
        chis = (ones,) * (len(exps) - 1) + (chi,)
        result = mt_l_value(exps, chis, cfg)  # it refuses a z that is not a positive integer
        route = "character-assembly"
    else:  # a convergent sum only: mt_value((0,), (0,)) is zeta(0) = -1/2
        check_mt_convergence(exps)
        atom = mt_value(s if z is None else s + (Z,), (0,) * (len(exps) - 1) + (args.alpha or 0,))
        if z is not None:
            (atom,) = Expr.atom(atom).substitute(z).atoms()
        result, route = _eval_atom(atom, cfg), _route(atom)
    value_re, value_im = _nstr_parts(result.value, 25, cfg)
    payload = {
        "schema": SCHEMA,
        "kind": "evaluation",
        "s": list(s),
        "route": route,
        "value_re": value_re,
        "value_im": value_im,
        "bound": result.bound,
    }
    _emit(payload, args.format, [f"{payload['value_re']} + {payload['value_im']} i  (bound {result.bound:.3e}, {route})"])
    if result.bound > cfg.target_tol:
        print(f"imprecise: bound {result.bound:.3e} exceeds target {cfg.target_tol:.1e}", file=sys.stderr)
    return 0


@functools.cache
def build_parser() -> _Parser:
    """The parser of every verb, built once per process: parse_args leaves
    it unchanged, and each call gets a fresh namespace."""
    p = _Parser(prog="mtzeta", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def numeric_flags(sp):
        sp.add_argument("--precision-bits", type=_precision_arg, dest="precision_bits")
        sp.add_argument("--tol", type=_tol_arg)

    def common(sp, z=False, color=False, numeric=False):
        sp.add_argument("--s", type=_ints_arg, required=True, help="comma-separated integers")
        if color:
            group = sp.add_mutually_exclusive_group()
            group.add_argument("--alpha", type=_fraction_arg, help='rational color "p/q"')
            group.add_argument("--chi", type=_chi_arg, help='character "MOD,INDEX"')
        if z:
            sp.add_argument("--z", type=_complex_arg, help='complex value "a+bi"')
        if numeric:
            numeric_flags(sp)
        sp.add_argument("--format", choices=("json", "text"), default="json")

    sp = sub.add_parser("partitions", help="enumerate fat/pre-fat partitions")
    sp.add_argument("--kind", choices=("fat", "pre-fat"), default="fat")
    common(sp)
    sp.set_defaults(fn=_cmd_partitions)

    sp = sub.add_parser("bern-expand", help="Bernoulli-product expansions + oracle verdict")
    common(sp)
    sp.set_defaults(fn=_cmd_bern_expand)

    sp = sub.add_parser("convert", help="rewrite an MT value as colored MZVs")
    sp.add_argument(
        "--colors", type=_fractions_arg, help="comma-separated rationals, one per slot"
    )
    common(sp)
    sp.set_defaults(fn=_cmd_convert)

    sp = sub.add_parser("characters", help="list Dirichlet characters mod f")
    sp.add_argument("--mod", type=int, required=True)
    numeric_flags(sp)
    sp.add_argument("--format", choices=("json", "text"), default="json")
    sp.set_defaults(fn=_cmd_characters)

    sp = sub.add_parser("reduce", help="construct the cyclic-sum identity")
    common(sp, color=True, numeric=True)
    sp.set_defaults(fn=_cmd_reduce)

    sp = sub.add_parser("verify", help="evaluate an identity and check the residual")
    common(sp, z=True, color=True, numeric=True)
    sp.set_defaults(fn=_cmd_verify)

    sp = sub.add_parser("eval", help="evaluate an MT value or L-value")
    common(sp, z=True, color=True, numeric=True)
    sp.set_defaults(fn=_cmd_eval)

    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, TypeError, OverflowError) as exc:
        # an int of over 30 digits, say an exponent from a huge --z, prints short
        msg = re.sub(r"\d{31,}", lambda m: f"{m[0][:12]}...({len(m[0])} digits)", str(exc))
        print(f"domain error: {msg}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
