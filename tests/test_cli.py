import ast
import contextlib
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import mtzeta
from mtzeta import mzvconvert, reduction
from mtzeta.cli import main, parse_complex
from mtzeta.numerics import _MAX_PRECISION_BITS, mt_direct


def run_python(*args, timeout=None):
    # the child imports the same mtzeta as this process, installed or not
    src = str(Path(mtzeta.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=timeout,
    )
    return proc.returncode, proc.stdout, proc.stderr


def run_cli(*argv, timeout=None):
    return run_python("-m", "mtzeta.cli", *argv, timeout=timeout)


def test_parse_complex():
    assert parse_complex("2") == 2
    assert parse_complex("1.5") == 1.5
    assert parse_complex("2+1i") == complex(2, 1)
    assert parse_complex("2-0.5i") == complex(2, -0.5)
    assert parse_complex("-1+2i") == complex(-1, 2)
    assert parse_complex("3i") == complex(0, 3)


def test_reduce_worked_example(capsys):
    assert main(["reduce", "--s", "1,1", "--alpha", "0"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["schema"] == "mtzeta/1"
    # rhs = 4 * zeta(0) * phi(z+2): the -2 phi(z+2) with zeta(0) symbolic
    assert data["rhs"] == [
        {
            "coeff": "4",
            "atoms": [
                {"type": "even_zeta", "n": 0},
                {"type": "lerch", "exp": {"const": 2, "z": True}, "color": "0"},
            ],
        }
    ]


def test_verify_exit_codes(capsys):
    assert main(["verify", "--s", "2,3", "--alpha", "0", "--z", "2", "--tol", "1e-8"]) == 0
    capsys.readouterr()
    # domain error: Re(z) < 1
    assert main(["verify", "--s", "2,3", "--alpha", "0", "--z", "0.5"]) == 2
    capsys.readouterr()


def test_partitions_command(capsys):
    assert main(["partitions", "--s", "1,1,1,1", "--kind", "fat"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["count"] == 2
    assert data["partitions"] == [[[1, 1, 1, 1]], [[1, 1], [1, 1]]]


def test_eval_command(capsys):
    assert main(["eval", "--s", "1,1", "--z", "2", "--alpha", "0"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["route"] == "conversion"
    import math

    assert abs(float(data["value_re"]) - math.pi**4 / 180) < 1e-12


def test_eval_prints_at_working_precision(capsys):
    # MT({2}_5); the published decimal is truncated at 18 digits
    argv = ["eval", "--s", "2,2,2,2", "--z", "2", "--precision-bits", "192", "--tol", "1e-16"]
    assert main(argv) == 0
    data = json.loads(capsys.readouterr().out)
    err = abs(Fraction(data["value_re"]) - Fraction("0.163501600521337009"))
    assert err <= Fraction(data["bound"]) + Fraction(1, 10**18)


def test_convert_budget_exit_code(monkeypatch, capsys):
    monkeypatch.setattr(mzvconvert, "_MAX_STEPS", 10)
    assert main(["convert", "--s", "2,2,2,2"]) == 2
    assert "budget" in capsys.readouterr().err


def test_reduce_budget_exit_code(monkeypatch, capsys):
    # one budget per identity, shared by its subsets, for every verb that
    # builds identities
    monkeypatch.setattr(reduction, "_MAX_WORK", 10)
    for argv in (
        ["reduce", "--s", "2,2,2"],
        ["reduce", "--s", "2,2,2", "--chi", "3,1"],
        ["verify", "--s", "2,2,2", "--z", "2"],
    ):
        assert main(argv) == 2, argv
        assert "budget" in capsys.readouterr().err
    monkeypatch.undo()
    assert main(["reduce", "--s", "2,2,2"]) == 0


def test_reduce_budget_stops_high_weight_quickly():
    # the binomials of each term grow with the weight: without the budget
    # this reduction runs for minutes
    rc, out, err = run_cli("reduce", "--s", "1000,1000,1000", timeout=60)
    assert rc == 2 and not out, err
    assert "budget" in err and "Traceback" not in err


def test_hurwitz_budget_stops_quickly():
    # the q Euler-Maclaurin heads of one phi(s; p/q), or the one head of a
    # large |s|, share a budget: without it these run for over 100 s and 13 s
    for argv in (["--z", "2+1000000i"], ["--z", "2.5", "--alpha", "1/5000"]):
        rc, out, err = run_cli("eval", "--s", "2", *argv, timeout=30)
        assert rc == 2 and not out, err
        assert "budget" in err and "Traceback" not in err


def test_fine_color_phi_time_and_memory():
    # phi(4.5; 1/500) sums 45,000 head terms; the power table keeps only the
    # cofactors n <= qM/2 in fixed point, so the peak stays near the import's
    src = str(Path(mtzeta.__file__).resolve().parents[1])
    script = (
        "import contextlib, io, json, sys\n"
        "def hwm():\n"
        "    return next(int(l.split()[1]) for l in open('/proc/self/status') if l.startswith('VmHWM'))\n"
        "from mtzeta.cli import main\n"
        "before, out = hwm(), io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        "    rc = main(['eval', '--s', '2', '--z', '2.5', '--alpha', '1/500'])\n"
        "print(json.dumps({'rc': rc, 'kb': hwm() - before, 'out': json.loads(out.getvalue())}))\n"
    )
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=30, env={**os.environ, "PYTHONPATH": path}
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["rc"] == 0 and got["kb"] <= 10 * 1024, got["kb"]
    assert got["out"]["value_re"].startswith("1.0546016321397716161363") and got["out"]["bound"] <= 4.4e-79


def test_bern_expand_budget_refuses_before_any_expansion(monkeypatch, capsys):
    # ten twos make 4^10 (subset, index) pairs, 40 s of work without the
    # budget; no expansion starts, the naive oracle included
    from mtzeta import cli

    def refuse(*_):
        raise AssertionError("expansion started")

    monkeypatch.setattr(cli, "naive_product", refuse)
    monkeypatch.setattr(cli, "expand_by_partitions", refuse)
    assert main(["bern-expand", "--s", ",".join(["2"] * 10)]) == 2
    assert "budget" in capsys.readouterr().err


def test_partitions_budget(capsys):
    # 26 ones have F_25 = 75,025 fat partitions, refused before the list is
    # built; 18 ones print what they always printed
    start = time.perf_counter()
    assert main(["partitions", "--s", ",".join(["1"] * 26)]) == 2
    assert time.perf_counter() - start < 1
    assert "budget" in capsys.readouterr().err
    for kind, want in (
        ("fat", "6031c72a8a0bb76a592d7a840ece3b351e459946b131a967beed79f0c4a13ed2"),
        ("pre-fat", "475d395c0991f281f63cd0e3fe2c580b9b9a74f700a1b638b2ad18ae172c2387"),
    ):
        assert main(["partitions", "--s", ",".join(["1"] * 18), "--kind", kind]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == want, kind


def test_outputs_match_recorded_digests(capsys):
    # the benchmark's recorded sha256 of every depth-2 and depth-3 reduce
    # and of convert 1,2,3,4,5: the symbolic output is byte-identical
    recorded = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "digests.json").read_text())
    ids = [k for k in recorded if k.startswith("reduce ") and len(k.split()[2].split(",")) in (2, 3)]
    assert len(ids) == 9 + 27
    for case in ids + ["convert --s 1,2,3,4,5"]:
        assert main(case.split()) == 0, case
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == recorded[case], case


def test_character_outputs_match_recorded_digests(capsys):
    # sha256 of the stdout of one verb per --chi route: the assembled
    # L-value, the weighted family and the weighted residual
    recorded = {
        "eval --s 2 --chi 4,1": "bded1d0f86329f8064b7ce13d87d35b26162fcbf4021a5f92f8ce906b6b42d46",
        "reduce --s 2,2 --chi 3,1": "f227d24ef39929df7ffed13a1c7e48f8a379781fe66b7c76ea1a9f3923a3f147",
        "verify --s 2,2 --chi 5,2 --z 2 --tol 1e-6": "6d6acc84a095fb24025ea89b25b0cb56f9d41f9ebb963fcf25d79bfc662ab009",
    }
    for case, digest in recorded.items():
        assert main(case.split()) == 0, case
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest, case


def test_numeric_outputs_match_recorded_digests(capsys):
    # sha256 of the stdout of eval and verify on integer and real z, recorded
    # before --z was read once; no case puts a complex z in an MT slot, whose
    # float64 sums may differ across numpy builds
    recorded = {
        "eval --s 2,2,2,2,2 --z 2 --precision-bits 192 --tol 1e-16": "cb16729169e1e2d734756226e6ce99e5f0e3369f65ff3ff46c0e2e03f0454b4b",
        "verify --s 2,2,2,2,2 --z 2 --precision-bits 192 --tol 1e-16": "3ddd7ffb2f9b23592cabab7000e2218b19fca81a8c88abdb1ad8ace1dc4c36c5",
        "eval --s 2,2,2,2 --z 2": "53083c83a35e9bd1ff1e6b206bb679a2c0bbbf785f59a5c6cdea88975ecbcf60",
        "eval --s 2 --z 2.5 --alpha 1/3": "00cea9d3cc2c1446b78a373b082c1f51e42c410d2436c7af4a6909fbad65d426",
        "verify --s 1,2,3 --alpha 1/3 --precision-bits 128 --tol 1e-6 --z 2": "bf166407e80ba19c0f973119882448e6f72700ea12d054b9ea3ef190e8ac21c1",
        "verify --s 1,2,3 --alpha 1/3 --precision-bits 128 --tol 1e-6 --z 3": "a35ec46050722fe58f248244a6676d5ef1250305aecd6b14e759a7f1a3898620",
    }
    for case, digest in recorded.items():
        assert main(case.split()) == 0, case
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest, case


def test_benchmark_records_match_recorded_digests(monkeypatch):
    # sha256 of the worker records of the paper-decimals and
    # colored-characters case lists at seed 7, as the benchmark's worker
    # makes them; the complex-z cases are left out, whose float64 mt_direct
    # sums may differ across numpy builds
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import worker
    import workloads

    for workload, digest in (
        ("paper-decimals", "7142c0351eb12eccb08b80a10c45062e22d57f9ed7b6c2540e02a9dd166af393"),
        ("colored-characters", "b9e867fb4219cc98bb0b9877e7ca88fb0ede3491bf4c4b8d7d6e28de39ef4f6f"),
    ):
        cases = [c for c in workloads.build_cases(workload, 7) if not c["id"].endswith(("z=2+1i", "z=3+2i"))]
        records = [worker.run_cli(c["argv"]) if c["kind"] == "cli" else worker.run_expr(c) for c in cases]
        assert hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest() == digest, workload


def test_huge_z_refused_at_once_in_a_short_message(capsys):
    # z = 1e300 makes a 301-digit exponent: the refusal comes before any
    # work, and the message prints it as its leading digits and its length
    for argv in (["eval", "--s", "2"], ["eval", "--s", "2,2"], ["verify", "--s", "2,2"]):
        start = time.perf_counter()
        assert main([*argv, "--z", "1e300"]) == 2, argv
        assert time.perf_counter() - start < 1, argv
        err = capsys.readouterr().err
        assert err.startswith("domain error:") and len(err.encode()) < 300, err
        assert "...(301 digits)" in err, err


def test_reduce_budget_refuses_twelve_ones_at_once():
    # the identity's index assignments are counted from s before any is
    # built: 3,589,740 units, refused without the seconds of enumeration
    child = (
        "import sys, time\n"
        "from mtzeta.cli import main\n"
        "start = time.perf_counter()\n"
        "rc = main(sys.argv[1:])\n"
        "print(f'elapsed {time.perf_counter() - start:.3f}', file=sys.stderr)\n"
        "sys.exit(rc)\n"
    )
    rc, out, err = run_python("-c", child, "reduce", "--s", ",".join(["1"] * 12), "--alpha", "1/3", timeout=30)
    assert rc == 2 and not out, err
    assert "reduction exceeded its budget of 500000 units" in err
    assert float(err.split("elapsed ")[1]) < 1, err


def test_huge_head_exponent_refused_at_once(capsys):
    # a head exponent of 1e9 makes 1e9 shuffle layers, each at least one
    # step of the conversion budget: it is refused before the first layer,
    # whichever atom of the identity eval_expr meets first
    from mtzeta.numerics import eval_expr
    from mtzeta.symexpr import Expr

    for argv in (["eval", "--s", "1,1000000000", "--z", "1"], ["verify", "--s", "1,1", "--z", "1e9"]):
        start = time.perf_counter()
        assert main(argv) == 2, argv
        assert time.perf_counter() - start < 1, argv
        assert "domain error:" in capsys.readouterr().err
    ident = reduction.cyclic_sum_identity((1, 1), 0)
    refused = 0
    for atom in (ident.lhs_expr() - ident.rhs).substitute(complex(1e9)).atoms():
        start = time.perf_counter()
        try:
            eval_expr(Expr.atom(atom))
        except ValueError:
            refused += 1
        assert time.perf_counter() - start < 1, atom
    assert refused >= 3


def test_public_names_have_callers():
    # every name a module exports is used somewhere outside its own tests:
    # in the package, the benchmark or the acceptance suite.  Only the
    # closed forms that the tests compare the general routes against are
    # exempt.
    exempt = {"mt_to_mzv_depth2", "mt_to_mzv_depth3", "quad_ones_identity"}
    root = Path(__file__).resolve().parents[1]
    used = set()
    for path in [*sorted((root / "src").rglob("*.py")), *sorted((root / "perfbench").rglob("*.py")), root / "tests" / "test_acceptance.py"]:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.update((node.name, node.asname))
    unused = []
    for path in sorted((root / "src" / "mtzeta").glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                unused += [f"{path.stem}.{name}" for name in ast.literal_eval(node.value) if name not in used | exempt]
    assert not unused


def test_convert_budget_bounds_memory_at_depth_60():
    # each emitted term costs its key length, so the budget that stops this
    # depth-60 conversion also bounds its memory.  The child reports VmHWM,
    # the peak of its own address space: on Linux its ru_maxrss would also
    # count the peak of this process, inherited across exec.
    if not Path("/proc/self/status").exists():
        pytest.skip("needs /proc/self/status")
    child = (
        "import re, sys\n"
        "from mtzeta.cli import main\n"
        "rc = main(sys.argv[1:])\n"
        "hwm = re.search(r'VmHWM:\\s+(\\d+)', open('/proc/self/status').read()).group(1)\n"
        "print('VmHWM_kB', hwm, file=sys.stderr)\n"
        "sys.exit(rc)\n"
    )
    k = 60
    colors = ",".join(f"{i}/{k + 1}" for i in range(1, k + 1)) + ",0"
    src = str(Path(mtzeta.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", child, "convert", "--s", ",".join(["1"] * k + ["2"]), "--colors", colors],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)},
    )
    assert proc.returncode == 2, proc.stderr
    assert "budget" in proc.stderr
    peak_mb = int(proc.stderr.split("VmHWM_kB")[1].split()[0]) / 1024
    assert peak_mb < 200, peak_mb


def test_verify_inconclusive_warning():
    # passes with bound 0.032 against tol 1e-6: stdout and exit code as
    # before, plus a warning on stderr
    rc, out, err = run_cli(
        "verify", "--s", "1,2,3", "--alpha", "1/3", "--z", "2+1i", "--precision-bits", "128", "--tol", "1e-6"
    )
    assert rc == 0 and json.loads(out)["pass"]
    assert json.loads(out)["bound"] > 1e-6
    assert err.startswith("inconclusive: bound ") and "exceeds tol 1.0e-06" in err
    rc, out, err = run_cli("verify", "--s", "2,3", "--alpha", "0", "--z", "2", "--tol", "1e-8")
    assert rc == 0 and json.loads(out)["pass"]
    assert err == ""


def test_eval_imprecise_warning():
    # bound 2.2e-4 against the default target 1e-32: stdout and exit code as
    # before, plus a warning on stderr
    rc, out, err = run_cli("eval", "--s", "1,1", "--z", "2.5")
    assert rc == 0 and json.loads(out)["route"] == "direct"
    assert json.loads(out)["bound"] > 1e-32
    assert err.startswith("imprecise: bound ") and "exceeds target 1.0e-32" in err
    rc, out, err = run_cli("eval", "--s", "2,2,2,2", "--z", "2")
    assert rc == 0 and json.loads(out)["bound"] <= 1e-32
    assert err == ""


_NUMPY_PROBE = """
import contextlib, io, json, sys
import mtzeta.cli
seen = ["numpy" in sys.modules]
for argv in (["eval", "--s", "2,2,2,2", "--z", "2"], ["verify", "--s", "2,3", "--alpha", "1/3", "--z", "2"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert mtzeta.cli.main(argv) == 0
    seen.append("numpy" in sys.modules)
out = io.StringIO()
with contextlib.redirect_stdout(out):
    assert mtzeta.cli.main(["eval", "--s", "1,1", "--z", "2.5"]) == 0
print(json.dumps([seen, "numpy" in sys.modules, json.loads(out.getvalue())["route"]]))
"""


def test_numpy_loads_only_in_the_direct_route():
    # a fresh interpreter: the import and the integer-exponent routes leave
    # numpy unloaded, and the direct route loads it on first use
    rc, out, err = run_python("-c", _NUMPY_PROBE, timeout=60)
    assert rc == 0, err
    assert json.loads(out) == [[False, False, False], True, "direct"]


def test_verify_fine_colors(capsys):
    # 1/1000 takes the split kernel instead of 1000 Hurwitz sums per Lerch
    # value; 1/100000 is over the term budget and exits 2 before any work
    assert main(["verify", "--s", "2,2", "--alpha", "1/1000", "--z", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True
    rc, out, err = run_cli("verify", "--s", "2,2", "--alpha", "1/100000", "--z", "2")
    assert rc == 2 and out == ""
    assert "terms per level" in err


def test_eval_direct_route(capsys):
    assert main(["eval", "--s", "1,1", "--z", "1.5", "--alpha", "0"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["route"] == "direct"


def test_eval_single_slot_route_is_lerch(capsys):
    # one slot, or one head slot (MT(s_1; z) = phi(s_1 + z)), goes to
    # lerch_phi; two head slots and a non-integer z stay direct
    for argv, route in (
        (["--s", "3"], "lerch"),
        (["--s", "5", "--alpha", "1/7"], "lerch"),
        (["--s", "2", "--z", "2.5"], "lerch"),
        (["--s", "1,1", "--z", "2.5"], "direct"),
    ):
        assert main(["eval", *argv]) == 0
        assert json.loads(capsys.readouterr().out)["route"] == route, argv
    assert main(["eval", "--s", "2", "--z", "2.5"]) == 0
    assert json.loads(capsys.readouterr().out)["bound"] <= 1e-32


def test_eval_two_integer_slots_is_phi(capsys):
    # MT(s_1; t) = phi(s_1 + t): the values of the conversion route, with the
    # bound of lerch_phi alone, not that plus 8 eps |v| for a one-term sum
    from mtzeta.numerics import EvalConfig, lerch_phi

    cfg = EvalConfig()
    for argv, (re, im), (n, alpha), before in (
        (["--s", "2", "--z", "3"], ("1.036927755143369926331365", "0.0"), (5, 0), 2.4595869727881895e-81),
        (["--s", "2,3"], ("1.036927755143369926331365", "0.0"), (5, 0), 2.4595869727881895e-81),
        (["--s", "1", "--z", "1", "--alpha", "2/3"], ("-0.5483113556160754788241384", "-0.676627737606435750014135"),
         (2, Fraction(2, 3)), 2.0657749833744548e-81),
    ):
        assert main(["eval", *argv]) == 0
        data = json.loads(capsys.readouterr().out)
        assert (data["route"], data["value_re"], data["value_im"]) == ("lerch", re, im), argv
        assert data["bound"] == lerch_phi(n, alpha, cfg).bound < before, argv


def test_eval_zero_exponent_with_a_convergent_sum():
    # --s 0 --z 2 and --s 0,2 are zeta(2); a divergent sum still exits 2,
    # not with EvenZeta(0) = -1/2 for --s 0
    want = json.loads(_run_main(["eval", "--s", "2"])[1])
    for argv in (["--s", "0", "--z", "2"], ["--s", "0,2"]):
        rc, out, _ = _run_main(["eval", *argv])
        data = json.loads(out)
        assert rc == 0 and [data[k] for k in ("value_re", "value_im", "bound")] == [want[k] for k in ("value_re", "value_im", "bound")]
    divergent = (["--s", "0"], ["--s", "1"], ["--s", "0,0"], ["--s", "-1", "--z", "1"], ["--s", "0,0", "--z", "2"], ["--s", "1", "--chi", "4,1"])
    for argv in divergent:
        rc, out, err = _run_main(["eval", *argv])
        assert (rc, out) == (2, "") and "diverges" in err, argv


def test_readme_cli_examples_run():
    # every mtzeta line of the README's CLI block exits 0, and so do the
    # exit codes its text documents
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = [line.split("#", 1)[0].split()[1:] for line in block.splitlines() if line.startswith("mtzeta ")]
    assert len(examples) == 9
    for argv in examples:
        rc, out, err = _run_main(argv)
        assert rc == 0 and out, (argv, err)
    assert "`eval --s 0,3 --z 1.5`" in readme and "such as `inf`" in readme
    for argv, want in ((["eval", "--s", "0,3", "--z", "1.5"], 2), (["eval", "--s", "2", "--z", "inf"], 1)):
        assert _run_main(argv)[0] == want, argv


def test_eval_zero_head_exponent_is_an_mzv():
    # MT(0, 2; 3) = zeta(3, 2), with the color of the total slot on the
    # leading index: the split route's value and bound, nothing on stderr
    from mpmath import mp, mpf

    from mtzeta.numerics import EvalConfig, mzv_eval

    for extra, alpha in (([], 0), (["--alpha", "1/3"], Fraction(1, 3))):
        rc, out, err = _run_main(["eval", "--s", "0,2", "--z", "3", *extra])
        data = json.loads(out)
        assert (rc, err, data["route"]) == (0, "", "split") and data["bound"] < 1e-70
        want = mzv_eval((3, 2), (alpha, 0), EvalConfig())
        with mp.workprec(256):
            got = mp.mpc(mpf(data["value_re"]), mpf(data["value_im"]))
            assert abs(got - want.value) <= want.bound + 1e-25  # 25 printed digits
    # at depth 3, MT(0, 2, 1; 3) = 2 zeta(3, 2, 1) + zeta(3, 1, 2) converts,
    # and so does a zero total: MT(2, 2; 0) = zeta(2)^2
    for extra, alpha in (([], 0), (["--alpha", "1/3"], Fraction(1, 3))):
        rc, out, err = _run_main(["eval", "--s", "0,2,1", "--z", "3", *extra])
        data = json.loads(out)
        assert (rc, err, data["route"]) == (0, "", "conversion") and data["bound"] < 1e-70
        a, b = (mzv_eval(e, (alpha, 0, 0), EvalConfig()) for e in ((3, 2, 1), (3, 1, 2)))
        with mp.workprec(256):
            got = mp.mpc(mpf(data["value_re"]), mpf(data["value_im"]))
            assert abs(got - 2 * a.value - b.value) <= 2 * a.bound + b.bound + 1e-25
    rc, out, err = _run_main(["eval", "--s", "2,2,0"])
    data = json.loads(out)
    assert (rc, err, data["route"], data["value_re"]) == (0, "", "conversion", "2.705808084277845478790009")
    # next to a non-integer slot, beside a second zero head or a negative
    # exponent the zero head keeps the direct route
    for argv in (["0,2", "--z", "3.5"], ["0,0,3", "--z", "6"], ["-1,5", "--z", "6"]):
        rc, out, _ = _run_main(["eval", "--s", *argv])
        assert rc == 0 and json.loads(out)["route"] == "direct", argv
    rc, _, err = _run_main(["convert", "--s", "0,0,3,6"])
    assert rc == 2 and "at most one head exponent may be 0" in err


def test_eval_and_verify_share_one_evaluation(monkeypatch, capsys):
    # eval's MT({2}_6) is the atom verify evaluates, so the atom memo
    # converts it once for both
    from mtzeta import numerics

    converted = []

    def counting(exps, colors=None):
        converted.append(tuple(exps))
        return mzvconvert.mt_to_mzv(exps, colors)

    monkeypatch.setattr(numerics, "mt_to_mzv", counting)
    numerics._eval_atom.cache_clear()
    flags = ["--s", "2,2,2,2,2", "--z", "2", "--precision-bits", "192", "--tol", "1e-16"]
    assert main(["eval", *flags]) == 0 and main(["verify", *flags]) == 0
    capsys.readouterr()
    assert converted.count((2,) * 6) == 1


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    st.lists(st.integers(1, 4), min_size=2, max_size=3),
    st.sampled_from(["2", "2.5", "1.5", "2+1i", "3-2i", "1.25+0.5i"]),
    st.sampled_from(["0", "1/3", "2/5"]),
)
@example([2, 1, 4], "3-2i", "2/5")
def test_eval_ignores_the_order_of_s(s, z, alpha):
    # the head slots of an MT value commute: every permutation of --s is the
    # same atom, evaluated the same way
    outputs = set()
    for perm in set(itertools.permutations(s)):
        rc, out, _ = _run_main(["eval", "--s", ",".join(map(str, perm)), "--z", z, "--alpha", alpha])
        data = json.loads(out)
        outputs.add((rc, *(data[k] for k in ("route", "value_re", "value_im", "bound"))))
    assert len(outputs) == 1, outputs


def test_cli_imports_no_kernel():
    # eval evaluates its atom through numerics._eval_atom, which owns the
    # route table: cli.py names no kernel
    kernels = {"lerch_phi", "mzv_eval", "mt_via_mzv", "mt_direct", "even_zeta", "hurwitz_zeta"}
    path = Path(mtzeta.__file__).parent / "cli.py"
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.alias):
            names.add(node.asname or node.name)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    assert not names & kernels


def test_mt_direct_refuses_depth1(capsys):
    # every MT atom has two head slots or more; one head slot is phi
    with pytest.raises(ValueError, match="two head slots"):
        mt_direct((2, 2.5))
    assert main(["eval", "--s", "2", "--z", "2.5"]) == 0
    assert json.loads(capsys.readouterr().out)["route"] == "lerch"


def test_verify_depth4_noninteger_z(capsys):
    # depth-4 atoms at a non-integer z take direct summation too
    assert main(["verify", "--s", "1,1,1,1", "--alpha", "1/2", "--z", "2.5"]) == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True


def test_determinism_and_exit1():
    rc1, out1, _ = run_cli("reduce", "--s", "1,2,1", "--alpha", "1/3")
    rc2, out2, _ = run_cli("reduce", "--s", "1,2,1", "--alpha", "1/3")
    assert rc1 == rc2 == 0
    assert out1 == out2
    for argv in (
        ("reduce", "--nonsense"),
        ("reduce", "--s", "2,2", "--alpha", "abc"),
        ("convert", "--s", "2,2,1", "--colors", "1/3,abc,0"),
        ("verify", "--s", "2,2", "--z", "abc"),
        ("eval", "--s", "2,2", "--z", "2.5e-1+1i"),
    ):
        rc, _, err = run_cli(*argv)
        assert rc == 1, argv
        assert "usage" in err or "error" in err
    # truncation is not a flag; tolerance, precision, --s and --chi are
    # checked at parse time
    for argv in (
        ("eval", "--s", "2,2", "--z", "2.5", "--N", "0"),
        ("eval", "--s", "2,2", "--z", "2", "--tol", "-1"),
        ("verify", "--s", "2,2", "--z", "2", "--tol", "nan"),
        ("eval", "--s", "2,2", "--z", "2", "--precision-bits", "10"),
        ("characters", "--mod", "4", "--precision-bits", "8"),
        ("eval", "--s", "3", "--precision-bits", str(_MAX_PRECISION_BITS + 1)),
        ("verify", "--s", "2,2", "--z", "inf"),
        ("eval", "--s", "2,2", "--z", "inf"),
        ("eval", "--s", "2,2", "--z", "nan"),
        ("verify", "--s", "2,2", "--z", "1e400"),
        ("eval", "--s", "2,x"),
        ("reduce", "--s", "2,2", "--chi", "4"),
        ("reduce", "--s", "2,2", "--chi", "4,a"),
    ):
        rc, _, err = run_cli(*argv)
        assert rc == 1, argv
        assert "usage" in err and "Traceback" not in err, argv
    # a finite z too large for the kernels is a domain error, not a crash:
    # the budgets refuse before the work, so a child that caps its own
    # address space at 1 GiB before importing mtzeta answers within seconds
    capped = (
        "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
        "from mtzeta.cli import main; sys.exit(main(sys.argv[1:]))"
    )
    for argv in (
        ("eval", "--s", "2,2", "--z", "1e300"),
        ("eval", "--s", "2", "--z", "2000"),
        ("eval", "--s", "2", "--z", "1e300"),
        ("eval", "--s", "3", "--z", "1e9"),
        ("eval", "--s", "3", "--z", "1e17"),
        ("verify", "--s", "1,1", "--z", "1e9"),
        ("bern-expand", "--s", "2000,1"),
    ):
        rc, _, err = run_python("-c", capped, *argv, timeout=10)
        assert rc == 2 and "domain error:" in err and "Traceback" not in err, (argv, err)


@st.composite
def _argvs(draw):
    """An argv of the CLI grammar: every verb, --s of length 1-4 with entries
    -1..5 (a negative one may lead), colors and characters, negative
    colors, z with Re z < 1, complex and huge, --tol and --precision-bits at
    their limits, each flag spelled FLAG VALUE or FLAG=VALUE.  At most one
    input is drawn broken: an entry of s below 1, or a flag value past its
    limit or malformed.  The top precision is drawn only at depth <= 2, and
    an integer z only below depth 4: their identities take seconds to
    verify."""
    verb = draw(st.sampled_from(["eval"] * 3 + ["verify"] * 3 + ["reduce"] * 2 + ["convert", "bern-expand", "partitions", "characters"]))
    broken = draw(st.sampled_from([None] * 4 + ["s", "bits", "tol", "color", "z"]))
    joined = draw(st.booleans())
    entries = st.integers(-1, 0) if broken == "s" else st.integers(1, 5)
    s = draw(st.lists(st.integers(1, 5), min_size=0, max_size=3))
    s.insert(draw(st.integers(0, len(s))), draw(entries))

    def spell(name, v):
        return [f"{name}={v}"] if joined else [name, v]

    def flag(name, key, valid, invalid):
        v = draw(st.sampled_from(invalid if broken == key else [None, *valid]))
        return [] if v is None else spell(name, v)

    top = [str(_MAX_PRECISION_BITS)] if len(s) <= 2 else []
    numeric = flag("--precision-bits", "bits", ["64", *top], ["63", str(_MAX_PRECISION_BITS + 1), "x"])
    numeric += flag("--tol", "tol", ["0", "1e-6", "1e308"], ["-1e-300", "inf", "nan"])
    fmt = flag("--format", "format", ["json", "text"], [])
    if verb == "characters":
        return [verb, *spell("--mod", str(draw(st.integers(-1, 52)))), *numeric, *fmt]
    argv = [verb, *spell("--s", ",".join(map(str, s))), *fmt]
    if verb == "convert":
        return argv + flag("--colors", "color", [",".join([c] * len(s)) for c in ("1/3", "-1/3")], ["1/2,abc"])
    if verb == "partitions":
        return argv + flag("--kind", "kind", ["fat", "pre-fat"], [])
    if verb == "bern-expand":
        return argv
    color = draw(st.sampled_from(
        [("--alpha", "1/0"), ("--alpha", "-x"), ("--chi", "4,a"), ("--chi", "4")] if broken == "color" else
        [None, ("--alpha", "1/3"), ("--alpha", "5/3"), ("--alpha", "0"), ("--alpha", "1/2"), ("--alpha", "-2/5"),
         ("--chi", "4,1"), ("--chi", "5,2"), ("--chi", "8,3"), ("--chi", "3,1"), ("--chi", "4,0"), ("--chi", "4,7")]
    ))
    argv += numeric + (spell(*color) if color else [])
    if verb != "reduce":
        z = ["2.5", "1.5", "1+1i", "2-0.5i", "0.5", "-1", "-1+2i", "3i", "1e300", *(["1", "2", "3"] if len(s) < 4 else [])]
        argv += flag("--z", "z", z, ["inf", "nan", "abc", "1e400", "-x"])
    return argv


def _equals_spelling(argv):
    """argv with every flag and its value as one FLAG=VALUE token: each flag
    of the grammar takes a value."""
    out = []
    for tok in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1]:
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def _run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_argvs())
def test_every_argv_reaches_a_documented_exit(argv):
    # in-process, as a user would call main: an exception other than the
    # parser's exit would fail this test with its traceback
    rc, out, err = _run_main(argv)
    assert rc in (0, 1, 2, 3), (argv, rc)
    assert "Traceback" not in err, argv
    if rc == 0 and "text" not in argv and "--format=text" not in argv:
        json.loads(out)
    # the identities are theorems: a failed verification is a wrong
    # construction or an invalid bound
    assert not (argv[0] == "verify" and rc == 3), (argv, out)
    # a value is read the same whichever way its flag is spelled
    assert _run_main(_equals_spelling(argv))[:2] == (rc, out), argv


def test_dash_values_read_as_in_the_equals_spelling():
    # a value that begins with '-' but is not a plain negative number is
    # that flag's value in either spelling; an option string stays an option
    for argv, want in [
        (["reduce", "--s", "1,1", "--alpha", "-2/5"], 0),
        (["reduce", "--s", "-1,2"], 2),
        (["reduce", "--s", "2,-1"], 2),
        (["eval", "--s", "2,2", "--z", "-1+2i"], 2),
        (["eval", "--s", "2,2", "--z", "-1"], 2),
        (["convert", "--s", "2,2", "--colors", "-1/3,0"], 0),
        (["eval", "--s", "2", "--z", "-x"], 1),
        (["reduce", "--s", "1,1", "--al", "-2/5"], 1),
    ]:
        got = _run_main(argv)
        assert got[0] == want, (argv, got)
        assert _run_main(_equals_spelling(argv))[:2] == got[:2], argv
    rc, out, _ = _run_main(["reduce", "--s", "1,1", "--alpha", "-2/5"])
    assert json.loads(out)["alpha"] == "3/5"
    for argv in (["reduce", "--s", "--alpha", "1/3"], ["reduce", "--s", "1,1", "--alpha", "-h"]):
        rc, out, err = _run_main(argv)
        assert rc == 1 and "expected one argument" in err and not out, argv
    # a flag has one spelling: a prefix of it is refused in either spelling
    for argv in (["reduce", "--s", "1,1", "--al", "-2/5"], ["reduce", "--s", "1,1", "--al=-2/5"]):
        rc, out, err = _run_main(argv)
        assert rc == 1 and "unrecognized arguments" in err and "usage" in err and not out, argv


def test_mutually_exclusive_alpha_chi():
    rc, _, err = run_cli(
        "verify", "--s", "2,2", "--alpha", "0", "--chi", "4,1", "--z", "2"
    )
    assert rc == 1
    assert "not allowed with argument" in err and "usage" in err


def test_character_out_of_range_exit_2(capsys):
    # a well-formed --chi out of range is a domain error, not a flag error
    for argv in (["reduce", "--s", "2,2", "--chi", "51,0"], ["reduce", "--s", "2,2", "--chi", "4,7"]):
        assert main(argv) == 2, argv
        assert "domain error" in capsys.readouterr().err, argv


def test_characters_command(capsys):
    assert main(["characters", "--mod", "4"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["characters"]) == 2
    prim = [c for c in data["characters"] if c["primitive"]]
    assert len(prim) == 1 and prim[0]["conductor"] == 4


def test_convert_command(capsys):
    assert main(["convert", "--s", "1,1,1"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["expr"] == [
        {"coeff": "2", "atoms": [{"type": "mzv", "exps": [2, 1], "colors": ["0", "0"]}]}
    ]
    assert main(["convert", "--s", "1,1,0"]) == 2


def test_bern_expand_command(capsys):
    assert main(["bern-expand", "--s", "2,2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["all_equal"] is True
    assert data["expansions"]["naive"]["constant"] == "1/180"
    assert set(data["expansions"]) == {"naive", "by_subsets", "by_partitions", "two_factor"}


def test_verify_character(capsys):
    rc = main(
        ["verify", "--s", "2,2", "--chi", "3,1", "--z", "2", "--tol", "1e-6"]
    )
    assert rc == 0
    capsys.readouterr()


def test_text_format_paths(capsys):
    assert main(["reduce", "--s", "1,1", "--alpha", "0", "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "lhs:" in out and "rhs:" in out and "phi(z+2" in out
    assert main(["eval", "--s", "1,1", "--z", "2", "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "conversion" in out
    assert main(["partitions", "--s", "1,2,3", "--kind", "pre-fat", "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("2 partitions")


def test_verify_character_skips_zero_weights(monkeypatch, capsys):
    # mod 4 pairs n = 2 and n = 4 with weight exactly 0: only the two
    # coprime colors are evaluated
    from mtzeta.reduction import Identity

    alphas = []
    residual = Identity.residual

    def counting(self, z0, cfg):
        alphas.append(self.alpha)
        return residual(self, z0, cfg)

    monkeypatch.setattr(Identity, "residual", counting)
    assert main(["verify", "--s", "2,2", "--chi", "4,1", "--z", "2", "--precision-bits", "128"]) == 0
    assert sorted(alphas) == [Fraction(1, 4), Fraction(3, 4)]
    assert json.loads(capsys.readouterr().out)["pass"] is True


def test_parser_is_built_once_and_keeps_no_state(capsys):
    # the cached parser gives each call a fresh namespace: flags and
    # defaults of one verb do not leak into the next call
    from mtzeta.cli import build_parser

    assert build_parser() is build_parser()
    eval_argv = ["eval", "--s", "2,3", "--z", "2"]
    assert main(eval_argv) == 0
    first = capsys.readouterr().out
    verify_argv = ["verify", "--s", "2,2", "--alpha", "1/3", "--z", "2", "--tol", "1e-6", "--precision-bits", "96", "--format", "text"]
    assert main(verify_argv) == 0
    assert "PASS" in capsys.readouterr().out
    assert main(eval_argv) == 0
    assert capsys.readouterr().out == first
    args = build_parser().parse_args(eval_argv)
    assert (args.alpha, args.tol, args.precision_bits, args.format) == (None, None, None, "json")
    assert not hasattr(build_parser().parse_args(["partitions", "--s", "1,2"]), "z")


def test_output_does_not_depend_on_global_precision(capsys):
    # every value is computed at an explicit precision, so the caller's
    # mp.prec changes neither stdout nor a raw kernel value; the atom memo is
    # cleared so that each setting evaluates every atom again
    from mpmath import mp

    from mtzeta import numerics

    cases = [
        ["verify", "--chi", "5,2", "--s", "2,2", "--z", "2"],
        ["verify", "--s", "1,2,3", "--alpha", "1/3", "--z", "2+1i"],
        ["eval", "--s", "2,2,2,2,2", "--z", "2"],
        ["eval", "--s", "2", "--chi", "4,1"],
        ["characters", "--mod", "5"],
    ]

    def run():
        numerics._eval_atom.cache_clear()
        outputs = []
        for argv in cases:
            code = main(argv)
            outputs.append((code, capsys.readouterr().out))
        r = numerics.mt_direct((1, 2 + 1j, 2), (0, Fraction(1, 3), 0))
        return outputs, r.value._mpc_, r.bound

    saved = mp.prec
    try:
        want = run()
        for prec in (20, 300):
            mp.prec = prec
            assert run() == want, prec
    finally:
        mp.prec = saved
