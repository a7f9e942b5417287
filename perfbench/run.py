"""Benchmark of mtzeta on the paper's cases.

    python3 perfbench/run.py --workload paper-decimals --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): ``paper-decimals``, ``identity-construction``
and ``colored-characters``.  A session is one fresh interpreter
(worker.py) that runs the workload's case list once, one case after
another: a closed loop with one client and one thread, ``THREADS`` unset
and the BLAS/OpenMP pools pinned to one thread.  The run starts sessions
back to back for ``--seconds`` seconds and a few set-up-only interpreters,
checks every output, and reports medians over sessions.

With ``--trace 0`` it reports the end-to-end metrics:

* ``run_s``: wall time of one session's case list, set-up excluded;
* ``setup_s``: interpreter start to the start of the first case;
* ``peak_rss_mb``: peak resident set of a session.

With ``--trace 1`` it alternates untraced sessions with sessions that trace
every public mtzeta function (tracing.py) and reports the per-layer
metrics, plus ``trace.overhead_s`` (traced minus untraced ``run_s``).
Count metrics must repeat exactly between the traced sessions.  A traced
run also executes the workload's probe cases once (workloads.TRACE_PROBES),
cases too slow to repeat in every session, and checks them.

Before the final JSON line it prints a summary: every end-to-end metric
with its unit, sample count and high percentile, ``failed_frac``, the
certified digits of the numeric cases, and the run environment.  The full
result, with the environment, goes to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

import workloads  # noqa: E402

SETUP_PROBES = 5
MIN_SESSIONS = 2
SESSION_TIMEOUT = 150.0

# The metrics each mode reports, with their units, as BENCHMARK.json lists them.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


class BenchError(Exception):
    pass


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "THREADS"}
    env.update(
        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
    )
    return env


def session(cases: list, trace: bool = False, spans: Path | None = None, timeout: float = SESSION_TIMEOUT) -> dict:
    """Run one fresh worker interpreter; returns its result with ``spawn``,
    the monotonic time just before the interpreter was started."""
    request = json.dumps({"cases": cases, "trace": trace, "spans": str(spans) if spans else None})
    spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py")], input=request, capture_output=True,
            text=True, cwd=ROOT, env=worker_env(), timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"session exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout)
    result["spawn"] = spawn
    result["setup_s"] = result["ready"] - spawn
    result["run_s"] = result["done"] - result["ready"]
    return result


def tally(cases: list, records: list, oracles: dict) -> tuple[int, list[str]]:
    """Cases attempted and one reason per failed case (raised, exited
    non-zero or failed its check)."""
    failures = []
    for case, rec in zip(cases, records):
        try:
            reason = workloads.check_case(case, rec, oracles)
        except (KeyError, TypeError, ValueError) as exc:
            reason = f"malformed output: {exc!r}"
        if reason:
            failures.append(f"{case['id']}: {reason}")
    return len(cases), failures


def load_oracles(cases: list) -> dict:
    """Recorded digests plus the closed specializations the identities must
    equal (depth2_identity and quad_identity at alpha = 1/3)."""
    sys.path.insert(0, str(ROOT / "src"))
    from fractions import Fraction

    from mtzeta.cli import identity_to_json
    from mtzeta.reduction import depth2_identity, quad_identity

    alpha = Fraction(workloads.ALPHA)
    expected = {}
    for case in cases:
        check = case["check"]
        if "depth2" in check:
            doc = identity_to_json(depth2_identity(*check["depth2"], alpha))
            expected[case["id"]] = {"lhs": doc["lhs"], "rhs": doc["rhs"]}
        if "quad" in check:
            doc = identity_to_json(quad_identity(check["quad"], alpha))
            expected[case["id"]] = {"rhs": doc["rhs"]}
    digests = json.loads((HERE / "digests.json").read_text())
    return {"digests": digests, "expected": expected}


def self_test() -> None:
    """The checker must count a perturbed value, a flipped ``pass`` and a
    non-zero exit as failures, and a correct record as a pass."""
    ref_case = {"id": "ref", "kind": "expr", "check": {"ref": "MT({2}_5)"}}
    good = {"exit": 0, "values": ["0.1635016005213370096872126076144703"], "imags": [0.0], "bounds": [1e-50]}
    perturbed = dict(good, values=["0.1635016005213370196872126076144703"])
    verify_case = {"id": "verify", "kind": "cli", "argv": [], "check": {"verify": True}}
    passed = {"exit": 0, "stdout": json.dumps({"pass": True, "bound": 1e-9, "residual": 1e-12})}
    flipped = {"exit": 0, "stdout": json.dumps({"pass": False, "bound": 1e-9, "residual": 1e-12})}
    nonzero = dict(passed, exit=3)
    cases = [ref_case, ref_case, verify_case, verify_case, verify_case]
    records = [good, perturbed, passed, flipped, nonzero]
    attempted, failures = tally(cases, records, {"digests": {}})
    failed_ids = [f.split(":")[0] for f in failures]
    if attempted != 5 or failed_ids != ["ref", "verify", "verify"] or workloads.check_case(
        ref_case, good, {}
    ) or workloads.check_case(verify_case, passed, {}):
        raise BenchError(f"checker self-test failed: {failures}")


def percentile_beyond(samples: list[float], beyond: int = 10):
    """The highest percentile with at least ``beyond`` samples above it,
    or None when there are too few samples."""
    n = len(samples)
    if n <= beyond:
        return None
    xs = sorted(samples)
    k = n - beyond - 1
    return 100.0 * (k + 1) / n, xs[k]


def describe(name: str, unit: str, samples: list[float]) -> str:
    med = statistics.median(samples)
    high = percentile_beyond(samples)
    tail = f", p{high[0]:.0f} {high[1]:.4g}" if high else ", no percentile with 10 samples beyond"
    return f"  {name:<26} {med:.6g} {unit} (median of {len(samples)}{tail})"


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    cases = workloads.build_cases(workload, seed)
    oracles = load_oracles(cases)
    start = time.monotonic()
    deadline = start + seconds

    setups = []
    for _ in range(SETUP_PROBES):
        setups.append(session([])["setup_s"])

    plain, traced = [], []
    while True:
        kinds = [False] if not trace else [False, True]
        for is_traced in kinds:
            spans = OUT / "spans" / f"{workload}-{len(traced)}.npz" if is_traced else None
            (traced if is_traced else plain).append(session(cases, is_traced, spans))
        done = len(plain) + len(traced)
        if trace and len(traced) < 2 or not trace and len(plain) < MIN_SESSIONS:
            continue
        per_session = (time.monotonic() - start) / done * len(kinds)
        if time.monotonic() + per_session > deadline:
            break

    attempted, failures = 0, []
    for res in plain + traced:
        n, bad = tally(cases, res["records"], oracles)
        attempted += n
        failures += bad
    digits = [d for case, rec in zip(cases, plain[0]["records"]) if rec.get("exit") == 0
              for d in workloads.certified_digits(case, rec)]
    out = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": plain[0]["environment"],
        "attempted": attempted, "failures": failures,
        "samples": {
            "run_s": [r["run_s"] for r in plain],
            "setup_s": setups + [r["setup_s"] for r in plain + traced],
            "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
            "case_ms": [1000 * rec["seconds"] for r in plain for rec in r["records"]],
        },
        "certified_digits": digits,
    }
    if trace:
        out["per_layer"] = per_layer(traced, plain, failures)
        probes = workloads.TRACE_PROBES.get(workload, [])
        if probes:
            probe = session(probes, True)
            n, bad = tally(probes, probe["records"], oracles)
            out["attempted"] += n
            failures += bad
            out["probes"] = {"cases": [c["id"] for c in probes], "run_s": probe["run_s"],
                             "per_layer": probe["per_layer"]}
    return out


def per_layer(traced: list[dict], plain: list[dict], failures: list[str]) -> dict:
    """Counts and ratios from the traced sessions, which must agree exactly,
    and median self times; a count that differs is recorded as a failure."""
    layers = [r["per_layer"] for r in traced]
    metrics = {}
    for spec in SPEC["per_layer"]:
        key = spec["name"]
        values = [layer.get(key, 0) for layer in layers]
        if key == "trace.overhead_s":
            metrics[key] = statistics.median(r["run_s"] for r in traced) - statistics.median(
                r["run_s"] for r in plain)
        elif spec["unit"] == "s":
            metrics[key] = statistics.median(values)
        else:
            if len(set(values)) != 1:
                failures.append(f"determinism: {key} differs between traced sessions: {values}")
            metrics[key] = values[0]
    return metrics


def report(res: dict) -> dict:
    s = res["samples"]
    failed_frac = len(res["failures"]) / res["attempted"]
    digits = res["certified_digits"]
    print(f"workload {res['workload']} seed {res['seed']} trace {int(res['trace'])}")
    print(describe("run_s", "s", s["run_s"]))
    print(describe("setup_s", "s", s["setup_s"]))
    print(describe("peak_rss_mb", "MB", s["peak_rss_mb"]))
    print(describe("case latency", "ms", s["case_ms"]))
    print(f"  {'failed_frac':<26} {failed_frac:.6g} ({len(res['failures'])} of {res['attempted']} cases)")
    if digits:
        print(f"  {'certified_digits_min':<26} {min(digits):.4g} digits")
        print(f"  {'certified_digits_median':<26} {statistics.median(digits):.4g} digits")
    else:
        print(f"  {'certified_digits_min':<26} n/a (no numeric case)")
        print(f"  {'certified_digits_median':<26} n/a (no numeric case)")
    for reason in sorted(set(res["failures"])):
        print(f"  FAILED {reason}")
    if "probes" in res:
        probe = res["probes"]
        print(f"  probe {', '.join(probe['cases'])}: {probe['run_s']:.4g} s traced, "
              f"mzvconvert.mzv_atoms_out {probe['per_layer']['mzvconvert.mzv_atoms_out']}")
    print("environment " + json.dumps(res["environment"], sort_keys=True))
    if res["trace"]:
        metrics = {m["name"]: {"value": res["per_layer"][m["name"]], "unit": m["unit"]}
                   for m in SPEC["per_layer"]}
        for k, v in metrics.items():
            print(f"  {k:<38} {v['value']:.6g} {v['unit']}")
    else:
        metrics = {m["name"]: {"value": statistics.median(s[m["name"]]), "unit": m["unit"]}
                   for m in SPEC["end_to_end"]}
    return {
        "correct": not res["failures"],
        "attempted": res["attempted"],
        "failed": len(res["failures"]),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps
    # the running worker instead of leaving it orphaned.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "mtzeta" / "__init__.py").is_file():
        print(f"error: no mtzeta sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        self_test()
        res = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    line = report(res)
    res["result"] = line
    path = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(res, indent=1))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
