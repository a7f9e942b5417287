"""One benchmark session: a fresh interpreter that runs a case list in order.

Reads a JSON request on stdin::

    {"cases": [...], "trace": false, "spans": null}

imports mtzeta from ``src/`` of the checkout, runs every case one after
another (cli cases through ``mtzeta.cli.main`` with stdout captured, the
displayed closed forms through ``eval_expr``) and prints one JSON document
with each case's record, monotonic timestamps, peak RSS and the run
environment.  With an empty case list it only sets up, which is how the
benchmark samples set-up time.  With ``trace`` it installs the span tracer
first and adds the per-layer metrics; ``spans`` names a file for the raw
spans.
"""

import contextlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import mpmath  # noqa: E402
import numpy  # noqa: E402
from mpmath import mp, mpc  # noqa: E402

import mtzeta  # noqa: E402
from mtzeta import cli, numerics  # noqa: E402
from mtzeta.numerics import EvalConfig  # noqa: E402

import workloads  # noqa: E402


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "numpy": numpy.__version__,
        "mtzeta": mtzeta.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "THREADS": os.environ.get("THREADS"),
        "thread_pools": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def run_cli(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()[-2000:]}


def run_expr(case: dict) -> dict:
    cfg = EvalConfig(precision_bits=case["bits"], target_tol=case["tol"])
    values, imags, bounds = [], [], []
    for e in workloads.build_expr(case["expr"]):
        r = numerics.eval_expr(e, cfg=cfg)
        with mp.workprec(case["bits"] + 64):
            v = mpc(r.value)
            values.append(mp.nstr(v.real, case["bits"] // 3 + 10))
            imags.append(float(abs(v.imag)))
        bounds.append(r.bound)
    return {"exit": 0, "values": values, "imags": imags, "bounds": bounds}


def main() -> None:
    request = json.load(sys.stdin)
    tracer = None
    if request.get("trace"):
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    records = []
    clock = time.monotonic
    ready = clock()
    for i, case in enumerate(request["cases"]):
        if tracer is not None:
            tracer.case_id = i
        t0 = clock()
        try:
            rec = run_cli(case["argv"]) if case["kind"] == "cli" else run_expr(case)
        except Exception:
            rec = {"exit": None, "error": traceback.format_exc(limit=3)}
        rec["seconds"] = clock() - t0
        records.append(rec)
    done = clock()
    result = {
        "ready": ready,
        "done": done,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "environment": environment(),
        "records": records,
    }
    if tracer is not None:
        output_bytes = sum(len(r.get("stdout", "").encode()) for r in records)
        result["per_layer"] = tracer.per_layer(output_bytes)
        if request.get("spans"):
            tracer.write(Path(request["spans"]))
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
