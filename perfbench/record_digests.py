"""Record the sha256 of every ``reduce`` and ``convert`` output the
identity-construction workload can draw, from the current sources:

    python3 perfbench/record_digests.py

writes perfbench/digests.json, which the benchmark's checks compare
against ("byte-identical CLI JSON on the canonical cases")."""

import itertools
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

import run  # noqa: E402
import workloads  # noqa: E402


def main() -> None:
    argvs = []
    for k in (2, 3, 4, 5):
        for s in itertools.product((1, 2, 3), repeat=k):
            if k < 5 or len(set(s)) <= 2:
                argvs.append(["reduce", "--s", ",".join(map(str, s)), "--alpha", workloads.ALPHA])
    for s in workloads.CONVERT_VECTORS:
        argvs.append(["convert", "--s", ",".join(map(str, s))])
    argvs += [c["argv"] for probes in workloads.TRACE_PROBES.values() for c in probes]
    cases = [{"id": " ".join(a), "kind": "cli", "argv": a, "check": {}} for a in argvs]
    result = run.session(cases, timeout=600)
    digests = {}
    for case, rec in zip(cases, result["records"]):
        if rec.get("exit") != 0:
            sys.exit(f"{case['id']} failed: {rec}")
        digests[case["id"]] = workloads.digest(rec["stdout"])
    (HERE / "digests.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests")


if __name__ == "__main__":
    main()
