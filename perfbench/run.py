"""End-to-end benchmark of the repro stack: one workload per run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sql_adhoc --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
workload untraced, replays its ops untraced and traced, and reports the
per-layer breakdown.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a human-readable report.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Ops every run completes, whatever ``--seconds`` says: at least 100 of
#: each op kind (p90 needs 100 samples), ten throughput chunks of 100 ops,
#: and the digest prefix.
MIN_OPS = 1000
#: Outputs hashed into the run's digest (identical across runs of a seed).
DIGEST_OPS = 100


def _import_program():
    # Import this directory as the ``perfbench`` package only: as the
    # script's directory on sys.path, its modules would shadow the
    # standard library's ``http`` and ``trace``.
    if sys.path and os.path.abspath(sys.path[0]) == HERE:
        del sys.path[0]
    source = os.path.join(ROOT, "src")
    sys.path.insert(0, source)
    sys.path.insert(0, ROOT)
    try:
        import repro
    except ImportError as exc:
        print(f"cannot import the program from {source}: {exc}",
              file=sys.stderr)
        sys.exit(2)
    # An installed copy elsewhere is not the checkout under test.
    if not os.path.abspath(repro.__file__).startswith(source + os.sep):
        print(f"the program was imported from {repro.__file__}, not from "
              f"{source}", file=sys.stderr)
        sys.exit(2)


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()

    from perfbench import common, harness, layers

    bench = harness.make(args.workload, args.seed)
    try:
        if args.trace:
            report = layers.traced_run(bench, args.seconds, MIN_OPS)
        else:
            report = harness.measured_run(bench, args.seconds, MIN_OPS)
    finally:
        bench.cleanup()
    outputs = report.pop("outputs")
    env = common.environment(ROOT, bench.http_server)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    for line in report.pop("lines", []):
        print(line)
    print(
        f"digest of the first {DIGEST_OPS} outputs: "
        f"{common.digest(outputs[:DIGEST_OPS])}"
    )
    for error in report["errors"][:5]:
        print(f"INCORRECT: {error}")
    result = {
        "correct": not report["errors"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in report["metrics"].items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
