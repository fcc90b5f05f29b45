"""Benchmark command for geograms.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload pair-sweep --seed 1 --seconds 50 --trace 0

Each workload runs in this one process with no worker threads.  With
``--trace 0`` the command sends a batch of requests sized by ``--seconds``
three times in a closed loop with one client (each request after the
previous one returns), checking every answer against an oracle, samples
set-up and the store write in between, and reports the end-to-end
metrics.  With ``--trace 1`` it runs a fixed prefix of the same pipeline
twice, once untraced and once with the layer tracer installed, and
reports the per-layer metrics, the tracing overhead and a self-test of the
counters.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
non-zero when any answer disagrees with its oracle, and when the program
or the test oracles are missing from the checkout.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"


def _bootstrap():
    """Make the program and the test oracles of this checkout importable, and only those."""
    missing = [p for p in (SRC / "geograms" / "__init__.py", TESTS / "oracles.py") if not p.is_file()]
    if missing:
        sys.exit(f"benchmark: cannot find {', '.join(map(str, missing))}; run it from a full checkout")
    sys.path[:0] = [str(SRC), str(TESTS)]
    import geograms

    if Path(geograms.__file__).resolve().parent != SRC / "geograms":
        sys.exit(f"benchmark: imported geograms from {geograms.__file__}, not from {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _bootstrap()
    import measure
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)
    if args.trace:
        spans_file = HERE / "out" / f"spans-{workload.name}-{args.seed}.tsv.gz"
        metrics, outcome, checks_ok, details = measure.traced(workload, spans_file)
        details["spans_file"] = str(spans_file.relative_to(ROOT))
    else:
        metrics, outcome, checks_ok, details = measure.untraced(workload, args.seconds)

    correct = checks_ok and outcome.failed == 0
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:.6g} {unit}")
    print(json.dumps({"workload": workload.name, "seed": args.seed, "trace": args.trace, **details}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
