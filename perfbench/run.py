"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload registry --seed 1 --seconds 15 --trace 0

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics
with ``--trace 1``).  A traced run also writes its spans to
``.perfbench-out/<workload>-s<seed>-spans.json``.  Exit status: 0 when
every outcome check passed, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("registry", "fleet-scale", "daemon-mixed")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    # A terminated run still stops the daemons it started (finally blocks).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # One core for the benchmark and every process it starts (they
    # inherit the mask): the host-speed calibration then runs on the
    # core that does the measured work, and the daemon's replies never
    # wait on the hypervisor waking a second virtual CPU.  So the daemon
    # of daemon-mixed runs on one core too; README.md says why.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    from perfbench.workloads import END_TO_END, OUT, PER_LAYER, WORKLOADS

    report = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace))
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": report.metrics[name], "unit": unit}
               for name, unit in units.items()}

    for name, (value, unit) in report.info.items():
        print(f"{name:36s} {value:14.6g} {unit}")
    for name, entry in metrics.items():
        print(f"{name:36s} {entry['value']:14.6g} {entry['unit']}")
    for problem in report.problems:
        print(f"CHECK FAILED: {problem}")
    if report.tracer is not None:
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"{args.workload}-s{args.seed}-spans.json"
        spans.write_text(json.dumps(report.tracer.to_json()))
        print(f"spans: {spans.relative_to(ROOT)} ({len(report.tracer.spans)})")

    correct = not report.problems and report.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
