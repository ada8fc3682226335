"""The repository benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (the program is imported from
``./src``).  Workloads:

``ladder``       in-process analyses of scaled pipelines and queues
``cold-run``     sequential ``python -m repro run FILE`` processes
``suite-batch``  ``repro suite DIR --no-builtins --jobs 2`` over corpus batches
``serve-mix``    two clients against ``repro serve`` (repeat/edit/new mix)

Inputs are derived from ``--seed`` before any timing starts.  A run does a
fixed amount of work sized so that it lasts about ``--seconds`` on a 2-vCPU
machine, and never fewer than 100 operations.  Every answer is checked
against ``expected.json``; a wrong answer makes the run exit 1.

With ``--trace 0`` the result line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics (see ``layers.py``).  The line
before it is a ``{"detail": ...}`` object: seed, input digest, machine
fingerprint, measured workload shape, ``error_ratio`` with its base, and the
workload's own layer counters.  Exit codes: 0 measured and correct, 1 a
wrong or failed operation, 2 nothing to measure (no program, bad input).
"""

from __future__ import annotations

import argparse
import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

#: Workload name -> the module that runs it.
WORKLOADS = {
    "ladder": "ladder",
    "cold-run": "cold_run",
    "suite-batch": "suite_batch",
    "serve-mix": "serve_mix",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="repository benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import common

    try:
        common.require_program()
        common.compile_program()
        from answers import Expected

        expected = Expected()
        workload = importlib.import_module(WORKLOADS[args.workload])
        outcome = common.Outcome()
        outcome.detail.update(
            workload=args.workload, seed=args.seed, seconds=args.seconds,
            trace=args.trace, fingerprint=common.fingerprint(),
        )
    except (common.SetupError, OSError, ImportError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    try:
        workload.run(outcome, expected, args.seed, args.seconds, bool(args.trace))
    except common.SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    outcome.emit()
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
