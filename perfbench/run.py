"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sim_sweep --seed 1 --seconds 20 --trace 0

Prints one line per metric (name, value, unit, meaning), one per output
check, and as the last line a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Exits 1 when
an output check fails and 2 when the program under test is missing.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import metrics  # noqa: E402
from perfbench.common import ROOT, SRC  # noqa: E402


def report(workload: str, outcome, trace: bool) -> dict:
    """Print the human-readable lines; return the final JSON object."""
    if trace:
        values = {name: outcome.layers.get(name, 0.0)
                  for name in metrics.PER_LAYER}
        units = metrics.PER_LAYER
        meaning = {}
    else:
        values = {name: outcome.e2e[name] for name in metrics.END_TO_END}
        units = metrics.END_TO_END
        meaning = metrics.WORKLOAD_MEANING[workload]
    for name, value in values.items():
        print(f"{workload:<17} {name:<28} {value:>14.6g} {units[name]:<6}"
              f" {meaning.get(name, '')}")
    for name, value in outcome.notes.items():
        print(f"{workload:<17} note: {name} = {value:.6g}")
    failed_frac = outcome.failed / outcome.attempted if outcome.attempted \
        else 1.0
    print(f"{workload:<17} failed_frac = {failed_frac:.6g}"
          f" ({outcome.failed} of {outcome.attempted})")
    for name, ok, detail in outcome.checks:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}: {detail}")
    # The result format needs attempted >= 1; a run that attempted
    # nothing is reported as incorrect.
    return {
        "correct": outcome.correct and outcome.attempted > 0,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(metrics.WORKLOAD_MEANING))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: the program under test is missing ({SRC / 'repro'})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.makedirs(ROOT / ".perfbench", exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-",
                               dir=ROOT / ".perfbench")
    try:
        workload = importlib.import_module(f"perfbench.{args.workload}")
        outcome = workload.run(args.seed, args.seconds, bool(args.trace),
                               scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    result = report(args.workload, outcome, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
