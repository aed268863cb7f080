"""Run one workload of the TeamNet serving benchmark.

    python3 perfbench/run.py --workload sync_mlp --seed 1 --seconds 20 --trace 0

Run from the repository root: the program is imported from ``src/``.
Progress and sample counts go to stderr; the last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer split with
``--trace 1``).  The process pins itself to one CPU before the team
starts (see ``pin_to_one_cpu``).  Exits non-zero, printing no result, when the program
source is missing or a run cannot be completed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("sync_mlp", "sync_cnn", "served_mlp", "overload_mlp")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def pin_to_one_cpu() -> int:
    """Run the whole process, and every thread it starts, on one CPU.

    The team is a dozen threads sharing one interpreter lock.  Spread
    over the vCPUs of a shared VM, each lock handoff can wait for the
    other vCPU to be scheduled by the host, and the serving latency and
    its admission control then follow the host's load more than the
    program's.  On one CPU a handoff is a local context switch.  Called
    before numpy is imported, so the BLAS threads are pinned too.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {src}; run from the "
              "root of a repository checkout", file=sys.stderr)
        return 2
    cpu = pin_to_one_cpu()
    print(f"perfbench: pinned to CPU {cpu}", file=sys.stderr)
    sys.path[:0] = [str(src), str(ROOT)]
    from perfbench import workloads

    result = workloads.run(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
