"""``python -m xbench``: run the benchmark.

Two ways in, one measuring path:

* **One run** (what ``BENCHMARK.json`` declares)::

      python3 -m xbench --workload NAME --seed N --seconds S --trace 0|1

  launches the workload's process, and a few set-up-only launches beside
  it, and prints as its last line one JSON object: ``correct``,
  ``attempted``, ``failed`` and ``metrics`` — every end-to-end metric with
  ``--trace 0``, every per-layer metric with ``--trace 1``.

* **A set of runs** (no ``--trace``)::

      python3 -m xbench --seed 0 [--workload NAME] [--smoke] [--out DIR]
                        [--record]

  per workload three untraced runs and one traced run, with the host
  block, written as ``results.json`` under ``--out`` (default: a fresh temp
  directory) for ``python -m xbench.compare``.  ``--record`` is the only
  switch that writes into the repository: ``xbench/results/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from xbench.runner import BASELINE, ROOT, declared, one_run, run_set


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m xbench",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="two models, a couple of seconds per workload, "
                        "one untraced run of each")
    parser.add_argument("--out", help="directory for results.json and traces")
    parser.add_argument("--record", action="store_true",
                        help=f"also write {BASELINE.relative_to(ROOT)}")
    args = parser.parse_args(argv)

    spec = declared()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; one of {names}")
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(spec["run_seconds"])
    if args.trace is None:
        return run_set(args)
    if args.workload is None:
        parser.error("--trace needs --workload")
    result, _ = one_run(args.workload, args.seed, args.seconds, args.trace,
                        smoke=args.smoke,
                        out=Path(args.out) if args.out else None)
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
