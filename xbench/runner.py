"""Launching workload processes: one run, or a set of runs with a host block.

Everything a run writes lives under ``.xbench_work/`` next to ``xbench/`` and
is removed when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from xbench.host import Sample, pin_environment, steady
from xbench.worker import READY_MARK

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".xbench_work"
BASELINE = ROOT / "xbench" / "results" / "baseline.json"

#: Untraced runs of a workload in a set of runs (one when ``--smoke``).
RUNS_PER_SET = 3

#: Fresh launches behind one ``setup_s`` (the measuring one included): their
#: median, each scaled to the reference host speed like every timed row.
SETUP_LAUNCHES = 5


def declared() -> Dict[str, Any]:
    """``BENCHMARK.json``: the one place names, units and bounds live."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def launch(arguments: List[str]) -> Tuple[Optional[Sample], List[str], int]:
    """One worker process: ``(set-up sample, stdout lines, exit code)``.

    Set-up runs from just before the interpreter is started to the
    worker's ready mark, which also carries the worker's host probes
    around it.
    """
    env = dict(os.environ)
    pin_environment(env)
    started = time.time()
    done = subprocess.run(
        [sys.executable, "-m", "xbench.worker", *arguments],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    setup = None
    for line in lines:
        if line.startswith(READY_MARK):
            ready, host = json.loads(line[len(READY_MARK):])
            setup = (ready - started, host)
    return setup, [line for line in lines
                   if not line.startswith(READY_MARK)], done.returncode


def one_run(workload: str, seed: int, seconds: float, trace: int,
            smoke: bool = False, out: Optional[Path] = None,
            echo: bool = True) -> Tuple[Optional[Dict[str, Any]],
                                        Dict[str, Any]]:
    """Measure once: ``(contract result or None on a crash, detail)``."""
    spec = declared()
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    common = ["--workload", workload, "--seed", str(seed),
              "--seconds", str(seconds), "--trace", str(trace),
              "--workdir", str(workdir)] + (["--smoke"] if smoke else [])
    try:
        setups = []
        for _ in range(0 if smoke else SETUP_LAUNCHES - 1):
            setup, _, code = launch(common + ["--setup-only"])
            if code != 0:
                return None, {}
            setups.append(setup)
        setup, lines, code = launch(common)
        if code != 0 or not lines:
            return None, {}
        setups.append(setup)
        if echo:
            print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        setups = [steady(setup) for setup in setups]
        values = result["metrics"]
        if not trace:
            values["setup_s"] = statistics.median(setups)
        kind = "per_layer" if trace else "end_to_end"
        result["metrics"] = {
            metric["name"]: {"value": values[metric["name"]],
                             "unit": metric["unit"]}
            for metric in spec[kind]}
        undeclared = sorted(set(values) - set(result["metrics"]))
        if undeclared:
            raise SystemExit(f"xbench: metrics not in BENCHMARK.json: "
                             f"{undeclared}")
        detail = json.loads((workdir / "detail.json").read_text())
        detail["setup_samples_s"] = setups
        if out is not None and trace:
            out.mkdir(parents=True, exist_ok=True)
            shutil.copy(workdir / "trace.json",
                        out / f"trace-{workload}.json")
            shutil.copy(workdir / "detail.json",
                        out / f"layers-{workload}.json")
        return result, detail
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()  # only when no other run is using it
        except OSError:
            pass


def run_set(args: argparse.Namespace) -> int:
    """Every workload: :data:`RUNS_PER_SET` untraced runs and one traced."""
    from xbench.host import NOISE_LIMIT, host_block

    pin_environment(os.environ)
    spec = declared()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None:
        names = [args.workload]
    out = Path(args.out) if args.out else Path(tempfile.mkdtemp(
        prefix="xbench-"))
    host = host_block(ROOT, args.seed)
    print("host: " + json.dumps({k: v for k, v in host.items()
                                 if k != "host_spin_samples"}))
    if args.record and host["host_spin_spread"] > NOISE_LIMIT:
        print(f"xbench: host_spin_s spreads {host['host_spin_spread']:.1%} "
              f"over its own repeats (limit {NOISE_LIMIT:.0%}); this host "
              "is too noisy to record a baseline now", file=sys.stderr)
        return 2
    document: Dict[str, Any] = {
        "host": host, "seed": args.seed, "seconds": args.seconds,
        "smoke": args.smoke, "workloads": {}}
    failed = False
    runs = 1 if args.smoke else RUNS_PER_SET
    for name in names:
        entry: Dict[str, Any] = {"runs": [], "trace": None}
        for index in range(runs + 1):
            trace = int(index == runs)
            print(f"== {name}  seed {args.seed}  "
                  + ("traced" if trace else f"run {index + 1}/{runs}"))
            result, detail = one_run(name, args.seed, args.seconds, trace,
                                     smoke=args.smoke, out=out)
            if result is None:
                print(f"xbench: {name} crashed", file=sys.stderr)
                failed = True
                continue
            for metric, cell in result["metrics"].items():
                print(f"  {metric:32s} {cell['value']:.6g} {cell['unit']}")
            print(f"  attempted {result['attempted']}  failed "
                  f"{result['failed']}")
            failed = failed or not result["correct"]
            result["detail"] = detail
            if trace:
                entry["trace"] = result
            else:
                entry["runs"].append(result)
        document["workloads"][name] = entry
    out.mkdir(parents=True, exist_ok=True)
    (out / "results.json").write_text(json.dumps(document, indent=1))
    print(f"results: {out / 'results.json'}")
    if args.record and not failed:
        BASELINE.parent.mkdir(exist_ok=True)
        BASELINE.write_text(json.dumps(document, indent=1))
        print(f"recorded: {BASELINE}")
    return 1 if failed else 0
