"""``python -m xbench.compare A.json B.json``: did B get worse than A?

A and B are ``results.json`` files written by ``python -m xbench``.  Every
(workload, end-to-end metric) row is judged against the metric's own bound
from ``BENCHMARK.json``:

* ``worse``       B's median is worse than A's by more than the bound,
* ``better``      better by more than the bound,
* ``same``        within the bound,
* ``unresolved``  the run-to-run spread of A or B (interquartile distance
  over the median) is wider than the bound, so the medians cannot decide —
  unless every run of one side beats every run of the other.

Every ratio is printed with both of its bases.  The exit code is non-zero on
any ``worse`` row and on any rise in the share of failed operations.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from xbench.stats import quartiles, spread

__all__ = ["judge", "compare", "main"]

ROOT = Path(__file__).resolve().parent.parent


def judge(a: Sequence[float], b: Sequence[float], better: str,
          bound: float) -> Tuple[str, float]:
    """Verdict for one row and how much worse B's median is (a share of
    A's; negative when B is better)."""
    median_a, median_b = quartiles(a)[1], quartiles(b)[1]
    worse_by = (median_b - median_a) / abs(median_a) if median_a else 0.0
    if better == "higher":
        worse_by = -worse_by
        b_wins = min(b) > max(a)
        a_wins = max(b) < min(a)
    else:
        b_wins = max(b) < min(a)
        a_wins = min(b) > max(a)
    if max(spread(a), spread(b)) > bound:
        if b_wins and worse_by < -bound:
            return "better", worse_by
        if a_wins and worse_by > bound:
            return "worse", worse_by
        return "unresolved", worse_by
    if worse_by > bound:
        return "worse", worse_by
    if worse_by < -bound:
        return "better", worse_by
    return "same", worse_by


def _values(document: Dict[str, Any], workload: str, metric: str
            ) -> List[float]:
    return [run["metrics"][metric]["value"]
            for run in document["workloads"][workload]["runs"]
            if metric in run["metrics"]]


def _failed_share(document: Dict[str, Any], workload: str) -> float:
    runs = document["workloads"][workload]["runs"]
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else 0.0


def compare(a: Dict[str, Any], b: Dict[str, Any],
            spec: Dict[str, Any]) -> Tuple[List[Dict[str, Any]], bool]:
    """Rows for every (workload, metric) both documents have, and whether
    anything got worse."""
    rows: List[Dict[str, Any]] = []
    regressed = False
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            continue
        for metric in spec["end_to_end"]:
            va = _values(a, workload, metric["name"])
            vb = _values(b, workload, metric["name"])
            if not va or not vb:
                continue
            verdict, worse_by = judge(va, vb, metric["better"],
                                      metric["bound"])
            regressed = regressed or verdict == "worse"
            rows.append({
                "workload": workload, "metric": metric["name"],
                "unit": metric["unit"], "verdict": verdict,
                "worse_by": worse_by, "bound": metric["bound"],
                "a": quartiles(va)[1], "b": quartiles(vb)[1],
                "spread_a": spread(va), "spread_b": spread(vb),
                "n_a": len(va), "n_b": len(vb)})
        failed_a = _failed_share(a, workload)
        failed_b = _failed_share(b, workload)
        verdict = "worse" if failed_b > failed_a else "same"
        regressed = regressed or verdict == "worse"
        rows.append({
            "workload": workload, "metric": "failed_share", "unit": "share",
            "verdict": verdict, "worse_by": failed_b - failed_a, "bound": 0.0,
            "a": failed_a, "b": failed_b, "spread_a": 0.0, "spread_b": 0.0,
            "n_a": len(a["workloads"][workload]["runs"]),
            "n_b": len(b["workloads"][workload]["runs"])})
    return rows, regressed


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m xbench.compare",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="results.json of the parent")
    parser.add_argument("b", help="results.json of the change")
    args = parser.parse_args(argv)
    a = json.loads(Path(args.a).read_text())
    b = json.loads(Path(args.b).read_text())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for name, document in (("A", a), ("B", b)):
        host = document.get("host", {})
        print(f"{name}: commit {host.get('commit', '?')}  nproc "
              f"{host.get('nproc', '?')}  host_spin_s "
              f"{host.get('host_spin_s', float('nan')):.4f}  seed "
              f"{document.get('seed', '?')}")
    if a.get("host", {}).get("nproc") != b.get("host", {}).get("nproc"):
        print("warning: A and B come from hosts with different core counts")
    rows, regressed = compare(a, b, spec)
    for row in rows:
        print(f"{row['workload']:12s} {row['metric']:18s} "
              f"{row['verdict']:10s} worse by {row['worse_by']:+.2%} "
              f"(bound {row['bound']:.1%})  A {row['a']:.6g} "
              f"(spread {row['spread_a']:.1%}, n={row['n_a']})  "
              f"B {row['b']:.6g} (spread {row['spread_b']:.1%}, "
              f"n={row['n_b']}) {row['unit']}")
    counts = {verdict: sum(row["verdict"] == verdict for row in rows)
              for verdict in ("better", "same", "worse", "unresolved")}
    print("  ".join(f"{verdict}: {count}"
                    for verdict, count in counts.items()))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
