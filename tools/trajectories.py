#!/usr/bin/env python3
"""What every search and training row of xbench does, written down and compared.

A perf change to the search or learning stack has to show it searches and
trains as before.  This runs every non-random row of xbench's
``search_cold``, ``rl_train``, ``serve_mixed`` (cold rows and catalogue) and
``exec_verify`` workloads once, in process, through ``create_optimiser`` —
no service, no timing — and records per row the applied rules, the exact
final cost, the final latency, the final graph's op histogram and the
optimiser's ``stats`` (wall-clock ones, ``*_s``, left out).  An X-RLflow row
also records its training: each episode's total reward (as hex) and applied
rules, and every PPO update's stats::

    python tools/trajectories.py change.json
    python tools/trajectories.py --root ../parent-checkout parent.json
    python tools/trajectories.py --compare parent.json change.json

``--root`` names the checkout whose ``src/`` and ``xbench/`` are imported
(default: the one this file lives in), so one copy of the tool writes both
sides.  ``--compare`` prints which rows differ in what and exits 1 when a
row is missing, a final op histogram differs, a final latency differs by
more than 1e-12 relative, or a training episode, a PPO update stat or an
X-RLflow row's evaluation (``policy_speedup``, ``policy_rules``, the
returned ``applied_rules``) differs at all: last-bit cost differences,
reordered rules and moved counters of the search rows are reported, not
failed.  ``--smoke`` takes the two-model sketch of every
workload (the unit tests' size).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path
from typing import Any, Dict, List

REPO_ROOT = Path(__file__).resolve().parents[1]

WORKLOADS = ("search_cold", "rl_train", "serve_mixed", "exec_verify")

#: Largest relative difference of two final latencies that is still "equal".
LATENCY_TOLERANCE = 1e-12

#: Stats of an X-RLflow row's deterministic evaluation episodes.
EVALUATION_STATS = ("policy_speedup", "policy_rules")


def rows_of(smoke: bool) -> Dict[str, Any]:
    """``{key: xbench row}`` over :data:`WORKLOADS`, random search left out
    (its trajectory is its seed's, not the search stack's)."""
    from xbench.workloads import workload
    rows: Dict[str, Any] = {}
    for name in WORKLOADS:
        spec = workload(name, smoke=smoke)
        catalogue = spec.traffic.catalogue if spec.traffic else ()
        for row in (*spec.rows, *catalogue):
            config = ",".join(f"{k}={v}" for k, v in row.config)
            if row.optimiser != "random":
                rows.setdefault(f"{name}/{row.key}[{config}]", row)
    return rows


def record(smoke: bool = False) -> Dict[str, Dict[str, Any]]:
    """Run every row once; ``{key: what the search did}``."""
    from repro.service.registry import create_optimiser
    out: Dict[str, Dict[str, Any]] = {}
    for key, row in rows_of(smoke).items():
        optimiser = create_optimiser(row.optimiser, **dict(row.config))
        result = optimiser.optimise(row.build())
        out[key] = {
            "applied_rules": list(result.applied_rules),
            "final_cost_hex": float(result.final_cost_ms).hex(),
            "final_latency_ms": result.final_latency_ms,
            "histogram": result.final_graph.op_type_counts(),
            "stats": {stat: value for stat, value in result.stats.items()
                      if not stat.endswith("_s")},
        }
        history = getattr(optimiser, "history", None)
        if history is not None:
            out[key]["episodes"] = [
                {"total_reward_hex": float(episode.total_reward).hex(),
                 "applied_rules": list(episode.applied_rules)}
                for episode in history.episodes]
            out[key]["update_stats"] = [dict(update)
                                        for update in history.update_stats]
    return out


def _relative(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b)) if a != b else 0.0


def compare(before: Dict[str, Dict[str, Any]],
            after: Dict[str, Dict[str, Any]]
            ) -> tuple[List[str], List[str], Counter]:
    """``(failures, notes, tally)``: a failure per broken promise, a note
    per row that differs at all (stats keys only one side reports are left
    out) and the number of rows each field differs on."""
    failures = [f"{key}: only in the {side} file"
                for side, keys in (("first", before.keys() - after.keys()),
                                   ("second", after.keys() - before.keys()))
                for key in sorted(keys)]
    notes: List[str] = []
    tally: Counter = Counter()
    for key in sorted(before.keys() & after.keys()):
        old, new = before[key], after[key]
        differs: List[str] = []
        if old["histogram"] != new["histogram"]:
            failures.append(f"{key}: final op histogram differs")
        drift = _relative(old["final_latency_ms"], new["final_latency_ms"])
        if drift > LATENCY_TOLERANCE:
            failures.append(f"{key}: final_latency_ms differs by {drift:.3g} "
                            f"relative (> {LATENCY_TOLERANCE:g})")
        elif drift:
            differs.append(f"final_latency_ms by {drift:.3g} relative")
        if old.get("episodes") != new.get("episodes"):
            failures.append(f"{key}: training episodes differ "
                            "(a total reward or the rules applied)")
        if old.get("update_stats") != new.get("update_stats"):
            failures.append(f"{key}: PPO update stats differ")
        if "episodes" in old:
            # An X-RLflow row's evaluation: what the policy reached and
            # the rules the returned graph was built with.
            failures += [f"{key}: evaluation {field} differs"
                         for field in EVALUATION_STATS
                         if old["stats"].get(field) != new["stats"].get(field)]
            if old["applied_rules"] != new["applied_rules"]:
                failures.append(f"{key}: returned applied_rules differ")
        if old["final_cost_hex"] != new["final_cost_hex"]:
            drift = _relative(float.fromhex(old["final_cost_hex"]),
                              float.fromhex(new["final_cost_hex"]))
            differs.append(f"final_cost_ms by {drift:.3g} relative")
        if old["applied_rules"] != new["applied_rules"]:
            same = Counter(old["applied_rules"]) == Counter(new["applied_rules"])
            differs.append("applied_rules ("
                           + ("a permutation" if same else "NOT a permutation")
                           + ")")
        differs += [f"{stat} {old['stats'][stat]:g} -> {new['stats'][stat]:g}"
                    for stat in sorted(old["stats"].keys() & new["stats"].keys())
                    if old["stats"][stat] != new["stats"][stat]]
        if differs:
            notes.append(f"{key}: " + "; ".join(differs))
            tally.update(text.split()[0] for text in differs)
    return failures, notes, tally


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+", metavar="FILE",
                        help="OUT.json to write, or A.json B.json to compare")
    parser.add_argument("--compare", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--root", type=Path, default=REPO_ROOT)
    args = parser.parse_args(argv)
    if args.compare:
        if len(args.files) != 2:
            parser.error("--compare takes two files")
        before, after = (json.loads(Path(name).read_text())
                         for name in args.files)
        failures, notes, tally = compare(before, after)
        for line in notes:
            print("note:", line)
        for line in failures:
            print("FAIL:", line)
        print(f"{len(before.keys() & after.keys())} rows compared, "
              f"{len(notes)} differ, {len(failures)} failures; rows per "
              "field: " + (", ".join(f"{field} {rows}" for field, rows
                                     in sorted(tally.items())) or "none"))
        return 1 if failures else 0
    if len(args.files) != 1:
        parser.error("recording takes one output file")
    sys.path[:0] = [str(args.root / "src"), str(args.root)]
    rows = record(smoke=args.smoke)
    Path(args.files[0]).write_text(json.dumps(rows, indent=1, sort_keys=True))
    print(f"{len(rows)} rows written to {args.files[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
