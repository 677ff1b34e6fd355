#!/usr/bin/env python3
"""Benchmark-regression gate run by CI (and by ``tests/tools``).

Compares a *fresh* benchmark results file (written under ``.bench_out/``
by the smoke run in the CI workspace) against the *committed baseline*
(the tracked file of the same name) and fails on regressed key speedups::

    python tools/check_bench.py \\
        --baseline BENCH_search.json \\
        --fresh .bench_out/BENCH_search.json

Two comparison modes, chosen automatically from the fresh file's
``smoke`` flag (override with ``--smoke`` / ``--full``):

* **full** — fresh and baseline were produced by comparable runs: every
  gated speedup must reach ``(1 - tolerance)`` of the committed value
  (tolerance defaults to 0.30, the ">30% regression" bar).
* **smoke** — the fresh run used reduced budgets, so committed full-run
  magnitudes are not comparable; each gated speedup is instead checked
  against an absolute floor (e.g. warm cache ≥ 10x).

Keys listed in :data:`FLOOR_ONLY` are held to their floor in *both* modes:
they divide search seconds by cache-hit seconds, so a faster search lowers
them and a baseline ratio would read an improvement as a regression.

Only the *gated* keys listed in :data:`GATES` are enforced.  A gated key
missing from the fresh file fails (the benchmark silently did not run);
one missing from the baseline is reported but passes (first run of a new
benchmark).

Keys where *lower* is better are held to an absolute ceiling
(:data:`CEILINGS`) in both modes, with the same presence rule: the service
bench's ``hit_path`` section — a disk hit may cost at most 8 memory hits,
a fingerprint at most 3 µs per node of the caller's graph — its
``eviction`` section — the replay's misses may re-search at most 0.75 of
the seconds both tiers evicting by LRU did — and the search
bench's ``identity`` section — at most 3 structural hashes per 10
identities a TASO search takes, a count, so a search that went back to
hashing every kept graph fails here whatever the host — and its
``derivations`` section — no node cost or kernel time derived by a search
of a fresh build of a model the process has searched, a count too.

Correctness witnesses (:data:`REQUIRED_POSITIVE` /
:data:`REQUIRED_LITERAL`) are enforced in *both* modes: the exec bench
records how many differential checks actually ran, and a run whose
equivalence gate was skipped fails here regardless of its speedups; the
service bench's ``dedup_under_contention`` section must record the one
search its concurrent identical submissions shared.

The wall-clock floors of the search and service benches
(``measured_end_to_end`` 0.97, ``cold_vs_warm`` 10, the rest 1.0) live
here only: the bench tests assert equivalence and record, so a loud host
cannot turn the test suite red.  Search, service and RL wall-clock are
judged by ``python3 -m xbench``, not by a ratio against a slow sibling.

Exit code 0 when clean, 1 with a per-problem report otherwise.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple

#: Default allowed fractional regression vs the committed baseline.
DEFAULT_TOLERANCE = 0.30

#: Gated speedup keys per benchmark file: ``pattern -> smoke floor``.
#: Patterns are ``fnmatch`` globs over dotted key paths under ``results``.
#: The search and service benches assert no wall-clock floor themselves:
#: their floors are these.
GATES: Dict[str, Dict[str, float]] = {
    "BENCH_search.json": {
        # Executed (numpy) latency of the TASO-optimised graph vs its
        # input: wins are genuinely small on reduced-size graphs, so the
        # smoke floor is "never slower beyond timer noise".
        "measured_end_to_end.*.speedup": 0.97,
    },
    "BENCH_service.json": {
        "cold_vs_warm.speedup": 10.0,
        "warm_shared_cache.speedup": 1.0,
        "dedup_under_contention.speedup": 1.0,
    },
    "BENCH_exec.json": {
        # Floors, not latencies: calibration can never make the fit worse
        # (the identity scaling is in the search grid), and the
        # differential sweep must pass outright.  Raw execute_ms values
        # are recorded but not gated — lower is better, so a floor would
        # be meaningless.
        "calibration.improvement": 1.0,
        "equivalence.pass_rate": 1.0,
    },
}

#: Gated keys checked against their floor in full mode too (exact paths):
#: search seconds over hit seconds — the numerator is what perf PRs shrink.
FLOOR_ONLY: Dict[str, Tuple[str, ...]] = {
    "BENCH_service.json": ("cold_vs_warm.speedup",
                           "warm_shared_cache.speedup"),
}

#: Lower-is-better keys: ``pattern -> ceiling``, absolute, in both modes; a
#: pattern matching no fresh key fails.  The search ceiling is a ratio of
#: two counts; the service ones are properties of the code more than of
#: the host: the first a ratio of two medians of one pinned run, the second
#: a repeat's digests read from the process's digest table over the
#: payload add_node left on each node (0.97-1.90 over 20 smoke runs on a
#: 2-vCPU host that swings between a quiet and a loud state; one blake2b
#: per node read 1.6-3.1 there, and a hash that looked the payload up
#: again 2.8-6.0, so going back to that trips it; a build that stops
#: reusing its templates shows in ``build_us_per_node`` beside it), the
#: third a ratio
#: of two sums of fixed costs that no host speed moves (0.59 where recorded
#: with both tiers GreedyDual, 0.67 with the disk tier alone; LRU reads
#: 1.0).
CEILINGS: Dict[str, Dict[str, float]] = {
    # graphs_digested / graphs_hashed: 0.14 (inception_v3) and 0.21 (bert)
    # where recorded at 30 iterations, 0 at the smoke's 8; hashing every
    # kept graph reads 1.0.
    "BENCH_search.json": {
        "identity.*.digest_share": 0.3,
        # Node costs plus kernel times a TASO search of a fresh build of a
        # model the process already searched derives: memoised per node
        # template, process-wide, so 0; kept per node, every node of the
        # fresh build was priced again (hundreds).
        "derivations.*.warm_nodes_derived": 0.0,
    },
    "BENCH_service.json": {
        "hit_path.*.disk_over_memory": 8.0,
        "hit_path.*.fingerprint_us_per_node": 3.0,
        "eviction.recompute_ratio": 0.75,
    },
}

#: Printed after the ok line of a matching key: what a reader comparing
#: the number with an older recording has to know.
KEY_NOTES: Dict[str, str] = {
    # Older recordings could read the first model 5-13x high: on two BLAS
    # threads a GEMM waits 12-24 ms whenever the other vCPU is busy
    # (docs/executor.md, "BLAS threads").
    "models.*.execute_ms": "timed after a BLAS warm-up since PR 22",
    # The payload moved from the hash into the template lookup add_node
    # already made for shape inference; recordings without
    # build_us_per_node rendered or looked it up in the hash.  Recordings
    # without fingerprint_first_us_per_node ran one blake2b per node.
    "hit_path.*.fingerprint_us_per_node":
        "the payload is read off the node, add_node built it: compare "
        "together with build_us_per_node; a repeat, read from a warm "
        "digest table (fingerprint_first_us_per_node: the table emptied)",
}


def _remark(path: str, sep: str) -> str:
    """``sep`` and the :data:`KEY_NOTES` text for ``path``, if it has one."""
    return next((sep + text for key, text in KEY_NOTES.items()
                 if fnmatch.fnmatchcase(path, key)), "")


#: Correctness witnesses: numeric key patterns that must be present in the
#: *fresh* results with a strictly positive value, in smoke and full mode
#: alike.  They record that a verification gate actually executed — a
#: benchmark run that silently skipped its equivalence check must fail
#: here rather than pass quietly.  A pattern matching *no* fresh key is
#: itself a failure.
REQUIRED_POSITIVE: Dict[str, Tuple[str, ...]] = {
    "BENCH_exec.json": (
        "equivalence.rules_checked",
        "equivalence.optimiser_checks",
        "calibration.samples",
        "models.*.execute_ms",
    ),
    "BENCH_search.json": ("measured_end_to_end.*.rules_applied",
                          "identity.*.graphs_hashed"),
    # The contended batch searched (the bench asserts exactly once): a run
    # that never reached the search records 0 and fails here.
    "BENCH_service.json": ("dedup_under_contention.searches_with_dedup",),
}

#: String leaves that must equal an expected literal in the fresh results
#: (same matching-and-presence rules as :data:`REQUIRED_POSITIVE`).
REQUIRED_LITERAL: Dict[str, Dict[str, str]] = {
    "BENCH_exec.json": {
        "equivalence.status": "passed",
    },
}


def flatten_numbers(doc: Mapping[str, Any], prefix: str = "") -> Dict[str, float]:
    """Dotted-path → value for every numeric leaf of a nested mapping."""
    leaves: Dict[str, float] = {}
    for key, value in doc.items():
        path = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(value, Mapping):
            leaves.update(flatten_numbers(value, path))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            leaves[path] = float(value)
    return leaves


def flatten_strings(doc: Mapping[str, Any], prefix: str = "") -> Dict[str, str]:
    """Dotted-path → value for every string leaf of a nested mapping."""
    leaves: Dict[str, str] = {}
    for key, value in doc.items():
        path = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(value, Mapping):
            leaves.update(flatten_strings(value, path))
        elif isinstance(value, str):
            leaves[path] = value
    return leaves


def gated_keys(leaves: Mapping[str, float],
               gates: Mapping[str, float]) -> Dict[str, float]:
    """The subset of ``leaves`` matching any gate pattern → its floor."""
    floors: Dict[str, float] = {}
    for path in leaves:
        for pattern, floor in gates.items():
            if fnmatch.fnmatchcase(path, pattern):
                floors[path] = floor
                break
    return floors


def evaluate(baseline: Mapping[str, Any], fresh: Mapping[str, Any],
             gates: Mapping[str, float], smoke: bool,
             tolerance: float = DEFAULT_TOLERANCE,
             required_positive: Tuple[str, ...] = (),
             required_literal: Optional[Mapping[str, str]] = None,
             floor_only: Tuple[str, ...] = (),
             ceilings: Optional[Mapping[str, float]] = None,
             ) -> Tuple[List[str], List[str]]:
    """Compare one fresh results document against its baseline.

    Args:
        baseline: The committed benchmark JSON document.
        fresh: The just-produced benchmark JSON document.
        gates: ``pattern -> smoke floor`` for this file (see
            :data:`GATES`).
        smoke: Gate against absolute floors instead of baseline ratios.
        tolerance: Allowed fractional regression in full mode.
        required_positive: Patterns for numeric witnesses that must be
            present and > 0 in the fresh results in either mode.
        required_literal: ``pattern -> expected`` for string witnesses
            that must be present and equal in the fresh results.
        floor_only: Gated key paths held to their floor in full mode too
            (see :data:`FLOOR_ONLY`).
        ceilings: ``pattern -> ceiling`` for lower-is-better keys that
            must be present and at most that in the fresh results, in
            either mode (see :data:`CEILINGS`).

    Returns:
        ``(problems, notes)`` — failures and informational lines.
    """
    baseline_leaves = flatten_numbers(baseline.get("results", {}))
    fresh_leaves = flatten_numbers(fresh.get("results", {}))
    problems: List[str] = []
    notes: List[str] = []

    for pattern in required_positive:
        matched = sorted(p for p in fresh_leaves
                         if fnmatch.fnmatchcase(p, pattern))
        if not matched:
            problems.append(f"{pattern}: no matching key in the fresh "
                            f"results (equivalence gate skipped?)")
        for path in matched:
            value = fresh_leaves[path]
            if value > 0:
                notes.append(f"{path}: {value:g} > 0 (gate executed"
                             f"{_remark(path, '; ')})")
            else:
                problems.append(f"{path}: {value:g} — the correctness "
                                f"gate never executed")

    for pattern, ceiling in (ceilings or {}).items():
        matched = sorted(p for p in fresh_leaves
                         if fnmatch.fnmatchcase(p, pattern))
        if not matched:
            problems.append(f"{pattern}: no matching key in the fresh "
                            f"results (benchmark did not run?)")
        for path in matched:
            value = fresh_leaves[path]
            if value <= ceiling:
                notes.append(f"{path}: {value:.3f} <= ceiling {ceiling:g}"
                             f"{_remark(path, ' — ')}")
            else:
                problems.append(f"{path}: {value:.3f} is above the "
                                f"ceiling {ceiling:g}{_remark(path, ' — ')}")

    fresh_strings = flatten_strings(fresh.get("results", {}))
    for pattern, expected in (required_literal or {}).items():
        matched = sorted(p for p in fresh_strings
                         if fnmatch.fnmatchcase(p, pattern))
        if not matched:
            problems.append(f"{pattern}: no matching key in the fresh "
                            f"results (equivalence gate skipped?)")
        for path in matched:
            value = fresh_strings[path]
            if value == expected:
                notes.append(f"{path}: {value!r}")
            else:
                problems.append(f"{path}: {value!r} != expected "
                                f"{expected!r}")

    # Gate every key the *union* matches, so a benchmark that silently
    # stopped recording (present in baseline, absent fresh) still fails.
    union = dict(fresh_leaves)
    for path, value in baseline_leaves.items():
        union.setdefault(path, value)

    floors = gated_keys(union, gates)

    for path in sorted(floors):
        floor = floors[path]
        fresh_value = fresh_leaves.get(path)
        base_value = baseline_leaves.get(path)
        if fresh_value is None:
            problems.append(f"{path}: missing from the fresh results "
                            f"(benchmark did not run?)")
            continue
        if smoke or path in floor_only:
            if fresh_value < floor:
                problems.append(f"{path}: {fresh_value:.3f}x is below the "
                                f"{'smoke ' if smoke else ''}floor "
                                f"{floor:.3f}x")
            else:
                notes.append(f"{path}: {fresh_value:.3f}x >= floor "
                             f"{floor:.3f}x")
            continue
        if base_value is None:
            notes.append(f"{path}: {fresh_value:.3f}x (no committed "
                         f"baseline yet)")
            continue
        required = (1.0 - tolerance) * base_value
        if fresh_value < required:
            problems.append(
                f"{path}: {fresh_value:.3f}x regressed more than "
                f"{100 * tolerance:.0f}% vs committed {base_value:.3f}x "
                f"(needs >= {required:.3f}x)")
        else:
            notes.append(f"{path}: {fresh_value:.3f}x vs committed "
                         f"{base_value:.3f}x")
    return problems, notes


def host_lines(baseline: Mapping[str, Any],
               fresh: Mapping[str, Any]) -> List[str]:
    """The two recordings' ``host`` blocks side by side, plus a note when
    their core counts differ (wall-clock ratios then compare two machines).
    """
    hosts = [doc.get("host") or {} for doc in (baseline, fresh)]
    lines = [f"host {side:9s} " + (", ".join(
                 f"{key}={host[key]}" for key in sorted(host)) or "not recorded")
             for side, host in zip(("baseline:", "fresh:"), hosts)]
    cores = [host.get("cores") for host in hosts]
    if None not in cores and cores[0] != cores[1]:
        lines.append(f"note: core counts differ ({cores[0]} vs {cores[1]}): "
                     f"ratios against the baseline compare two hosts")
    return lines


def _load(path: Path) -> Dict[str, Any]:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise SystemExit(f"error: cannot read benchmark file {path}: {exc}")


def check_file(baseline_path: Path, fresh_path: Path,
               smoke: Optional[bool] = None,
               tolerance: float = DEFAULT_TOLERANCE,
               ) -> Tuple[List[str], List[str], bool, List[str]]:
    """Run the gate for one baseline/fresh file pair.

    ``smoke=None`` reads the mode from the fresh file's ``smoke`` flag.

    Returns:
        ``(problems, notes, smoke, hosts)`` with the mode actually applied
        and the :func:`host_lines` of the pair.
    """
    gates = GATES.get(fresh_path.name)
    if gates is None:
        raise SystemExit(f"error: no gates defined for {fresh_path.name} "
                         f"(known: {sorted(GATES)})")
    fresh = _load(fresh_path)
    baseline = _load(baseline_path)
    if smoke is None:
        smoke = bool(fresh.get("smoke"))
    problems, notes = evaluate(
        baseline, fresh, gates, smoke=smoke, tolerance=tolerance,
        required_positive=REQUIRED_POSITIVE.get(fresh_path.name, ()),
        required_literal=REQUIRED_LITERAL.get(fresh_path.name),
        floor_only=FLOOR_ONLY.get(fresh_path.name, ()),
        ceilings=CEILINGS.get(fresh_path.name))
    return problems, notes, smoke, host_lines(baseline, fresh)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        description="Fail on benchmark speedup regressions.")
    parser.add_argument("--baseline", action="append", default=[],
                        type=Path, required=True,
                        help="committed benchmark JSON (repeatable; paired "
                             "with --fresh by filename)")
    parser.add_argument("--fresh", action="append", default=[], type=Path,
                        required=True,
                        help="freshly produced benchmark JSON (repeatable)")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        help="allowed fractional regression in full mode "
                             f"(default: {DEFAULT_TOLERANCE})")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--smoke", dest="smoke", action="store_true",
                      default=None,
                      help="force smoke mode (absolute floors)")
    mode.add_argument("--full", dest="smoke", action="store_false",
                      help="force full mode (baseline ratios)")
    args = parser.parse_args(argv)

    baselines = {path.name: path for path in args.baseline}
    failures = 0
    for fresh_path in args.fresh:
        baseline_path = baselines.get(fresh_path.name)
        if baseline_path is None:
            print(f"error: no --baseline given for {fresh_path.name}")
            failures += 1
            continue
        problems, notes, smoke, hosts = check_file(
            baseline_path, fresh_path, smoke=args.smoke,
            tolerance=args.tolerance)
        print(f"== {fresh_path.name} ({'smoke' if smoke else 'full'} gate) ==")
        for line in hosts:
            print(f"  {line}")
        for note in notes:
            print(f"  ok   {note}")
        for problem in problems:
            print(f"  FAIL {problem}")
        failures += len(problems)
    if failures:
        print(f"{failures} benchmark gate failure(s)")
        return 1
    print("benchmark gates clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
