#!/usr/bin/env python3
"""Importer coverage gate run by CI (and by ``tests/tools``).

Audits the ONNX bridge table against the conformance suite and fails if
the frontend quietly loses coverage::

    PYTHONPATH=src python tools/check_import_coverage.py --markdown

Checks enforced by :func:`check`:

* the default-domain bridge table keeps at least ``--min-ops`` operators
  (the PR-9 acceptance floor is 30);
* every bridged default-domain op has a case in
  ``tests/frontend/conformance.py`` — a bridge without a test is a silent
  gap, and a case for an unbridged op is a stale entry;
* every conformance case actually imports with **zero fallbacks** — a
  bridge that regresses into the Custom fallback path fails here even
  though the import itself "succeeds".

``--markdown`` prints the per-op coverage table (op, domain, summary,
conformance status) for the CI job summary; ``--output`` writes it to a
file (pointed at ``$GITHUB_STEP_SUMMARY`` in the workflow).

Exit code 0 when clean, 1 with a per-problem report otherwise.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parents[1]
# The conformance corpus is a test fixture: it lives beside the suite.
for _path in (REPO_ROOT / "src", REPO_ROOT / "tests" / "frontend"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from conformance import CONFORMANCE_CASES  # noqa: E402
from repro.frontend import import_model  # noqa: E402
from repro.frontend.ops_bridge import BRIDGE, REPRO_DOMAIN  # noqa: E402

#: The acceptance floor: bridged default-domain (standard ONNX) operators.
MIN_DEFAULT_OPS = 30


def collect() -> List[Dict[str, object]]:
    """One row per bridge: domain, op, summary, and conformance status."""
    rows: List[Dict[str, object]] = []
    for (domain, op), bridge in sorted(BRIDGE.items()):
        row: Dict[str, object] = {
            "op": op,
            "domain": domain or "(default)",
            "summary": bridge.summary,
            "case": domain == "" and op in CONFORMANCE_CASES,
            "fallbacks": None,
        }
        if row["case"]:
            try:
                _, report = import_model(CONFORMANCE_CASES[op]())
                row["fallbacks"] = report.num_fallbacks
            except Exception as exc:  # noqa: BLE001 - reported, not raised
                row["fallbacks"] = f"import error: {exc}"
        rows.append(row)
    return rows


def check(rows: Optional[List[Dict[str, object]]] = None,
          min_ops: int = MIN_DEFAULT_OPS) -> List[str]:
    """Return a list of problems (empty when coverage is healthy)."""
    rows = collect() if rows is None else rows
    problems: List[str] = []

    default_ops = {r["op"] for r in rows if r["domain"] == "(default)"}
    if len(default_ops) < min_ops:
        problems.append(
            f"only {len(default_ops)} default-domain ops bridged "
            f"(floor is {min_ops})")

    for row in rows:
        if row["domain"] != "(default)":
            continue
        if not row["case"]:
            problems.append(
                f"bridged op {row['op']} has no conformance case")
        elif row["fallbacks"] != 0:
            problems.append(
                f"conformance case for {row['op']} does not import cleanly: "
                f"{row['fallbacks']}")

    stale = set(CONFORMANCE_CASES) - default_ops
    for op in sorted(stale):
        problems.append(
            f"conformance case {op} covers an op that is no longer bridged")
    return problems


def markdown_table(rows: Optional[List[Dict[str, object]]] = None) -> str:
    """The per-op coverage table as GitHub-flavoured markdown."""
    rows = collect() if rows is None else rows
    default_rows = [r for r in rows if r["domain"] == "(default)"]
    repro_rows = [r for r in rows if r["domain"] != "(default)"]

    def status(row: Dict[str, object]) -> str:
        if not row["case"]:
            return ":x: no case" if row["domain"] == "(default)" else "n/a"
        return (":white_check_mark:" if row["fallbacks"] == 0
                else f":x: {row['fallbacks']}")

    lines = [
        "## ONNX importer coverage",
        "",
        f"{len(default_rows)} standard ONNX ops bridged "
        f"(floor: {MIN_DEFAULT_OPS}), "
        f"{len(repro_rows)} `{REPRO_DOMAIN}` round-trip ops.",
        "",
        "| Op | Domain | Conformance | Bridge behaviour |",
        "|---|---|---|---|",
    ]
    for row in default_rows + repro_rows:
        lines.append(f"| `{row['op']}` | {row['domain']} | {status(row)} "
                     f"| {row['summary']} |")
    return "\n".join(lines) + "\n"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--min-ops", type=int, default=MIN_DEFAULT_OPS,
                        help="minimum bridged default-domain op count "
                             f"(default: {MIN_DEFAULT_OPS})")
    parser.add_argument("--markdown", action="store_true",
                        help="print the coverage table as markdown")
    parser.add_argument("--output", type=Path, default=None, metavar="PATH",
                        help="also write the markdown table to PATH "
                             "(e.g. $GITHUB_STEP_SUMMARY)")
    args = parser.parse_args(argv)

    rows = collect()
    table = markdown_table(rows)
    if args.markdown:
        print(table)
    if args.output is not None:
        with open(args.output, "a", encoding="utf-8") as fh:
            fh.write(table)

    problems = check(rows, min_ops=args.min_ops)
    if problems:
        print("importer coverage gate FAILED:", file=sys.stderr)
        for problem in problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    default_count = sum(1 for r in rows if r["domain"] == "(default)")
    print(f"importer coverage OK: {default_count} default-domain ops, "
          f"all conformance cases import cleanly")
    return 0


if __name__ == "__main__":
    sys.exit(main())
