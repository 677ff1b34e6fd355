"""What the three ``BENCH_*.json`` benchmark files share: where a recording
goes and what it says about the host.

A run writes ``BENCH_<name>.json`` under :data:`OUTPUT_DIR`, which git
ignores, so running the benchmarks never touches a tracked file.  The
committed ``BENCH_*.json`` at the repo root are recordings someone chose to
keep: ``cp .bench_out/BENCH_search.json .`` and commit.  CI gates a fresh
``.bench_out/`` file against the committed one (``tools/check_bench.py``).
"""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path

#: Where recordings are written; listed in ``.gitignore``.
OUTPUT_DIR = Path(__file__).resolve().parents[1] / ".bench_out"


def record(name: str, section: str, payload: dict, smoke: bool) -> None:
    """Merge one section into this run's ``BENCH_<name>.json``.

    Sections accumulate over a session (each benchmark test records one);
    the ``host`` block and the ``smoke`` flag describe the latest writer.
    """
    path = OUTPUT_DIR / f"BENCH_{name}.json"
    data = {"benchmark": name, "schema": 1, "results": {}}
    if path.exists():
        try:
            data = json.loads(path.read_text())
        except (ValueError, OSError):
            pass
    data.setdefault("results", {})[section] = payload
    data["smoke"] = smoke
    data["host"] = {"cores": os.cpu_count() or 1,
                    "python": platform.python_version(),
                    "platform": platform.platform()}
    OUTPUT_DIR.mkdir(exist_ok=True)
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
