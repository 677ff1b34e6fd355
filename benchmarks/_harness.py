"""What the three ``BENCH_*.json`` benchmark files share: where a recording
goes, what it says about the host, and how a wall-clock is sampled.

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
import time
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


def best_of(fn, repeats: int):
    """Minimum wall-clock over ``repeats`` runs (robust to scheduler noise).

    Returns the *best repeat's* result so any measurements riding along
    with it (e.g. per-stage timings) describe the same run as the reported
    wall-clock — a noisy repeat must not be able to poison a recorded stage
    breakdown while the headline uses the quiet one.
    """
    best_s, best_result = float("inf"), None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - started
        if elapsed < best_s:
            best_s, best_result = elapsed, result
    return best_s, best_result
