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


#: What this process has recorded, per file: the first :func:`record` of a
#: file in a process starts it afresh.
_RECORDINGS: dict = {}


def record(name: str, section: str, payload: dict, smoke: bool) -> None:
    """Add one section to this run's ``BENCH_<name>.json``.

    Sections accumulate over one process (each benchmark test records
    one), and only over it: a section an earlier, deselected or other-mode
    run left in the file does not survive under this run's ``smoke`` flag
    and ``host`` block.
    """
    path = OUTPUT_DIR / f"BENCH_{name}.json"
    data = _RECORDINGS.setdefault(
        path, {"benchmark": name, "schema": 1, "results": {}})
    data["results"][section] = payload
    data["smoke"] = smoke
    data["host"] = host()
    OUTPUT_DIR.mkdir(exist_ok=True)
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


#: The BLAS thread-count variables a recording notes: a GEMM timed on two
#: BLAS threads while the other vCPU is busy reads 12-24 ms instead of
#: 0.5 ms (``docs/executor.md``, "BLAS threads").
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                         "MKL_NUM_THREADS")


def host() -> dict:
    """What a recording says about the machine that made it: cores,
    interpreter, platform, and each of :data:`BLAS_THREAD_VARIABLES` as
    the run saw it (``""`` when unset: BLAS was not pinned)."""
    return {"cores": os.cpu_count() or 1,
            "python": platform.python_version(),
            "platform": platform.platform(),
            **{name: os.environ.get(name, "")
               for name in BLAS_THREAD_VARIABLES}}
