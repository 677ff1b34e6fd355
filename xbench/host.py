"""The host: what it is, and how its changing speed is taken out of a time.

Numbers from different boxes are different series.  ``host_spin_s`` in the
block written next to every set of results is a fixed amount of work (a
pure-Python loop plus a 256³ matmul) timed five times: its minimum places
the box, and its spread says whether the box was quiet enough for a
recording to mean anything.  Within a run, :class:`HostProbe` brackets every
timed operation and :func:`steady` scales the operation by it.
"""

from __future__ import annotations

import gc
import os
import platform
import subprocess
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

from xbench.stats import spread

__all__ = ["host_block", "spin_samples", "NOISE_LIMIT", "HostProbe",
           "Sample", "steady", "pin_cpu", "pin_environment"]

#: ``--record`` is refused when the spin samples spread wider than this.
NOISE_LIMIT = 0.10

#: One BLAS thread, no persisted device preset.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1", "REPRO_DEVICE_PRESET": "off"}


def pin_environment(env: Dict[str, str]) -> None:
    """Set :data:`PINNED` in ``env``: before numpy is imported."""
    env.update(PINNED)


def pin_cpu() -> None:
    """Keep this process on one CPU, so a probe and the operation it
    brackets see the same one.

    Virtual CPUs of a shared host change speed independently of each other
    (measured: 0.1 correlation between the two of the builder's), and the
    service runs a search on a worker thread the kernel may place on the
    other one.  Python threads take turns under the interpreter lock
    anyway, so one CPU takes nothing from the two-client traffic.
    """
    if hasattr(os, "sched_setaffinity"):
        allowed = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {allowed[os.getpid() % len(allowed)]})


class HostProbe:
    """A fixed few milliseconds of interpreter work — arithmetic, then
    allocation, hashing and sorting, the mix a graph search has — run
    before and after every timed operation.

    The host's speed moves between plateaus up to 2x apart that last a
    second or two, and whole quarter hours run a sixth slower than others.
    ``wall * REFERENCE_S / probe`` is what the operation would have taken on
    a host where this probe takes ``REFERENCE_S``: see :func:`steady`.
    """

    #: The probe on the builder's host at its best; the unit of every
    #: scaled time.  Fixed, so that it is no estimate and adds no noise.
    REFERENCE_S = 0.004
    SPIN = 60_000
    ALLOCATIONS = 6_000

    def __init__(self) -> None:
        self.samples: List[float] = []

    def __call__(self) -> float:
        # What a collector pass would walk differs from call to call (the
        # heap after imports, a pass's results): not the host's speed.
        collecting = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter()
            total = 0
            for i in range(self.SPIN):
                total += i * i
            table = {}
            for i in range(self.ALLOCATIONS):
                table[(i, str(i))] = [i, i + 1, (i,)]
            for key in sorted(table, key=lambda key: key[1]):
                total ^= hash(key)
            elapsed = time.perf_counter() - started
        finally:
            if collecting:
                gc.enable()
        self.samples.append(elapsed)
        return elapsed


#: One timed operation: ``(wall seconds, mean of the probes around it)``.
Sample = Tuple[float, float]


def steady(sample: Sample) -> float:
    """The sample's wall on a host of the reference speed."""
    wall, host = sample
    return wall * HostProbe.REFERENCE_S / host


def _spin_once() -> float:
    import numpy as np

    matrix = np.full((256, 256), 1.0 / 256)
    started = time.perf_counter()
    total = 0
    for i in range(20_000_000):
        total += i * i
    matrix @ matrix
    return time.perf_counter() - started


def spin_samples(repeats: int = 5) -> List[float]:
    return [_spin_once() for _ in range(repeats)]


def _blas() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        return "unknown"


def _commit(root: Path) -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def host_block(root: Path, seed: int) -> Dict[str, Any]:
    import numpy as np

    samples = spin_samples()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "pinned": {name: os.environ.get(name, "") for name in PINNED},
        "commit": _commit(root),
        "seed": seed,
        "host_spin_s": min(samples),
        "host_spin_spread": spread(samples),
        "host_spin_samples": samples,
    }
