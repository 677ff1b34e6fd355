"""The few estimators the benchmark uses, in one place.

Estimator rule: every timed operation is bracketed by two host probes (a
fixed few milliseconds of interpreter work, ``xbench.host.HostProbe``) and
its wall-clock is scaled by ``REFERENCE_S / probe`` — a constant over the
mean of the two probes around the operation — to what it would have taken
on a host of the reference speed.  A row that repeats deterministic work
reports the **median** of its scaled samples; the quartiles, the minimum
and the sample count are printed beside it.  On a shared host the noise is a multiplicative speed that holds for a
second or two and then jumps; a probe next to the operation sees the same
speed, a minimum over five repeats only sometimes does
(``xbench/README.md`` has the measurements).
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Sequence

__all__ = ["geomean", "quartiles", "spread", "summary"]


def geomean(values: Iterable[float]) -> float:
    values = list(values)
    if not values or any(v <= 0 for v in values):
        return float("nan")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, median, q3]`` as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own quartiles."""
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 for one value)."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def summary(values: Sequence[float]) -> Dict[str, float]:
    q1, median, q3 = quartiles(values)
    return {"min": min(values), "q1": q1, "median": median, "q3": q3,
            "n": len(values)}
