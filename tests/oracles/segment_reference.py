"""``np.add.at`` oracle for ``repro.nn.tensor._scatter_add_rows``, compared
by ``tests/rl/test_incremental_features.py::TestSegmentKernels`` and swapped
in (``monkeypatch.setattr(repro.nn.tensor, "_scatter_add_rows", add_at_rows)``)
by the composite rollout test there.

Both kernels add ``values[i]`` into row ``index[i]`` for ``i = 0..len-1`` in
that order, in double precision, and round once to ``values.dtype``, so
their results must be bit-for-bit equal in float32 and float64 alike.
"""

import numpy as np

__all__ = ["add_at_rows"]


def add_at_rows(values: np.ndarray, index: np.ndarray,
                num_rows: int) -> np.ndarray:
    """``out[index[i]] += values[i]`` through the buffered ``ufunc.at``,
    accumulated in float64 and rounded once."""
    out = np.zeros((num_rows,) + values.shape[1:], dtype=np.float64)
    np.add.at(out, index, values)
    return out.astype(values.dtype)
