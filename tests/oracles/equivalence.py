"""The one value-equivalence assertion the rewrite suites make.

``differential_check`` executes both graphs on shared random inputs; a
comparison that ran any node through the executor's pass-through fallback
proves nothing about that node, so it fails here as well.
"""

from typing import Optional

from repro.exec import NumpyExecutor, differential_check
from repro.ir import Graph

__all__ = ["assert_equivalent"]


def assert_equivalent(before: Graph, after: Graph,
                      executor: Optional[NumpyExecutor] = None) -> None:
    """``before`` and ``after`` compute the same outputs, with every node
    executed by a kernel."""
    report = differential_check(before, after, executor=executor)
    assert report.equivalent, report.problems
    assert not report.fallback_ops, report.fallback_ops
