"""X-RLflow core: configuration and the optimiser API.

The optimiser API (:class:`XRLflow`) sits at the top of the dependency
graph — it imports the RL stack, which imports the rewrite substrate,
which in turn uses the low-level utilities in this package
(:class:`LRUCache`).  Importing it eagerly here would make
``repro.core.lru`` unimportable from below, so it and
:data:`OptimisationResult` are loaded lazily on first attribute access
(PEP 562).
"""

from .config import PAPER_TABLE4, XRLflowConfig
from .lru import LRUCache

__all__ = [
    "PAPER_TABLE4", "XRLflowConfig", "LRUCache",
    "OptimisationResult", "XRLflow",
]

_LAZY = {
    "OptimisationResult": "xrlflow",
    "XRLflow": "xrlflow",
}


def __getattr__(name):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    module = import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value
