"""Optimiser registry: dispatch optimisers by *name* with default configs.

The serving layer describes jobs as plain data — graph + optimiser name +
config dict — so that requests can be fingerprinted, cached, queued and
executed by any worker.  That requires a level of indirection between the
name and the search class: this registry.  Every optimiser in
:mod:`repro.search` plus the X-RLflow agent is pre-registered; downstream
code can add its own via :func:`register_optimiser`.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Dict, FrozenSet, List, Mapping, Optional

from ..core.config import HARNESS_PRESET, XRLflowConfig

__all__ = ["OptimiserSpec", "register_optimiser", "optimiser_spec",
           "create_optimiser", "default_config", "list_optimisers"]


def _accepted_keys(factory: Callable[..., Any]) -> Optional[FrozenSet[str]]:
    """Keyword names ``factory`` takes; ``None`` when it takes any.

    A class whose ``__init__`` forwards ``**kwargs`` to its base
    (``GreedyOptimizer``, ``PETOptimizer``) takes the base's names too.
    """
    if isinstance(factory, type):
        # Not ``object.__init__``: it takes none, whatever its signature says.
        chain = [vars(cls)["__init__"] for cls in factory.__mro__[:-1]
                 if "__init__" in vars(cls)]
    else:
        chain = [factory]
    keys, takes_any = set(), False
    for fn in chain:
        params = inspect.signature(fn).parameters.values()
        keys.update(p.name for p in params
                    if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY))
        takes_any = any(p.kind is p.VAR_KEYWORD for p in params)
        if not takes_any:
            break
    return None if takes_any else frozenset(keys - {"self"})


@dataclass(frozen=True)
class OptimiserSpec:
    """One registry entry: how to build an optimiser and its default knobs."""

    name: str
    factory: Callable[..., Any]
    defaults: Mapping[str, Any] = field(default_factory=dict)
    description: str = ""
    #: Config keys the factory takes (``None``: any), read off its
    #: signature once, at registration.
    accepted: Optional[FrozenSet[str]] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "accepted", _accepted_keys(self.factory))

    def check_config(self, config: Mapping[str, Any]) -> None:
        """Raise ``ValueError`` for a config key the factory does not take.

        Admission calls this, so a misspelt or retired key is refused with
        the accepted names before any worker is involved.
        """
        if self.accepted is None or self.accepted.issuperset(config):
            return
        unknown = min(set(config) - self.accepted)
        raise ValueError(
            f"unknown config key {unknown!r} for optimiser {self.name!r}; "
            f"accepted: {', '.join(sorted(self.accepted))}")

    def create(self, **overrides: Any) -> Any:
        """Build a fresh optimiser instance with ``defaults | overrides``."""
        config = {**self.defaults, **overrides}
        return self.factory(**config)


_REGISTRY: Dict[str, OptimiserSpec] = {}


def register_optimiser(name: str, factory: Callable[..., Any],
                       defaults: Mapping[str, Any] = None,
                       description: str = "",
                       replace: bool = False) -> OptimiserSpec:
    """Register ``factory`` under ``name`` (case-insensitive).

    Raises ``ValueError`` if the name is taken, unless ``replace=True``.
    """
    key = str(name).lower()
    if key in _REGISTRY and not replace:
        raise ValueError(
            f"optimiser {name!r} is already registered "
            f"(pass replace=True to override)")
    spec = OptimiserSpec(name=key, factory=factory,
                         defaults=dict(defaults or {}),
                         description=description)
    _REGISTRY[key] = spec
    return spec


def optimiser_spec(name: str) -> OptimiserSpec:
    """Look up a registry entry; ``KeyError`` lists the available names."""
    key = str(name).lower()
    if key not in _REGISTRY:
        raise KeyError(
            f"unknown optimiser {name!r}; available: {sorted(_REGISTRY)}")
    return _REGISTRY[key]


def create_optimiser(name: str, **overrides: Any) -> Any:
    """Build a fresh optimiser by name.

    Search objects are stateful (priority queues, e-graph populations, RL
    agents), so callers construct one per job/worker rather than sharing.
    """
    return optimiser_spec(name).create(**overrides)


def default_config(name: str) -> Dict[str, Any]:
    """The registered default config for ``name`` (a copy, safe to mutate)."""
    return dict(optimiser_spec(name).defaults)


def list_optimisers() -> List[str]:
    """Sorted names of every registered optimiser."""
    return sorted(_REGISTRY)


def _build_xrlflow(e2e=None, **config):
    """Factory adapting config-dict kwargs to the XRLflow(config) signature."""
    from ..core.xrlflow import XRLflow
    return XRLflow(XRLflowConfig.fast(**config), e2e=e2e)


# ``config`` is XRLflowConfig's fields: declare that where
# ``inspect.signature`` looks, so admission refuses anything else.
_build_xrlflow.__signature__ = inspect.Signature(
    [inspect.Parameter(name, inspect.Parameter.KEYWORD_ONLY, default=None)
     for name in ("e2e", *(f.name for f in fields(XRLflowConfig)))])


def _register_builtins() -> None:
    from ..search.greedy import GreedyOptimizer, TASOOptimizer
    from ..search.pet import PETOptimizer
    from ..search.random_search import RandomSearchOptimizer
    from ..search.tensat import TensatOptimizer

    register_optimiser(
        "taso", TASOOptimizer,
        {"alpha": 1.05, "max_iterations": 100, "queue_capacity": 200},
        "TASO cost-model-driven backtracking search")
    register_optimiser(
        "greedy", GreedyOptimizer,
        {"max_iterations": 100},
        "pure greedy hill climbing (TASO with alpha=1)")
    register_optimiser(
        "tensat", TensatOptimizer,
        {"node_limit": 20000, "round_limit": 6, "multi_pattern_rounds": 1},
        "Tensat equality saturation over a bounded rewrite space")
    register_optimiser(
        "pet", PETOptimizer,
        {"max_iterations": 100},
        "PET partially-equivalent transformations")
    register_optimiser(
        "random", RandomSearchOptimizer,
        {"num_walks": 5, "horizon": 30, "seed": 0},
        "random-walk baseline")
    register_optimiser(
        "xrlflow", _build_xrlflow, HARNESS_PRESET,
        "X-RLflow graph-RL superoptimiser (fast training config)")


_register_builtins()
