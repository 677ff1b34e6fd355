"""Baseline optimisers: TASO (greedy backtracking), Tensat (equality
saturation), PET (partially-equivalent transformations) and random search."""

from .result import SearchResult
from .greedy import GreedyOptimizer, TASOOptimizer
from .egraph import GraphSpace, Member, SaturationStats
from .tensat import TensatOptimizer
from .pet import ConvToWinogradGemm, PETOptimizer, pet_ruleset
from .random_search import RandomSearchOptimizer

__all__ = [
    "SearchResult",
    "GreedyOptimizer", "TASOOptimizer",
    "GraphSpace", "Member", "SaturationStats", "TensatOptimizer",
    "ConvToWinogradGemm", "PETOptimizer", "pet_ruleset",
    "RandomSearchOptimizer",
    "get_optimiser", "available_optimisers",
]


def get_optimiser(name: str, **config):
    """Instantiate a registered optimiser by name.

    Thin hookup into :mod:`repro.service.registry` (imported lazily so the
    search package stays importable on its own) — the same dispatch the
    optimisation service uses for its jobs.
    """
    from ..service.registry import create_optimiser
    return create_optimiser(name, **config)


def available_optimisers():
    """Names accepted by :func:`get_optimiser` and the optimisation service."""
    from ..service.registry import list_optimisers
    return list_optimisers()
