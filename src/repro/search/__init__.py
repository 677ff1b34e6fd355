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
]

