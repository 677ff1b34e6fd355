"""TASO-style rewrite-rule substrate.

* :mod:`repro.rules.base` — rule/match/candidate framework and graph surgery helpers
* :mod:`repro.rules.rulesets` — the curated rule set
* :mod:`repro.rules.interpreter` — reference numeric interpreter used for
  random-testing verification of rewrites
"""

from .base import (Candidate, Match, RewriteRule, RuleSet,
                   eliminate_dead_nodes, replace_all_uses,
                   restricted_anchor_matching)
from .incremental import IncrementalCandidateEngine
from .interpreter import GraphInterpreter, execute_graph, graphs_equivalent
from .rulesets import DEFAULT_RULE_CLASSES, default_ruleset, exact_ruleset

__all__ = [
    "Candidate", "Match", "RewriteRule", "RuleSet",
    "eliminate_dead_nodes", "replace_all_uses",
    "restricted_anchor_matching", "IncrementalCandidateEngine",
    "GraphInterpreter", "execute_graph", "graphs_equivalent",
    "DEFAULT_RULE_CLASSES", "default_ruleset", "exact_ruleset",
]
