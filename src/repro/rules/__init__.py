"""TASO-style rewrite-rule substrate.

* :mod:`repro.rules.base` — rule/match/candidate framework and graph surgery helpers
* :mod:`repro.rules.rulesets` — the curated rule set

Whether a rewrite preserves values is checked by executing it:
:func:`repro.exec.differential_check` on the numpy executor.
"""

from .base import (Candidate, Match, RewriteRule, RuleSet,
                   eliminate_dead_nodes, replace_all_uses,
                   restricted_anchor_matching)
from .incremental import IncrementalCandidateEngine
from .rulesets import DEFAULT_RULE_CLASSES, default_ruleset, exact_ruleset

__all__ = [
    "Candidate", "Match", "RewriteRule", "RuleSet",
    "eliminate_dead_nodes", "replace_all_uses",
    "restricted_anchor_matching", "IncrementalCandidateEngine",
    "DEFAULT_RULE_CLASSES", "default_ruleset", "exact_ruleset",
]
