"""The RL environment as it was before rewrite cones were handed down from
step to step: every candidate it shows is materialised (its rule applied to
a copy of the current graph) and its cone derived from that graph.

``EagerEnv`` is the oracle the lazy environment's trajectories are pinned
against, and :func:`materialised_delta_batch` the per-observation one
(``tests/rl/test_cone_reuse.py``).
"""

from delta_batch_reference import reference_delta_batch

from repro.rl import GraphRewriteEnv
from repro.rules.base import Candidate

__all__ = ["EagerEnv", "materialised_delta_batch"]


class EagerEnv(GraphRewriteEnv):
    """Forgets every handed-down cone and apply failure before looking at
    a candidate, so each shown candidate is applied and batched from its
    own graph."""

    def _applies(self, candidate):
        candidate.outcome = candidate.error = None
        return candidate.materialise() is not None


def materialised_delta_batch(observation, ruleset, num_layers):
    """``observation``'s delta batch from scratch: every candidate's match
    applied again to the current graph, the batch assembled one candidate's
    arrays at a time by :func:`reference_delta_batch`."""
    current = observation.current
    graphs = [Candidate(rule=ruleset.rule(c.rule_name), match=c.match,
                        parent=current).graph
              for c in observation.candidates]
    return reference_delta_batch([current] + graphs, num_layers,
                                 observation.feature_cache.edge_norm)
