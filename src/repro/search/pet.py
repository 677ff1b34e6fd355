"""Simplified PET baseline: partially-equivalent transformations.

PET extends TASO's fully-equivalent rewrites with *partially equivalent*
transformations plus automatically generated correction kernels, and uses a
cost model that — as the paper notes — ignores element-wise operators
entirely.  We reproduce both properties:

* an extra rewrite family (:class:`ConvToWinogradGemm`) that switches
  eligible dense 3x3 convolutions to a faster algorithm at the price of a
  correction kernel (an element-wise epilogue that PET's own cost model does
  not even see),
* a :class:`~repro.cost.cost_model.CostModel` configured with
  ``ignore_elementwise=True``.

This is enough to reproduce the qualitative behaviour of the paper's Table 2:
the partially-equivalent trick wins on ResNet-18 (plain dense convolutions)
and backfires on ResNeXt-50 (grouped convolutions are not eligible, and the
element-wise-blind cost model misjudges the correction overhead).
"""

from __future__ import annotations

from typing import List, Optional

from ..cost.cost_model import CostModel
from ..cost.e2e import LatencySource
from ..ir.graph import Graph
from ..ir.ops import OpType
from ..rules.base import Match, RewriteRule, RuleSet, replace_all_uses, eliminate_dead_nodes
from ..rules.rulesets import default_ruleset
from .greedy import TASOOptimizer

__all__ = ["ConvToWinogradGemm", "PETOptimizer", "pet_ruleset"]


class ConvToWinogradGemm(RewriteRule):
    """Switch a dense 3x3, stride-1 convolution to a Winograd-style algorithm.

    The transformed convolution performs ~4x fewer multiplications but is
    only *partially* equivalent (numerical error at tile boundaries), so a
    correction Add with a small constant tensor is appended, as PET's
    correction-kernel generator would.
    """

    name = "conv-to-winograd"
    category = "partial"
    exactly_equivalent = False

    #: Dense convolution variants eligible for the Winograd algorithm
    #: (grouped/depthwise convolutions are not).
    _CONV_OPS = (OpType.CONV2D, OpType.FUSED_CONV_BN, OpType.FUSED_CONV_RELU,
                 OpType.FUSED_CONV_BN_RELU)
    anchor_ops = _CONV_OPS

    def find_matches(self, graph: Graph) -> List[Match]:
        """Dense stride-1 convolutions with a 3x3 kernel that do not use
        the Winograd algorithm yet, one match (``conv``) apiece."""
        matches = []
        for nid, node in self.anchor_nodes(graph):
            if node.attrs.get("algorithm") == "winograd":
                continue
            if int(node.attrs.get("stride", 1)) != 1:
                continue
            edges = graph.in_edges(nid)
            if len(edges) < 2:
                continue
            w_shape = graph.nodes[edges[1].src].output_spec.shape.dims
            if (w_shape[2], w_shape[3]) != (3, 3):
                continue
            matches.append(Match.create(self.name, {"conv": nid}))
        return matches

    def apply(self, graph: Graph, match: Match) -> Graph:
        """Replace the matched convolution by its Winograd variant plus a
        correction ``Add`` of a constant of the output's shape."""
        g = graph.copy()
        conv = match.node("conv")
        inputs = [(e.src, e.src_slot) for e in g.in_edges(conv)]
        attrs = dict(g.nodes[conv].attrs)
        attrs["algorithm"] = "winograd"
        fast = g.add_node(g.nodes[conv].op_type, inputs, attrs,
                          name=f"winograd_{conv}")
        out_shape = g.nodes[fast].output_spec.shape.dims
        correction = g.add_node(OpType.CONSTANT, (), {"shape": out_shape},
                                name=f"correction_{conv}")
        corrected = g.add_node(OpType.ADD, [(fast, 0), (correction, 0)],
                               name=f"corrected_{conv}")
        replace_all_uses(g, conv, corrected)
        # ``corrected`` consumes ``fast``; make sure we did not rewire that edge.
        g.rewire_input(corrected, 0, fast, 0)
        eliminate_dead_nodes(g)
        return g


def pet_ruleset() -> RuleSet:
    """TASO's rules plus PET's partially-equivalent transformation."""
    return default_ruleset().extended([ConvToWinogradGemm()])


class PETOptimizer(TASOOptimizer):
    """Backtracking search over the PET rule set with PET's cost model.

    Identical search mechanics to :class:`TASOOptimizer`, with two
    PET-specific substitutions wired in by default:

    Parameters
    ----------
    ruleset:
        Defaults to :func:`pet_ruleset` — the curated TASO rules *plus*
        the partially-equivalent :class:`ConvToWinogradGemm` family.
    cost_model:
        Defaults to ``CostModel(ignore_elementwise=True)``, reproducing
        PET's element-wise-blind objective (so the correction kernels its
        partial rewrites introduce are invisible to the search — the
        paper's Table 2 failure mode on ResNeXt-50).
    e2e:
        The latency provider, for *reporting* true latency only.
    **kwargs:
        Forwarded to :class:`TASOOptimizer` (``alpha``,
        ``max_iterations``, ``queue_capacity``).
    """

    name = "pet"

    def __init__(self, ruleset: Optional[RuleSet] = None,
                 cost_model: Optional[CostModel] = None,
                 e2e: Optional[LatencySource] = None,
                 **kwargs):
        super().__init__(
            ruleset=ruleset or pet_ruleset(),
            cost_model=cost_model or CostModel(ignore_elementwise=True),
            e2e=e2e,
            **kwargs,
        )
