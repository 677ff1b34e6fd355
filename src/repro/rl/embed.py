"""Rollout embedding: the encoder's one forward over the delta batch.

Every environment step shows the agent a meta-graph of ~25 graphs that
differ from the current graph by a handful of nodes each.  The observation
carries them as a *delta batch* (:func:`~repro.rl.features.build_delta_batch`:
the current graph's rows in full, each candidate as its rewrite cone), and
:class:`~repro.nn.gnn.GraphEmbeddingNetwork` encodes that batch exactly as it
encodes the full meta-graph, bit for bit.  Acting therefore needs
no encoder of its own: this module runs the one forward there is, without a
tape, over the batch the PPO update will train on later (memoised on the
observation, so it is assembled once).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..nn.gnn import GraphEmbeddingNetwork
from ..nn.tensor import no_grad

__all__ = ["IncrementalEmbedder"]


class IncrementalEmbedder:
    """``embed(observation)``: the encoder's output for an observation of the
    environment, as a plain float32 ndarray.

    Counts how the graphs it embedded were stored, as
    :func:`~repro.rl.features.build_delta_batch` decided it: candidates as
    cones (``delta_forwards``), current graphs in full (``full_forwards``),
    candidates of another lineage in full (``fallback_fulls``).  The class
    and key names predate the delta batch; the end-to-end benchmark's tracer
    binds them.
    """

    def __init__(self, encoder: GraphEmbeddingNetwork):
        self.encoder = encoder
        self.delta_forwards = 0
        self.full_forwards = 0
        self.fallback_fulls = 0

    def stats(self) -> Dict[str, float]:
        """How many graphs were embedded as a cone / in full / in full for
        want of a lineage, over every :meth:`embed` so far."""
        return {"embed_delta_forwards": float(self.delta_forwards),
                "embed_full_forwards": float(self.full_forwards),
                "embed_fallback_fulls": float(self.fallback_fulls)}

    def embed(self, observation) -> np.ndarray:
        """``[num_graphs, embedding_dim]`` for an
        :class:`~repro.rl.env.Observation`, from its delta batch."""
        batch = observation.delta_batch(self.encoder.num_gat_layers)
        self.delta_forwards += batch.num_cones
        self.full_forwards += 1
        self.fallback_fulls += batch.num_graphs - 1 - batch.num_cones
        with no_grad():
            return self.encoder(batch).data
