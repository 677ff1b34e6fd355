"""The X-RLflow actor-critic agent and its PPO-clip update.

Architecture (Figure 3 of the paper):

* the meta-graph (current graph + all candidates) is encoded by the GNN into
  one embedding per graph,
* the *policy head* scores each candidate by looking at its embedding next to
  the current graph's embedding (the No-Op action is scored as "keep the
  current graph"), producing a categorical distribution after invalid-action
  masking,
* the *value head* estimates the state value from the current graph's
  embedding and the mean candidate embedding.

The update is the PPO clip objective (Eq. 3–5): policy surrogate + value MSE
+ entropy bonus, optimised end-to-end with Adam.

Performance notes:

* ``forward`` is fully vectorised — pair rows are gathered for all actions
  at once and the per-candidate logits land in the padded action space via
  one ``scatter_into`` (the seed implementation rebuilt the padded vector
  with an O(A²) ``list.index`` loop of 1-element tensors);
* ``evaluate_actions_batch`` runs a whole PPO minibatch through a *single*
  encoder forward over one :class:`~repro.nn.gnn.BatchedGraphs` (the
  meta-graph machinery batches arbitrary graph sets, so batching across
  transitions is the same trick as batching candidates within one) — and
  that batch is a *delta batch*: each observation's current graph in full,
  each candidate as its rewrite cone only
  (:func:`~repro.rl.features.build_delta_batch`), so forward and backward
  run over the rows a rewrite can change, not over ~25 copies of the graph;
* rollout ``act()`` runs the same encoder over the same delta batch under
  :func:`~repro.nn.tensor.no_grad`, so exploration builds no autograd tape
  and the update re-uses the batch the rollout assembled — and memoises the
  policy output per observation object (the environment returns the *same*
  observation for a re-visited state), invalidated on every weight update;
* the agent, its encoder and the update run at float32, the engine's one
  precision; only the sampling distribution is normalised in float64.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..core.lru import LRUCache
from ..nn.gnn import GraphEmbeddingNetwork
from ..nn.layers import MLP, Module
from ..nn.optim import Adam, clip_grad_norm
from ..nn.tensor import Tensor, concat, no_grad
from .buffer import RolloutBuffer
from .embed import IncrementalEmbedder
from .env import Observation
from .features import (EDGE_FEATURE_DIM, GLOBAL_FEATURE_DIM, NODE_FEATURE_DIM,
                       build_meta_graph, combine_meta_graphs)

__all__ = ["ActionDecision", "XRLflowAgent", "PPOUpdater"]

_MASK_VALUE = -1e9


def _pair_indices(num_graphs: int, offset: int, num_actions: int
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index arrays describing one observation's policy-head inputs.

    For an observation whose meta-graph occupies embedding rows
    ``offset .. offset + num_graphs - 1`` (current graph first), returns
    ``(first, second, positions)`` where row ``i`` of the policy input is
    ``[emb[first[i]] || emb[second[i]]]`` and its logit belongs at action
    index ``positions[i]``.  The final row is the No-Op action ("stay on the
    current graph"), scored at the last slot of the padded action space.
    """
    count = num_graphs  # one row per candidate plus the No-Op row
    first = np.full(count, offset, dtype=np.int64)
    second = np.empty(count, dtype=np.int64)
    second[:count - 1] = offset + 1 + np.arange(count - 1, dtype=np.int64)
    second[count - 1] = offset
    positions = np.empty(count, dtype=np.int64)
    positions[:count - 1] = np.arange(count - 1, dtype=np.int64)
    positions[count - 1] = num_actions - 1
    return first, second, positions


def _meta_graph_nodes(observation: Observation) -> int:
    """Nodes of the observation's meta-graph, without assembling it."""
    return sum(len(graph.nodes) for graph in observation.graphs)


@dataclass
class ActionDecision:
    """The agent's output for one observation."""

    action: int
    log_prob: float
    value: float
    probabilities: np.ndarray


class XRLflowAgent(Module):
    """GNN encoder + policy head + value head."""

    def __init__(self, hidden_dim: int = 64, embedding_dim: int = 64,
                 num_gat_layers: int = 5,
                 head_sizes: Sequence[int] = (256, 64),
                 seed: int = 0):
        rng = np.random.default_rng(seed)
        self.encoder = GraphEmbeddingNetwork(
            node_dim=NODE_FEATURE_DIM, edge_dim=EDGE_FEATURE_DIM,
            global_dim=GLOBAL_FEATURE_DIM, hidden_dim=hidden_dim,
            embedding_dim=embedding_dim, num_gat_layers=num_gat_layers,
            seed=seed)
        head_sizes = list(head_sizes)
        self.policy_head = MLP([2 * embedding_dim] + head_sizes + [1], rng=rng)
        self.value_head = MLP([2 * embedding_dim] + head_sizes + [1], rng=rng)
        self.embedding_dim = embedding_dim
        self._rng = np.random.default_rng(seed + 1)
        #: Policy output per observation *object*: id -> (observation,
        #: probabilities, value).  The policy is a deterministic function of
        #: (weights, observation), so while the weights are frozen — every
        #: rollout between PPO updates, every evaluation episode — a
        #: re-visited observation costs a dict lookup instead of a GNN
        #: forward.  Holding the observation keeps its id from being reused;
        #: :meth:`invalidate_decision_cache` drops everything when the
        #: weights change.
        # Sized to the environment's own observation cache: once the env
        # evicts an observation, its object id can never hit here again, so
        # a larger bound would only pin dead meta-graphs.
        self._decision_cache = LRUCache(512, name="decision")
        self.embedder = IncrementalEmbedder(self.encoder)

    def invalidate_decision_cache(self) -> None:
        """Drop memoised policy outputs (call whenever weights change)."""
        self._decision_cache.clear()

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load parameters and drop everything memoised under the old ones."""
        super().load_state_dict(state)
        self.invalidate_decision_cache()

    # ------------------------------------------------------------------
    def forward(self, observation: Observation) -> Tuple[Tensor, Tensor]:
        """Return (masked logits over the padded action space, state value).

        Encodes the full meta-graph (:func:`build_meta_graph`, every graph
        in full): the reference :meth:`act` and
        :meth:`evaluate_actions_batch` are held to.
        """
        meta_graph = build_meta_graph(observation.graphs,
                                      cache=observation.feature_cache)
        embeddings = self.encoder(meta_graph)  # [1 + C, D]
        return self._heads(embeddings, observation)

    def _heads(self, embeddings: Tensor,
               observation: Observation) -> Tuple[Tensor, Tensor]:
        """Policy and value heads on the encoded meta-graph.

        Split out of :meth:`forward` so :meth:`act` can feed the delta
        batch's embeddings through the identical head computation.
        """
        num_graphs = len(observation.graphs)
        num_actions = observation.action_mask.shape[0]

        first, second, positions = _pair_indices(num_graphs, 0, num_actions)
        pair_matrix = concat([embeddings.gather_rows(first),
                              embeddings.gather_rows(second)], axis=1)
        logits = self.policy_head(pair_matrix).reshape(num_graphs)
        # Pad to the fixed action-space size: candidate logits occupy the
        # first C slots, the No-Op logit the final slot, everything else
        # the mask value.  One O(C) scatter, gradient is a plain gather.
        masked_logits = logits.scatter_into(
            (num_actions,), positions, fill=_MASK_VALUE)
        # Any candidate slot the environment marked invalid is masked too.
        invalid = ~observation.action_mask
        if invalid.any():
            masked_logits = masked_logits + Tensor(
                np.where(invalid, _MASK_VALUE, 0.0))

        # Value estimate from the current graph and the mean candidate
        # embedding.
        current_b = embeddings[0:1].reshape(self.embedding_dim)
        if num_graphs > 1:
            mean_candidate = embeddings[1:num_graphs].mean(axis=0)
        else:
            mean_candidate = current_b
        value_input = concat([current_b, mean_candidate], axis=0).reshape(1, -1)
        value = self.value_head(value_input).reshape(1)
        return masked_logits, value

    # ------------------------------------------------------------------
    def act(self, observation: Observation,
            deterministic: bool = False) -> ActionDecision:
        """Sample (or argmax) an action from the masked policy.

        Runs under :func:`~repro.nn.tensor.no_grad`: rollouts never
        backpropagate through the decision.  The observation is encoded as
        its delta batch (the one :meth:`evaluate_actions_batch` trains on),
        which gives :meth:`forward`'s embeddings.  The masked distribution
        and value are memoised per observation object until the next weight
        update; sampling still draws from the generator on every call, so
        cached and uncached rollouts consume the rng identically.
        """
        entry = self._decision_cache.get(id(observation))
        if entry is not None and entry[0] is observation:
            _, probs, value_f = entry
        else:
            if entry is not None:
                # A dead observation's id was recycled; drop the stale row.
                self._decision_cache.pop(id(observation))
            with no_grad():
                embeddings = Tensor(self.embedder.embed(observation))
                logits, value = self._heads(embeddings, observation)
            # ``Tensor.softmax``'s operations (shift by the max, exp, divide
            # by the sum) in float64: a float32 distribution would change
            # which action a seeded draw picks.
            shifted = logits.numpy().astype(np.float64)
            exp = np.exp(shifted - shifted.max(axis=0, keepdims=True))
            probs = exp / exp.sum(axis=0, keepdims=True)
            probs = probs / probs.sum()
            value_f = float(value.numpy()[0])
            self._decision_cache.put(
                id(observation), (observation, probs, value_f))
        if deterministic:
            action = int(np.argmax(probs))
        else:
            action = int(self._rng.choice(len(probs), p=probs))
        log_prob = float(np.log(probs[action] + 1e-12))
        return ActionDecision(action=action, log_prob=log_prob,
                              value=value_f, probabilities=probs)

    def evaluate_actions_batch(self, observations: Sequence[Observation],
                               actions: Sequence[int]
                               ) -> Tuple[Tensor, Tensor, Tensor]:
        """Differentiable (log-probs, values, entropies), each ``[B]``.

        Splices every *distinct* observation's delta batch
        (:meth:`~repro.rl.env.Observation.delta_batch`: candidates as
        rewrite cones, never fully encoded) into one
        :class:`~repro.nn.gnn.BatchedGraphs` and runs a *single* encoder
        forward for the whole minibatch — the GNN message passing is where
        nearly all the per-transition ops (and the autograd tape) used to
        go.  Duplicate observations (the environment memoises re-visited
        states, so one observation object can back several transitions) are
        encoded and head-evaluated once.  All embedding rows the heads need
        are pulled out of the combined matrix with *two* gathers — per-item
        slicing of the big matrix would allocate a full-size gradient
        buffer per item in the backward pass.  The head MLPs then run per
        observation with exactly the shapes the single-observation path
        uses: BLAS picks different kernels for different row counts
        (``M=1`` matmuls round differently from ``M=B``), so batching the
        *heads* would break the bit-for-bit equivalence with the
        one-observation-at-a-time evaluation
        (``tests/oracles/ppo_reference.py``) that the segment-kernel
        accumulation order guarantees for the encoder.
        """
        batch_size = len(observations)
        num_actions = observations[0].action_mask.shape[0]
        dim = self.embedding_dim

        # Deduplicate by object identity; transition i uses unique[slot[i]].
        unique: List[Observation] = []
        slots: List[int] = []
        positions_by_id: Dict[int, int] = {}
        for obs in observations:
            slot = positions_by_id.get(id(obs))
            if slot is None:
                slot = len(unique)
                positions_by_id[id(obs)] = slot
                unique.append(obs)
            slots.append(slot)

        # Each observation's batch is built once (memoised on it, so PPO
        # epochs re-use the arrays); splice them.
        num_layers = self.encoder.num_gat_layers
        pieces = [o.delta_batch(num_layers) for o in unique]
        combined, offsets = combine_meta_graphs(pieces)
        embeddings = self.encoder(combined)  # [sum G_u, D]

        # Group unique observations by meta-graph size.  Within a group
        # the head MLPs run on one stacked 3-D tensor: numpy's batched
        # matmul applies the identical per-slice kernel as the 2-D
        # single-observation path (same M/N/K), so every slice stays
        # bit-for-bit equal to the one-observation evaluation while the
        # whole group costs one set of ops.
        groups: Dict[int, List[int]] = {}
        for u, piece in enumerate(pieces):
            groups.setdefault(piece.num_graphs, []).append(u)

        group_logit_blocks: List[Tensor] = []
        group_value_blocks: List[Tensor] = []
        row_of_unique = np.empty(len(unique), dtype=np.int64)
        row_cursor = 0
        for count, members in groups.items():
            k = len(members)
            first = np.empty(k * count, dtype=np.int64)
            second = np.empty(k * count, dtype=np.int64)
            for j, u in enumerate(members):
                f, s, _ = _pair_indices(count, int(offsets[u]),
                                        num_actions)
                first[j * count:(j + 1) * count] = f
                second[j * count:(j + 1) * count] = s
                row_of_unique[u] = row_cursor + j
            row_cursor += k
            gathered_first = embeddings.gather_rows(first) \
                .reshape(k, count, dim)
            gathered_second = embeddings.gather_rows(second) \
                .reshape(k, count, dim)
            pair = concat([gathered_first, gathered_second], axis=2)
            logits = self.policy_head(pair).reshape(k, count)
            _, _, positions = _pair_indices(count, 0, num_actions)
            masked = logits.reshape(k * count).scatter_into(
                (k, num_actions),
                np.repeat(np.arange(k, dtype=np.int64), count),
                np.tile(positions, k),
                fill=_MASK_VALUE)
            invalid = ~np.stack([unique[u].action_mask for u in members])
            masked = masked + Tensor(np.where(invalid, _MASK_VALUE, 0.0))
            group_logit_blocks.append(masked)

            # Current-graph row and mean candidate embedding per member.
            current_rows = gathered_first[:, 0, :]          # [k, D]
            if count > 1:
                mean_candidates = \
                    gathered_second[:, :count - 1, :].mean(axis=1)
            else:
                mean_candidates = current_rows
            value_input = concat([current_rows, mean_candidates],
                                 axis=1).reshape(k, 1, 2 * dim)
            group_value_blocks.append(
                self.value_head(value_input).reshape(k))

        # Reassemble per-transition rows (duplicates reuse unique rows);
        # log-softmax, entropy and the chosen-action gather are row-wise.
        unique_logits = concat(group_logit_blocks, axis=0)   # [U, A]
        unique_values = concat(group_value_blocks, axis=0)   # [U]
        transition_rows = row_of_unique[np.asarray(slots, dtype=np.int64)]
        logit_matrix = unique_logits.gather_rows(transition_rows)
        log_probs = logit_matrix.log_softmax(axis=-1)        # [B, A]
        probs = log_probs.exp()
        entropy = -(probs * log_probs).sum(axis=1)           # [B]
        actions = np.asarray(actions, dtype=np.int64)
        chosen = log_probs[np.arange(batch_size), actions]   # [B]
        values = unique_values.gather_rows(transition_rows)  # [B]
        return chosen, values, entropy


@dataclass
class PPOUpdateStats:
    """Averages over one update's optimiser steps, plus its encoder work."""

    policy_loss: float
    value_loss: float
    entropy: float
    grad_norm: float
    #: Rows the encoder's message passing computed / rows its readout
    #: summed, over every forward of the update.  Equal when every graph is
    #: stored in full; the delta batch encodes a small share of what it
    #: pools.
    encoder_rows: int = 0
    pooled_rows: int = 0


class PPOUpdater:
    """PPO-clip optimiser for an :class:`XRLflowAgent`.

    Each minibatch is evaluated through
    :meth:`XRLflowAgent.evaluate_actions_batch` (the seed per-transition
    loop is the test oracle, ``tests/oracles/ppo_reference.py``).

    Minibatches whose observations sum to more than ``max_batch_nodes``
    meta-graph nodes (the rows their full meta-graphs would hold) are split
    into node-bounded chunks with gradient accumulation (each chunk's loss
    is scaled by ``1/B``, so the summed gradient equals the whole-minibatch
    mean exactly, up to float addition order).  The bound dates from full
    meta-graphs, whose activation arrays fell out of the CPU caches in one
    giant fused batch.  A delta batch holds no array that long, but the
    chunk boundaries stay where they were: moving or dropping them changes
    gradient bits, and with them every trajectory after the first update.
    """

    def __init__(self, agent: XRLflowAgent,
                 learning_rate: float = 5e-4,
                 clip_epsilon: float = 0.2,
                 value_coef: float = 0.5,
                 entropy_coef: float = 0.01,
                 epochs: int = 4,
                 batch_size: int = 16,
                 max_grad_norm: float = 0.5,
                 seed: int = 0,
                 max_batch_nodes: int = 8192):
        self.agent = agent
        self.optimizer = Adam(agent.parameters(), lr=learning_rate)
        self.clip_epsilon = float(clip_epsilon)
        self.value_coef = float(value_coef)
        self.entropy_coef = float(entropy_coef)
        self.epochs = int(epochs)
        self.batch_size = int(batch_size)
        self.max_grad_norm = float(max_grad_norm)
        self.max_batch_nodes = int(max_batch_nodes)
        self._rng = np.random.default_rng(seed)

    def update(self, buffer: RolloutBuffer) -> PPOUpdateStats:
        """Run PPO epochs over the buffer and return averaged statistics."""
        advantages, returns = buffer.finalise()
        stats = {"policy": 0.0, "value": 0.0, "entropy": 0.0, "grad": 0.0}
        updates = 0
        encoder = self.agent.encoder
        rows_before = (encoder.rows_encoded, encoder.rows_pooled)

        for _ in range(self.epochs):
            for batch_idx in buffer.minibatches(self.batch_size, self._rng):
                step = self._update_batched(buffer, batch_idx,
                                            advantages, returns)
                for key, value in step.items():
                    stats[key] += value
                updates += 1

        # The weights moved: memoised rollout decisions are stale.
        self.agent.invalidate_decision_cache()

        scale = 1.0 / max(updates, 1)
        return PPOUpdateStats(policy_loss=stats["policy"] * scale,
                              value_loss=stats["value"] * scale,
                              entropy=stats["entropy"] * scale,
                              grad_norm=stats["grad"] * scale,
                              encoder_rows=encoder.rows_encoded
                              - rows_before[0],
                              pooled_rows=encoder.rows_pooled
                              - rows_before[1])

    # ------------------------------------------------------------------
    def _node_bounded_chunks(self, buffer: RolloutBuffer,
                             batch_idx: np.ndarray) -> List[np.ndarray]:
        """Split a minibatch into runs of <= ``max_batch_nodes`` meta nodes.

        Duplicate observations inside a chunk are counted once — they are
        deduplicated before encoding.  An observation's size is read off
        its graphs, so sizing assembles no batch.
        """
        transitions = buffer.transitions
        chunks: List[np.ndarray] = []
        current: List[int] = []
        seen: set = set()
        nodes = 0
        for i in batch_idx:
            obs = transitions[i].observation
            cost = 0 if id(obs) in seen else _meta_graph_nodes(obs)
            if current and nodes + cost > self.max_batch_nodes:
                chunks.append(np.asarray(current))
                current, seen, nodes = [], set(), 0
                cost = _meta_graph_nodes(obs)
            current.append(int(i))
            seen.add(id(obs))
            nodes += cost
        if current:
            chunks.append(np.asarray(current))
        return chunks

    def _update_batched(self, buffer: RolloutBuffer, batch_idx: np.ndarray,
                        advantages: np.ndarray, returns: np.ndarray):
        """One optimiser step on a minibatch, one encoder forward per chunk.

        Each node-bounded chunk contributes ``chunk_loss_sum / B`` and is
        backpropagated immediately (gradient accumulation): the summed
        gradients equal the whole-minibatch mean-loss gradient by
        linearity, and each chunk's tape is freed before the next one runs.
        """
        self.optimizer.zero_grad()
        total_count = len(batch_idx)
        scale = 1.0 / total_count
        sums = {"policy": 0.0, "value": 0.0, "entropy": 0.0}
        for chunk in self._node_bounded_chunks(buffer, batch_idx):
            observations, actions, old_log_probs = buffer.gather(chunk)
            new_log_probs, values, entropies = self.agent.evaluate_actions_batch(
                observations, actions)
            adv = Tensor(advantages[chunk])
            ratio = (new_log_probs - Tensor(old_log_probs)).exp()
            surrogate1 = ratio * adv
            surrogate2 = ratio.clip(1 - self.clip_epsilon,
                                    1 + self.clip_epsilon) * adv
            # Elementwise min with the same subgradient choice as the
            # per-transition oracle (ties go to the unclipped surrogate).
            take_first = Tensor(
                (surrogate1.data <= surrogate2.data).astype(
                    surrogate1.data.dtype))
            policy_elements = -(surrogate1 * take_first
                                + surrogate2 * (1.0 - take_first))
            policy_sum = policy_elements.sum()
            value_sum = ((values - Tensor(returns[chunk])) ** 2).sum()
            entropy_sum = entropies.sum()
            total = (policy_sum + self.value_coef * value_sum
                     - self.entropy_coef * entropy_sum) * scale
            total.backward()
            sums["policy"] += float(policy_sum.numpy().sum())
            sums["value"] += float(value_sum.numpy().sum())
            sums["entropy"] += float(entropy_sum.numpy().sum())
        grad_norm = clip_grad_norm(self.optimizer.parameters, self.max_grad_norm)
        self.optimizer.step()
        return {"policy": sums["policy"] * scale,
                "value": sums["value"] * scale,
                "entropy": sums["entropy"] * scale,
                "grad": grad_norm}
