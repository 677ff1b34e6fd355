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

* the heads are one computation, ``_policy``, for one observation or a
  minibatch's: pair rows are gathered for all actions at once and the
  per-candidate logits land in the padded action space via one
  ``scatter_into``;
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
  policy output on the observation (the environment returns the *same*
  observation for a re-visited state), retired on every weight update;
* the agent, its encoder and the update run at float32, the engine's one
  precision; only the sampling distribution is normalised in float64.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

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
        #: Bumped on every weight change: a decision an observation holds
        #: (:meth:`act`) counts only under the version it was made at.
        self._weights_version = 0
        self.embedder = IncrementalEmbedder(self.encoder)

    def invalidate_decisions(self) -> None:
        """Retire every memoised decision (call whenever weights change)."""
        self._weights_version += 1

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load parameters and retire everything memoised under the old ones."""
        super().load_state_dict(state)
        self.invalidate_decisions()

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
        logits, values = self._policy(embeddings, [observation],
                                      np.zeros(1, dtype=np.int64))
        return logits.reshape(observation.num_actions), values

    def _policy(self, embeddings: Tensor, observations: Sequence[Observation],
                offsets: np.ndarray) -> Tuple[Tensor, Tensor]:
        """Policy and value heads: (masked logits ``[U, A]``, values ``[U]``).

        Row ``u`` is ``observations[u]``'s, whose meta-graph (current graph
        first) holds embedding rows ``offsets[u]`` onwards.  A candidate is
        scored on ``[current || candidate]``, the No-Op action (the last
        slot) on ``[current || current]``; the value head reads the current
        graph next to the mean candidate embedding.

        Observations are grouped by meta-graph size, and within a group the
        head MLPs run on one stacked 3-D tensor: numpy's batched matmul
        applies the per-slice kernel a 2-D product of that slice's shape
        would (same M/N/K), so every row is bit-for-bit what its observation
        gives alone, whatever rides along.  Stacking *different* sizes into
        one 2-D product would not be: BLAS picks kernels by row count.
        """
        num_actions = observations[0].num_actions
        dim = self.embedding_dim
        groups: Dict[int, List[int]] = {}
        for u, obs in enumerate(observations):
            groups.setdefault(len(obs.graphs), []).append(u)

        logit_blocks: List[Tensor] = []
        value_blocks: List[Tensor] = []
        for count, members in groups.items():
            k = len(members)
            starts = offsets[members]
            # Each candidate's row, then the current graph's for the No-Op.
            seconds = np.append(np.arange(1, count, dtype=np.int64), 0)
            firsts = embeddings.gather_rows(np.repeat(starts, count)) \
                .reshape(k, count, dim)
            candidates = embeddings.gather_rows(
                (starts[:, None] + seconds[None, :]).ravel()) \
                .reshape(k, count, dim)
            pair = concat([firsts, candidates], axis=2)
            logits = self.policy_head(pair).reshape(k * count)
            # Candidate logits fill the first C slots, the No-Op logit the
            # last, everything else the mask value; slots the environment
            # marked invalid are masked too.
            positions = np.append(np.arange(count - 1, dtype=np.int64),
                                  num_actions - 1)
            masked = logits.scatter_into(
                (k, num_actions),
                np.repeat(np.arange(k, dtype=np.int64), count),
                np.tile(positions, k), fill=_MASK_VALUE)
            invalid = ~np.stack([observations[u].action_mask
                                 for u in members])
            logit_blocks.append(
                masked + Tensor(np.where(invalid, _MASK_VALUE, 0.0)))

            current = firsts[:, 0, :]                         # [k, D]
            mean_candidate = candidates[:, :count - 1, :].mean(axis=1) \
                if count > 1 else current
            value_input = concat([current, mean_candidate],
                                 axis=1).reshape(k, 1, 2 * dim)
            value_blocks.append(self.value_head(value_input).reshape(k))

        # Back to the order of ``observations``: a permutation gather.
        order = np.argsort(np.concatenate(list(groups.values())))
        return (concat(logit_blocks, axis=0).gather_rows(order),
                concat(value_blocks, axis=0).gather_rows(order))

    # ------------------------------------------------------------------
    def act(self, observation: Observation,
            deterministic: bool = False) -> ActionDecision:
        """Sample (or argmax) an action from the masked policy.

        Runs under :func:`~repro.nn.tensor.no_grad`: rollouts never
        backpropagate through the decision.  The observation is encoded as
        its delta batch (the one :meth:`evaluate_actions_batch` trains on),
        which gives :meth:`forward`'s embeddings.  The masked distribution
        and value are memoised on the observation (its ``_decision``) until
        the next weight update: the environment returns the *same*
        observation for a re-visited state.  Sampling still draws from the
        generator on every call, so memoised and fresh decisions consume the
        rng identically.
        """
        memo = observation._decision
        if memo is not None and memo[0] is self \
                and memo[1] == self._weights_version:
            probs, value_f = memo[2], memo[3]
        else:
            with no_grad():
                embeddings = Tensor(self.embedder.embed(observation))
                logits, value = self._policy(embeddings, [observation],
                                             np.zeros(1, dtype=np.int64))
            # ``Tensor.softmax``'s operations (shift by the max, exp, divide
            # by the sum) in float64: a float32 distribution would change
            # which action a seeded draw picks.
            shifted = logits.numpy()[0].astype(np.float64)
            exp = np.exp(shifted - shifted.max(axis=0, keepdims=True))
            probs = exp / exp.sum(axis=0, keepdims=True)
            probs = probs / probs.sum()
            value_f = float(value.numpy()[0])
            observation._decision = (self, self._weights_version, probs,
                                     value_f)
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
        encoded and scored once, by :meth:`_policy`, which keeps every row
        bit-for-bit the one-observation evaluation
        (``tests/oracles/ppo_reference.py``).
        """
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
        combined, offsets = combine_meta_graphs(
            [o.delta_batch(num_layers) for o in unique])
        unique_logits, unique_values = self._policy(
            self.encoder(combined), unique, offsets)

        # Per-transition rows (duplicates reuse unique rows); log-softmax,
        # entropy and the chosen-action gather are row-wise.
        slots = np.asarray(slots, dtype=np.int64)
        log_probs = unique_logits.gather_rows(slots).log_softmax(axis=-1)
        probs = log_probs.exp()
        entropy = -(probs * log_probs).sum(axis=1)           # [B]
        actions = np.asarray(actions, dtype=np.int64)
        chosen = log_probs[np.arange(len(observations)), actions]   # [B]
        return chosen, unique_values.gather_rows(slots), entropy


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
        self.agent.invalidate_decisions()

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
