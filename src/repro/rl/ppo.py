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

* the heads are one computation for one observation or a minibatch's: pair
  rows are gathered for all actions at once and the per-candidate logits
  land in the padded action space in one assignment.  In the update they
  are **one autograd op** (:meth:`XRLflowAgent._policy`), and so is the
  loss (:func:`ppo_loss`): plain numpy forwards, one backward closure each,
  so a chunk records the encoder's ops plus two, whatever the number of
  meta-graph sizes in it.  The closures reproduce the arithmetic of the
  tape they replaced — the same expressions, gradients summed in the
  tape's order, every scatter through the float64 bincount kernel — so
  outputs and gradients are bit for bit the composed ops'
  (``tests/rl/test_heads_fused.py`` against
  ``tests/oracles/heads_tape_reference.py``);
* :meth:`XRLflowAgent.policy_batch` runs a whole PPO chunk through a
  *single* encoder forward over one :class:`~repro.nn.gnn.BatchedGraphs`
  (the meta-graph machinery batches arbitrary graph sets, so batching
  across transitions is the same trick as batching candidates within one)
  — and that batch is a *delta batch*: each observation's current graph in
  full, each candidate as its rewrite cone only
  (:func:`~repro.rl.features.build_delta_batch`), so forward and backward
  run over the rows a rewrite can change, not over ~25 copies of the graph;
* rollout ``act()`` runs the same encoder over the same delta batch under
  :func:`~repro.nn.tensor.no_grad` and the heads' plain forward, so
  exploration builds no autograd tape and the update re-uses the batch the
  rollout assembled — and memoises the policy output on the observation
  (the environment returns the *same* observation for a re-visited state),
  retired on every weight update;
* the agent, its encoder and the update run at float32, the engine's one
  precision; only the sampling distribution is normalised in float64.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..nn import tensor as _tensor
from ..nn.gnn import GraphEmbeddingNetwork
from ..nn.layers import MLP, Module
from ..nn.optim import Adam, clip_grad_norm
from ..nn.tensor import Tensor
from .buffer import RolloutBuffer
from .embed import IncrementalEmbedder
from .env import Observation
from .features import (EDGE_FEATURE_DIM, GLOBAL_FEATURE_DIM, NODE_FEATURE_DIM,
                       combine_meta_graphs)

__all__ = ["ActionDecision", "XRLflowAgent", "PPOLoss", "PPOUpdater",
           "ppo_loss"]

_MASK_VALUE = -1e9


def _meta_graph_nodes(observation: Observation) -> int:
    """Nodes of the observation's meta-graph, without assembling it or
    opening a candidate graph."""
    return sum(observation.graph_sizes())


def _constant(value) -> np.ndarray:
    """``value`` as the tape stored a constant: a float32 array."""
    return np.asarray(value, dtype=np.float32)


def _mlp_forward(mlp: MLP, x: np.ndarray
                 ) -> Tuple[np.ndarray, List[np.ndarray], List[np.ndarray]]:
    """A head ``mlp(x)`` in plain numpy, with each layer's input and each
    hidden layer's ReLU mask for :func:`_mlp_backward`.

    The composed ``x @ W + b`` and ReLU (``x * (x > 0)``, so a negative
    input gives ``-0.0``), applied in place; the last layer has no ReLU, as
    in the agent's heads.
    """
    inputs: List[np.ndarray] = []
    masks: List[np.ndarray] = []
    for layer in mlp.layers:
        if inputs:
            up = x > 0
            x *= up
            masks.append(up)
        inputs.append(x)
        x = x @ layer.weight.data
        x += layer.bias.data
    return x, inputs, masks


def _mlp_backward(mlp: MLP, inputs: List[np.ndarray],
                  masks: List[np.ndarray], grad: np.ndarray,
                  input_grad: bool) -> Optional[np.ndarray]:
    """Accumulate the layers' parameter gradients from the output's
    ``grad`` as the composed ``Linear`` and ReLU ops did; return the
    input's gradient when ``input_grad``.

    A parameter receives the stacked product summed over its leading axes
    (the tape's unbroadcast), through its own ``_accumulate``.
    """
    for i in range(len(mlp.layers) - 1, -1, -1):
        layer = mlp.layers[i]
        if i < len(masks):
            grad = grad * masks[i]
        layer.bias._accumulate(grad)
        layer.weight._accumulate(inputs[i].swapaxes(-1, -2) @ grad)
        if i == 0 and not input_grad:
            return None
        grad = grad @ layer.weight.data.swapaxes(-1, -2)
    return grad


class _Group(NamedTuple):
    """What the heads' backward needs of one meta-graph size group."""

    count: int                  # graphs per meta-graph: candidates + 1
    k: int                      # observations in the group
    start: int                  # first row of the group's block
    first_rows: np.ndarray      # [k * count] embedding rows of ``firsts``
    candidate_rows: np.ndarray  # [k * count] ... of ``candidates``
    slots: Tuple[np.ndarray, np.ndarray]  # (row, action) of each logit
    mean_scale: Optional[np.ndarray]      # float32 ``1 / (count - 1)``
    policy: tuple               # _mlp_forward's (inputs, masks)
    value: tuple


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
    def _heads(self, embeddings: np.ndarray,
               observations: Sequence[Observation], offsets: np.ndarray
               ) -> Tuple[np.ndarray, np.ndarray, List[_Group]]:
        """The policy and value heads' forward in plain numpy.

        Returns ``(heads, order, groups)``: ``heads[u]`` is
        ``observations[u]``'s masked logits over the padded action space
        followed by its value (``[U, A + 1]``), ``order`` the permutation
        from block rows to observations and ``groups`` what the backward
        of :meth:`_policy` reads.

        Row ``u``'s meta-graph (current graph first) holds embedding rows
        ``offsets[u]`` onwards.  A candidate is scored on ``[current ||
        candidate]``, the No-Op action (the last slot) on ``[current ||
        current]``; the value head reads the current graph next to the
        mean candidate embedding.

        Observations are grouped by meta-graph size, and within a group the
        head MLPs run on one stacked 3-D array: numpy's batched matmul
        applies the per-slice kernel a 2-D product of that slice's shape
        would (same M/N/K), so every row is bit-for-bit what its observation
        gives alone, whatever rides along.  Stacking *different* sizes into
        one 2-D product would not be: BLAS picks kernels by row count.
        """
        num_actions = observations[0].num_actions
        dim = self.embedding_dim
        by_size: Dict[int, List[int]] = {}
        for u, obs in enumerate(observations):
            by_size.setdefault(obs.num_graphs, []).append(u)

        groups: List[_Group] = []
        logit_blocks: List[np.ndarray] = []
        value_blocks: List[np.ndarray] = []
        start = 0
        for count, members in by_size.items():
            k = len(members)
            starts = offsets[members]
            # Each candidate's row, then the current graph's for the No-Op.
            seconds = np.append(np.arange(1, count, dtype=np.int64), 0)
            first_rows = np.repeat(starts, count)
            candidate_rows = (starts[:, None] + seconds[None, :]).ravel()
            firsts = embeddings[first_rows].reshape(k, count, dim)
            candidates = embeddings[candidate_rows].reshape(k, count, dim)
            pair = np.concatenate([firsts, candidates], axis=2)
            logits, *policy = _mlp_forward(self.policy_head, pair)
            # Candidate logits fill the first C slots, the No-Op logit the
            # last, everything else the mask value; slots the environment
            # marked invalid are masked too.
            positions = np.append(np.arange(count - 1, dtype=np.int64),
                                  num_actions - 1)
            slots = (np.repeat(np.arange(k, dtype=np.int64), count),
                     np.tile(positions, k))
            masked = np.full((k, num_actions), _MASK_VALUE,
                             dtype=logits.dtype)
            masked[slots] = logits.reshape(k * count)
            invalid = ~np.stack([observations[u].action_mask
                                 for u in members])
            masked += _constant(np.where(invalid, _MASK_VALUE, 0.0))
            logit_blocks.append(masked)

            current = firsts[:, 0, :]                         # [k, D]
            mean_scale = None
            mean_candidate = current
            if count > 1:
                mean_scale = _constant(1.0 / (count - 1))
                mean_candidate = candidates[:, :count - 1, :].sum(axis=1) \
                    * mean_scale
            value_input = np.concatenate([current, mean_candidate],
                                         axis=1).reshape(k, 1, 2 * dim)
            values, *value = _mlp_forward(self.value_head, value_input)
            value_blocks.append(values.reshape(k))
            groups.append(_Group(count, k, start, first_rows, candidate_rows,
                                 slots, mean_scale, policy, value))
            start += k

        # Back to the order of ``observations``: a permutation gather.
        order = np.argsort(np.concatenate(list(by_size.values())))
        block_logits = np.concatenate(logit_blocks, axis=0)
        heads = np.empty((len(observations), num_actions + 1),
                         dtype=block_logits.dtype)
        heads[:, :num_actions] = block_logits[order]
        heads[:, num_actions] = np.concatenate(value_blocks)[order]
        return heads, order, groups

    def _policy(self, embeddings: Tensor, observations: Sequence[Observation],
                offsets: np.ndarray) -> Tensor:
        """The heads as one autograd op: ``[U, A + 1]``, each observation's
        masked logits followed by its value (see :meth:`_heads`)."""
        heads, order, groups = self._heads(embeddings.data, observations,
                                           offsets)

        def backward(grad):
            self._heads_backward(embeddings, grad, order, groups)
        return Tensor._make(heads, (embeddings,
                                    *self.policy_head.parameters(),
                                    *self.value_head.parameters()),
                            backward)

    def _heads_backward(self, embeddings: Tensor, grad: np.ndarray,
                        order: np.ndarray, groups: List[_Group]) -> None:
        """:meth:`_policy`'s backward, in the composed heads' order.

        The tape ran the value ops of every group before any policy op
        (the loss reaches the values after the logits), each head's groups
        last to first; per group the candidates' gather scattered into the
        embeddings' gradient before the firsts'.  A gradient is summed where
        the tape summed it, in the same order: the parameters' through their
        ``_accumulate``, the embeddings' one ``_scatter_add_rows`` per
        gather.
        """
        num_rows = grad.shape[0]
        num_actions = grad.shape[1] - 1
        dim = self.embedding_dim
        needs_input = embeddings.requires_grad
        # The permutation gather's backward, through the kernel as there
        # (looked up at call time, as the encoder's layers do).
        scatter = _tensor._scatter_add_rows
        logit_grads = scatter(grad[:, :num_actions], order, num_rows)
        value_grads = scatter(grad[:, num_actions], order, num_rows)

        # Per group, last first: the value input's gradient, the current
        # graph's half and the mean candidate's (scaled to each candidate).
        value_inputs = []
        for group in reversed(groups):
            count, k, start = group[:3]
            out = value_grads[start:start + k].reshape(k, 1, 1)
            inputs = _mlp_backward(self.value_head, *group.value, out,
                                   needs_input)
            if needs_input:
                inputs = inputs.reshape(k, 2 * dim)
                current, mean = inputs[:, :dim], inputs[:, dim:]
                if count > 1:
                    value_inputs.append((current, mean * group.mean_scale))
                else:
                    # The mean candidate *is* the current graph's row.
                    value_inputs.append((current + mean, None))

        # Each half of ``pair`` plus the value path's share: the tape's
        # sum of two (0 + x where the value path had no share, which
        # rounds like x once the scatter adds it to +0.0).
        for index, group in enumerate(reversed(groups)):
            count, k, start = group[:3]
            out = logit_grads[start:start + k][group.slots] \
                .reshape(k, count, 1)
            pair = _mlp_backward(self.policy_head, *group.policy, out,
                                 needs_input)
            if not needs_input:
                continue
            current, mean = value_inputs[index]
            first_grad = pair[..., :dim].copy()
            first_grad[:, 0, :] += current
            candidate_grad = pair[..., dim:].copy()
            if mean is not None:
                candidate_grad[:, :count - 1, :] += mean[:, None, :]
            embeddings._accumulate(scatter(
                candidate_grad.reshape(k * count, dim), group.candidate_rows,
                embeddings.data.shape[0]))
            embeddings._accumulate(scatter(
                first_grad.reshape(k * count, dim), group.first_rows,
                embeddings.data.shape[0]))

    # ------------------------------------------------------------------
    def act(self, observation: Observation,
            deterministic: bool = False) -> ActionDecision:
        """Sample (or argmax) an action from the masked policy.

        Builds no autograd tape: the encoder runs under
        :func:`~repro.nn.tensor.no_grad` and the heads' plain forward
        (:meth:`_heads`) creates no ``Tensor``.  The observation is encoded
        as its delta batch (the one :meth:`policy_batch` trains on), which
        gives the full meta-graph's embeddings bit for bit.  The masked
        distribution and value are memoised on the observation (its
        ``_decision``) until the next weight update: the environment
        returns the *same* observation for a re-visited state.  Sampling
        still draws from the generator on every call, so memoised and fresh
        decisions consume the rng identically.
        """
        memo = observation._decision
        if memo is not None and memo[0] is self \
                and memo[1] == self._weights_version:
            probs, value_f = memo[2], memo[3]
        else:
            heads, _, _ = self._heads(self.embedder.embed(observation),
                                      [observation],
                                      np.zeros(1, dtype=np.int64))
            # The composed softmax's operations (shift by the max, exp,
            # divide by the sum) in float64: a float32 distribution would change
            # which action a seeded draw picks.
            shifted = heads[0, :-1].astype(np.float64)
            exp = np.exp(shifted - shifted.max(axis=0, keepdims=True))
            probs = exp / exp.sum(axis=0, keepdims=True)
            probs = probs / probs.sum()
            value_f = float(heads[0, -1])
            observation._decision = (self, self._weights_version, probs,
                                     value_f)
        if deterministic:
            action = int(np.argmax(probs))
        else:
            action = int(self._rng.choice(len(probs), p=probs))
        log_prob = float(np.log(probs[action] + 1e-12))
        return ActionDecision(action=action, log_prob=log_prob,
                              value=value_f, probabilities=probs)

    def policy_batch(self, observations: Sequence[Observation]
                     ) -> Tuple[Tensor, np.ndarray]:
        """Differentiable heads of a batch of transitions' observations.

        Returns ``(heads, slots)``: :meth:`_policy`'s ``[U, A + 1]`` rows of
        the *distinct* observations, and for each transition its row.
        Duplicate observations (the environment memoises re-visited states,
        so one observation object can back several transitions) are encoded
        and scored once.

        Splices every distinct observation's delta batch
        (:meth:`~repro.rl.env.Observation.delta_batch`: candidates as
        rewrite cones, never fully encoded) into one
        :class:`~repro.nn.gnn.BatchedGraphs` and runs a *single* encoder
        forward for the whole batch; the heads keep every row bit-for-bit
        the one-observation evaluation (``tests/oracles/ppo_reference.py``).
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
        heads = self._policy(self.encoder(combined), unique, offsets)
        return heads, np.asarray(slots, dtype=np.int64)


@dataclass
class PPOLoss:
    """One chunk's PPO-clip loss (:func:`ppo_loss`) and what it read."""

    #: The scalar to backpropagate: the chunk's summed loss times ``scale``.
    total: Tensor
    #: Per transition: the chosen action's log-probability, the value and
    #: the policy's entropy (``[B]``, no gradient).
    log_probs: np.ndarray
    values: np.ndarray
    entropies: np.ndarray
    #: The three terms' sums over the chunk, unscaled.
    policy_sum: float
    value_sum: float
    entropy_sum: float


def ppo_loss(heads: Tensor, slots: np.ndarray, actions: Sequence[int],
             old_log_probs: np.ndarray, advantages: np.ndarray,
             returns: np.ndarray, clip_epsilon: float, value_coef: float,
             entropy_coef: float, scale: float) -> PPOLoss:
    """The PPO-clip loss of a chunk as one autograd op on ``heads``.

    Transition ``i`` reads row ``slots[i]`` of ``heads``
    (:meth:`XRLflowAgent.policy_batch`): its log-softmax over the masked
    logits, entropy and chosen action's log-probability, then the clipped
    surrogate (the elementwise min takes the unclipped side on a tie), the
    squared value error and the entropy bonus.  ``total`` is
    ``(policy + value_coef * value - entropy_coef * entropy) * scale``
    summed over the chunk.

    Forward and backward are the composed ops' arithmetic in the tape's
    order (``a - b`` where the tape added a negation, which rounds the
    same), constants stored as float32 as ``Tensor`` stored them, so the
    loss and the gradient reaching ``heads`` are bit for bit the tape's;
    the rows of a duplicate observation meet in one ``_scatter_add_rows``.
    """
    data = heads.data
    num_rows = data.shape[0]
    num_actions = data.shape[1] - 1
    count = slots.shape[0]
    rows = np.arange(count)
    actions = np.asarray(actions, dtype=np.int64)
    # Log-softmax, entropy and the chosen action, row by row.
    logits = data[:, :num_actions][slots]
    shifted = logits - _constant(logits.max(axis=-1, keepdims=True))
    exp = np.exp(shifted)
    exp_sum = exp.sum(axis=-1, keepdims=True)
    log_probs = shifted - np.log(exp_sum)
    probs = np.exp(log_probs)
    entropies = -(probs * log_probs).sum(axis=1)
    chosen = log_probs[rows, actions]
    # The clipped surrogate.
    advantages = _constant(advantages)
    ratio = np.exp(chosen - _constant(old_log_probs))
    low, high = 1 - clip_epsilon, 1 + clip_epsilon
    inside = (ratio >= low) & (ratio <= high)
    surrogate1 = ratio * advantages
    surrogate2 = np.clip(ratio, low, high) * advantages
    take_first = _constant(surrogate1 <= surrogate2)
    take_second = 1.0 - take_first
    policy_sum = (-(surrogate1 * take_first + surrogate2 * take_second)).sum()
    # Value error and the total.
    values = data[:, num_actions][slots]
    errors = values - _constant(returns)
    value_sum = (errors ** 2).sum()
    entropy_sum = entropies.sum()
    value_coef, entropy_coef = _constant(value_coef), _constant(entropy_coef)
    scale = _constant(scale)
    total = (policy_sum + value_sum * value_coef
             - entropy_sum * entropy_coef) * scale

    def backward(grad):
        inner = grad * scale
        # Entropy: its sum, the negation, the row sum, the product.
        product = np.broadcast_to(inner * entropy_coef, (count, num_actions))
        log_probs_grad = product * probs
        log_probs_grad += product * log_probs * probs
        # Value error.
        value_grad = np.broadcast_to(inner * value_coef, (count,)) * 2 \
            * errors
        # Surrogate: the tie-broken min, the clip (its gradient first on
        # the tape), the ratio.
        terms = -np.broadcast_to(inner, (count,))
        ratio_grad = terms * take_second * advantages * inside
        ratio_grad += terms * take_first * advantages
        chosen_grad = np.zeros_like(log_probs)
        chosen_grad[rows, actions] = ratio_grad * ratio
        log_probs_grad += chosen_grad
        # Log-softmax: the shift by the log-sum, then through the exp.
        exp_grad = -log_probs_grad.sum(axis=1, keepdims=True) / exp_sum
        logits_grad = log_probs_grad + exp_grad * exp
        heads._accumulate(_tensor._scatter_add_rows(
            np.concatenate([logits_grad, value_grad[:, None]], axis=1),
            slots, num_rows))

    return PPOLoss(total=Tensor._make(np.asarray(total), (heads,), backward),
                   log_probs=chosen, values=values, entropies=entropies,
                   policy_sum=float(policy_sum), value_sum=float(value_sum),
                   entropy_sum=float(entropy_sum))


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

    Each chunk is evaluated through :meth:`XRLflowAgent.policy_batch` and
    :func:`ppo_loss` (the seed per-transition loop is the test oracle,
    ``tests/oracles/ppo_reference.py``).

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
        its candidates' cones, so sizing assembles no batch.
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
        linearity, and each chunk's tape (the encoder's ops, the heads and
        the loss) is freed before the next one runs.
        """
        self.optimizer.zero_grad()
        scale = 1.0 / len(batch_idx)
        sums = {"policy": 0.0, "value": 0.0, "entropy": 0.0}
        for chunk in self._node_bounded_chunks(buffer, batch_idx):
            observations, actions, old_log_probs = buffer.gather(chunk)
            heads, slots = self.agent.policy_batch(observations)
            loss = ppo_loss(heads, slots, actions, old_log_probs,
                            advantages[chunk], returns[chunk],
                            self.clip_epsilon, self.value_coef,
                            self.entropy_coef, scale)
            loss.total.backward()
            sums["policy"] += loss.policy_sum
            sums["value"] += loss.value_sum
            sums["entropy"] += loss.entropy_sum
        grad_norm = clip_grad_norm(self.optimizer.parameters, self.max_grad_norm)
        self.optimizer.step()
        return {"policy": sums["policy"] * scale,
                "value": sums["value"] * scale,
                "entropy": sums["entropy"] * scale,
                "grad": grad_norm}
