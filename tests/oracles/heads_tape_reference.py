"""The policy/value heads and the PPO loss composed from ``tape``'s
primitive ops: the tape the two fused ops of ``repro.rl.ppo`` replaced,
compared bit for bit by ``tests/rl/test_heads_fused.py``.

The heads recorded about 33 ops per meta-graph size group and the loss
about 38 per chunk; the fused heads and loss record one op each and
reproduce this tape's arithmetic, gradients included.  The functions run
on an :class:`~repro.rl.XRLflowAgent`'s own parameters, so both sides'
``.grad`` land on the same tensors.

* :func:`tape_policy` — ``XRLflowAgent._policy`` as it was composed:
  ``(masked logits [U, A], values [U])``.
* :func:`tape_action_terms` — the loss part of the composed
  ``evaluate_actions_batch``: per-transition (chosen log-probs, values,
  entropies) from the distinct observations' rows.
* :func:`tape_loss` — the loss part of the composed
  ``PPOUpdater._update_batched``.
* :class:`TapePPOUpdater` — a :class:`~repro.rl.PPOUpdater` whose chunks
  run through the three above (and the fused encoder).
"""

from typing import Dict, List, Sequence, Tuple

import numpy as np
from tape import Tensor, concat, gather_rows, mlp

from repro.nn import clip_grad_norm
from repro.rl import Observation, PPOUpdater, RolloutBuffer, XRLflowAgent
from repro.rl.features import combine_meta_graphs
from repro.rl.ppo import _MASK_VALUE

__all__ = ["TapePPOUpdater", "tape_action_terms", "tape_chunk",
           "tape_loss", "tape_policy"]


def tape_policy(agent: XRLflowAgent, embeddings: Tensor,
                observations: Sequence[Observation],
                offsets: np.ndarray) -> Tuple[Tensor, Tensor]:
    """(masked logits ``[U, A]``, values ``[U]``), grouped by meta-graph
    size and stacked per group, rows back in the observations' order."""
    num_actions = observations[0].num_actions
    dim = agent.embedding_dim
    groups: Dict[int, List[int]] = {}
    for u, obs in enumerate(observations):
        groups.setdefault(len(obs.graphs), []).append(u)

    logit_blocks: List[Tensor] = []
    value_blocks: List[Tensor] = []
    for count, members in groups.items():
        k = len(members)
        starts = offsets[members]
        seconds = np.append(np.arange(1, count, dtype=np.int64), 0)
        firsts = gather_rows(embeddings, np.repeat(starts, count)) \
            .reshape(k, count, dim)
        candidates = gather_rows(
            embeddings, (starts[:, None] + seconds[None, :]).ravel()) \
            .reshape(k, count, dim)
        pair = concat([firsts, candidates], axis=2)
        logits = mlp(agent.policy_head, pair).reshape(k * count)
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

        current = firsts[:, 0, :]
        mean_candidate = candidates[:, :count - 1, :].mean(axis=1) \
            if count > 1 else current
        value_input = concat([current, mean_candidate],
                             axis=1).reshape(k, 1, 2 * dim)
        value_blocks.append(mlp(agent.value_head, value_input).reshape(k))

    order = np.argsort(np.concatenate(list(groups.values())))
    return (concat(logit_blocks, axis=0).gather_rows(order),
            concat(value_blocks, axis=0).gather_rows(order))


def tape_action_terms(logits: Tensor, values: Tensor, slots: np.ndarray,
                      actions: Sequence[int]
                      ) -> Tuple[Tensor, Tensor, Tensor]:
    """Per-transition (chosen log-probs, values, entropies), each ``[B]``;
    transition ``i`` reads row ``slots[i]``."""
    slots = np.asarray(slots, dtype=np.int64)
    log_probs = logits.gather_rows(slots).log_softmax(axis=-1)
    probs = log_probs.exp()
    entropy = -(probs * log_probs).sum(axis=1)
    actions = np.asarray(actions, dtype=np.int64)
    chosen = log_probs[np.arange(len(slots)), actions]
    return chosen, values.gather_rows(slots), entropy


def tape_loss(new_log_probs: Tensor, values: Tensor, entropies: Tensor,
              old_log_probs: np.ndarray, advantages: np.ndarray,
              returns: np.ndarray, clip_epsilon: float, value_coef: float,
              entropy_coef: float, scale: float
              ) -> Tuple[Tensor, Tensor, Tensor, Tensor]:
    """(``total``, policy sum, value sum, entropy sum) of one chunk."""
    adv = Tensor(advantages)
    ratio = (new_log_probs - Tensor(old_log_probs)).exp()
    surrogate1 = ratio * adv
    surrogate2 = ratio.clip(1 - clip_epsilon, 1 + clip_epsilon) * adv
    take_first = Tensor(
        (surrogate1.data <= surrogate2.data).astype(surrogate1.data.dtype))
    policy_elements = -(surrogate1 * take_first
                        + surrogate2 * (1.0 - take_first))
    policy_sum = policy_elements.sum()
    value_sum = ((values - Tensor(returns)) ** 2).sum()
    entropy_sum = entropies.sum()
    total = (policy_sum + value_coef * value_sum
             - entropy_coef * entropy_sum) * scale
    return total, policy_sum, value_sum, entropy_sum


def tape_chunk(agent: XRLflowAgent, observations: Sequence[Observation],
               actions: Sequence[int]):
    """``(embeddings, logits, values, slots)`` of one chunk: the distinct
    observations' delta batches through one encoder forward and
    :func:`tape_policy`."""
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
    combined, offsets = combine_meta_graphs(
        [o.delta_batch(agent.encoder.num_gat_layers) for o in unique])
    embeddings = agent.encoder(combined)
    logits, values = tape_policy(agent, embeddings, unique, offsets)
    return embeddings, logits, values, np.asarray(slots, dtype=np.int64)


class TapePPOUpdater(PPOUpdater):
    """:class:`PPOUpdater` whose chunks record the composed heads and loss
    (same chunks, same order, same ``Adam``)."""

    def _update_batched(self, buffer: RolloutBuffer, batch_idx: np.ndarray,
                        advantages: np.ndarray, returns: np.ndarray):
        self.optimizer.zero_grad()
        scale = 1.0 / len(batch_idx)
        sums = {"policy": 0.0, "value": 0.0, "entropy": 0.0}
        for chunk in self._node_bounded_chunks(buffer, batch_idx):
            observations, actions, old_log_probs = buffer.gather(chunk)
            _, logits, values, slots = tape_chunk(self.agent, observations,
                                                  actions)
            chosen, values, entropies = tape_action_terms(
                logits, values, slots, actions)
            total, policy_sum, value_sum, entropy_sum = tape_loss(
                chosen, values, entropies, old_log_probs, advantages[chunk],
                returns[chunk], self.clip_epsilon, self.value_coef,
                self.entropy_coef, scale)
            total.backward()
            sums["policy"] += float(policy_sum.numpy().sum())
            sums["value"] += float(value_sum.numpy().sum())
            sums["entropy"] += float(entropy_sum.numpy().sum())
        grad_norm = clip_grad_norm(self.optimizer.parameters,
                                   self.max_grad_norm)
        self.optimizer.step()
        return {"policy": sums["policy"] * scale,
                "value": sums["value"] * scale,
                "entropy": sums["entropy"] * scale,
                "grad": grad_norm}
