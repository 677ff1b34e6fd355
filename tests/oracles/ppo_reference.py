"""Per-transition oracle for the PPO update: ``evaluate_actions`` is the
reference for ``XRLflowAgent.policy_batch`` followed by ``ppo_loss``'s
per-transition terms, ``loop_loss`` for ``ppo_loss`` and
``LoopPPOUpdater`` for ``PPOUpdater._update_batched``
(``src/repro/rl/ppo.py``), compared by
``tests/rl/test_incremental_features.py`` (``TestBatchedEvaluate``,
``test_batched_update_matches_loop_update``).

The seed update: one full meta-graph forward per transition through
:func:`agent_forward`, the minibatch loss summed tensor by tensor.
"""

from typing import Sequence, Tuple

import numpy as np
from tape import Tensor, reshape

from repro.nn import clip_grad_norm
from repro.rl import Observation, PPOUpdater, RolloutBuffer, XRLflowAgent
from repro.rl.features import build_meta_graph

__all__ = ["LoopPPOUpdater", "agent_forward", "evaluate_actions",
           "loop_loss"]


def agent_forward(agent: XRLflowAgent, observation: Observation
                  ) -> Tuple[Tensor, Tensor]:
    """(masked logits over the padded action space, state value) of one
    observation.

    Encodes the full meta-graph (:func:`build_meta_graph`, every graph in
    full): the reference ``XRLflowAgent.act`` and ``policy_batch`` are held
    to.
    """
    meta_graph = build_meta_graph(observation.graphs,
                                  cache=observation.feature_cache)
    embeddings = agent.encoder(meta_graph)  # [1 + C, D]
    heads = agent._policy(embeddings, [observation],
                          np.zeros(1, dtype=np.int64))
    heads = reshape(heads, observation.num_actions + 1)
    return heads[:-1], heads[-1:]


def evaluate_actions(agent: XRLflowAgent, observation: Observation,
                     action: int) -> Tuple[Tensor, Tensor, Tensor]:
    """Differentiable (log-prob, value, entropy) of ``action``, one
    observation at a time."""
    logits, value = agent_forward(agent, observation)
    log_probs = logits.log_softmax(axis=0)
    probs = log_probs.exp()
    entropy = -(probs * log_probs).sum()
    return log_probs[action:action + 1], value, entropy


def loop_loss(agent: XRLflowAgent, observations: Sequence[Observation],
              actions: Sequence[int], old_log_probs: Sequence[float],
              advantages: Sequence[float], returns: Sequence[float],
              clip_epsilon: float, value_coef: float, entropy_coef: float
              ) -> Tuple[Tensor, Tensor, Tensor, Tensor]:
    """(``total``, policy term, value term, entropy term) of a minibatch,
    each term the mean over its transitions."""
    losses = []
    entropies = []
    value_losses = []
    for obs, action, old_log_prob, adv, ret in zip(
            observations, actions, old_log_probs, advantages, returns):
        new_log_prob, value, entropy = evaluate_actions(agent, obs,
                                                        int(action))
        ratio = (new_log_prob - float(old_log_prob)).exp()
        surrogate1 = ratio * float(adv)
        surrogate2 = ratio.clip(1 - clip_epsilon, 1 + clip_epsilon) \
            * float(adv)
        # elementwise min of the two 1-element tensors
        take_first = float(surrogate1.numpy()[0]) \
            <= float(surrogate2.numpy()[0])
        policy_loss = -(surrogate1 if take_first else surrogate2)
        value_loss = (value - float(ret)) ** 2
        losses.append(policy_loss)
        value_losses.append(value_loss)
        entropies.append(entropy)
    n = len(losses)
    policy_term = sum(losses[1:], losses[0]) * (1.0 / n)
    value_term = sum(value_losses[1:], value_losses[0]) * (1.0 / n)
    entropy_term = sum(entropies[1:], entropies[0]) * (1.0 / n)
    total = (policy_term + value_coef * value_term
             - entropy_coef * entropy_term)
    return total, policy_term, value_term, entropy_term


class LoopPPOUpdater(PPOUpdater):
    """:class:`PPOUpdater` whose optimiser step is the seed per-transition
    loop (one forward per transition)."""

    def _update_batched(self, buffer: RolloutBuffer, batch_idx: np.ndarray,
                        advantages: np.ndarray, returns: np.ndarray):
        self.optimizer.zero_grad()
        transitions = [buffer.transitions[i] for i in batch_idx]
        total, policy_term, value_term, entropy_term = loop_loss(
            self.agent, [t.observation for t in transitions],
            [t.action for t in transitions],
            [t.log_prob for t in transitions], advantages[batch_idx],
            returns[batch_idx], self.clip_epsilon, self.value_coef,
            self.entropy_coef)
        total.backward()
        grad_norm = clip_grad_norm(self.optimizer.parameters,
                                   self.max_grad_norm)
        self.optimizer.step()
        return {"policy": float(policy_term.numpy().sum()),
                "value": float(value_term.numpy().sum()),
                "entropy": float(entropy_term.numpy().sum()),
                "grad": grad_norm}
