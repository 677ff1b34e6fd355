"""Per-transition oracle for the PPO update: ``evaluate_actions`` is the
reference for ``XRLflowAgent.evaluate_actions_batch`` and
``LoopPPOUpdater`` for ``PPOUpdater._update_batched``
(``src/repro/rl/ppo.py``), compared by
``tests/rl/test_incremental_features.py`` (``TestBatchedEvaluate``,
``test_batched_update_matches_loop_update``).

The seed update: one full meta-graph forward per transition through the
public ``agent.forward``, the minibatch loss summed tensor by tensor.
"""

from typing import Tuple

import numpy as np

from repro.nn import Tensor, clip_grad_norm
from repro.rl import Observation, PPOUpdater, RolloutBuffer, XRLflowAgent

__all__ = ["LoopPPOUpdater", "evaluate_actions"]


def evaluate_actions(agent: XRLflowAgent, observation: Observation,
                     action: int) -> Tuple[Tensor, Tensor, Tensor]:
    """Differentiable (log-prob, value, entropy) of ``action``, one
    observation at a time."""
    logits, value = agent.forward(observation)
    log_probs = logits.log_softmax(axis=0)
    probs = log_probs.exp()
    entropy = -(probs * log_probs).sum()
    return log_probs[action:action + 1], value, entropy


class LoopPPOUpdater(PPOUpdater):
    """:class:`PPOUpdater` whose optimiser step is the seed per-transition
    loop (one forward per transition)."""

    def _update_batched(self, buffer: RolloutBuffer, batch_idx: np.ndarray,
                        advantages: np.ndarray, returns: np.ndarray):
        transitions = buffer.transitions
        self.optimizer.zero_grad()
        losses = []
        entropies = []
        value_losses = []
        for i in batch_idx:
            t = transitions[i]
            new_log_prob, value, entropy = evaluate_actions(
                self.agent, t.observation, t.action)
            ratio = (new_log_prob - t.log_prob).exp()
            adv = float(advantages[i])
            surrogate1 = ratio * adv
            surrogate2 = ratio.clip(1 - self.clip_epsilon,
                                    1 + self.clip_epsilon) * adv
            # elementwise min of the two 1-element tensors
            take_first = float(surrogate1.numpy()[0]) \
                <= float(surrogate2.numpy()[0])
            policy_loss = -(surrogate1 if take_first else surrogate2)
            value_loss = (value - float(returns[i])) ** 2
            losses.append(policy_loss)
            value_losses.append(value_loss)
            entropies.append(entropy)
        n = len(batch_idx)
        policy_term = sum(losses[1:], losses[0]) * (1.0 / n)
        value_term = sum(value_losses[1:], value_losses[0]) * (1.0 / n)
        entropy_term = sum(entropies[1:], entropies[0]) * (1.0 / n)
        total = (policy_term + self.value_coef * value_term
                 - self.entropy_coef * entropy_term)
        total.backward()
        grad_norm = clip_grad_norm(self.optimizer.parameters,
                                   self.max_grad_norm)
        self.optimizer.step()
        return {"policy": float(policy_term.numpy().sum()),
                "value": float(value_term.numpy().sum()),
                "entropy": float(entropy_term.numpy().sum()),
                "grad": grad_norm}
