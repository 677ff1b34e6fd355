"""Rollout storage and generalised advantage estimation (GAE)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .env import Observation

__all__ = ["Transition", "RolloutBuffer", "compute_gae"]


@dataclass
class Transition:
    """One environment step as stored for the PPO update."""

    observation: Observation
    action: int
    log_prob: float
    value: float
    reward: float
    done: bool


def compute_gae(rewards: np.ndarray, values: np.ndarray, dones: np.ndarray,
                gamma: float = 0.99, lam: float = 0.95,
                last_value: float = 0.0) -> Tuple[np.ndarray, np.ndarray]:
    """Generalised advantage estimation (Schulman et al., 2015).

    Returns ``(advantages, returns)`` with the same length as ``rewards``.
    ``dones[t]`` marks that the episode ended *at* step ``t`` so no value
    bootstrapping happens across the boundary.
    """
    n = len(rewards)
    advantages = np.zeros(n)
    gae = 0.0
    for t in reversed(range(n)):
        next_value = last_value if t == n - 1 else values[t + 1]
        non_terminal = 0.0 if dones[t] else 1.0
        delta = rewards[t] + gamma * next_value * non_terminal - values[t]
        gae = delta + gamma * lam * non_terminal * gae
        advantages[t] = gae
    returns = advantages + values
    return advantages, returns


class RolloutBuffer:
    """Accumulates transitions over one or more episodes."""

    def __init__(self, gamma: float = 0.99, lam: float = 0.95):
        self.gamma = float(gamma)
        self.lam = float(lam)
        self.transitions: List[Transition] = []

    def add(self, transition: Transition) -> None:
        """Append one step (episodes follow each other; ``done`` marks ends)."""
        self.transitions.append(transition)

    def __len__(self) -> int:
        return len(self.transitions)

    def clear(self) -> None:
        """Forget every stored transition (after an update consumed them)."""
        self.transitions = []

    # ------------------------------------------------------------------
    def finalise(self) -> Tuple[np.ndarray, np.ndarray]:
        """Compute advantages/returns for everything stored so far."""
        rewards = np.asarray([t.reward for t in self.transitions])
        values = np.asarray([t.value for t in self.transitions])
        dones = np.asarray([t.done for t in self.transitions], dtype=bool)
        advantages, returns = compute_gae(rewards, values, dones,
                                          self.gamma, self.lam)
        if len(advantages) > 1 and advantages.std() > 1e-8:
            advantages = (advantages - advantages.mean()) / (advantages.std() + 1e-8)
        return advantages, returns

    def minibatches(self, batch_size: int, rng: np.random.Generator):
        """Yield index arrays of up to ``batch_size`` transitions each."""
        indices = rng.permutation(len(self.transitions))
        for start in range(0, len(indices), batch_size):
            yield indices[start:start + batch_size]

    def gather(self, indices: np.ndarray
               ) -> Tuple[List[Observation], np.ndarray, np.ndarray]:
        """Observations, actions and stored log-probs for one minibatch.

        The arrays feed :meth:`XRLflowAgent.policy_batch` and
        :func:`~repro.rl.ppo.ppo_loss` — one call each per chunk instead of
        one forward per transition.
        """
        transitions = self.transitions
        observations = [transitions[i].observation for i in indices]
        actions = np.asarray([transitions[i].action for i in indices],
                             dtype=np.int64)
        log_probs = np.asarray([transitions[i].log_prob for i in indices])
        return observations, actions, log_probs
