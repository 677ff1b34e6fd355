"""Training loop: roll out episodes, update the agent with PPO."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from .buffer import RolloutBuffer, Transition
from .env import GraphRewriteEnv
from .ppo import PPOUpdater, XRLflowAgent

__all__ = ["EpisodeRecord", "TrainingHistory", "PPOTrainer", "run_episode"]


@dataclass
class EpisodeRecord:
    """Summary of one rollout episode."""

    episode: int
    total_reward: float
    steps: int
    final_latency_ms: float
    speedup: float
    applied_rules: List[str] = field(default_factory=list)


@dataclass
class TrainingHistory:
    """Everything produced over a training run."""

    episodes: List[EpisodeRecord] = field(default_factory=list)
    update_stats: List[Dict[str, float]] = field(default_factory=list)

    @property
    def best_episode(self) -> Optional[EpisodeRecord]:
        """The episode that *ended* on the highest speedup (``None`` before
        the first).  The best graph of a run may turn up mid-episode; that
        one is the environment's ``best_graph`` / ``best_rules``."""
        if not self.episodes:
            return None
        return max(self.episodes, key=lambda e: e.speedup)

    def mean_reward(self, last: int = 10) -> float:
        """Mean total reward of the ``last`` most recent episodes."""
        if not self.episodes:
            return 0.0
        window = self.episodes[-last:]
        return float(np.mean([e.total_reward for e in window]))


def run_episode(env: GraphRewriteEnv, agent: XRLflowAgent,
                deterministic: bool,
                buffer: Optional[RolloutBuffer] = None,
                episode: int = 0) -> EpisodeRecord:
    """Roll ``agent`` out over one episode of ``env``: sampled, or greedy
    when ``deterministic``.  Every transition goes to ``buffer`` if one is
    given; ``episode`` numbers the returned record.  Training and
    evaluation roll out through this one loop."""
    obs = env.reset()
    total_reward = 0.0
    done = False
    last_info: Dict[str, float] = {}
    while not done:
        decision = agent.act(obs, deterministic=deterministic)
        step = env.step(decision.action)
        if buffer is not None:
            buffer.add(Transition(
                observation=obs, action=decision.action,
                log_prob=decision.log_prob, value=decision.value,
                reward=step.reward, done=step.done))
        total_reward += step.reward
        obs = step.observation
        done = step.done
        last_info = step.info
    return EpisodeRecord(
        episode=episode,
        total_reward=total_reward,
        steps=int(last_info.get("steps", 0)),
        final_latency_ms=float(last_info.get("latency_ms", 0.0)),
        speedup=float(last_info.get("speedup", 1.0)),
        applied_rules=list(env.applied_rules),
    )


class PPOTrainer:
    """Collects on-policy rollouts from a :class:`GraphRewriteEnv` and applies
    PPO updates every ``update_frequency`` episodes (Table 4's setting)."""

    def __init__(self, env: GraphRewriteEnv, agent: XRLflowAgent,
                 updater: PPOUpdater,
                 update_frequency: int = 10,
                 gamma: float = 0.99,
                 gae_lambda: float = 0.95):
        self.env = env
        self.agent = agent
        self.updater = updater
        self.update_frequency = int(update_frequency)
        self.buffer = RolloutBuffer(gamma=gamma, lam=gae_lambda)
        self.history = TrainingHistory()

    def train(self, num_episodes: int) -> TrainingHistory:
        """Train for ``num_episodes`` episodes, updating every
        ``update_frequency`` of them."""
        for episode in range(num_episodes):
            record = run_episode(self.env, self.agent, deterministic=False,
                                 buffer=self.buffer,
                                 episode=len(self.history.episodes))
            self.history.episodes.append(record)
            if (episode + 1) % self.update_frequency == 0 and len(self.buffer) > 1:
                self._apply_update()
        # Flush any remaining transitions with one final update.
        if len(self.buffer) > 1:
            self._apply_update()
        return self.history

    def _apply_update(self) -> None:
        """Run one PPO update over the buffer and record its statistics
        (plus the env's observation-encode cache hit rate)."""
        stats = self.updater.update(self.buffer)
        record = {
            "policy_loss": stats.policy_loss,
            "value_loss": stats.value_loss,
            "entropy": stats.entropy,
            "grad_norm": stats.grad_norm,
            "encoder_rows": float(stats.encoder_rows),
            "pooled_rows": float(stats.pooled_rows),
        }
        record["encode_cache_hit_rate"] = \
            self.env.encode_cache_stats()["hit_rate"]
        self.history.update_stats.append(record)
        self.buffer.clear()
