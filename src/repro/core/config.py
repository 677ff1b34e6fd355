"""X-RLflow configuration (the paper's Table 4 hyper-parameters plus
practical knobs for the simulated environment)."""

from __future__ import annotations

from dataclasses import dataclass, asdict
from typing import Dict, Tuple

__all__ = ["XRLflowConfig", "PAPER_TABLE4", "HARNESS_PRESET"]

#: The hyper-parameter values reported in the paper's Appendix A (Table 4).
PAPER_TABLE4: Dict[str, object] = {
    "learning_rate": 5e-4,
    "value_loss_coef": 0.5,
    "entropy_loss_coef": 0.01,
    "edge_attr_norm": 4096.0,
    "num_gat_layers": 5,
    "update_frequency": 10,
    "feedback_interval": 5,
    "mlp_head_sizes": (256, 64),
    "batch_size": 16,
}

#: The experiment harness's X-RLflow budget, over :meth:`XRLflowConfig.fast`:
#: the service's ``xrlflow`` defaults and
#: :func:`repro.experiments.benchmark_config` both read it.
HARNESS_PRESET: Dict[str, object] = {
    "num_episodes": 6,
    "max_steps": 18,
    "max_candidates": 24,
    "update_frequency": 3,
    "ppo_epochs": 1,
    "eval_episodes": 3,
}


@dataclass
class XRLflowConfig:
    """All tunables of the X-RLflow optimiser.

    The defaults are exactly Table 4 of the paper; the remaining fields
    (episodes, horizon, action-space padding, network widths) are practical
    choices the paper leaves to the implementation.
    """

    # --- Table 4 ---------------------------------------------------------
    learning_rate: float = 5e-4
    value_loss_coef: float = 0.5
    entropy_loss_coef: float = 0.01
    edge_attr_norm: float = 4096.0
    num_gat_layers: int = 5
    update_frequency: int = 10
    feedback_interval: int = 5
    mlp_head_sizes: Tuple[int, ...] = (256, 64)
    batch_size: int = 16

    # --- PPO -------------------------------------------------------------
    clip_epsilon: float = 0.2
    gamma: float = 0.99
    gae_lambda: float = 0.95
    ppo_epochs: int = 4
    max_grad_norm: float = 0.5

    # --- environment -------------------------------------------------------
    num_episodes: int = 100
    max_steps: int = 50
    max_candidates: int = 48
    step_reward: float = 0.1
    #: Number of deterministic evaluation episodes after training.
    eval_episodes: int = 3

    # --- encoder sizes ------------------------------------------------------
    hidden_dim: int = 64
    embedding_dim: int = 64

    seed: int = 0

    def to_dict(self) -> Dict[str, object]:
        """Every field by name, as a plain dict (a copy)."""
        return asdict(self)

    @classmethod
    def fast(cls, **overrides) -> "XRLflowConfig":
        """A laptop-scale configuration for tests and quick benchmarks.

        Uses fewer/shallower episodes and a smaller encoder so a full
        train-and-optimise cycle completes in seconds on small graphs while
        exercising the identical code path.  ``overrides`` are fields of
        this class; anything else raises ``TypeError`` naming it.
        """
        preset = dict(num_episodes=6, max_steps=12, max_candidates=24,
                      num_gat_layers=2, hidden_dim=32, embedding_dim=32,
                      mlp_head_sizes=(64, 32), ppo_epochs=2,
                      update_frequency=3, eval_episodes=1, batch_size=8)
        return cls(**{**preset, **overrides})

    def validate(self) -> None:
        """Sanity-check value ranges; raises ``ValueError`` on bad settings."""
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not (0 < self.clip_epsilon < 1):
            raise ValueError("clip_epsilon must lie in (0, 1)")
        if self.feedback_interval < 1:
            raise ValueError("feedback_interval must be >= 1")
        if self.update_frequency < 1:
            raise ValueError("update_frequency must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.edge_attr_norm <= 0:
            raise ValueError("edge_attr_norm must be positive")
        if self.num_gat_layers < 1:
            raise ValueError("num_gat_layers must be >= 1")
        if self.max_candidates < 1:
            raise ValueError("max_candidates must be >= 1")
        if self.num_episodes < 1 or self.max_steps < 1:
            raise ValueError("num_episodes and max_steps must be >= 1")
