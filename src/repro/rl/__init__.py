"""Reinforcement-learning substrate: environment, PPO agent, training loop."""

from .features import (EDGE_FEATURE_DIM, GLOBAL_FEATURE_DIM, NODE_FEATURE_DIM,
                       FeatureCache, build_meta_graph, combine_meta_graphs,
                       encode_graph)
from .env import GraphRewriteEnv, Observation, StepResult
from .buffer import RolloutBuffer, Transition, compute_gae
from .ppo import ActionDecision, PPOUpdater, XRLflowAgent
from .training import EpisodeRecord, PPOTrainer, TrainingHistory

__all__ = [
    "EDGE_FEATURE_DIM", "GLOBAL_FEATURE_DIM", "NODE_FEATURE_DIM",
    "FeatureCache", "build_meta_graph", "combine_meta_graphs", "encode_graph",
    "GraphRewriteEnv", "Observation", "StepResult",
    "RolloutBuffer", "Transition", "compute_gae",
    "ActionDecision", "PPOUpdater", "XRLflowAgent",
    "EpisodeRecord", "PPOTrainer", "TrainingHistory",
]
