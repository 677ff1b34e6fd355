"""The X-RLflow tensor-graph superoptimiser public API.

Typical usage::

    from repro import XRLflow, XRLflowConfig, build_model

    graph = build_model("bert")
    optimiser = XRLflow(XRLflowConfig.fast())
    result = optimiser.optimise(graph, model_name="bert")
    print(result.summary())

``optimise`` trains a PPO agent in the graph-rewrite environment (unless a
trained agent is supplied / training is disabled) and then runs deterministic
evaluation episodes, returning the best graph encountered.
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional

import numpy as np

from ..cost.cost_model import CostModel
from ..cost.e2e import E2ESimulator, LatencySource
from ..ir.graph import Graph
from ..rules.base import RuleSet
from ..rules.rulesets import default_ruleset
from ..rl.env import GraphRewriteEnv
from ..rl.features import FeatureCache
from ..rl.ppo import PPOUpdater, XRLflowAgent
from ..rl.training import PPOTrainer, TrainingHistory, run_episode
from ..search.result import Progress, SearchResult, timed
from .config import XRLflowConfig

__all__ = ["XRLflow", "OptimisationResult"]

#: Alias kept for API clarity: X-RLflow returns the same result type as the
#: baseline optimisers so they can be compared directly.
OptimisationResult = SearchResult


def _numbered(progress: Optional[Progress]) -> Optional[Progress]:
    """``progress`` with the environments' per-episode step counts replaced
    by one count from 1, kept by the returned callable alone."""
    if progress is None:
        return None
    steps = itertools.count(1)

    def relay(_step: int, best_latency_ms: float, best_graph_fp: str) -> None:
        progress(next(steps), best_latency_ms, best_graph_fp)

    return relay


class XRLflow:
    """Graph-RL tensor graph superoptimiser (the paper's system).

    Parameters
    ----------
    config:
        Hyper-parameters (the paper's Table 4 via :class:`XRLflowConfig`;
        ``XRLflowConfig.fast()`` is the CI-sized preset).  Validated at
        construction — invalid values raise ``ValueError`` here.
    ruleset:
        Rewrite rules forming the environment's action space (defaults to
        the curated TASO set).
    e2e:
        The latency provider — the reward signal.
    cost_model:
        Used only to report initial/final cost-model estimates alongside
        the latencies.

    Attributes
    ----------
    agent:
        The trained :class:`XRLflowAgent`, or ``None`` before training.
    history:
        The last :class:`TrainingHistory`, or ``None`` before training.
    """

    name = "xrlflow"

    def __init__(self, config: Optional[XRLflowConfig] = None,
                 ruleset: Optional[RuleSet] = None,
                 e2e: Optional[LatencySource] = None,
                 cost_model: Optional[CostModel] = None):
        self.config = config or XRLflowConfig()
        self.config.validate()
        self.ruleset = ruleset or default_ruleset()
        self.e2e = e2e or E2ESimulator()
        self.cost_model = cost_model or CostModel()
        self.agent: Optional[XRLflowAgent] = None
        self.history: Optional[TrainingHistory] = None
        #: The environment the last :meth:`train` explored.
        self._training_env: Optional[GraphRewriteEnv] = None

    # ------------------------------------------------------------------
    def _build_env(self, graph: Graph,
                   progress: Optional[Progress] = None) -> GraphRewriteEnv:
        cfg = self.config
        return GraphRewriteEnv(
            graph, ruleset=self.ruleset, e2e=self.e2e,
            feedback_interval=cfg.feedback_interval,
            step_reward=cfg.step_reward,
            max_candidates=cfg.max_candidates,
            max_steps=cfg.max_steps,
            progress=progress,
            feature_cache=FeatureCache(edge_norm=cfg.edge_attr_norm),
        )

    def _build_agent(self) -> XRLflowAgent:
        cfg = self.config
        return XRLflowAgent(hidden_dim=cfg.hidden_dim,
                            embedding_dim=cfg.embedding_dim,
                            num_gat_layers=cfg.num_gat_layers,
                            head_sizes=cfg.mlp_head_sizes,
                            seed=cfg.seed)

    # ------------------------------------------------------------------
    def train(self, graph: Graph, num_episodes: Optional[int] = None,
              progress: Optional[Progress] = None) -> TrainingHistory:
        """Train a fresh agent on ``graph`` for ``num_episodes`` episodes.

        Replaces any previously trained :attr:`agent`.

        Parameters
        ----------
        graph:
            The training environment's target graph (never mutated).
        num_episodes:
            Episode budget; defaults to ``config.num_episodes``.
        progress:
            Called after every environment step with the call's step count
            (from 1, across episodes), the best latency so far and its
            graph's structural hash (:data:`~repro.search.result.Progress`).

        Returns
        -------
        TrainingHistory
            Per-episode rewards, latencies and applied rules; also kept on
            :attr:`history`.
        """
        cfg = self.config
        # From optimise(), ``progress`` is already its numbered relay.  The
        # rewrap is intended: that relay ignores this count and keeps its
        # own, which optimise()'s evaluation episodes continue.
        env = self._build_env(graph, _numbered(progress))
        self.agent = self._build_agent()
        updater = PPOUpdater(
            self.agent,
            learning_rate=cfg.learning_rate,
            clip_epsilon=cfg.clip_epsilon,
            value_coef=cfg.value_loss_coef,
            entropy_coef=cfg.entropy_loss_coef,
            epochs=cfg.ppo_epochs,
            batch_size=cfg.batch_size,
            max_grad_norm=cfg.max_grad_norm,
            seed=cfg.seed,
        )
        trainer = PPOTrainer(env, self.agent, updater,
                             update_frequency=cfg.update_frequency,
                             gamma=cfg.gamma, gae_lambda=cfg.gae_lambda)
        self.history = trainer.train(num_episodes or cfg.num_episodes)
        self._training_env = env
        return self.history

    # ------------------------------------------------------------------
    def optimise(self, graph: Graph, model_name: str = "",
                 progress: Optional[Progress] = None,
                 train: bool = True) -> SearchResult:
        """Optimise ``graph``: (optionally) train, then evaluate greedily.

        The returned graph is the best one (by simulated end-to-end latency)
        seen across training exploration and the deterministic evaluation
        episodes — the RL agent's reward signal *is* the end-to-end latency,
        so every graph it visits has already been measured.

        Parameters
        ----------
        graph:
            The graph to optimise (never mutated).
        model_name:
            Label for the result; defaults to ``graph.name``.
        progress:
            Called after every environment step, training's and
            evaluation's, with the call's step count (from 1), the best
            latency so far and its graph's structural hash
            (:data:`~repro.search.result.Progress`).
        train:
            Train a fresh agent first (the default).  ``False`` reuses the
            current :attr:`agent` — e.g. one restored via
            :meth:`load_agent` for the paper's shape-generalisation
            protocol; if no agent exists yet, training happens anyway
            (and its exploration's best graph counts, as with ``True``).

        Returns
        -------
        SearchResult
            Best graph with end-to-end latencies, applied rules, and
            training diagnostics (``train_time_s``, ``episodes_trained``,
            ``mean_recent_reward``) under ``stats``.  ``policy_speedup``
            and ``policy_rules`` (a count) are what the deterministic
            evaluation episodes alone reached, without training
            exploration's best graph.
            ``optimisation_time_s`` covers only the evaluation episodes;
            training cost is reported separately in ``stats``.
        """
        cfg = self.config
        # One count across training and evaluation.  Training goes through
        # the public train(), which tracing and tests observe.
        progress = _numbered(progress)
        initial_cost = self.cost_model.estimate_cached(graph)
        with timed() as elapsed:
            trained = train or self.agent is None
            if trained:
                self.train(graph, progress=progress)
                train_time = elapsed()
            else:
                train_time = 0.0

            with timed() as opt_elapsed:
                env = self._build_env(graph, progress)
                for _ in range(max(1, cfg.eval_episodes)):
                    run_episode(env, self.agent, deterministic=True)
                optimisation_time = opt_elapsed()
            # The environment's best spans every evaluation episode.
            best_graph, best_latency = env.best_graph, env.best_latency_ms
            best_rules = list(env.best_rules)
            policy_latency, policy_rules = best_latency, len(best_rules)

            # Also consider the best graph this call's training exploration
            # discovered (its latency was measured as part of the reward).
            explored = self._training_env
            if trained and explored.best_latency_ms < best_latency:
                best_latency = explored.best_latency_ms
                best_graph = explored.best_graph
                best_rules = list(explored.best_rules)

        initial_latency = self.e2e.latency_ms(graph)
        stats: Dict[str, float] = {
            "train_time_s": float(train_time),
            "episodes_trained": float(len(self.history.episodes)) if self.history else 0.0,
            "mean_recent_reward": self.history.mean_reward() if self.history else 0.0,
            # Observation-encode cache effectiveness (the evaluation env's;
            # the training env's is in ``history.update_stats``).
            "encode_cache_hit_rate": env.encode_cache_stats()["hit_rate"],
            # The deterministic policy's own result, before training
            # exploration's best is merged in.
            "policy_speedup": (initial_latency / policy_latency
                               if policy_latency > 0 else 1.0),
            "policy_rules": float(policy_rules),
        }
        return SearchResult(
            optimiser=self.name,
            model=model_name or graph.name,
            initial_graph=graph,
            final_graph=best_graph,
            initial_latency_ms=initial_latency,
            final_latency_ms=best_latency,
            initial_cost_ms=initial_cost,
            final_cost_ms=self.cost_model.estimate_cached(best_graph),
            optimisation_time_s=optimisation_time,
            applied_rules=best_rules,
            stats=stats,
        )

    # ------------------------------------------------------------------
    def save_agent(self, path: str) -> None:
        """Persist the trained agent's parameters to an ``.npz`` file.

        Parameters
        ----------
        path:
            Destination file (numpy appends ``.npz`` if missing).

        Raises
        ------
        RuntimeError
            If no agent has been trained yet.
        """
        if self.agent is None:
            raise RuntimeError("no trained agent to save")
        np.savez(path, **self.agent.state_dict())

    def load_agent(self, path: str) -> None:
        """Load agent parameters previously written by :meth:`save_agent`.

        Builds a fresh agent from the current ``config`` (architecture
        hyper-parameters must match the saved agent's) and replaces
        :attr:`agent` once every parameter loaded; a failed load leaves
        :attr:`agent` as it was.  Pair with ``optimise(train=False)`` to
        reuse it.
        The agent is float32: a float32 checkpoint reloads bit-exactly, a
        float64 one is rounded to float32 once.

        Parameters
        ----------
        path:
            An ``.npz`` file from :meth:`save_agent`.

        Raises
        ------
        FileNotFoundError
            If ``path`` does not exist.
        ValueError
            If the file's parameters do not match this config's
            architecture.
        """
        state = dict(np.load(path))
        agent = self._build_agent()
        agent.load_state_dict(state)
        self.agent = agent
