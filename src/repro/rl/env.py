"""Gym-style environment wrapping the tensor-graph transformation process.

The environment owns the current computation graph.  At every step it asks
the rewrite substrate for all applicable candidates, exposes them (padded to
a fixed action-space size plus a final No-Op action) as the observation, and
applies the candidate selected by the agent.  The reward follows Eq. 2 of the
paper: the end-to-end latency improvement relative to the initial latency,
measured every ``feedback_interval`` steps (a small constant reward is paid
on the intermediate steps to keep the agent exploring).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

import numpy as np

from ..core.lru import LRUCache
from ..cost.e2e import E2ESimulator, LatencySource
from ..ir.graph import Graph
from ..rules.base import Candidate, RuleSet
from ..rules.incremental import IncrementalCandidateEngine
from ..rules.rulesets import default_ruleset
from ..nn.gnn import BatchedGraphs
from .features import FeatureCache, build_delta_batch

__all__ = ["Observation", "StepResult", "GraphRewriteEnv"]

#: Whole observations an environment keeps (LRU, see ``_observe``).
OBSERVATION_CACHE_SIZE = 512

#: Signature of a user-registered reward callback:
#: ``f(previous_latency, current_latency, initial_latency) -> reward``.
RewardFn = Callable[[float, float, float], float]


def default_reward(previous_ms: float, current_ms: float, initial_ms: float) -> float:
    """Eq. 2: percentage latency improvement relative to the initial graph."""
    if initial_ms <= 0:
        return 0.0
    return (previous_ms - current_ms) / initial_ms * 100.0


@dataclass
class Observation:
    """What the agent sees at each step."""

    #: The current graph followed by each candidate graph.
    graphs: List[Graph]
    #: Boolean mask over the padded action space (size ``max_candidates + 1``).
    #: The final entry is the always-valid No-Op action.
    action_mask: np.ndarray
    #: The candidates backing each valid action index.
    candidates: List[Candidate] = field(default_factory=list)
    #: Encodes the graphs; its ``edge_norm`` is the one every batch of this
    #: observation is built with.
    feature_cache: FeatureCache = field(default_factory=FeatureCache)
    _delta: Optional[Tuple[int, BatchedGraphs]] = field(
        default=None, init=False, repr=False, compare=False)
    #: The last agent decision on this observation, ``(agent, weights
    #: version, probabilities, value)``: see ``XRLflowAgent.act``.
    _decision: Optional[tuple] = field(
        default=None, init=False, repr=False, compare=False)

    def delta_batch(self, num_layers: int) -> BatchedGraphs:
        """:func:`~repro.rl.features.build_delta_batch` of :attr:`graphs` for
        an encoder of ``num_layers`` GAT layers, built on first call and
        kept: acting and the PPO update read the same batch."""
        if self._delta is None or self._delta[0] != num_layers:
            self._delta = (num_layers, build_delta_batch(
                self.graphs, num_layers, cache=self.feature_cache))
        return self._delta[1]

    @property
    def num_actions(self) -> int:
        """Size of the padded action space (``max_candidates + 1``)."""
        return int(self.action_mask.shape[0])

    @property
    def noop_index(self) -> int:
        """The always-valid terminating action: the last slot."""
        return self.num_actions - 1


@dataclass
class StepResult:
    """What :meth:`GraphRewriteEnv.step` returns: the next observation, the
    step's reward, whether the episode ended, and latency diagnostics."""

    observation: Observation
    reward: float
    done: bool
    info: Dict[str, float] = field(default_factory=dict)


class GraphRewriteEnv:
    """Environment for one target DNN's transformation process; every
    reward is computed from ``e2e``, the latency provider."""

    def __init__(self, graph: Graph,
                 ruleset: Optional[RuleSet] = None,
                 e2e: Optional[LatencySource] = None,
                 feedback_interval: int = 5,
                 step_reward: float = 0.1,
                 max_candidates: int = 48,
                 max_steps: int = 50,
                 reward_fn: Optional[RewardFn] = None,
                 progress_callback: Optional[
                     Callable[[int, float, str], None]] = None,
                 feature_cache: Optional[FeatureCache] = None):
        self.initial_graph = graph
        self.ruleset = ruleset or default_ruleset()
        self.e2e = e2e or E2ESimulator()
        self.feedback_interval = int(feedback_interval)
        self.step_reward = float(step_reward)
        self.max_candidates = int(max_candidates)
        self.max_steps = int(max_steps)
        self.reward_fn = reward_fn or default_reward
        #: All encoding goes through one :class:`FeatureCache` (each graph's
        #: own feature memo; re-visited structures are the observation
        #: cache's job); its ``edge_norm`` is the one every batch of this
        #: environment's observations is built with.
        self.feature_cache = feature_cache if feature_cache is not None \
            else FeatureCache()
        #: Incremental match maintenance: candidate sets are reconciled
        #: against each step's ``GraphDelta`` instead of re-matching the
        #: whole graph (``RuleSet.lazy_candidates`` is the equivalence oracle).
        self._candidate_engine = IncrementalCandidateEngine(self.ruleset)
        #: Whole observations (candidates, mask, delta batch) memoised per
        #: current-graph structural hash.  The environment's dynamics are
        #: deterministic given the ruleset, so a re-visited state — the next
        #: episode retraces a prefix, a different action order reaches the
        #: same graph — reuses the complete observation: no rule matching,
        #: no candidate materialisation, no encoding.  One hash per step
        #: (memoised on the graph object) instead of one per candidate.
        self._obs_cache = LRUCache(OBSERVATION_CACHE_SIZE, name="observation")
        #: Optional ``f(step, best_latency_ms, best_graph_fp)`` invoked
        #: after every environment step — the hook long RL searches use to
        #: stream partial best-so-far graphs (see repro.service.events).
        self.progress_callback = progress_callback

        # Episode state
        self.current_graph: Graph = graph
        self.step_count = 0
        self.applied_rules: List[str] = []
        self.initial_latency_ms = 0.0
        self.last_measured_ms = 0.0
        self.best_graph: Graph = graph
        self.best_latency_ms = float("inf")
        #: The rules that produced ``best_graph``, in order: the episode's
        #: ``applied_rules`` as they stood when it became the best.
        self.best_rules: List[str] = []

    # ------------------------------------------------------------------
    @property
    def action_space_size(self) -> int:
        """Padded action-space size (candidates plus the No-Op action)."""
        return self.max_candidates + 1

    def set_graph(self, graph: Graph) -> None:
        """Point the environment at a different target graph (e.g. for
        shape-generalisation evaluation) without rebuilding it.

        All episode state is cleared — in particular ``best_graph`` /
        ``best_latency_ms`` / ``best_rules``, which would otherwise survive
        from the previous target and could report a "best graph" belonging
        to a different model.
        """
        self.initial_graph = graph
        self.current_graph = graph
        self.step_count = 0
        self.applied_rules = []
        self.initial_latency_ms = 0.0
        self.last_measured_ms = 0.0
        self.best_graph = graph
        self.best_latency_ms = float("inf")
        self.best_rules = []
        self._last_observation = None

    # ------------------------------------------------------------------
    def reset(self) -> Observation:
        """Start a new episode from the unoptimised graph."""
        self.current_graph = self.initial_graph
        self.step_count = 0
        self.applied_rules = []
        self.initial_latency_ms = self.e2e.latency_ms(self.current_graph)
        self.last_measured_ms = self.initial_latency_ms
        if self.initial_latency_ms < self.best_latency_ms:
            self.best_graph = self.current_graph
            self.best_latency_ms = self.initial_latency_ms
            self.best_rules = []
        return self._observe()

    def step(self, action: int) -> StepResult:
        """Apply the selected candidate (or terminate on No-Op / invalid).

        Any action outside ``[0, len(candidates))`` — the No-Op, a padded
        slot, a negative index — is treated as the No-Op, as is a slot the
        action mask marks invalid.
        """
        observation = self._last_observation
        if observation is None:
            raise RuntimeError("step() called before reset()")
        terminal_reward_needed = False
        measured = False

        if not 0 <= action < len(observation.candidates) or \
                not observation.action_mask[action]:
            # No-Op (or an out-of-range action, treated as No-Op): terminate.
            done = True
            reward = self._measure_reward()
            measured = True
        else:
            candidate = observation.candidates[action]
            self.current_graph = candidate.graph
            self.applied_rules.append(candidate.rule_name)
            self.step_count += 1
            done = False
            if self.step_count % self.feedback_interval == 0:
                reward = self._measure_reward()
                measured = True
            else:
                reward = self.step_reward
            if self.step_count >= self.max_steps:
                done = True
                terminal_reward_needed = True

        # ``_measure_reward`` already timed the current graph this step —
        # reuse its measurement instead of asking the simulator again.
        latency = self.last_measured_ms if measured \
            else self.e2e.latency_ms(self.current_graph)
        next_obs = self._observe()
        if not done and not next_obs.candidates:
            # No more applicable rewrites: the transformation terminates.
            done = True
            terminal_reward_needed = True
        if terminal_reward_needed:
            reward += self._measure_reward()
            latency = self.last_measured_ms
        if latency < self.best_latency_ms:
            self.best_graph = self.current_graph
            self.best_latency_ms = latency
            self.best_rules = list(self.applied_rules)
        if self.progress_callback is not None:
            self.progress_callback(self.step_count, self.best_latency_ms,
                                   self.best_graph.structural_hash())

        info = {
            "latency_ms": latency,
            "initial_latency_ms": self.initial_latency_ms,
            "speedup": self.initial_latency_ms / max(latency, 1e-9),
            "steps": float(self.step_count),
            "num_candidates": float(len(next_obs.candidates)),
        }
        return StepResult(observation=next_obs, reward=reward, done=done, info=info)

    # ------------------------------------------------------------------
    def _measure_reward(self) -> float:
        current = self.e2e.latency_ms(self.current_graph)
        reward = self.reward_fn(self.last_measured_ms, current, self.initial_latency_ms)
        self.last_measured_ms = current
        return reward

    def _observe(self) -> Observation:
        key = self.current_graph.structural_hash()
        cached = self._obs_cache.get(key)
        if cached is not None:
            self._last_observation = cached
            return cached
        candidates = self._select_candidates()
        mask = np.zeros(self.action_space_size, dtype=bool)
        mask[: len(candidates)] = True
        mask[-1] = True  # No-Op is always available
        obs = Observation(
            graphs=[self.current_graph] + [c.graph for c in candidates],
            action_mask=mask, candidates=candidates,
            feature_cache=self.feature_cache)
        self._obs_cache.put(key, obs)
        self._last_observation = obs
        return obs

    def encode_cache_stats(self) -> Dict[str, float]:
        """Hit/miss counters of the observation/encode caches."""
        stats = self.feature_cache.stats()
        stats.update(self._obs_cache.stats())
        return stats

    def _select_candidates(self) -> List[Candidate]:
        """The ≤ ``max_candidates`` candidates shown to the agent.

        Candidates are generated lazily; only the ones selected here are
        ever materialised (i.e. have their rule applied to a graph copy).
        When the graph offers more rewrites than the action space holds, the
        quota is filled round-robin across rules — every rule family stays
        represented, instead of the first rules in declaration order
        monopolising the action space — and the selection is re-sorted into
        enumeration order so action indices remain stable with the uncapped
        case.  Matches that fail to apply are dropped and their slot is
        backfilled from the same rule.
        """
        lazy = self._candidate_engine.lazy_candidates(self.current_graph)
        if len(lazy) <= self.max_candidates:
            return [c for c in lazy if c.materialise() is not None]

        queues: Dict[str, Deque[Tuple[int, Candidate]]] = {}
        for index, candidate in enumerate(lazy):
            queues.setdefault(candidate.rule_name, deque()).append((index, candidate))
        rotation = list(queues)
        picked: List[Tuple[int, Candidate]] = []
        while rotation and len(picked) < self.max_candidates:
            next_rotation = []
            for rule_name in rotation:
                if len(picked) >= self.max_candidates:
                    break
                queue = queues[rule_name]
                while queue:
                    index, candidate = queue.popleft()
                    if candidate.materialise() is not None:
                        picked.append((index, candidate))
                        break
                if queue:
                    next_rotation.append(rule_name)
            rotation = next_rotation
        picked.sort(key=lambda pair: pair[0])
        return [candidate for _, candidate in picked]

    _last_observation: Optional[Observation] = None
