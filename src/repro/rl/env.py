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
from typing import Deque, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.lru import LRUCache
from ..cost.e2e import E2ESimulator, LatencySource
from ..ir.graph import Graph
from ..rules.base import Candidate, RuleSet
from ..rules.incremental import IncrementalCandidateEngine
from ..rules.rulesets import default_ruleset
from ..nn.gnn import BatchedGraphs
from ..search.result import Progress
from .features import FeatureCache, RewriteCone, build_delta_batch, \
    rewrite_cone

__all__ = ["Observation", "StepResult", "GraphRewriteEnv"]

#: Whole observations an environment keeps (LRU, see ``_observe``).
OBSERVATION_CACHE_SIZE = 512


def default_reward(previous_ms: float, current_ms: float, initial_ms: float) -> float:
    """Eq. 2: percentage latency improvement relative to the initial graph."""
    if initial_ms <= 0:
        return 0.0
    return (previous_ms - current_ms) / initial_ms * 100.0


class Observation:
    """What the agent sees at each step: the current graph, the candidates
    one rewrite away and the mask over the padded action space.

    The environment builds one from its candidates, which stay lazy: a
    candidate whose rewrite cone was handed down from an earlier step is
    batched from that cone, so its graph is built only when the agent picks
    it or :attr:`graphs` is read.  An observation can also be built over
    hand-picked ``graphs`` (current graph first).
    """

    def __init__(self, action_mask: np.ndarray, *,
                 current: Optional[Graph] = None,
                 candidates: Sequence[Candidate] = (),
                 graphs: Optional[Sequence[Graph]] = None,
                 feature_cache: Optional[FeatureCache] = None):
        #: Boolean mask over the padded action space (size
        #: ``max_candidates + 1``); the final entry is the always-valid
        #: No-Op action.
        self.action_mask = action_mask
        #: The candidates backing each valid action index.
        self.candidates: List[Candidate] = list(candidates)
        self._graphs = None if graphs is None else list(graphs)
        #: The graph the candidates rewrite.
        self.current: Graph = current if graphs is None else graphs[0]
        #: Encodes the current graph; its ``edge_norm`` is the one every
        #: batch of this observation is built with.
        self.feature_cache = feature_cache if feature_cache is not None \
            else FeatureCache()
        self._delta: Optional[Tuple[int, BatchedGraphs]] = None
        #: Candidates whose cone this observation derived and the
        #: environment has not remembered yet (:meth:`take_derived`).
        self._derived: List[Candidate] = []
        #: The last agent decision on this observation, ``(agent, weights
        #: version, probabilities, value)``: see ``XRLflowAgent.act``.
        self._decision: Optional[tuple] = None

    @property
    def graphs(self) -> List[Graph]:
        """The current graph followed by each candidate graph, every
        candidate materialised on first read: the full meta-graph
        reference (``agent_forward`` in ``tests/oracles/ppo_reference.py``)
        reads it, the rollout does not."""
        if self._graphs is None:
            self._graphs = [self.current] + [c.graph for c in self.candidates]
        return self._graphs

    @property
    def num_graphs(self) -> int:
        """Graphs in the meta-graph: the candidates plus the current one."""
        return 1 + len(self.candidates) if self.candidates \
            else len(self.graphs)

    def graph_sizes(self) -> List[int]:
        """Node counts of the meta-graph's graphs, current graph first,
        read off the candidates' cones where they have one."""
        if not self.candidates:
            return [len(graph.nodes) for graph in self.graphs]
        size = len(self.current.nodes)
        return [size] + [
            size + c.outcome.size_delta if isinstance(c.outcome, RewriteCone)
            else len(c.graph.nodes) for c in self.candidates]

    def delta_batch(self, num_layers: int) -> BatchedGraphs:
        """:func:`~repro.rl.features.build_delta_batch` of the current graph
        and the candidates' cones for an encoder of ``num_layers`` GAT
        layers, built on first call and kept: acting and the PPO update read
        the same batch.  A candidate without a cone of that depth is
        materialised and its cone derived (and kept as its ``outcome``)."""
        if self._delta is None or self._delta[0] != num_layers:
            # Lazily, so a cone derived here finds the current graph
            # encoded: its old nodes' edge blocks are the current graph's.
            others = (self._cone(c, num_layers) for c in self.candidates) \
                if self.candidates else self.graphs[1:]
            self._delta = (num_layers, build_delta_batch(
                self.current, others, num_layers, cache=self.feature_cache))
        return self._delta[1]

    def _cone(self, candidate: Candidate,
              num_layers: int) -> Union[RewriteCone, Graph]:
        """``candidate`` as the batch stores it: its cone for
        ``num_layers`` (handed down, or derived from its graph and queued
        for :meth:`take_derived`), or its graph if it lost its lineage."""
        cone = candidate.outcome
        if isinstance(cone, RewriteCone) and cone.num_layers == num_layers:
            return cone
        graph = candidate.graph
        if graph.delta_parent() is not self.current:
            return graph  # lineage lost: stored in full
        candidate.outcome = cone = rewrite_cone(graph, num_layers)
        self._derived.append(candidate)
        return cone

    def take_derived(self) -> List[Candidate]:
        """The candidates whose cones :meth:`delta_batch` derived since the
        last call (each one materialised, its cone in ``outcome``)."""
        derived, self._derived = self._derived, []
        return derived

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
    reward is :func:`default_reward` of latencies from ``e2e``, the latency
    provider.

    ``progress``, when given, is called after every step with the
    episode's step count, the best latency seen so far and its graph's
    structural hash; whoever builds the environment passes it.
    """

    def __init__(self, graph: Graph,
                 ruleset: Optional[RuleSet] = None,
                 e2e: Optional[LatencySource] = None,
                 feedback_interval: int = 5,
                 step_reward: float = 0.1,
                 max_candidates: int = 48,
                 max_steps: int = 50,
                 progress: Optional[Progress] = None,
                 feature_cache: Optional[FeatureCache] = None):
        self.initial_graph = graph
        self.ruleset = ruleset or default_ruleset()
        self.e2e = e2e or E2ESimulator()
        self.feedback_interval = int(feedback_interval)
        self.step_reward = float(step_reward)
        self.max_candidates = int(max_candidates)
        self.max_steps = int(max_steps)
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
        #: Called after every step with the episode's step count, the best
        #: latency so far and its graph's structural hash.
        self._progress = progress

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
        self._last_observation: Optional[Observation] = None

    # ------------------------------------------------------------------
    @property
    def action_space_size(self) -> int:
        """Padded action-space size (candidates plus the No-Op action)."""
        return self.max_candidates + 1

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
        # The cones the agent's batch derived go to the match engine before
        # the next state is reconciled, which hands down the ones this step
        # leaves alone.
        for candidate in observation.take_derived():
            cone = candidate.outcome
            self._candidate_engine.remember(candidate, candidate.graph, cone,
                                            cone.reads())
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
        if self._progress is not None:
            self._progress(self.step_count, self.best_latency_ms,
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
        reward = default_reward(self.last_measured_ms, current,
                                self.initial_latency_ms)
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
        obs = Observation(mask, current=self.current_graph,
                          candidates=candidates,
                          feature_cache=self.feature_cache)
        self._obs_cache.put(key, obs)
        self._last_observation = obs
        return obs

    def encode_cache_stats(self) -> Dict[str, float]:
        """Hit/miss counters of the encode and observation caches, and the
        match engine's: states updated from a parent's
        (``match_incremental_updates``) or rebuilt
        (``match_full_rebuilds``), and remembered cones and apply failures
        a state took over from its parent's (``outcomes_inherited``) or
        dropped because the step touched what they were read from
        (``outcomes_dropped``)."""
        stats = self.feature_cache.stats()
        stats.update(self._obs_cache.stats())
        stats.update(self._candidate_engine.stats())
        return stats

    def _applies(self, candidate: Candidate) -> bool:
        """Whether ``candidate``'s rule applies: known without applying it
        when a cone or failure was handed down, else by materialising it (a
        failure is remembered)."""
        if candidate.outcome is not None:
            return True
        if candidate.error is None and candidate.materialise() is None:
            self._candidate_engine.remember(candidate, None)
        return candidate.error is None

    def _select_candidates(self) -> List[Candidate]:
        """The ≤ ``max_candidates`` candidates shown to the agent.

        Candidates are generated lazily; only the ones selected here are
        looked at, and of those only the ones whose rewrite cone was not
        handed down from an earlier step are materialised (i.e. have their
        rule applied to a graph copy) — to learn whether they apply, and
        for the agent's batch to derive their cones.
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
            return [c for c in lazy if self._applies(c)]

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
                    if self._applies(candidate):
                        picked.append((index, candidate))
                        break
                if queue:
                    next_rotation.append(rule_name)
            rotation = next_rotation
        picked.sort(key=lambda pair: pair[0])
        return [candidate for _, candidate in picked]
