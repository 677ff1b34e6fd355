"""Benchmarks for the fast RL stack (X-RLflow agent + environment).

Three measurements on the largest model-zoo graphs (InceptionV3 is the
largest convolutional entry, BERT the largest transformer entry), each
comparing the fast path against a faithful reimplementation of the seed
repo's RL loop (``SeedAgent`` below: per-candidate Python loops building the
pair matrix, the O(A²) ``list.index`` logit-padding loop, ``np.add.at``
segment kernels via :func:`reference_kernels`, tape-building rollouts,
float64 everywhere, from-scratch observation encoding):

* **observation encoding** — graphs/sec encoding a current graph plus all
  of its rewrite candidates.  The fast path patches each candidate's arrays
  from the parent's cached per-node blocks (`GraphDelta`-driven
  invalidation) instead of re-walking every node and edge in Python.
* **env steps** — end-to-end steps/sec over an ``optimise()``-shaped
  workload: a window of stochastic training rollouts followed by repeated
  deterministic evaluation episodes.  The fast path runs the training
  default (float32 agent, ``no_grad`` rollouts, observation + decision
  caches); a float64 fast run is also timed and must retrace the eager
  trajectory *exactly*.
* **PPO update** — ``PPOUpdater.update`` wall-clock on a realistic
  10-episode buffer: chunked batched forward (float32 training default)
  vs the seed per-transition loop.

Results are recorded to ``BENCH_rl.json`` (see ``_harness.py``) so the perf
trajectory is gated over time (see ``tools/check_bench.py``).

Set ``RL_BENCH_SMOKE=1`` (CI) for reduced budgets with relaxed speedup
floors — CI boxes are too noisy for the full gates, which are asserted in
the default (full) mode.
"""

import os
import time
from functools import partial

import numpy as np

import _harness
from repro.experiments import ExperimentReport, build_small_model
from repro.nn import reference_kernels
from repro.nn.tensor import Tensor, concat, flat_ids_cache_stats, stack
from repro.rl import (GraphRewriteEnv, RolloutBuffer, Transition,
                      PPOUpdater, XRLflowAgent, encode_graph)
from repro.rules import default_ruleset

SMOKE = os.environ.get("RL_BENCH_SMOKE") == "1"
REPEATS = 1 if SMOKE else 5
TRAIN_EPISODES = 2 if SMOKE else 6
EVAL_EPISODES = 2 if SMOKE else 4
BUFFER_EPISODES = 3 if SMOKE else 10
PPO_EPOCHS = 1 if SMOKE else 2
#: Full-mode acceptance floors, set with margin under the measured numbers
#: (encode 3.2-3.7x, env steps 3.6-4.2x, PPO update 2.1-2.3x on the
#: reference box — see BENCH_rl.json); smoke floors live in
#: tools/check_bench.py.
MIN_ENCODE_SPEEDUP = 1.2 if SMOKE else 2.5
MIN_ENV_SPEEDUP = 1.1 if SMOKE else 2.0
MIN_PPO_SPEEDUP = 1.1 if SMOKE else 1.5
#: Largest zoo graphs by node count: convolutional and transformer family.
LARGEST_MODELS = ["inception_v3", "bert"]

AGENT_KW = dict(hidden_dim=32, embedding_dim=32, num_gat_layers=3,
                head_sizes=(64, 32), seed=0)
ENV_KW = dict(max_candidates=24, max_steps=10, seed=0)

record = partial(_harness.record, "rl", smoke=SMOKE)
best_of = partial(_harness.best_of, repeats=REPEATS)

_MASK_VALUE = -1e9


class SeedAgent(XRLflowAgent):
    """The seed repo's ``forward``, reimplemented line-for-line.

    Per-candidate Python loop assembling the pair matrix, then the O(A²)
    ``list.index`` padding loop rebuilding the masked logit vector out of
    1-element tensors.  Numerically identical to the vectorised forward —
    kept here as the benchmark baseline.
    """

    def forward(self, observation):
        embeddings = self.encoder(observation.meta_graph)  # [1 + C, D]
        num_graphs = observation.meta_graph.num_graphs
        current = embeddings[0:1]
        num_candidates = num_graphs - 1

        rows = []
        current_b = current.reshape(self.embedding_dim)
        if num_candidates > 0:
            candidate_emb = embeddings[1:num_graphs]
            for i in range(num_candidates):
                rows.append(concat([current_b, candidate_emb[i]], axis=0))
        rows.append(concat([current_b, current_b], axis=0))
        pair_matrix = stack(rows, axis=0)
        logits = self.policy_head(pair_matrix).reshape(len(rows))

        mask = observation.action_mask
        logits_np_positions = list(range(num_candidates)) + [mask.shape[0] - 1]
        pad_rows = []
        for position in range(mask.shape[0]):
            if position in logits_np_positions:
                idx = logits_np_positions.index(position)
                pad_rows.append(logits[idx:idx + 1])
            else:
                pad_rows.append(Tensor(np.array([_MASK_VALUE])))
        masked_logits = concat(pad_rows, axis=0)
        invalid = ~mask
        if invalid.any():
            masked_logits = masked_logits + Tensor(
                np.where(invalid, _MASK_VALUE, 0.0))

        if num_candidates > 0:
            mean_candidate = embeddings[1:num_graphs].mean(axis=0)
        else:
            mean_candidate = current_b
        value_input = concat([current_b, mean_candidate], axis=0).reshape(1, -1)
        value = self.value_head(value_input).reshape(1)
        return masked_logits, value


def _assert_features_equal(fast, ref):
    for field in ("node_features", "edge_features", "edge_src", "edge_dst"):
        assert np.array_equal(getattr(fast, field), getattr(ref, field)), field


# ---------------------------------------------------------------------------
# 1. Observation encoding
# ---------------------------------------------------------------------------

def test_observation_encoding_throughput(benchmark):
    """Delta-patched vectorised encoding vs the seed per-edge Python loop."""
    report = ExperimentReport(
        experiment="RL bench",
        description="current graph + all candidates encode throughput (graphs/s)")
    payload = {}

    def run():
        rows = []
        for name in LARGEST_MODELS:
            graph = build_small_model(name)
            ruleset = default_ruleset()

            def fresh_candidates():
                return [c.graph for c in ruleset.all_candidates(graph)]

            def eager_pass():
                graphs = [graph] + fresh_candidates()
                started = time.perf_counter()
                feats = [encode_graph(g, incremental=False) for g in graphs]
                return time.perf_counter() - started, feats, graphs

            def fast_pass():
                # Candidates materialised outside the timer: the measurement
                # is encoding alone.  Parent blocks are warm (the environment
                # always encodes the current graph first), candidates are
                # fresh objects patched from the parent's cached rows.
                encode_graph(graph)
                graphs = [graph] + fresh_candidates()
                started = time.perf_counter()
                feats = [encode_graph(g) for g in graphs]
                return time.perf_counter() - started, feats, graphs

            eager_s = fast_s = float("inf")
            for _ in range(REPEATS):
                e_s, eager_feats, _ = eager_pass()
                f_s, fast_feats, _ = fast_pass()
                eager_s, fast_s = min(eager_s, e_s), min(fast_s, f_s)
                # Equivalence gate: arrays bit-for-bit identical.
                for fast_f, ref_f in zip(fast_feats, eager_feats):
                    _assert_features_equal(fast_f, ref_f)
            rows.append((name, len(eager_feats), eager_s, fast_s))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    for name, count, eager_s, fast_s in rows:
        speedup = eager_s / fast_s
        report.add(name, graphs=float(count),
                   eager_graphs_per_s=count / eager_s,
                   fast_graphs_per_s=count / fast_s,
                   speedup_x=speedup)
        payload[name] = {
            "graphs": count,
            "eager_graphs_per_sec": count / eager_s,
            "fast_graphs_per_sec": count / fast_s,
            "speedup": speedup,
        }
    print("\n" + report.to_text())
    record("observation_encoding", payload)
    for name, count, eager_s, fast_s in rows:
        assert eager_s / fast_s >= MIN_ENCODE_SPEEDUP, \
            (f"{name}: incremental encoding only {eager_s / fast_s:.2f}x "
             f"faster (gate {MIN_ENCODE_SPEEDUP}x)")


# ---------------------------------------------------------------------------
# 2. Environment steps (optimise()-shaped workload)
# ---------------------------------------------------------------------------

def _trace_matching(env, stages):
    """Route the env's rule-matching through a wall-clock accumulator."""
    target = env._candidate_engine if env._candidate_engine is not None \
        else env.ruleset
    inner = target.lazy_candidates

    def timed(graph):
        started = time.perf_counter()
        result = inner(graph)
        stages["match_s"] += time.perf_counter() - started
        return result

    target.lazy_candidates = timed


def _run_workload(env, agent, grad, stages=None):
    """Stochastic training window + repeated deterministic evaluation.

    ``stages`` (optional dict) accumulates per-stage wall-clock: ``act_s``
    (policy forward — the delta GNN embed on the fast path, the full
    meta-graph forward on the eager path), ``step_s`` (env transition:
    candidate maintenance, materialisation, reward) and ``match_s`` (rule
    matching inside ``step_s``, via :func:`_trace_matching`).
    """
    if stages is not None:
        _trace_matching(env, stages)
    actions = []

    def _episode(deterministic):
        obs = env.reset()
        done = False
        while not done:
            started = time.perf_counter()
            decision = agent.act(obs, deterministic=deterministic, grad=grad)
            acted = time.perf_counter()
            step = env.step(decision.action)
            if stages is not None:
                stages["act_s"] += acted - started
                stages["step_s"] += time.perf_counter() - acted
            actions.append(decision.action)
            obs, done = step.observation, step.done

    for _ in range(TRAIN_EPISODES):
        _episode(False)
    for _ in range(EVAL_EPISODES):
        _episode(True)
    return actions


def test_env_steps_throughput(benchmark):
    """Fast RL loop (float32 + caches + no_grad) vs the seed loop."""
    report = ExperimentReport(
        experiment="RL bench",
        description="env steps/sec, training + evaluation workload")
    payload = {}

    def run():
        rows = []
        for name in LARGEST_MODELS:
            graph = build_small_model(name)

            # Untimed warm-up episode: first-touch costs (BLAS code paths,
            # latency profiles memoised on the shared graph objects) must
            # not bias whichever variant happens to run first.
            warm_env = GraphRewriteEnv(graph, **ENV_KW)
            warm_agent = XRLflowAgent(**AGENT_KW)
            obs = warm_env.reset()
            done = False
            while not done:
                step = warm_env.step(warm_agent.act(obs).action)
                obs, done = step.observation, step.done

            def fast_run():
                stages = {"act_s": 0.0, "step_s": 0.0, "match_s": 0.0}
                env = GraphRewriteEnv(graph, **ENV_KW)
                agent = XRLflowAgent(**AGENT_KW, dtype=np.float32)
                actions = _run_workload(env, agent, grad=False,
                                        stages=stages)
                return actions, env, agent, stages

            def fast64_run():
                env = GraphRewriteEnv(graph, **ENV_KW)
                agent = XRLflowAgent(**AGENT_KW)
                actions = _run_workload(env, agent, grad=False)
                return actions, env

            def eager_run():
                stages = {"act_s": 0.0, "step_s": 0.0, "match_s": 0.0}
                env = GraphRewriteEnv(graph, **ENV_KW, incremental=False)
                agent = SeedAgent(**AGENT_KW)
                with reference_kernels():
                    actions = _run_workload(env, agent, grad=True,
                                            stages=stages)
                return actions, env, stages

            fast_s, (fast_actions, fast_env, fast_agent, fast_stages) = \
                best_of(fast_run)
            fast64_s, (fast64_actions, _) = best_of(fast64_run)
            eager_s, (eager_actions, _, eager_stages) = best_of(eager_run)
            # Equivalence gate #1: in float64 the fast path must retrace
            # the seed trajectory action-for-action.
            assert fast64_actions == eager_actions, name

            # Equivalence gate #2: one verified (untimed) episode — the
            # delta GNN forward is checked bit-for-bit against the full
            # encoder on every policy evaluation.  The recorded check
            # count lets tools/check_bench.py refuse a run that skipped
            # the gate.
            verify_env = GraphRewriteEnv(graph, **ENV_KW)
            verify_agent = XRLflowAgent(**AGENT_KW)
            verify_agent.embedder.verify = True
            obs = verify_env.reset()
            done = False
            while not done:
                step = verify_env.step(verify_agent.act(obs).action)
                obs, done = step.observation, step.done
            embed_checks = verify_agent.embedder.equivalence_checks
            assert embed_checks > 0, \
                f"{name}: embedder equivalence gate never exercised"

            steps = len(eager_actions)
            stats = fast_env.encode_cache_stats()
            stats.update(fast_env._candidate_engine.stats())
            stats.update(fast_agent.embedder.stats())
            stats.update(fast_agent._decision_cache.stats())
            stats.update(flat_ids_cache_stats())
            rows.append((name, steps, fast_s, fast64_s, eager_s, stats,
                         fast_stages, eager_stages, embed_checks))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    for (name, steps, fast_s, fast64_s, eager_s, stats, fast_stages,
         eager_stages, embed_checks) in rows:
        speedup = eager_s / fast_s
        report.add(name, steps=float(steps),
                   fast_steps_per_s=steps / fast_s,
                   eager_steps_per_s=steps / eager_s,
                   speedup_x=speedup,
                   act_speedup_x=eager_stages["act_s"] / fast_stages["act_s"],
                   obs_cache_hit=stats["observation_hit_rate"])
        payload[name] = {
            "steps": steps,
            "fast_steps_per_sec": steps / fast_s,
            "fast_float64_steps_per_sec": steps / fast64_s,
            "eager_steps_per_sec": steps / eager_s,
            "speedup": speedup,
            "speedup_float64": eager_s / fast64_s,
            "observation_cache_hit_rate": stats["observation_hit_rate"],
            "encode_cache_hit_rate": stats["hit_rate"],
            # Per-stage wall-clock (best repeat) and fast-vs-eager stage
            # speedups: act = policy forward (delta GNN embed vs full
            # meta-graph forward), step = env transition, match = rule
            # matching inside step (incremental engine vs full scans).
            "stages": {
                "fast": fast_stages,
                "eager": eager_stages,
                "act_speedup":
                    eager_stages["act_s"] / fast_stages["act_s"],
                "step_speedup":
                    eager_stages["step_s"] / fast_stages["step_s"],
                "match_speedup":
                    eager_stages["match_s"] / fast_stages["match_s"],
            },
            # Unified-LRU counters (repro.core.lru) for every hot-path
            # cache touched by the fast run.
            "lru": stats,
            "equivalence": {
                "trajectory_float64": "passed",
                "embedder_checks": float(embed_checks),
            },
        }
    print("\n" + report.to_text())
    record("env_steps", payload)
    for (name, steps, fast_s, fast64_s, eager_s, stats, fast_stages,
         eager_stages, embed_checks) in rows:
        assert eager_s / fast_s >= MIN_ENV_SPEEDUP, \
            (f"{name}: fast env loop only {eager_s / fast_s:.2f}x faster "
             f"(gate {MIN_ENV_SPEEDUP}x)")


# ---------------------------------------------------------------------------
# 3. PPO update
# ---------------------------------------------------------------------------

def _collect_buffer(graph):
    """A realistic rollout window: BUFFER_EPISODES episodes, fixed weights."""
    env = GraphRewriteEnv(graph, **ENV_KW)
    agent = XRLflowAgent(**AGENT_KW)
    buffer = RolloutBuffer()
    for _ in range(BUFFER_EPISODES):
        obs = env.reset()
        done = False
        while not done:
            decision = agent.act(obs)
            step = env.step(decision.action)
            buffer.add(Transition(obs, decision.action, decision.log_prob,
                                  decision.value, step.reward, step.done))
            obs, done = step.observation, step.done
    return buffer


def test_ppo_update_speedup(benchmark):
    """Chunked batched PPO update (float32) vs the seed per-transition loop."""
    report = ExperimentReport(
        experiment="RL bench",
        description="PPOUpdater.update wall-clock, batched vs seed loop")
    payload = {}

    def run():
        rows = []
        for name in LARGEST_MODELS:
            graph = build_small_model(name)
            buffer = _collect_buffer(graph)

            def batched_update():
                agent = XRLflowAgent(**AGENT_KW, dtype=np.float32)
                updater = PPOUpdater(agent, epochs=PPO_EPOCHS, batch_size=16,
                                     batched=True, seed=0)
                return updater.update(buffer)

            def batched64_update():
                agent = XRLflowAgent(**AGENT_KW)
                updater = PPOUpdater(agent, epochs=PPO_EPOCHS, batch_size=16,
                                     batched=True, seed=0)
                return updater.update(buffer)

            def loop_update():
                agent = SeedAgent(**AGENT_KW)
                updater = PPOUpdater(agent, epochs=PPO_EPOCHS, batch_size=16,
                                     batched=False, seed=0)
                with reference_kernels():
                    return updater.update(buffer)

            batched64_update()  # untimed warm-up (BLAS paths, encodings)
            batched_s, batched_stats = best_of(batched_update)
            batched64_s, batched64_stats = best_of(batched64_update)
            loop_s, loop_stats = best_of(loop_update)
            # Equivalence gate: in float64 the batched update reproduces the
            # seed loop's statistics (per-transition outputs are bit-equal;
            # the minibatch mean reduction rounds differently, hence approx).
            assert np.isclose(batched64_stats.policy_loss,
                              loop_stats.policy_loss,
                              rtol=1e-6, atol=1e-9), name
            assert np.isclose(batched64_stats.value_loss,
                              loop_stats.value_loss,
                              rtol=1e-6, atol=1e-9), name
            rows.append((name, len(buffer), batched_s, batched64_s, loop_s))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    for name, transitions, batched_s, batched64_s, loop_s in rows:
        speedup = loop_s / batched_s
        report.add(name, transitions=float(transitions),
                   batched_s=batched_s, loop_s=loop_s, speedup_x=speedup)
        payload[name] = {
            "transitions": transitions,
            "epochs": PPO_EPOCHS,
            "batched_seconds": batched_s,
            "batched_float64_seconds": batched64_s,
            "loop_seconds": loop_s,
            "speedup": speedup,
            "speedup_float64": loop_s / batched64_s,
        }
    print("\n" + report.to_text())
    record("ppo_update", payload)
    for name, transitions, batched_s, batched64_s, loop_s in rows:
        assert loop_s / batched_s >= MIN_PPO_SPEEDUP, \
            (f"{name}: batched PPO update only {loop_s / batched_s:.2f}x "
             f"faster (gate {MIN_PPO_SPEEDUP}x)")
