"""Equivalence gate for the fast RL stack.

The RL perf work (incremental observation encoding, delta batches for
rollout and update, batched PPO forward, bincount segment kernels) must be
behaviour-preserving.  The learning stack runs at float32 only, and what
holds at float32 is asserted bit for bit: feature arrays against the
per-edge oracle (which rounds its float64 result once), rollout embeddings
and decisions against the full meta-graph, batched ``evaluate_actions``
outputs per transition.  What agrees only up to addition order —
parameter gradients, Adam steps, a greedy sequence after training — is
compared on a float64 leg (``tests/oracles/float64_leg.py``) at a stated
tolerance.  The references live in ``tests/oracles/``.
"""

import copy
import pickle

import numpy as np
import pytest
from delta_batch_reference import reference_delta_batch
from encode_reference import reference_encode_graph, reference_meta_graph
from float64_leg import upcast
import ppo_reference
from ppo_reference import (LoopPPOUpdater, agent_forward, evaluate_actions,
                           loop_loss)
from segment_reference import add_at_rows
from tape import Tensor, delta_segment_sum, segment_sum

import repro.ir.graph
import repro.nn.tensor
import repro.rl.env
import repro.rl.features
from repro.experiments import build_small_model
from repro.ir import GraphBuilder
from repro.nn import GraphEmbeddingNetwork, no_grad
from repro.rl import (FeatureCache, GraphRewriteEnv, Observation, PPOTrainer,
                      PPOUpdater, RolloutBuffer, Transition, XRLflowAgent,
                      build_meta_graph, encode_graph)
from repro.rl.features import (build_delta_batch, combine_meta_graphs,
                               rewrite_cone)
from repro.rl.ppo import ppo_loss
from repro.rules import default_ruleset

MODELS = ["squeezenet", "resnext50", "bert", "vit"]
ZOO = MODELS + ["inception_v3", "resnet18", "dalle", "tt"]


def scaled_attention_graph():
    """Mul-of-batch-matmul chain: push-mul-bmm then fold-mul-matmul fodder."""
    b = GraphBuilder("scaled_attention")
    x = b.input((2, 4, 8), name="x")
    w = b.weight((8, 8), name="w")
    q = b.matmul(x, w)
    kt = b.transpose(x, (0, 2, 1))
    scores = b.batch_matmul(q, kt)
    scale = b.constant((1,), name="scale")
    return b.build([b.mul(scores, scale)])


def algebra_cleanup_graph():
    """distribute-mul-add, reassoc-matmul, double-transpose, slice-concat."""
    b = GraphBuilder("algebra")
    x = b.input((4, 8), name="x")
    a = b.weight((8, 16), name="a")
    c = b.weight((16, 4), name="c")
    chain = b.matmul(b.matmul(x, a), c)
    y = b.weight((4, 4), name="y")
    k = b.constant((1,), name="k")
    dist = b.mul(b.add(chain, y), k)
    t = b.input((2, 3, 4), name="t")
    double_t = b.relu(b.transpose(b.transpose(t, (0, 2, 1)), (0, 2, 1)))
    u = b.input((2, 4), name="u")
    v = b.weight((2, 6), name="v")
    sl = b.relu(b.slice(b.concat([u, v], axis=1), axis=1, start=0, end=4))
    r = b.input((2, 3, 4), name="r")
    k2 = b.constant((1,), name="k2")
    pushed = b.mul(b.transpose(r, (0, 2, 1)), k2)  # push-mul-reshape fodder
    return b.build([dist, double_t, sl, pushed])


def probe_graphs():
    """Graphs that, together, let every curated rule produce candidates."""
    return [build_small_model(name) for name in MODELS] + \
        [scaled_attention_graph(), algebra_cleanup_graph()]


def assert_features_equal(fast, ref):
    for field in ("node_features", "edge_features", "edge_src", "edge_dst"):
        a, b = getattr(fast, field), getattr(ref, field)
        assert a.dtype == b.dtype, field
        assert a.shape == b.shape, field
        assert np.array_equal(a, b), field


def candidate_closure(graph, depth=2):
    """All (parent-sharing) candidate graphs up to ``depth`` rewrites deep."""
    ruleset = default_ruleset()
    out = []
    frontier = [graph]
    for _ in range(depth):
        nxt = []
        for parent in frontier:
            for candidate in ruleset.all_candidates(parent):
                out.append((candidate.rule_name, candidate.graph))
                nxt.append(candidate.graph)
        # A couple of grandchildren per level keeps the closure small.
        frontier = nxt[:3]
    return out


# ---------------------------------------------------------------------------
# (a) Incremental encoding == reference encoding, bit-for-bit
# ---------------------------------------------------------------------------

class TestIncrementalEncoding:
    @pytest.mark.parametrize("name", MODELS)
    def test_fresh_graph_matches_reference(self, name):
        graph = build_small_model(name)
        assert_features_equal(encode_graph(graph),
                              reference_encode_graph(graph))

    def test_delta_patched_candidates_cover_every_curated_rule(self):
        """Candidates share the parent's per-node blocks (the delta-patched
        path); their encodings must equal a from-scratch reference encode
        for every rule in the curated set."""
        covered = set()
        for graph in probe_graphs():
            # Encode the parent first so candidates genuinely patch cached
            # blocks rather than building everything themselves.
            encode_graph(graph)
            for rule_name, child in candidate_closure(graph):
                covered.add(rule_name)
                assert_features_equal(encode_graph(child),
                                      reference_encode_graph(child))
        assert covered == set(default_ruleset().names())

    def test_meta_graph_assembly_matches_reference(self):
        graph = build_small_model("squeezenet")
        candidates = default_ruleset().all_candidates(graph)
        graphs = [graph] + [c.graph for c in candidates]
        cache = FeatureCache()
        fast = build_meta_graph(graphs, cache=cache)
        ref = reference_meta_graph(graphs)
        for field in ("node_features", "edge_features", "edge_src",
                      "edge_dst", "graph_ids", "global_features"):
            assert np.array_equal(getattr(fast, field), getattr(ref, field)), field
        assert fast.num_graphs == ref.num_graphs

    def test_feature_cache_hits_and_eviction(self):
        graph = build_small_model("squeezenet")
        cache = FeatureCache()
        first = cache.encode(graph)
        assert cache.encode(graph) is first  # object-memo hit
        assert cache.stats() == {"hits": 1.0, "misses": 1.0, "hit_rate": 0.5}
        # ``Graph.copy`` hands the memo down; a mutation drops it.
        clone = graph.copy()
        assert cache.encode(clone) is first
        clone.remove_node(clone.sink_nodes()[0])
        assert cache.encode(clone).num_nodes == first.num_nodes - 1
        assert cache.hit_rate == pytest.approx(2.0 / 4.0)

    def test_fresh_candidates_skip_hashing(self):
        """A candidate whose hash is not yet memoised is delta-encoded
        without paying for a structural hash."""
        graph = build_small_model("squeezenet")
        cache = FeatureCache()
        candidate = default_ruleset().all_candidates(graph)[0].graph
        cache.encode(candidate)
        assert candidate.memo_peek("hash") is None  # never hashed
        assert cache.encode(candidate) is not None  # object memo serves it
        assert cache.hits == 1

    def test_env_cache_hit_on_revisited_graph(self):
        """The chosen candidate becomes the next step's current graph — a
        guaranteed cache hit once the full meta-graphs are built (as
        ``agent_forward`` builds them)."""
        graph = build_small_model("squeezenet")
        env = GraphRewriteEnv(graph, max_candidates=8, max_steps=4)
        obs = env.reset()
        build_meta_graph(obs.graphs, cache=obs.feature_cache)
        result = env.step(0)
        build_meta_graph(result.observation.graphs,
                         cache=result.observation.feature_cache)
        stats = env.encode_cache_stats()
        assert stats["hits"] >= 1.0
        assert stats["hit_rate"] > 0.0


# ---------------------------------------------------------------------------
# (a2) Rollout embedding (delta batch) == full meta-graph forward, bit-for-bit
# ---------------------------------------------------------------------------

def small_agent(**kwargs):
    return XRLflowAgent(hidden_dim=16, embedding_dim=16, num_gat_layers=2,
                        head_sizes=(16,), seed=0, **kwargs)


def oracle_embeddings(agent, graphs, edge_norm=4096.0):
    """The encoder over the from-scratch, per-edge-loop full meta-graph."""
    with no_grad():
        return agent.encoder(reference_meta_graph(graphs, edge_norm)).data


def rollout(env, agent, check=lambda obs: None):
    """One stochastic episode; ``check(obs)`` sees every observation."""
    obs, done = env.reset(), False
    while not done:
        check(obs)
        result = env.step(agent.act(obs).action)
        obs, done = result.observation, result.done


class TestRolloutEmbedding:
    def test_bitwise_across_every_curated_rule_and_closures(self):
        """``embed()`` must agree with the full encoder bit-for-bit
        for candidates of *every* curated rule, including
        grandchildren two rewrites deep (whose parent is itself a rewrite
        candidate carrying inherited per-node tables and memos)."""
        agent = small_agent()
        ruleset = default_ruleset()
        covered = set()
        for graph in probe_graphs():
            frontier = [graph]
            for _depth in range(2):
                next_frontier = []
                for parent in frontier:
                    candidates = [c for c in ruleset.lazy_candidates(parent)
                                  if c.materialise() is not None]
                    if not candidates:
                        continue
                    covered.update(c.rule_name for c in candidates)
                    graphs = [parent] + [c.graph for c in candidates]
                    assert np.array_equal(
                        agent.embedder.embed(observation_of(
                            graphs, num_actions=len(graphs))),
                        oracle_embeddings(agent, graphs))
                    next_frontier.extend(c.graph for c in candidates[:2])
                frontier = next_frontier[:3]
        assert agent.embedder.stats()["embed_delta_forwards"] > 0
        assert covered == set(ruleset.names())

    def test_rollout_embeds_cones_and_matches_the_oracle(self):
        """An actual agent rollout through the environment: every
        observation embeds as the oracle says, candidates as cones."""
        agent = small_agent()
        env = GraphRewriteEnv(build_small_model("squeezenet"),
                              max_candidates=8, max_steps=4)
        rollout(env, agent, lambda obs: np.testing.assert_array_equal(
            agent.embedder.embed(obs), oracle_embeddings(agent, obs.graphs)))
        stats = agent.embedder.stats()
        assert stats["embed_delta_forwards"] > 0
        assert stats["embed_full_forwards"] > 0
        assert stats["embed_fallback_fulls"] == 0

    def test_other_lineage_candidates_are_counted_as_fallbacks(self):
        agent = small_agent()
        _, mixed = edge_case_observations()
        agent.embedder.embed(mixed)
        assert agent.embedder.stats() == {
            "embed_delta_forwards": 4.0, "embed_full_forwards": 1.0,
            "embed_fallback_fulls": 1.0}

    @pytest.mark.parametrize("name", ["squeezenet", "bert"])
    def test_rollout_retraces_the_reference_stack(self, name, monkeypatch):
        """The fast path against every retained reference at once, step by
        step: the incremental candidate engine against a from-scratch
        enumeration (rule names and match order; the action space is large
        enough that selection is the identity), and ``act`` against
        ``agent_forward`` on the per-edge-loop full meta-graph under the
        ``np.add.at`` kernel, bit for bit at float32."""
        agent = small_agent()
        ruleset = default_ruleset()
        env = GraphRewriteEnv(build_small_model(name), ruleset=ruleset,
                              max_candidates=96, max_steps=6)
        steps = []
        wide_sums = []

        def add_at(values, index, num_rows):
            wide_sums.append(values.dtype == np.float64)
            return add_at_rows(values, index, num_rows)

        def check(obs):
            scanned = [c for c in ruleset.lazy_candidates(obs.graphs[0])
                       if c.materialise() is not None]
            assert len(scanned) <= env.max_candidates
            assert [(c.rule_name, c.match) for c in obs.candidates] \
                == [(c.rule_name, c.match) for c in scanned]
            with monkeypatch.context() as patch, no_grad():
                patch.setattr(repro.nn.tensor, "_scatter_add_rows", add_at)
                patch.setattr(ppo_reference, "build_meta_graph",
                              lambda graphs, cache: reference_meta_graph(
                                  graphs, cache.edge_norm))
                sums_before = len(wide_sums)
                logits, value = agent_forward(agent, obs)
            # Every segment sum of the encoder ran on the oracle kernel:
            # the node update's, two per GAT layer and the readout's.
            assert len(wide_sums) - sums_before \
                == 2 + 2 * agent.encoder.num_gat_layers
            # The sampling distribution: the float32 logits normalised in
            # float64, by the composed softmax's operations.
            assert logits.numpy().dtype == np.float32
            wide = logits.numpy().astype(np.float64)
            exp = np.exp(wide - wide.max(axis=0, keepdims=True))
            probs = exp / exp.sum(axis=0, keepdims=True)
            decision = agent.act(obs)
            assert decision.probabilities.dtype == np.float64
            assert np.array_equal(decision.probabilities, probs / probs.sum())
            assert decision.value == float(value.numpy()[0])
            steps.append(len(scanned))

        rollout(env, agent, check)
        assert len(steps) > 1 and max(steps) > 0
        # The readout's float64 sums went through the oracle kernel too.
        assert any(wide_sums)

    def test_uncached_act_is_one_encoder_forward(self, monkeypatch):
        calls = []
        forward = GraphEmbeddingNetwork.forward
        monkeypatch.setattr(
            GraphEmbeddingNetwork, "forward",
            lambda self, batch: calls.append(batch) or forward(self, batch))
        agent = small_agent()
        env = GraphRewriteEnv(build_small_model("squeezenet"),
                              max_candidates=8, max_steps=4)
        obs = env.reset()
        agent.act(obs)
        assert len(calls) == 1 and calls[0].num_cones > 0
        agent.act(obs)  # memoised decision: no forward at all
        assert len(calls) == 1

    def test_update_reuses_the_batches_the_rollout_built(self, monkeypatch):
        agent = small_agent()
        buffer = collect_buffer(build_small_model("squeezenet"), agent)
        cache = buffer.transitions[0].observation.feature_cache
        encodes = cache.stats()
        for module in (repro.rl.features, repro.rl.env):
            monkeypatch.setattr(
                module, "build_delta_batch", lambda *args, **kwargs:
                pytest.fail("the update assembled a delta batch of its own"))
        PPOUpdater(agent, epochs=1, batch_size=4, seed=0).update(buffer)
        assert cache.stats() == encodes  # no graph was encoded again

    def test_edge_attr_norm_reaches_rollout_and_update_alike(self):
        """``XRLflowConfig.edge_attr_norm`` (Table 4) is the feature cache's
        ``edge_norm``: the one batch both rollout and update read is
        normalised by it, and equals the oracle built with it."""
        from repro.core import XRLflow, XRLflowConfig
        optimiser = XRLflow(XRLflowConfig.fast(edge_attr_norm=1024.0))
        env = optimiser._build_env(build_small_model("squeezenet"))
        agent = optimiser._build_agent()
        obs = env.reset()
        batch = obs.delta_batch(agent.encoder.num_gat_layers)
        default = build_delta_batch(obs.graphs[0], obs.graphs[1:],
                                    agent.encoder.num_gat_layers)
        assert np.array_equal(batch.edge_features,
                              default.edge_features * 4.0)
        assert np.array_equal(
            agent.embedder.embed(obs),
            oracle_embeddings(agent, obs.graphs, edge_norm=1024.0))


class TestObservationCopies:
    """An observation is plain data: copy / deepcopy / pickle keep its
    graphs, and the twin's delta batch pools the same embeddings."""

    @pytest.mark.parametrize("clone", [
        copy.copy, copy.deepcopy, lambda o: pickle.loads(pickle.dumps(o))],
        ids=["copy", "deepcopy", "pickle"])
    def test_round_trip(self, clone):
        env = GraphRewriteEnv(build_small_model("squeezenet"),
                              max_candidates=4, max_steps=2)
        obs = env.reset()
        twin = clone(obs)
        assert len(twin.graphs) == len(obs.graphs) == 5
        assert np.array_equal(twin.action_mask, obs.action_mask)
        # (a deep copy severs rewrite lineage, so its candidates are stored
        # in full, not as cones; what each graph pools is the same)
        encoder = small_agent().encoder
        with no_grad():
            ours = encoder(obs.delta_batch(2)).data
            theirs = encoder(twin.delta_batch(2)).data
        assert ours.shape == (5, 16)
        assert np.array_equal(theirs, ours)


# ---------------------------------------------------------------------------
# (b) Batched evaluate_actions == per-transition loop (float64)
# ---------------------------------------------------------------------------

def collect_buffer(graph, agent, steps=12):
    env = GraphRewriteEnv(graph, max_candidates=12, max_steps=8)
    buffer = RolloutBuffer()
    obs = env.reset()
    for _ in range(steps):
        decision = agent.act(obs)
        step = env.step(decision.action)
        buffer.add(Transition(obs, decision.action, decision.log_prob,
                              decision.value, step.reward, step.done))
        obs = step.observation
        if step.done:
            obs = env.reset()
    return buffer


def observation_of(graphs, num_actions=13):
    """An environment-shaped observation over hand-picked graphs."""
    mask = np.zeros(num_actions, dtype=bool)
    mask[:len(graphs) - 1] = True
    mask[-1] = True
    return Observation(graphs=list(graphs), action_mask=mask)


def edge_case_observations():
    """Observations the environment rarely or never produces, for the delta
    batch: no candidate at all; and one whose candidates are two ordinary
    rewrites, an untouched copy, a pure removal (delta without a dirty
    node) and a rewrite that lost its lineage (``delta_parent()`` is
    ``None``, so it is stored in full)."""
    graph = build_small_model("squeezenet")
    rewrites = [c.graph for c in default_ruleset().all_candidates(graph)]
    untouched = graph.copy()
    removal = graph.copy()
    removal.remove_node(removal.sink_nodes()[0])
    delta = removal.mutation_delta()
    assert delta.removed and not (delta.added or delta.rewired)
    orphan = rewrites[2]
    orphan.begin_delta()
    assert orphan.delta_parent() is None
    assert rewrite_cone(orphan, 2) is None
    return [observation_of([build_small_model("bert")]),
            observation_of(
                [graph, rewrites[0], untouched, removal, orphan, rewrites[1]])]


def minibatch(name, agent):
    """Rollout observations of one zoo model plus the edge cases, with
    duplicates, and an action for each."""
    buffer = collect_buffer(build_small_model(name), agent)
    observations, actions, _ = buffer.gather(np.arange(len(buffer)))
    extra = edge_case_observations()
    observations = observations + extra + [observations[0], extra[1]]
    actions = list(actions) + [12, 3, int(actions[0]), 12]
    return observations, actions


def ppo_terms(observations, seed=0):
    """Old log-probs, advantages and returns for a minibatch, seeded."""
    rng = np.random.default_rng(seed)
    size = len(observations)
    return (rng.normal(size=size) - 2.0, rng.normal(size=size),
            rng.normal(size=size))


def batched_loss(agent, observations, actions, seed=0):
    """:func:`ppo_loss` of the minibatch through one ``policy_batch``."""
    heads, slots = agent.policy_batch(observations)
    return ppo_loss(heads, slots, actions, *ppo_terms(observations, seed),
                    0.2, 0.5, 0.01, 1.0 / len(observations))


class TestBatchedEvaluate:
    @pytest.mark.parametrize("name", ZOO)
    def test_batch_matches_per_transition_bitwise(self, name):
        agent = XRLflowAgent(hidden_dim=16, embedding_dim=16,
                             num_gat_layers=2, head_sizes=(16,), seed=0)
        observations, actions = minibatch(name, agent)
        loss = batched_loss(agent, observations, actions)
        assert agent.encoder.rows_encoded < agent.encoder.rows_pooled
        for out in (loss.log_probs, loss.values, loss.entropies):
            assert out.dtype == np.float32
        for i, (obs, action) in enumerate(zip(observations, actions)):
            lp, value, entropy = evaluate_actions(agent, obs, int(action))
            assert lp.numpy()[0] == loss.log_probs[i]
            assert value.numpy()[0] == loss.values[i]
            assert float(entropy.numpy()) == loss.entropies[i]

    @pytest.mark.parametrize("name", ["squeezenet", "bert"])
    def test_delta_batch_gradients_match_full_meta_graphs(self, name):
        """Same function, so same gradients: a parent row's gradient is the
        sum over the graphs that read it, which the full meta-graphs add up
        at the weights instead — equal up to addition order, so compared
        on the float64 leg.  Both sides backpropagate the PPO loss."""
        grads = []
        for reference in (False, True):
            agent = upcast(XRLflowAgent(hidden_dim=16, embedding_dim=16,
                                        num_gat_layers=2, head_sizes=(16,),
                                        seed=0))
            observations, actions = minibatch(name, agent)
            if reference:
                total, *_ = loop_loss(agent, observations, actions,
                                      *ppo_terms(observations), 0.2, 0.5,
                                      0.01)
            else:
                total = batched_loss(agent, observations, actions).total
            total.backward()
            grads.append([p.grad for p in agent.parameters()])
        for delta, full in zip(*grads):
            assert delta.dtype == full.dtype == np.float64
            np.testing.assert_allclose(delta, full, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("name", ["bert", "squeezenet"])
    def test_update_encodes_cones_not_graphs(self, name, monkeypatch):
        """The O(cone) claim as a count: under the end-to-end benchmark's
        training configuration, message passing runs over at most a quarter
        of the rows the pooled graphs hold (a full meta-graph: all of them),
        and so does the readout."""
        from repro.core import XRLflow, XRLflowConfig
        batches = []
        forward = GraphEmbeddingNetwork.forward
        monkeypatch.setattr(
            GraphEmbeddingNetwork, "forward",
            lambda self, batch: batches.append(batch) or forward(self, batch))
        optimiser = XRLflow(XRLflowConfig.fast(
            num_episodes=6, max_steps=18, max_candidates=24,
            update_frequency=3, ppo_epochs=2, eval_episodes=2, seed=0))
        history = optimiser.train(build_small_model(name))
        assert history.update_stats
        for record in history.update_stats:
            assert 0 < record["encoder_rows"] <= 0.25 * record["pooled_rows"]
        entries = sum(batch.pool_rows.shape[0] for batch in batches)
        held = sum(batch.num_pooled_rows for batch in batches)
        assert 0 < entries <= 0.25 * held

    def test_cone_memo_is_not_inherited_by_copies(self):
        """A cone describes a graph against *its* parent: the copy's own
        cone (an empty delta against the candidate) must not be the
        candidate's."""
        graph = build_small_model("squeezenet")
        candidate = default_ruleset().all_candidates(graph)[0].graph
        assert rewrite_cone(candidate, 2).op_indices
        clone = candidate.copy()
        cone = rewrite_cone(clone, 2)
        assert not cone.op_indices and not cone.minus_ids
        assert cone.size_delta == 0
        assert rewrite_cone(candidate, 2).op_indices
        agent = XRLflowAgent(hidden_dim=16, embedding_dim=16,
                             num_gat_layers=2, head_sizes=(16,), seed=0)
        obs = observation_of([candidate, clone])
        loss = batched_loss(agent, [obs], [0])
        single = evaluate_actions(agent, obs, 0)
        for a, b in zip((loss.log_probs, loss.values, loss.entropies),
                        single):
            assert np.array_equal(a, np.ravel(b.numpy()))

    def test_batched_update_matches_loop_update(self):
        graph = build_small_model("squeezenet")
        seed_agent = XRLflowAgent(hidden_dim=16, embedding_dim=16,
                                  num_gat_layers=1, head_sizes=(16,), seed=0)
        buffer = collect_buffer(graph, seed_agent)
        agents = {}
        for updater_cls in (PPOUpdater, LoopPPOUpdater):
            agent = upcast(XRLflowAgent(hidden_dim=16, embedding_dim=16,
                                        num_gat_layers=1, head_sizes=(16,),
                                        seed=0))
            updater = updater_cls(agent, epochs=2, batch_size=4, seed=0)
            assert all(m.dtype == np.float64 for m in updater.optimizer._m)
            stats = updater.update(buffer)
            agents[updater_cls] = (agent, stats)
        agent_b, stats_b = agents[PPOUpdater]
        agent_l, stats_l = agents[LoopPPOUpdater]
        # Per-transition outputs are bit-equal; the minibatch reduction
        # (np.mean vs sequential sum) rounds differently, so on the float64
        # leg parameters agree to round-off accumulated over the Adam steps.
        assert stats_b.policy_loss == pytest.approx(stats_l.policy_loss,
                                                    rel=1e-9, abs=1e-12)
        assert stats_b.value_loss == pytest.approx(stats_l.value_loss,
                                                   rel=1e-9, abs=1e-12)
        for p_b, p_l in zip(agent_b.parameters(), agent_l.parameters()):
            np.testing.assert_allclose(p_b.data, p_l.data,
                                       rtol=1e-8, atol=1e-9)

    def test_batched_update_trains(self):
        graph = build_small_model("squeezenet")
        agent = XRLflowAgent(hidden_dim=16, embedding_dim=16,
                             num_gat_layers=1, head_sizes=(16,), seed=0)
        env = GraphRewriteEnv(graph, max_candidates=8, max_steps=6)
        updater = PPOUpdater(agent, epochs=1, batch_size=4)
        trainer = PPOTrainer(env, agent, updater, update_frequency=2)
        before = [p.data.copy() for p in agent.parameters()]
        history = trainer.train(num_episodes=2)
        assert any(not np.array_equal(b, p.data)
                   for b, p in zip(before, agent.parameters()))
        assert "encode_cache_hit_rate" in history.update_stats[0]



def rl_train_optimiser():
    """X-RLflow at the end-to-end benchmark's ``rl_train`` configuration."""
    from repro.core import XRLflow, XRLflowConfig
    return XRLflow(XRLflowConfig.fast(
        num_episodes=6, max_steps=18, max_candidates=24, update_frequency=3,
        ppo_epochs=2, eval_episodes=2, seed=0))


class TestDeltaAssembly:
    """The observation's one-pass assembly: the cones of all candidates go
    to arrays together, and a candidate builds only the edge blocks of the
    nodes its rewrite changed."""

    @staticmethod
    def assert_batches_equal(fast, ref):
        for field in ("node_features", "edge_features", "edge_src",
                      "edge_dst", "graph_ids", "global_features", "pool_rows",
                      "pool_signs", "parents", "graph_sizes"):
            a, b = getattr(fast, field), getattr(ref, field)
            assert a.dtype == b.dtype and a.shape == b.shape, field
            assert np.array_equal(a, b), field
        assert (fast.num_graphs, fast.num_cones) == (ref.num_graphs,
                                                     ref.num_cones)

    @pytest.mark.parametrize("name", ["squeezenet", "bert"])
    def test_matches_the_per_candidate_oracle_field_by_field(self, name):
        """Along a rollout, and on the edge cases (no candidate; an
        untouched copy, a pure removal and a lineage-less graph stored in
        full between two runs of cones), at an edge norm other than the
        default."""
        agent = small_agent()
        env = GraphRewriteEnv(build_small_model(name), max_candidates=24,
                              max_steps=8,
                              feature_cache=FeatureCache(edge_norm=1000.0))
        observations = []
        rollout(env, agent, observations.append)
        observations += edge_case_observations()
        mixed = observations[-1]
        assert mixed.delta_batch(2).num_cones == len(mixed.graphs) - 2
        for obs in observations:
            norm = obs.feature_cache.edge_norm
            self.assert_batches_equal(
                build_delta_batch(obs.graphs[0], obs.graphs[1:], 2,
                                  cache=FeatureCache(norm)),
                reference_delta_batch(obs.graphs, 2, norm))

    def test_no_candidate_reads_a_whole_graph_array(self, monkeypatch):
        """Only graphs stored in full read the id-indexed op table."""
        graph = build_small_model("squeezenet")
        candidates = [c.graph for c in default_ruleset().all_candidates(graph)]
        assert len(candidates) > 5
        calls = []
        table = repro.ir.graph.Graph.op_index_table
        monkeypatch.setattr(repro.ir.graph.Graph, "op_index_table",
                            lambda g: calls.append(g) or table(g))
        batch = build_delta_batch(graph, candidates, 2)
        assert batch.num_cones == len(candidates)
        assert calls and all(g is graph for g in calls)

    def test_a_step_builds_edge_blocks_only_for_the_rewrite(self,
                                                           monkeypatch):
        """Encoding ``reset``'s observation as the agent does builds every
        block of the initial graph once and, for each candidate, only those
        of its rewrite's added and rewired nodes — the rest are the
        parent's, shared with the copy; after one step, observing and fully
        encoding the new current graph builds none."""
        built = []
        edge_block = repro.rl.features._edge_block
        key = repro.rl.features._EDGE_ROWS_KEY

        def counting(graph, nid):
            if key not in graph.node_memo(nid):
                built.append((graph, nid))
            return edge_block(graph, nid)

        monkeypatch.setattr(repro.rl.features, "_edge_block", counting)
        env = GraphRewriteEnv(build_small_model("squeezenet"),
                              max_candidates=8)
        obs = env.reset()
        small_agent().act(obs)
        initial = obs.graphs[0]
        assert sorted(n for g, n in built if g is initial) \
            == sorted(initial.nodes)
        expected = len(initial.nodes)
        for graph in obs.graphs[1:]:
            delta = graph.mutation_delta()
            dirty = {n for n in delta.added | delta.rewired
                     if n in graph.nodes}
            assert dirty and len(dirty) < len(graph.nodes) // 4
            assert sorted(n for g, n in built if g is graph) == sorted(dirty)
            expected += len(dirty)
        assert len(built) == expected
        built.clear()
        chosen = obs.candidates[0].graph
        result = env.step(0)
        assert result.observation.graphs[0] is chosen
        env.feature_cache.encode(chosen)
        assert built == []

    def test_feature_cache_counts_are_unchanged_at_rl_train_config(self):
        """Building edge blocks is not an encode: the counters behind
        ``update_stats["encode_cache_hit_rate"]`` count whole encodes
        only."""
        optimiser = rl_train_optimiser()
        history = optimiser.train(build_small_model("squeezenet"))
        cache = optimiser._training_env.feature_cache
        assert (cache.hits, cache.misses) == (0, 60)
        assert [record["encode_cache_hit_rate"]
                for record in history.update_stats] == [0.0, 0.0]

def test_removed_switches_are_refused():
    graph = build_small_model("squeezenet")
    with pytest.raises(TypeError, match="incremental"):
        encode_graph(graph, incremental=True)
    with pytest.raises(TypeError, match="incremental"):
        build_meta_graph([graph], incremental=False)
    with pytest.raises(TypeError, match="batched"):
        PPOUpdater(small_agent(), batched=True)
    with pytest.raises(TypeError, match="max_entries"):
        FeatureCache(max_entries=2)
    with pytest.raises(TypeError, match="meta_graph"):
        Observation(meta_graph=None, action_mask=np.ones(1, dtype=bool))
    from repro.core import XRLflowConfig
    with pytest.raises(TypeError, match="dtype"):
        XRLflowAgent(dtype=np.float64)
    with pytest.raises(TypeError, match="dtype"):
        XRLflowConfig(dtype="float64")


# ---------------------------------------------------------------------------
# (c) no_grad builds no tape
# ---------------------------------------------------------------------------

class TestNoGrad:
    def test_no_grad_builds_no_tape(self):
        weight = Tensor(np.ones((3, 3)), requires_grad=True)
        with no_grad():
            out = (Tensor(np.ones((2, 3))) @ weight).relu().sum()
        assert not out.requires_grad
        assert out._parents == ()
        # Outside the context the tape comes back.
        out = (Tensor(np.ones((2, 3))) @ weight).relu().sum()
        assert out.requires_grad


# ---------------------------------------------------------------------------
# (d) bincount segment kernels == np.add.at reference kernels
# ---------------------------------------------------------------------------

class TestSegmentKernels:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_segment_sum_matches_reference_bitwise(self, dtype):
        rng = np.random.default_rng(0)
        for num_segments, shape in [(7, (40, 5)), (1, (3, 4)), (5, (0, 4)),
                                    (7, (40, 1)), (7, (40,))]:
            values = rng.normal(size=shape).astype(dtype)
            ids = rng.integers(0, num_segments, size=shape[0])
            ref = add_at_rows(values, ids, num_segments)
            fast = repro.nn.tensor._scatter_add_rows(values, ids, num_segments)
            assert fast.dtype == ref.dtype == dtype
            assert np.array_equal(fast, ref)
            if dtype == np.float32:
                assert np.array_equal(
                    segment_sum(Tensor(values), ids, num_segments).numpy(),
                    ref)

    def test_gather_rows_backward_matches_reference_bitwise(self):
        rng = np.random.default_rng(1)
        values = rng.normal(size=(6, 4))
        index = np.array([0, 2, 2, 5, 0, 0])
        upstream = rng.normal(size=(6, 4)).astype(np.float32)
        t = Tensor(values, requires_grad=True)
        (t.gather_rows(index) * Tensor(upstream)).sum().backward()
        assert t.grad.dtype == np.float32
        assert np.array_equal(t.grad, add_at_rows(upstream, index, 6))


def node_states(encoder, batch):
    """The rows the encoder's readout pools: node update, then GAT layers."""
    with no_grad():
        nodes = encoder.node_update(batch, Tensor(batch.node_features))
        for layer in encoder.gat_layers:
            nodes = layer(batch, nodes)
    return nodes


def readout_cases():
    """``name -> (observations, check)``: the shapes a readout entry list
    takes, each with what its candidate's entries must look like."""
    single, mixed = edge_case_observations()
    current, rewrite, untouched, removal, orphan, _ = mixed.graphs
    delta = rewrite.mutation_delta()
    assert delta.added and delta.rewired

    def candidate_signs(batch):
        return batch.pool_signs[batch.graph_ids == 1]

    def pair(graph):
        return [observation_of([current, graph])]
    return {
        "rewrite": (pair(rewrite), lambda b: b.parents[1] == 0 and set(
            candidate_signs(b)) == {1.0, -1.0}),
        "removal": (pair(removal), lambda b: b.parents[1] == 0 and set(
            candidate_signs(b)) == {-1.0}),
        "untouched": (pair(untouched), lambda b: b.parents[1] == 0
                      and not candidate_signs(b).size),
        "orphan": (pair(orphan), lambda b: b.parents[1] == -1 and (
            candidate_signs(b) == 1.0).all()),
        "single_graph": ([single], lambda b: b.num_graphs == 1),
        "two_observations": (
            [mixed, observation_of([current, untouched, rewrite])],
            lambda b: b.parents.tolist() == [-1, 0, 0, 0, -1, 0, -1, 6, 6]),
    }


class TestReadout:
    """The readout pools a candidate as its parent's sum, minus the rows it
    replaced, plus its cone rows: bit for bit the float32 sum over the
    graph's full row list."""

    @pytest.mark.parametrize("case", ["rewrite", "removal", "untouched",
                                      "orphan", "single_graph",
                                      "two_observations"])
    def test_matches_segment_sum_over_full_rows(self, case):
        observations, check = readout_cases()[case]
        batch, _ = combine_meta_graphs([obs.delta_batch(2)
                                        for obs in observations])
        assert check(batch)
        encoder = small_agent().encoder
        pooled = delta_segment_sum(
            node_states(encoder, batch), batch.pool_rows, batch.pool_signs,
            batch.graph_ids, batch.parents, batch.num_graphs).data
        full = reference_meta_graph(
            [graph for obs in observations for graph in obs.graphs])
        expected = segment_sum(node_states(encoder, full), full.graph_ids,
                               full.num_graphs).data
        assert pooled.dtype == expected.dtype == np.float32
        assert np.array_equal(pooled, expected)
        assert np.array_equal(batch.graph_sizes, full.graph_sizes)


# ---------------------------------------------------------------------------
# (e) float32 training
# ---------------------------------------------------------------------------

class TestFloat32:
    def test_agent_parameters_and_outputs_are_float32(self):
        agent = XRLflowAgent(hidden_dim=16, embedding_dim=16,
                             num_gat_layers=1, head_sizes=(16,), seed=0)
        assert all(p.data.dtype == np.float32 for p in agent.parameters())
        graph = build_small_model("squeezenet")
        env = GraphRewriteEnv(graph, max_candidates=8, max_steps=4)
        logits, value = agent_forward(agent, env.reset())
        assert logits.numpy().dtype == np.float32
        assert value.numpy().dtype == np.float32

    def test_load_agent_round_trips_float32_and_rounds_float64(self, tmp_path):
        """A float32 checkpoint reloads bit-exactly; a float64 one (written
        before the agent had one precision) loads rounded to float32."""
        from repro.core.config import XRLflowConfig
        from repro.core.xrlflow import XRLflow
        saver = XRLflow(XRLflowConfig.fast())
        saver.agent = saver._build_agent()
        path = str(tmp_path / "agent.npz")
        saver.save_agent(path)
        loader = XRLflow(XRLflowConfig.fast())
        loader.load_agent(path)
        for a, b in zip(saver.agent.parameters(),
                        loader.agent.parameters()):
            assert a.data.dtype == b.data.dtype == np.float32
            np.testing.assert_array_equal(a.data, b.data)

        wide = {key: value.astype(np.float64) + 1e-12
                for key, value in saver.agent.state_dict().items()}
        path = str(tmp_path / "agent64.npz")
        np.savez(path, **wide)
        loader.load_agent(path)
        for i, p in enumerate(loader.agent.parameters()):
            assert p.data.dtype == np.float32
            np.testing.assert_array_equal(p.data,
                                          wide[str(i)].astype(np.float32))

    def test_float32_training_reaches_float64_greedy_sequence(self):
        """Training in float32 must land on the same greedy transformation
        sequence as the float64 leg on a small model (the precisions explore
        identically-seeded trajectories; round-off must not flip the learnt
        argmax decisions)."""
        graph = build_small_model("squeezenet")
        sequences = {}
        for dtype in (np.float64, np.float32):
            agent = XRLflowAgent(hidden_dim=16, embedding_dim=16,
                                 num_gat_layers=1, head_sizes=(16,), seed=0)
            if dtype == np.float64:
                upcast(agent)
            env = GraphRewriteEnv(graph, max_candidates=8, max_steps=6)
            updater = PPOUpdater(agent, epochs=1, batch_size=4, seed=0)
            trainer = PPOTrainer(env, agent, updater, update_frequency=2)
            trainer.train(num_episodes=4)
            # Greedy evaluation episode.
            obs = env.reset()
            actions, done = [], False
            while not done:
                decision = agent.act(obs, deterministic=True)
                actions.append(decision.action)
                step = env.step(decision.action)
                obs, done = step.observation, step.done
            sequences[np.dtype(dtype).name] = actions
            # Each leg's state keeps its precision through the whole run.
            assert all(p.data.dtype == dtype for p in agent.parameters())
        assert sequences["float32"] == sequences["float64"]
