"""Differential correctness harness: rewrites must preserve executed outputs.

Every curated rule and every optimiser is driven over donor graphs and the
before/after pair is executed with the numpy backend on random inputs.
Exactly-equivalent rules must agree to ``rtol=1e-5 / atol=1e-6``; the two
partially-equivalent families (kernel enlargement, Winograd) are checked
shape-only — they change values by design and X-RLflow treats them as
opening moves, not final graphs.
"""

from __future__ import annotations

import numpy as np
import pytest
from graphgen import random_graph

from repro.exec import (DEFAULT_ATOL, DEFAULT_RTOL, MeasuredLatency,
                        NumpyExecutor, calibrate, differential_check,
                        random_inputs)
from repro.ir import GraphBuilder
from repro.rl.env import GraphRewriteEnv
from repro.rules import exact_ruleset
from repro.rules.rulesets import DEFAULT_RULE_CLASSES
from repro.search import (ConvToWinogradGemm, GreedyOptimizer, PETOptimizer,
                          RandomSearchOptimizer, TASOOptimizer,
                          TensatOptimizer, pet_ruleset)

# ---------------------------------------------------------------------------
# Donor graphs: the conftest fixtures plus hand-built pattern graphs that
# trigger the algebraic/cleanup rules, plus a few fuzzer graphs.
# ---------------------------------------------------------------------------


def _scaled_attention():
    b = GraphBuilder("scaled_attention")
    x = b.input((2, 4, 8), name="x")
    w = b.weight((8, 8), name="w")
    q = b.matmul(x, w)
    kt = b.transpose(x, (0, 2, 1))
    scores = b.batch_matmul(q, kt)
    scale = b.constant((1,), name="scale")
    return b.build([b.mul(scores, scale)])


def _mul_over_add():
    b = GraphBuilder("mul_over_add")
    x = b.input((2, 8), name="x")
    y = b.weight((2, 8), name="y")
    c = b.constant((1,), name="c")
    return b.build([b.mul(b.add(x, y), c)])


def _reassoc_chain():
    b = GraphBuilder("reassoc")
    x = b.input((4, 8), name="x")
    a = b.weight((8, 16), name="a")
    c = b.weight((16, 4), name="c")
    return b.build([b.matmul(b.matmul(x, a), c)])


def _double_transpose():
    b = GraphBuilder("double_transpose")
    x = b.input((2, 3, 4), name="x")
    t = b.transpose(b.transpose(x, (0, 2, 1)), (0, 2, 1))
    return b.build([b.relu(t)])


def _slice_of_concat():
    b = GraphBuilder("slice_concat")
    x = b.input((2, 4), name="x")
    y = b.weight((2, 6), name="y")
    cat = b.concat([x, y], axis=1)
    return b.build([b.relu(b.slice(cat, axis=1, start=0, end=4))])


def _mul_of_reshape():
    b = GraphBuilder("mul_reshape")
    x = b.input((2, 12), name="x")
    r = b.reshape(x, (2, 3, 4))
    c = b.constant((1,), name="c")
    return b.build([b.mul(r, c)])


def _parallel_same_kernel_convs():
    b = GraphBuilder("parallel_convs")
    x = b.input((1, 4, 8, 8), name="x")
    c1 = b.conv2d(x, 6, kernel=3)
    c2 = b.conv2d(x, 10, kernel=3)
    return b.build([b.concat([c1, c2], axis=1)])


def _fused_conv_bn_then_relu(conv_graph):
    """conv_graph after fuse-conv-bn: the donor FuseConvBNRelu needs."""
    from repro.rules.rulesets import FuseConvBatchNorm
    rule = FuseConvBatchNorm()
    return rule.apply(conv_graph, rule.find_matches(conv_graph)[0])


def _pushed_scaled_attention():
    """Scaled attention after push-mul-bmm: fold-mul-matmul's donor."""
    from repro.rules.rulesets import PushMulThroughBatchMatMul
    g = _scaled_attention()
    rule = PushMulThroughBatchMatMul()
    return rule.apply(g, rule.find_matches(g)[0])


FIXTURE_DONORS = ["mlp_graph", "conv_graph", "fire_graph", "attention_graph",
                  "shared_matmul_graph"]
BUILT_DONORS = [_scaled_attention, _mul_over_add, _reassoc_chain,
                _double_transpose, _slice_of_concat, _mul_of_reshape,
                _parallel_same_kernel_convs, _pushed_scaled_attention]


@pytest.fixture
def donors(request):
    graphs = [request.getfixturevalue(name) for name in FIXTURE_DONORS]
    graphs += [build() for build in BUILT_DONORS]
    graphs.append(_fused_conv_bn_then_relu(
        request.getfixturevalue("conv_graph")))
    graphs += [random_graph(seed) for seed in range(4)]
    return graphs


ALL_RULE_CLASSES = list(DEFAULT_RULE_CLASSES) + [ConvToWinogradGemm]


# ---------------------------------------------------------------------------
# Per-rule sweep: every rule fires somewhere, and what it produces is
# executed-equivalent (or shape-equivalent for the partial families).
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("rule_cls", ALL_RULE_CLASSES,
                         ids=[cls.__name__ for cls in ALL_RULE_CLASSES])
def test_rule_preserves_executed_outputs(rule_cls, donors):
    rule = rule_cls()
    checked = 0
    for graph in donors:
        for match in rule.find_matches(graph)[:2]:
            transformed = rule.apply(graph, match)
            transformed.validate()
            report = differential_check(
                graph, transformed, require_values=rule.exactly_equivalent)
            assert report.equivalent, (
                f"{rule.name} on {graph.name}: {report.problems}")
            checked += 1
        if checked >= 3:
            break
    assert checked > 0, f"rule {rule.name} never matched any donor graph"


def test_enlarge_conv_changes_values_but_not_shapes(fire_graph):
    """The partial rule really is partial: shapes agree, values diverge —
    documenting why it is excluded from the value-checked sweep."""
    from repro.rules.rulesets import EnlargeConvKernel
    rule = EnlargeConvKernel()
    match = rule.find_matches(fire_graph)[0]
    enlarged = rule.apply(fire_graph, match)
    shape_only = differential_check(fire_graph, enlarged, require_values=False)
    assert shape_only.equivalent
    valued = differential_check(fire_graph, enlarged, require_values=True)
    assert not valued.equivalent


# ---------------------------------------------------------------------------
# The tolerance sweep behind DEFAULT_RTOL / DEFAULT_ATOL: every match (up to
# four a donor) of every curated rule, over the donors and eight generator
# seeds, on differential_check's own feeds.  ``-s`` prints the table
# docs/executor.md § Tolerance policy records.
# ---------------------------------------------------------------------------

#: Above this rtol an exact rule's disagreement is a finding about the rule,
#: not a reason to loosen DEFAULT_RTOL.
FINDING_RTOL = 1e-4


def _deviation(before, after, trials=2, seed=1234):
    """``after`` against ``before`` on differential_check's feeds: the
    largest absolute error, that error over the output's largest magnitude,
    and the rtol ``np.allclose`` needs at ``DEFAULT_ATOL`` to accept it."""
    executor = NumpyExecutor()
    worst = np.zeros(3)
    for trial in range(trials):
        feeds = random_inputs(before, seed=seed + trial)
        out_a, _ = executor.run(before, feeds)
        out_b, _ = executor.run(after, feeds)
        for name_a, name_b in zip(sorted(out_a), sorted(out_b)):
            a = out_a[name_a].astype(np.float64)
            diff = np.abs(out_b[name_b] - a)
            over = np.maximum(diff - DEFAULT_ATOL, 0.0)
            worst = np.maximum(worst, [
                diff.max(initial=0.0),
                diff.max(initial=0.0) / max(np.abs(a).max(initial=0.0), 1e-30),
                np.max(over / np.maximum(np.abs(a), 1e-30), initial=0.0)])
    return worst


def test_tolerance_sweep_of_every_curated_rule(donors):
    donors = donors + [random_graph(seed) for seed in range(4, 8)]
    rows = []
    for rule_cls in DEFAULT_RULE_CLASSES:
        rule = rule_cls()
        checks, worst = 0, np.zeros(3)
        for graph in donors:
            for match in rule.find_matches(graph)[:4]:
                after = rule.apply(graph, match)
                checks += 1
                if rule.exactly_equivalent:
                    worst = np.maximum(worst, _deviation(graph, after))
        rows.append((rule.name, checks, rule.exactly_equivalent, worst))
    print(f"\n{'rule':28s} {'checks':>6s} {'max abs err':>12s} "
          f"{'rel to scale':>12s} {'rtol needed':>12s}")
    for name, checks, exact, worst in rows:
        print(f"{name:28s} {checks:6d} " + (
            " ".join(f"{value:12.2e}" for value in worst) if exact else
            f"{'shape-only':>12s}"))
    for name, checks, exact, (_, _, needed_rtol) in rows:
        assert checks > 0, f"{name} matched no donor"
        assert needed_rtol <= FINDING_RTOL, (
            f"{name} needs rtol {needed_rtol:.2e}: a finding about the rule")
        assert needed_rtol <= DEFAULT_RTOL, (name, needed_rtol)


# ---------------------------------------------------------------------------
# Per-optimiser sweep: whole search trajectories preserve semantics when run
# over the exactly-equivalent ruleset.
# ---------------------------------------------------------------------------

def _optimisers():
    exact = exact_ruleset()
    return [
        ("taso", TASOOptimizer(ruleset=exact, max_iterations=12)),
        ("greedy", GreedyOptimizer(ruleset=exact, max_iterations=12)),
        ("pet", PETOptimizer(ruleset=exact, max_iterations=12)),
        ("tensat", TensatOptimizer(ruleset=exact, round_limit=2,
                                   node_limit=2000)),
        ("random", RandomSearchOptimizer(ruleset=exact, num_walks=2,
                                         horizon=8, seed=0)),
    ]


@pytest.mark.parametrize("donor", ["mlp_graph", "conv_graph", "fire_graph",
                                   "shared_matmul_graph"])
def test_optimisers_preserve_executed_outputs(request, donor):
    graph = request.getfixturevalue(donor)
    for name, optimiser in _optimisers():
        result = optimiser.optimise(graph)
        report = differential_check(graph, result.final_graph)
        assert report.equivalent, (
            f"{name} broke {donor}: rules={result.applied_rules} "
            f"problems={report.problems}")


def test_rl_env_episode_preserves_executed_outputs(conv_graph):
    """A random-policy episode through the RL env ends on an equivalent graph."""
    env = GraphRewriteEnv(conv_graph, ruleset=exact_ruleset(),
                          max_steps=8)
    obs = env.reset()
    rng = np.random.default_rng(0)
    for _ in range(8):
        valid = np.flatnonzero(obs.action_mask)
        action = int(rng.choice(valid))
        step = env.step(action)
        obs = step.observation
        if step.done:
            break
    report = differential_check(conv_graph, env.current_graph)
    assert report.equivalent, report.problems


def test_pet_full_ruleset_shape_only(conv_graph):
    """With the partial Winograd family included, PET still preserves shapes."""
    optimiser = PETOptimizer(ruleset=pet_ruleset(), max_iterations=10)
    result = optimiser.optimise(conv_graph)
    report = differential_check(conv_graph, result.final_graph,
                                require_values=False)
    assert report.equivalent, report.problems


# ---------------------------------------------------------------------------
# Random rewrite walks over fuzzer graphs (beyond the hand-written donors).
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(4))
def test_random_walk_on_fuzzed_graph_is_equivalent(seed):
    graph = random_graph(seed)
    ruleset = exact_ruleset()
    rng = np.random.default_rng(seed)
    current = graph
    applied = []
    for _ in range(6):
        candidates = ruleset.all_candidates(current)
        if not candidates:
            break
        chosen = candidates[int(rng.integers(len(candidates)))]
        current, applied = chosen.graph, applied + [chosen.rule_name]
    report = differential_check(graph, current)
    assert report.equivalent, (applied, report.problems)


# ---------------------------------------------------------------------------
# Measured-cost wiring and calibration.
# ---------------------------------------------------------------------------

def _episode_on(env):
    """Run one episode always taking action 0 (the first candidate, or
    No-Op once none is left); returns the reported initial and final
    latencies and the final graph."""
    env.reset()
    step = env.step(0)
    while not step.done:
        assert np.isfinite(step.reward)
        step = env.step(0)
    return env.initial_latency_ms, step.info["latency_ms"], env.current_graph


def _search_on(optimiser, graph):
    result = optimiser.optimise(graph)
    return (result.initial_latency_ms, result.final_latency_ms,
            result.final_graph)


_MEASURED_CONSUMERS = {
    "taso": lambda graph, e2e: _search_on(TASOOptimizer(
        ruleset=exact_ruleset(), max_iterations=6, e2e=e2e), graph),
    "greedy": lambda graph, e2e: _search_on(GreedyOptimizer(
        ruleset=exact_ruleset(), max_iterations=6, e2e=e2e), graph),
    "tensat": lambda graph, e2e: _search_on(TensatOptimizer(
        ruleset=exact_ruleset(), round_limit=2, e2e=e2e), graph),
    "random": lambda graph, e2e: _search_on(RandomSearchOptimizer(
        ruleset=exact_ruleset(), num_walks=2, horizon=4, e2e=e2e), graph),
    "env": lambda graph, e2e: _episode_on(GraphRewriteEnv(
        graph, ruleset=exact_ruleset(), max_steps=3, e2e=e2e)),
}


@pytest.mark.parametrize("consumer", list(_MEASURED_CONSUMERS))
def test_measured_latency_through_e2e(mlp_graph, consumer):
    """``e2e=MeasuredLatency(...)`` is the whole switch to executed
    wall-clock: every latency reported is the provider's memoised one."""
    e2e = MeasuredLatency(NumpyExecutor())
    initial_ms, final_ms, final_graph = \
        _MEASURED_CONSUMERS[consumer](mlp_graph, e2e)
    assert initial_ms > 0.0
    assert initial_ms == e2e.latency_ms(mlp_graph)
    assert final_ms == e2e.latency_ms(final_graph)
    report = differential_check(mlp_graph, final_graph)
    assert report.equivalent, report.problems


def test_calibrate_never_worsens_fit(mlp_graph, conv_graph):
    executor = NumpyExecutor()
    result = calibrate([mlp_graph, conv_graph], executor=executor, repeats=1)
    assert result.samples
    assert result.error_after <= result.error_before + 1e-9
    assert result.improvement >= 1.0
    ratios = result.op_class_ratios()
    assert ratios and all(r > 0 for r in ratios.values())


def test_differential_check_rejects_broken_rewrite(mlp_graph):
    """A rewrite that actually changes semantics is caught, not waved through."""
    broken = mlp_graph.copy()
    # Renaming a weight changes its deterministic materialisation — a
    # semantics change with identical shapes.  Graph.copy shares Node
    # objects, so swap in a private copy before touching the name.
    wid = next(nid for nid, n in broken.nodes.items()
               if n.op_type.value == "Weight")
    broken.nodes[wid] = broken.nodes[wid].copy()
    broken.nodes[wid].name = broken.nodes[wid].name + "_renamed"
    report = differential_check(mlp_graph, broken)
    assert not report.equivalent
    assert report.max_abs_err > 0


def test_random_inputs_cover_all_graph_inputs(attention_graph):
    feeds = random_inputs(attention_graph, seed=3)
    names = {attention_graph.nodes[nid].name
             for nid in attention_graph.input_nodes()}
    assert set(feeds) == names
