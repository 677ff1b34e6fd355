"""Benchmarks for the numpy execution backend and the differential harness.

Three measurements, all recorded to ``BENCH_exec.json`` (see ``_harness.py``):

* **per-model execute latency** — real numpy wall-clock per zoo model at
  reduced size, next to the analytic simulator's estimate for the same
  graph, so the sim-vs-measured ratio is tracked over time.
* **calibration** — :func:`repro.exec.calibrate` fits the simulator's
  device constants to executed kernel timings; the RMS-log-error before
  and after, and the per-op-class measured/sim ratios of the fitted
  device, are the witness that the analytic model tracks reality.
* **equivalence sweep** — the differential harness run as a benchmark:
  every curated rule and a panel of optimisers are checked for executed
  output preservation.  ``check_bench.py`` requires this section with
  ``status == "passed"`` and a 100% pass rate — a run that skips the
  sweep fails the gate.

Set ``EXEC_BENCH_SMOKE=1`` (CI) for fewer models and repetitions.
"""

from __future__ import annotations

import os
from functools import partial

import numpy as np

import _harness
from repro.cost import E2ESimulator
from repro.exec import NumpyExecutor, calibrate, differential_check
from repro.experiments import build_small_model
from repro.ir import GraphBuilder
from repro.rules import exact_ruleset
from repro.rules.rulesets import DEFAULT_RULE_CLASSES
from repro.search import (ConvToWinogradGemm, GreedyOptimizer,
                          RandomSearchOptimizer, TASOOptimizer)

SMOKE = os.environ.get("EXEC_BENCH_SMOKE") == "1"
REPEATS = 1 if SMOKE else 3
#: Zoo models executed per run (reduced-size variants).
BENCH_MODELS = (["squeezenet", "bert"] if SMOKE else
                ["squeezenet", "resnet18", "bert", "vit"])

record = partial(_harness.record, "exec", smoke=SMOKE)


# ---------------------------------------------------------------------------
def test_model_execute_latency(benchmark):
    """Executed wall-clock per zoo model, with the simulator side by side."""
    executor = NumpyExecutor()
    sim = E2ESimulator()
    payload = {}
    # With OpenBLAS on two threads, every GEMM waits 12-24 ms for its second
    # thread whenever the other vCPU is busy — in consecutive calls, not
    # only after an idle gap (docs/executor.md, "BLAS threads"): the first
    # model timed read 130-340 ms instead of 25 in 16 of 17 recordings.
    # The warm-up below pays the first-use costs; it cannot keep the other
    # vCPU free.  Run with OPENBLAS_NUM_THREADS=1 for stable numbers, as
    # xbench does.
    warm = np.ones((256, 256))
    warm @ warm
    executor.run(build_small_model(BENCH_MODELS[0]))

    def run():
        rows = {}
        for name in BENCH_MODELS:
            graph = build_small_model(name)
            execute_ms = executor.measure(graph, repeats=REPEATS)
            sim_ms = sim.latency_ms(graph)
            rows[name] = {
                "execute_ms": float(execute_ms),
                "sim_ms": float(sim_ms),
                "ratio": float(execute_ms / max(sim_ms, 1e-12)),
                "nodes": float(graph.num_nodes),
            }
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    for name, row in rows.items():
        payload[name] = row
        print(f"{name}: executed {row['execute_ms']:.2f} ms, "
              f"simulated {row['sim_ms']:.3f} ms "
              f"(ratio {row['ratio']:.1f}, {int(row['nodes'])} nodes)")
        assert row["execute_ms"] > 0 and row["sim_ms"] > 0
    record("models", payload)


# ---------------------------------------------------------------------------
def test_calibration_fits_device_constants(benchmark):
    """calibrate() reduces sim-vs-measured RMS log error on kernel samples."""
    executor = NumpyExecutor()
    graphs = [build_small_model(name) for name in BENCH_MODELS[:2]]

    def run():
        return calibrate(graphs, executor=executor, repeats=REPEATS)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.samples, "calibration collected no kernel samples"
    assert result.error_after <= result.error_before + 1e-9
    assert result.improvement >= 1.0

    ratios = result.op_class_ratios()
    payload = {
        "samples": float(len(result.samples)),
        "error_before": float(result.error_before),
        "error_after": float(result.error_after),
        "improvement": float(result.improvement),
        "flops_scale": float(result.flops_scale),
        "bytes_scale": float(result.bytes_scale),
    }
    print(f"calibration: {len(result.samples)} samples, RMS log error "
          f"{result.error_before:.3f} -> {result.error_after:.3f} "
          f"(improvement {result.improvement:.2f}x)")
    record("calibration", payload)
    record("op_class_ratio",
           {cls: float(r) for cls, r in sorted(ratios.items())})


# ---------------------------------------------------------------------------
def _rule_donors():
    """Donor graphs triggering every curated rule family."""
    donors = []

    b = GraphBuilder("mlp")
    x = b.input((4, 16), name="x")
    donors.append(b.build([b.linear(b.relu(b.linear(x, 16, 32, name="fc1")),
                                    32, 8, name="fc2")]))

    b = GraphBuilder("convnet")
    x = b.input((1, 3, 16, 16), name="image")
    h = b.conv_bn_relu(x, 8, kernel=3)
    donors.append(b.build([b.relu(b.conv2d(h, 8, kernel=3))]))

    b = GraphBuilder("fire")
    x = b.input((1, 8, 8, 8), name="image")
    s = b.relu(b.conv2d(x, 4, kernel=1))
    donors.append(b.build([b.concat(
        [b.relu(b.conv2d(s, 8, kernel=1)), b.relu(b.conv2d(s, 8, kernel=3))],
        axis=1)]))

    b = GraphBuilder("attention")
    x = b.input((1, 8, 16), name="tokens")
    donors.append(b.build([b.multi_head_attention(
        x, hidden=16, num_heads=2, seq_len=8, batch=1, name="attn")]))

    b = GraphBuilder("scaled_attention")
    x = b.input((2, 4, 8), name="x")
    w = b.weight((8, 8), name="w")
    scores = b.batch_matmul(b.matmul(x, w), b.transpose(x, (0, 2, 1)))
    donors.append(b.build([b.mul(scores, b.constant((1,), name="scale"))]))

    b = GraphBuilder("patterns")
    x = b.input((2, 12), name="x")
    y = b.weight((2, 12), name="y")
    c = b.constant((1,), name="c")
    scaled = b.mul(b.add(x, y), c)
    reshaped = b.mul(b.reshape(x, (2, 3, 4)), c)
    t = b.transpose(b.transpose(reshaped, (0, 2, 1)), (0, 2, 1))
    donors.append(b.build([scaled, t]))

    b = GraphBuilder("par_convs")
    x = b.input((1, 4, 8, 8), name="x")
    donors.append(b.build([b.concat(
        [b.conv2d(x, 6, kernel=3), b.conv2d(x, 10, kernel=3)], axis=1)]))

    b = GraphBuilder("shared_mm")
    x = b.input((4, 8), name="x")
    a = b.matmul(x, b.weight((8, 6), name="w1"))
    bb = b.matmul(x, b.weight((8, 10), name="w2"))
    donors.append(b.build([a, bb]))

    b = GraphBuilder("slice_cat")
    x = b.input((2, 4), name="x")
    y = b.weight((2, 6), name="y")
    donors.append(b.build([b.relu(
        b.slice(b.concat([x, y], axis=1), axis=1, start=0, end=4))]))

    b = GraphBuilder("reassoc")
    x = b.input((4, 8), name="x")
    donors.append(b.build([b.matmul(
        b.matmul(x, b.weight((8, 16), name="a")),
        b.weight((16, 4), name="c2"))]))

    # Chained-pattern donors: conv-bn-relu fusion needs a FusedConvBN
    # already in place; fold-mul-matmul needs the mul pushed first.
    from repro.rules.rulesets import (FuseConvBatchNorm,
                                      PushMulThroughBatchMatMul)
    fuse = FuseConvBatchNorm()
    convnet = donors[1]
    donors.append(fuse.apply(convnet, fuse.find_matches(convnet)[0]))
    push = PushMulThroughBatchMatMul()
    scaled = donors[4]
    donors.append(push.apply(scaled, push.find_matches(scaled)[0]))

    return donors


def test_equivalence_sweep(benchmark):
    """The differential harness as a recorded benchmark: every rule and a
    panel of optimisers preserve executed outputs.  This is the witness
    ``check_bench.py`` demands — skipping the sweep fails the gate."""
    donors = _rule_donors()
    rule_classes = list(DEFAULT_RULE_CLASSES) + [ConvToWinogradGemm]

    def run():
        checks, failures, rules_fired = 0, [], 0
        for rule_cls in rule_classes:
            rule = rule_cls()
            fired = False
            for graph in donors:
                for match in rule.find_matches(graph)[:1]:
                    transformed = rule.apply(graph, match)
                    report = differential_check(
                        graph, transformed,
                        require_values=rule.exactly_equivalent)
                    checks += 1
                    fired = True
                    if not report.equivalent:
                        failures.append((rule.name, graph.name,
                                         report.problems))
                if fired:
                    break
            if fired:
                rules_fired += 1

        exact = exact_ruleset()
        optimisers = [
            TASOOptimizer(ruleset=exact, max_iterations=8),
            GreedyOptimizer(ruleset=exact, max_iterations=8),
            RandomSearchOptimizer(ruleset=exact, num_walks=1, horizon=5),
        ]
        optimiser_checks = 0
        for optimiser in optimisers:
            for graph in donors[:3]:
                result = optimiser.optimise(graph)
                report = differential_check(graph, result.final_graph)
                checks += 1
                optimiser_checks += 1
                if not report.equivalent:
                    failures.append((optimiser.name, graph.name,
                                     report.problems))
        return checks, failures, rules_fired, optimiser_checks

    checks, failures, rules_fired, optimiser_checks = benchmark.pedantic(
        run, rounds=1, iterations=1)
    assert not failures, failures
    assert rules_fired == len(rule_classes), (
        f"only {rules_fired}/{len(rule_classes)} rules fired on the donors")

    from repro.exec.differential import DEFAULT_ATOL, DEFAULT_RTOL
    payload = {
        "rules_checked": float(rules_fired),
        "optimiser_checks": float(optimiser_checks),
        "total_checks": float(checks),
        "pass_rate": 1.0 if not failures else
            1.0 - len(failures) / max(checks, 1),
        "status": "passed" if not failures else "failed",
        "rtol": float(DEFAULT_RTOL),
        "atol": float(DEFAULT_ATOL),
    }
    print(f"equivalence sweep: {checks} checks "
          f"({rules_fired} rules, {optimiser_checks} optimiser runs), "
          f"pass rate {payload['pass_rate']:.0%}")
    record("equivalence", payload)
