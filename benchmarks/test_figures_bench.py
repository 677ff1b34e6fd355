"""Benchmarks regenerating the paper's Figures 4, 5, 6, 7 and 8."""

import numpy as np

from repro.experiments import (run_figure4, run_figure5, run_figure6,
                               run_figure7, run_figure8)


def test_fig4_speedup(benchmark, suite_results):
    """Figure 4: end-to-end speedup of TASO vs X-RLflow on all seven DNNs."""
    report = benchmark.pedantic(run_figure4, args=(suite_results,),
                                rounds=1, iterations=1)
    print("\n" + report.to_text())
    taso = report.column("taso_speedup_pct")
    xrl = report.column("xrlflow_speedup_pct")
    assert set(taso) == set(xrl) and len(taso) == 7
    # Both optimisers must find real speedups everywhere.
    assert all(v > 0 for v in taso.values())
    assert all(v > 0 for v in xrl.values())
    # Headline shape (paper): X-RLflow's advantage is concentrated on the
    # transformer models, where the cost model cannot see the constant-folding
    # chains.  On the convolutional models the reduced training budget of the
    # benchmark harness may leave X-RLflow short of TASO's exhaustive fusion
    # sweep (ROADMAP, "The deterministic policy beats TASO", and
    # docs/rl.md); the transformer-side claim is asserted.
    transformer = ["bert", "dalle", "tt", "vit"]
    assert np.mean([xrl[m] - taso[m] for m in transformer]) >= -1.0
    assert sum(xrl[m] >= taso[m] for m in transformer) >= 2


def test_fig5_rule_heatmap(benchmark, suite_results):
    """Figure 5: which rewrite rules X-RLflow applied, per DNN."""
    report = benchmark.pedantic(run_figure5, args=(suite_results,),
                                rounds=1, iterations=1)
    print("\n" + report.to_text())
    totals = report.column("total_substitutions")
    assert all(t >= 0 for t in totals.values())
    assert any(t > 0 for t in totals.values())


def test_fig6_optimisation_time(benchmark, suite_results):
    """Figure 6: optimisation wall-clock time of TASO vs X-RLflow."""
    report = benchmark.pedantic(run_figure6, args=(suite_results,),
                                rounds=1, iterations=1)
    print("\n" + report.to_text())
    taso = report.column("taso_seconds")
    xrl = report.column("xrlflow_seconds")
    assert all(t > 0 for t in taso.values())
    assert all(t > 0 for t in xrl.values())


def test_fig7_shape_generalisation(benchmark, suite_results):
    """Figure 7: Figure 4's trained agents generalise to unseen tensor
    shapes."""
    report = benchmark.pedantic(run_figure7, args=(suite_results,),
                                rounds=1, iterations=1)
    print("\n" + report.to_text())
    speedups = report.column("speedup_pct")
    assert len(speedups) == 6
    # Every shape variant (trained or unseen) must not regress.
    assert all(s >= -1e-6 for s in speedups.values())


def test_fig8_tensat_comparison(benchmark, suite_results):
    """Figure 8: X-RLflow vs the equality-saturation baseline (Tensat)."""
    report = benchmark.pedantic(run_figure8, args=(suite_results,),
                                rounds=1, iterations=1)
    print("\n" + report.to_text())
    tensat = report.column("tensat_speedup_pct")
    xrl = report.column("xrlflow_speedup_pct")
    assert set(tensat) == {"bert", "inception_v3", "squeezenet", "resnext50"}
    # The paper's shape: X-RLflow wins on BERT (Tensat's multi-pattern limit
    # stops it from exploring the matmul merges).
    assert xrl["bert"] >= tensat["bert"] - 1.0
