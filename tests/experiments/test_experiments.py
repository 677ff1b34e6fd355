"""Tests for the experiment harness (fast, reduced-size configurations)."""

import threading

import pytest

from repro import XRLflow
from repro.experiments import (ExperimentReport, benchmark_config,
                               build_small_model, format_table, run_figure4,
                               run_figure7, run_figure8, run_table1,
                               run_table2, run_table3, optimise_suite,
                               small_model_kwargs)
from repro.models import PAPER_EVAL_MODELS, build_model
from repro.service import create_optimiser


@pytest.fixture(scope="module")
def tiny_rl_config():
    return benchmark_config(num_episodes=2, max_steps=6, max_candidates=12,
                            update_frequency=2, num_gat_layers=1,
                            hidden_dim=16, embedding_dim=16,
                            mlp_head_sizes=(16,), eval_episodes=1)


class TestReportInfrastructure:
    def test_report_columns_and_formatting(self):
        report = ExperimentReport("X", "demo")
        report.add("a", one=1.0, two=2.0)
        report.add("b", one=3.0)
        assert report.column("one") == {"a": 1.0, "b": 3.0}
        text = format_table(report)
        assert "X" in text and "one" in text and "a" in text

    def test_empty_report(self):
        assert "(no rows)" in format_table(ExperimentReport("Y", "empty"))

    def test_small_models_build(self):
        for name in PAPER_EVAL_MODELS:
            graph = build_small_model(name)
            graph.validate()
            assert isinstance(small_model_kwargs(name), dict)


class TestTables:
    def test_table1_shape(self):
        report = run_table1(models=["bert", "squeezenet"])
        diffs = report.column("diff_percent")
        assert set(diffs) == {"bert", "squeezenet"}
        # The paper reports discrepancies between roughly 5% and 24%.
        assert all(1.0 <= d <= 35.0 for d in diffs.values())

    def test_table2_crossover(self):
        report = run_table2(max_iterations=15)
        pet = report.column("pet_ms")
        taso = report.column("taso_ms")
        assert pet["resnet18"] < taso["resnet18"]

    def test_table3_complexity_ordering(self):
        report = run_table3(models=["inception_v3", "resnext50", "bert"])
        complexity = report.column("complexity")
        # InceptionV3 offers the most rewrite opportunities (as in the paper).
        assert complexity["inception_v3"] > complexity["resnext50"]


class TestFigures:
    def test_figure4_and_6_from_shared_suite(self, tiny_rl_config):
        results = optimise_suite(models=["squeezenet"], config=tiny_rl_config,
                                 taso_iterations=10)
        fig4 = run_figure4(results=results)
        fig6 = __import__("repro.experiments", fromlist=["run_figure6"]).run_figure6(
            results=results)
        xrl = fig4.column("xrlflow_speedup_pct")["squeezenet"]
        taso = fig4.column("taso_speedup_pct")["squeezenet"]
        assert xrl >= -1e-6 and taso >= -1e-6
        # The policy alone reaches at most what train+best returns.
        policy = fig4.column("xrlflow_policy_speedup_pct")["squeezenet"]
        assert -1e-6 <= policy <= xrl + 1e-9
        assert fig6.column("taso_seconds")["squeezenet"] > 0
        train = fig6.column("xrlflow_train_seconds")["squeezenet"]
        assert train == results["squeezenet"]["xrlflow"].stats["train_time_s"]
        assert train > 0
        # Figure 8 reads the same X-RLflow runs instead of retraining.
        fig8 = run_figure8(results, models=["squeezenet"], tensat_rounds=2)
        for column in ("xrlflow_speedup_pct", "xrlflow_policy_speedup_pct"):
            assert fig8.column(column) == fig4.column(column)

    def test_figure8_runs(self, tiny_rl_config):
        results = optimise_suite(models=["bert"], config=tiny_rl_config,
                                 taso_iterations=5)
        report = run_figure8(results, models=["bert"], tensat_rounds=2)
        xrl = report.column("xrlflow_speedup_pct")["bert"]
        policy = report.column("xrlflow_policy_speedup_pct")["bert"]
        assert -1e-6 <= policy <= xrl + 1e-9

    def test_taso_leg_is_a_direct_search(self, tiny_rl_config):
        """The suite's TASO result is the registry's ``taso`` search, run
        in the caller's thread: no service threads outlive the suite."""
        threads = threading.active_count()
        results = optimise_suite(models=["squeezenet"], config=tiny_rl_config,
                                 taso_iterations=10)
        assert threading.active_count() == threads
        reference = create_optimiser("taso", max_iterations=10).optimise(
            build_small_model("squeezenet"))
        taso = results["squeezenet"]["taso"]
        assert taso.applied_rules == reference.applied_rules
        assert taso.final_latency_ms == reference.final_latency_ms


#: Figure 7's shapes, spelled out apart from the harness's own table.
_FIGURE7_REFERENCE = {
    "dalle": [("dalle-32 (train)", {"text_len": 32}),
              ("dalle-48", {"text_len": 48}),
              ("dalle-64", {"text_len": 64})],
    "inception_v3": [("inception-299 (train)", {"image_size": 299}),
                     ("inception-225", {"image_size": 225}),
                     ("inception-187", {"image_size": 187})],
}


class TestFigure7:
    @pytest.fixture(scope="class")
    def suite(self, tiny_rl_config):
        return optimise_suite(models=list(_FIGURE7_REFERENCE),
                              config=tiny_rl_config, taso_iterations=5)

    def test_reuses_the_suite_agents_bit_for_bit(self, suite, tiny_rl_config,
                                                 monkeypatch):
        """Figure 7 trains nothing, and its rows are what a fresh agent
        trained on the anchor shape reaches at each shape."""
        expected = []
        for name, shapes in _FIGURE7_REFERENCE.items():
            kwargs = small_model_kwargs(name)
            optimiser = XRLflow(tiny_rl_config)
            optimiser.train(build_model(name, **kwargs))
            for label, overrides in shapes:
                graph = build_model(name, **{**kwargs, **overrides})
                result = optimiser.optimise(graph, label, train=False)
                expected.append((label, result.speedup_percent))

        trainings = []
        train = XRLflow.train
        monkeypatch.setattr(
            XRLflow, "train",
            lambda self, *a, **kw: trainings.append(1) or train(self, *a, **kw))
        report = run_figure7(suite)
        assert trainings == []
        assert [(row.label, row.values["speedup_pct"])
                for row in report.rows] == expected

    def test_a_missing_model_is_named(self, suite):
        with pytest.raises(KeyError, match="inception_v3"):
            run_figure7({"dalle": suite["dalle"]})
