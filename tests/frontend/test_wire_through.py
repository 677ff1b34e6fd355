"""Imported graphs as first-class citizens: ``import_model`` as the one
way in, the service CLI, and the search/RL stack running over a model that
came in through ONNX."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exec import differential_check
from repro.frontend import import_model, to_onnx
from repro.frontend.serialize import save_model_spec
from repro.models.registry import build_model
from repro.rl.env import GraphRewriteEnv
from repro.rules import exact_ruleset
from repro.search import TASOOptimizer
from repro.service.cli import main as service_main
from zoo import build_bert_spec, build_resnet_spec


@pytest.fixture()
def resnet_path(tmp_path):
    path = tmp_path / "resnet.onnx"
    save_model_spec(build_resnet_spec(blocks=1, width=8), path)
    return path


def test_import_builds_a_valid_graph(resnet_path):
    graph, _ = import_model(resnet_path)
    graph.validate()
    assert len(graph.nodes) > 10


def test_strict_import_of_a_fully_bridged_model(resnet_path):
    graph, report = import_model(resnet_path, strict=True)
    graph.validate()
    assert report.num_fallbacks == 0


def test_import_of_a_missing_file_errors():
    with pytest.raises(OSError):
        import_model("/nonexistent/model.onnx")


def test_the_registry_takes_no_onnx_scheme(resnet_path):
    # import_model is the one way a foreign model enters.
    for name in ("onnx:x", f"onnx:{resnet_path}", "definitely_not_a_model"):
        with pytest.raises(KeyError, match="unknown model") as info:
            build_model(name)
        assert "onnx:<path>" not in str(info.value)


def test_service_cli_import_flag(resnet_path, capsys):
    code = service_main(["--import", str(resnet_path), "--workers", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[import]" in out and "coverage 100.0%" in out
    assert "onnx:resnet" in out


def test_service_cli_import_missing_file():
    with pytest.raises(SystemExit):
        service_main(["--import", "/nonexistent/model.onnx"])


def test_taso_search_improves_imported_model(resnet_path):
    graph, _ = import_model(resnet_path)
    result = TASOOptimizer(ruleset=exact_ruleset(),
                           max_iterations=12).optimise(graph, "zoo-resnet")
    assert result.final_cost_ms <= result.initial_cost_ms
    report = differential_check(graph, result.final_graph)
    assert report.equivalent, report.problems


def test_rl_episode_over_imported_model(tmp_path):
    path = tmp_path / "bert.onnx"
    save_model_spec(build_bert_spec(layers=1, hidden=32, heads=2, seq=8),
                    path)
    graph, _ = import_model(path)
    env = GraphRewriteEnv(graph, ruleset=exact_ruleset(), max_steps=6)
    obs = env.reset()
    rng = np.random.default_rng(0)
    for _ in range(6):
        valid = np.flatnonzero(obs.action_mask)
        step = env.step(int(rng.choice(valid)))
        obs = step.observation
        if step.done:
            break
    report = differential_check(graph, env.current_graph,
                                require_values=False)
    assert report.equivalent, report.problems


def test_exported_registry_model_reimports(tmp_path):
    graph = build_model("squeezenet")
    path = tmp_path / "squeezenet.onnx"
    to_onnx(graph, path)
    again, _ = import_model(path)
    assert graph.structural_hash() == again.structural_hash()
