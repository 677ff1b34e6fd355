"""Tests for the model zoo: every builder produces a valid, sensible graph."""

import pytest

from repro.experiments import build_small_model
from repro.ir import OpType
from repro.models import (MODEL_REGISTRY, PAPER_EVAL_MODELS, TABLE1_MODELS,
                          TENSAT_MODELS, build_model, list_models)


@pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
def test_model_builds_and_validates(name):
    graph = build_model(name)
    graph.validate()
    assert graph.num_nodes > 20
    assert graph.sink_nodes(), "every model must expose at least one output"


@pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
def test_reduced_model_validates(name):
    """``GraphBuilder.build`` trusts ``add_node`` and checks nothing; this
    is where every registry model's graph is held to ``validate()``, at
    both sizes (full size above)."""
    graph = build_small_model(name)
    graph.validate()
    assert graph.sink_nodes()


@pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
def test_model_has_single_connected_output_interface(name):
    graph = build_model(name)
    sinks = graph.sink_nodes()
    assert all(graph.nodes[s].op_type is OpType.OUTPUT for s in sinks)


class TestFamilies:
    def test_convnets_contain_convolutions(self):
        for name in list_models(family="convolutional"):
            counts = build_model(name).op_type_counts()
            assert counts.get("Conv2D", 0) + counts.get("GroupConv2D", 0) > 0

    def test_transformers_contain_attention(self):
        for name in list_models(family="transformer"):
            counts = build_model(name).op_type_counts()
            assert counts.get("BatchMatMul", 0) >= 2
            assert counts.get("Softmax", 0) >= 1
            assert counts.get("LayerNorm", 0) >= 1

    def test_resnext_uses_grouped_convolutions(self):
        counts = build_model("resnext50").op_type_counts()
        assert counts.get("GroupConv2D", 0) >= 4

    def test_squeezenet_fire_modules(self):
        counts = build_model("squeezenet").op_type_counts()
        assert counts.get("Concat", 0) == 8  # one concat per fire module


class TestParameterisation:
    def test_bert_depth_scales_node_count(self):
        small = build_model("bert", num_layers=1)
        large = build_model("bert", num_layers=3)
        assert large.num_nodes > small.num_nodes

    def test_inception_image_size(self):
        graph = build_model("inception_v3", image_size=225)
        input_node = graph.nodes[graph.input_nodes()[0]]
        assert input_node.output_spec.shape.dims[-1] == 225

    def test_vit_patch_count(self):
        graph = build_model("vit", image_size=128, patch_size=16, num_layers=1)
        graph.validate()

    def test_dalle_sequence_concatenation(self):
        graph = build_model("dalle", text_len=16, image_tokens=32, num_layers=1)
        graph.validate()


class TestRegistry:
    def test_registry_lists(self):
        assert set(PAPER_EVAL_MODELS) <= set(MODEL_REGISTRY)
        assert set(TABLE1_MODELS) <= set(MODEL_REGISTRY)
        assert set(TENSAT_MODELS) <= set(MODEL_REGISTRY)
        assert len(PAPER_EVAL_MODELS) == 7

    def test_unknown_model_raises(self):
        with pytest.raises(KeyError):
            build_model("alexnet")

    def test_name_normalisation(self):
        graph = build_model("ResNeXt50".lower().replace("x", "x"))
        graph.validate()

    def test_list_models_filter(self):
        assert "bert" in list_models("transformer")
        assert "bert" not in list_models("convolutional")
