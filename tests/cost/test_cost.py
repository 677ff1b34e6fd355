"""Tests for the device model, op costs, cost model and E2E simulator."""

import numpy as np
import pytest

from repro.cost import (
    CostModel,
    E2ESimulator,
    SimulatedDevice,
    is_zero_cost,
    op_flops,
    op_memory_bytes)
from repro.ir import GraphBuilder, OpType
from repro.ir.tensor import make_spec
from repro.models import build_model


class TestOpCost:
    def test_matmul_flops(self):
        flops = op_flops(OpType.MATMUL, [make_spec(4, 8), make_spec(8, 16)],
                         [make_spec(4, 16)])
        assert flops == 2 * 4 * 16 * 8

    def test_conv_flops(self):
        flops = op_flops(OpType.CONV2D,
                         [make_spec(1, 3, 8, 8), make_spec(16, 3, 3, 3)],
                         [make_spec(1, 16, 8, 8)])
        assert flops == 2 * 3 * 3 * 3 * (16 * 8 * 8)

    def test_winograd_reduces_flops(self):
        inputs = [make_spec(1, 3, 8, 8), make_spec(16, 3, 3, 3)]
        outputs = [make_spec(1, 16, 8, 8)]
        plain = op_flops(OpType.CONV2D, inputs, outputs, {})
        fast = op_flops(OpType.CONV2D, inputs, outputs, {"algorithm": "winograd"})
        assert fast < plain

    def test_zero_cost_ops(self):
        assert is_zero_cost(OpType.WEIGHT)
        assert is_zero_cost(OpType.IDENTITY)
        assert not is_zero_cost(OpType.CONV2D)
        assert op_flops(OpType.WEIGHT, [], [make_spec(8, 8)]) == 0.0

    def test_memory_bytes(self):
        bytes_moved = op_memory_bytes(OpType.RELU, [make_spec(4, 4)], [make_spec(4, 4)])
        assert bytes_moved == 2 * 16 * 4


class TestDevice:
    def test_kernel_time_monotone_in_flops(self):
        dev = SimulatedDevice()
        small = dev.kernel_time_ms(OpType.MATMUL, 1e6, 1e4)
        large = dev.kernel_time_ms(OpType.MATMUL, 1e9, 1e4)
        assert large > small

    def test_launch_overhead_included(self):
        dev = SimulatedDevice()
        t = dev.kernel_time_ms(OpType.RELU, 0.0, 0.0)
        assert t == pytest.approx(dev.config.kernel_launch_ms)

    def test_grouped_conv_penalty(self):
        dev = SimulatedDevice()
        flops = 1e9
        dense = dev.kernel_time_ms(OpType.CONV2D, flops, 0.0)
        grouped = dev.kernel_time_ms(OpType.GROUP_CONV2D, flops, 0.0)
        assert grouped > dense

    def test_with_config_override(self):
        dev = SimulatedDevice().with_config(kernel_launch_ms=1.0)
        assert dev.config.kernel_launch_ms == 1.0


class TestCostModelAndE2E:
    def test_cost_breakdown_sums(self, conv_graph):
        cm = CostModel()
        breakdown = cm.breakdown(conv_graph)
        assert breakdown.total_ms == pytest.approx(sum(breakdown.per_node_ms.values()))
        assert breakdown.top_nodes(3)[0][1] >= breakdown.top_nodes(3)[-1][1]

    def test_ignore_elementwise_reduces_cost(self, conv_graph):
        full = CostModel().estimate(conv_graph)
        pet = CostModel(ignore_elementwise=True).estimate(conv_graph)
        assert pet < full

    def test_e2e_exceeds_cost_model_on_unoptimised_models(self):
        cm, e2e = CostModel(), E2ESimulator()
        graph = build_model("squeezenet")
        assert e2e.latency_ms(graph) > cm.estimate(graph)

    def test_discrepancy_within_paper_range(self):
        cm, e2e = CostModel(), E2ESimulator()
        for name in ("bert", "dalle"):
            graph = build_model(name)
            cost, lat = cm.estimate(graph), e2e.latency_ms(graph)
            diff = abs(lat - cost) / cost * 100
            assert 1.0 < diff < 30.0

    def test_constant_folding_detection(self):
        b = GraphBuilder()
        x = b.input((2, 4))
        w1 = b.weight((4, 4))
        w2 = b.weight((4, 4))
        ww = b.matmul(w1, w2)          # constant-only: foldable
        out = b.matmul(x, ww)          # depends on input: not foldable
        g = b.build([out])
        folded = E2ESimulator().constant_foldable_nodes(g)
        assert ww in folded and out not in folded

    def test_constant_folding_reduces_latency(self):
        b = GraphBuilder()
        x = b.input((64, 256))
        w1 = b.weight((256, 256))
        w2 = b.weight((256, 256))
        chained = b.matmul(b.matmul(x, w1), w2)
        g1 = b.build([chained])
        b2 = GraphBuilder()
        x = b2.input((64, 256))
        w1 = b2.weight((256, 256))
        w2 = b2.weight((256, 256))
        reassociated = b2.matmul(x, b2.matmul(w1, w2))
        g2 = b2.build([reassociated])
        e2e = E2ESimulator()
        assert e2e.latency_ms(g2) < e2e.latency_ms(g1)

    def test_measure_reports_noise(self, conv_graph):
        measurement = E2ESimulator(seed=3).measure(conv_graph, repeats=5)
        assert len(measurement.samples) == 5
        assert measurement.std_ms >= 0.0
        assert measurement.mean_ms == pytest.approx(np.mean(measurement.samples))

    def test_profile_accounts_for_every_node(self, conv_graph):
        profile = E2ESimulator().profile(conv_graph)
        assert set(profile.per_node_ms) == set(conv_graph.nodes)
        assert profile.total_ms == pytest.approx(sum(profile.per_node_ms.values()))
        assert profile.kernel_count > 0

    def test_pipeline_has_no_switches(self):
        """Constant folding always runs, runtime fusion never does."""
        for switch in ("enable_constant_folding", "enable_runtime_fusion"):
            with pytest.raises(TypeError, match=switch):
                E2ESimulator(**{switch: True})
