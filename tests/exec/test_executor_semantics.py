"""Executed values: single ops against numpy, the equivalence check, and
the vectorised kernels against the loop oracle on whole rewritten graphs."""

import numpy as np
import pytest
from equivalence import assert_equivalent
from interpreter_reference import (ATOL, F32_ATOL, F32_RTOL, RTOL,
                                   GraphInterpreter, run_kernels_float64)

from repro.exec import (KERNELS, NumpyExecutor, deterministic_tensor,
                        differential_check)
from repro.ir import GraphBuilder, OpType


def _only_output(graph, inputs=None):
    (value,) = NumpyExecutor().run(graph, inputs)[0].values()
    return value


class TestExecutorSemantics:
    def test_matmul_add_relu_matches_numpy(self):
        b = GraphBuilder()
        x = b.input((3, 4), name="x")
        w = b.weight((4, 5), name="w")
        g = b.build([b.relu(b.matmul(x, w))])
        expected = np.maximum(deterministic_tensor("input:x", (3, 4))
                              @ deterministic_tensor("param:w", (4, 5)), 0.0)
        np.testing.assert_allclose(_only_output(g), expected)

    def test_user_inputs_respected(self):
        b = GraphBuilder()
        x = b.input((2, 2), name="x")
        g = b.build([b.relu(x)])
        feed = np.array([[1.0, -2.0], [3.0, -4.0]])
        np.testing.assert_allclose(_only_output(g, {"x": feed}),
                                   np.maximum(feed, 0))

    def test_softmax_rows_sum_to_one(self):
        b = GraphBuilder()
        g = b.build([b.softmax(b.input((2, 5), name="x"))])
        out = _only_output(g)
        # Float32: five terms, each rounded once, sum to 1 within a few ulps
        # (float32's ulp at 1.0 is 1.2e-7).
        assert out.dtype == np.float32
        np.testing.assert_allclose(out.sum(axis=-1), np.ones(2),
                                   rtol=4 * np.finfo(np.float32).eps)

    def test_concat_split_round_trip(self):
        b = GraphBuilder()
        x = b.input((2, 4), name="x")
        y = b.input((2, 6), name="y")
        g = b.build([b.slice(b.concat([x, y], axis=1), axis=1, start=0,
                             end=4)])
        feeds = {"x": np.arange(8.0).reshape(2, 4), "y": np.ones((2, 6))}
        np.testing.assert_allclose(_only_output(g, feeds), feeds["x"])

    def test_conv_against_direct_computation(self):
        b = GraphBuilder()
        x = b.input((1, 2, 4, 4), name="x")
        c = b.conv2d(x, 3, kernel=1, padding="same")
        g = b.build([c])
        weight = g.nodes[g.predecessors(c)[1]]
        w = deterministic_tensor("param:" + weight.name, (3, 2, 1, 1))
        expected = np.einsum("nchw,oc->nohw",
                             deterministic_tensor("input:x", (1, 2, 4, 4)),
                             w[:, :, 0, 0])
        np.testing.assert_allclose(_only_output(g), expected, atol=1e-9)

    def test_pooling(self):
        b = GraphBuilder()
        g = b.build([b.maxpool(b.input((1, 1, 4, 4), name="x"), kernel=2,
                               stride=2)])
        feed = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        np.testing.assert_allclose(_only_output(g, {"x": feed})[0, 0],
                                   [[5, 7], [13, 15]])


class TestEquivalenceChecker:
    def test_identical_graphs_equivalent(self, mlp_graph):
        report = differential_check(mlp_graph, mlp_graph.copy())
        assert report.equivalent and not report.fallback_ops

    def test_different_structure_not_equivalent(self):
        b1 = GraphBuilder()
        x = b1.input((2, 4), name="x")
        g1 = b1.build([b1.relu(x)])
        b2 = GraphBuilder()
        x = b2.input((2, 4), name="x")
        g2 = b2.build([b2.tanh(x)])
        assert not differential_check(g1, g2).equivalent

    def test_mismatched_inputs_not_equivalent(self, mlp_graph, conv_graph):
        report = differential_check(mlp_graph, conv_graph)
        assert not report.equivalent and "input sets differ" in report.problems[0]

    def test_a_fallback_fails_the_assertion(self, mlp_graph):
        """Equal outputs are not enough: a node no kernel ran was never
        checked."""
        without_relu = NumpyExecutor(kernels={
            op: kernel for op, kernel in KERNELS.items()
            if op is not OpType.RELU})
        assert differential_check(mlp_graph, mlp_graph.copy(),
                                  executor=without_relu).equivalent
        with pytest.raises(AssertionError, match="Relu"):
            assert_equivalent(mlp_graph, mlp_graph.copy(),
                              executor=without_relu)


class TestCrossBackendAgreement:
    """Loop oracle vs numpy kernels: two independent implementations of
    the op semantics must agree on every donor, before and after each
    rule — the kernels called on float64 arrays at ``RTOL``, the float32
    executor at ``F32_RTOL``, both against the one float64 oracle."""

    def _assert_backends_agree(self, graph, label=""):
        interp = GraphInterpreter().run(graph)
        float64 = run_kernels_float64(graph)
        execd, _ = NumpyExecutor().run(graph)
        assert set(execd) == {graph.nodes[nid].name
                              for nid in graph.sink_nodes()}, label
        for nid in graph.sink_nodes():
            name = graph.nodes[nid].name
            np.testing.assert_allclose(
                float64[nid], interp[nid], rtol=RTOL, atol=ATOL,
                err_msg=f"{label}: float64 disagreement at sink {name!r}")
            assert execd[name].dtype == np.float32, label
            np.testing.assert_allclose(
                execd[name], interp[nid], rtol=F32_RTOL, atol=F32_ATOL,
                err_msg=f"{label}: float32 disagreement at sink {name!r}")

    def test_backends_agree_on_fixtures(self, mlp_graph, conv_graph,
                                        fire_graph, attention_graph,
                                        shared_matmul_graph):
        for graph in (mlp_graph, conv_graph, fire_graph, attention_graph,
                      shared_matmul_graph):
            self._assert_backends_agree(graph, graph.name)

    def test_backends_agree_after_every_exact_rule(self, mlp_graph,
                                                   conv_graph, fire_graph,
                                                   attention_graph,
                                                   shared_matmul_graph):
        from repro.rules import exact_ruleset
        donors = [mlp_graph, conv_graph, fire_graph, attention_graph,
                  shared_matmul_graph] + self._pattern_donors()
        fired = set()
        for rule in exact_ruleset():
            for graph in donors:
                matches = rule.find_matches(graph)
                if not matches:
                    continue
                transformed = rule.apply(graph, matches[0])
                # Both backends agree on the rewritten graph, and the
                # differential check accepts the rewrite.
                self._assert_backends_agree(transformed, rule.name)
                assert_equivalent(graph, transformed)
                fired.add(rule.name)
                break
        # Nearly all of the exact ruleset fires across the donors;
        # chained-pattern rules (conv-bn-relu fusion, fold-after-push)
        # get their own differential coverage in tests/exec.
        assert len(fired) >= 10, sorted(fired)

    @staticmethod
    def _pattern_donors():
        donors = []

        b = GraphBuilder("dbl_t")
        x = b.input((2, 3, 4), name="x")
        donors.append(b.build([b.relu(
            b.transpose(b.transpose(x, (0, 2, 1)), (0, 2, 1)))]))

        b = GraphBuilder("slice_cat")
        x = b.input((2, 4), name="x")
        y = b.weight((2, 6), name="y")
        donors.append(b.build([b.relu(
            b.slice(b.concat([x, y], axis=1), axis=1, start=0, end=4))]))

        b = GraphBuilder("mul_add")
        x = b.input((2, 8), name="x")
        y = b.weight((2, 8), name="y")
        c = b.constant((1,), name="c")
        donors.append(b.build([b.mul(b.add(x, y), c)]))

        b = GraphBuilder("reassoc")
        x = b.input((4, 8), name="x")
        a = b.weight((8, 16), name="a")
        c2 = b.weight((16, 4), name="c2")
        donors.append(b.build([b.matmul(b.matmul(x, a), c2)]))

        b = GraphBuilder("mul_reshape")
        x = b.input((2, 12), name="x")
        c3 = b.constant((1,), name="c3")
        donors.append(b.build([b.mul(b.reshape(x, (2, 3, 4)), c3)]))

        b = GraphBuilder("par_convs")
        x = b.input((1, 4, 8, 8), name="x")
        donors.append(b.build([b.concat(
            [b.conv2d(x, 6, kernel=3), b.conv2d(x, 10, kernel=3)], axis=1)]))

        return donors
