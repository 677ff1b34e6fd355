"""Tests for the fluent GraphBuilder API."""


from repro.ir import GraphBuilder, OpType


class TestBasicOps:
    def test_linear_with_bias(self):
        b = GraphBuilder()
        x = b.input((2, 16))
        out = b.linear(x, 16, 32)
        g = b.build([out])
        assert g.nodes[out].op_type is OpType.ADD
        counts = g.op_type_counts()
        assert counts["MatMul"] == 1 and counts["Weight"] == 2

    def test_linear_without_bias(self):
        b = GraphBuilder()
        x = b.input((2, 16))
        out = b.linear(x, 16, 32, bias=False)
        assert b.graph.nodes[out].op_type is OpType.MATMUL

    def test_conv_defaults_infer_in_channels(self):
        b = GraphBuilder()
        x = b.input((1, 3, 8, 8))
        c = b.conv2d(x, 16, kernel=3)
        assert b.graph.nodes[c].output_spec.shape.dims == (1, 16, 8, 8)

    def test_group_and_depthwise_conv(self):
        b = GraphBuilder()
        x = b.input((1, 8, 8, 8))
        gc = b.group_conv2d(x, 8, groups=4)
        dw = b.depthwise_conv2d(x)
        assert b.graph.nodes[gc].output_spec.shape.dims == (1, 8, 8, 8)
        assert b.graph.nodes[dw].output_spec.shape.dims == (1, 8, 8, 8)

    def test_pooling_and_norms(self):
        b = GraphBuilder()
        x = b.input((1, 4, 8, 8))
        assert b.graph.nodes[b.maxpool(x)].output_spec.shape.dims == (1, 4, 4, 4)
        assert b.graph.nodes[b.global_avgpool(x)].output_spec.shape.dims == (1, 4)
        bn = b.batchnorm(x)
        assert b.graph.nodes[bn].output_spec.shape.dims == (1, 4, 8, 8)

    def test_build_validates(self):
        b = GraphBuilder()
        x = b.input((2, 4))
        out = b.relu(x)
        g = b.build([out])
        assert g.nodes[g.sink_nodes()[0]].op_type is OpType.OUTPUT
        g.validate()  # build() re-checks nothing: add_node already had


class TestCompositeBlocks:
    def test_conv_bn_relu_block(self):
        b = GraphBuilder()
        x = b.input((1, 3, 16, 16))
        out = b.conv_bn_relu(x, 8)
        counts = b.graph.op_type_counts()
        assert counts["Conv2D"] == 1 and counts["BatchNorm"] == 1 and counts["Relu"] == 1
        assert b.graph.nodes[out].output_spec.shape.dims == (1, 8, 16, 16)

    def test_multi_head_attention_shapes(self):
        b = GraphBuilder()
        x = b.input((1, 8, 32))
        out = b.multi_head_attention(x, hidden=32, num_heads=4, seq_len=8, batch=1)
        assert b.graph.nodes[out].output_spec.shape.dims == (1, 8, 32)
        counts = b.graph.op_type_counts()
        assert counts["BatchMatMul"] == 2 and counts["Softmax"] == 1

    def test_transformer_block_residuals(self):
        b = GraphBuilder()
        x = b.input((1, 8, 32))
        out = b.transformer_block(x, hidden=32, num_heads=4, seq_len=8)
        g = b.build([out])
        assert g.nodes[out].op_type is OpType.ADD
        assert g.nodes[out].output_spec.shape.dims == (1, 8, 32)

    def test_transformer_ffn_activation_choice(self):
        b = GraphBuilder()
        x = b.input((1, 4, 16))
        b.transformer_ffn(x, 16, 32, activation="relu")
        assert "Relu" in b.graph.op_type_counts()
