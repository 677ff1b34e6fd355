"""Shared fixtures: small graphs exercising every rule family quickly."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.ir import GraphBuilder
from repro.ir import graph as graph_module

# The reference implementations the equivalence suites import by module name,
# and the random graph generator the property suites share.
sys.path.insert(0, str(Path(__file__).resolve().parent / "oracles"))
sys.path.insert(0, str(Path(__file__).resolve().parent / "exec"))


@pytest.fixture
def fresh_templates(monkeypatch):
    """An empty process-wide node-template table (``ir/graph.py``
    ``_TEMPLATES``) for one test, returned: what the test counts being
    derived then depends on the test alone, not on the tests before it.
    Build the test's graphs after asking for it."""
    table = {}
    monkeypatch.setattr(graph_module, "_TEMPLATES", table)
    return table


@pytest.fixture
def mlp_graph():
    """x -> matmul -> add bias -> relu -> matmul -> add bias (two dense layers)."""
    b = GraphBuilder("mlp")
    x = b.input((4, 16), name="x")
    h = b.relu(b.linear(x, 16, 32, name="fc1"))
    out = b.linear(h, 32, 8, name="fc2")
    return b.build([out])


@pytest.fixture
def conv_graph():
    """Small conv -> bn -> relu -> conv -> relu graph (fusion fodder)."""
    b = GraphBuilder("convnet")
    x = b.input((1, 3, 16, 16), name="image")
    h = b.conv_bn_relu(x, 8, kernel=3)
    h = b.conv2d(h, 8, kernel=3)
    h = b.relu(h)
    return b.build([h])


@pytest.fixture
def fire_graph():
    """SqueezeNet-style fire module: squeeze 1x1 then parallel 1x1 / 3x3."""
    b = GraphBuilder("fire")
    x = b.input((1, 8, 8, 8), name="image")
    s = b.relu(b.conv2d(x, 4, kernel=1))
    e1 = b.relu(b.conv2d(s, 8, kernel=1))
    e3 = b.relu(b.conv2d(s, 8, kernel=3))
    out = b.concat([e1, e3], axis=1)
    return b.build([out])


@pytest.fixture
def attention_graph():
    """One tiny self-attention block (merge-matmuls and fold-chain fodder)."""
    b = GraphBuilder("attention")
    x = b.input((1, 8, 16), name="tokens")
    out = b.multi_head_attention(x, hidden=16, num_heads=2, seq_len=8,
                                 batch=1, name="attn")
    return b.build([out])


@pytest.fixture
def shared_matmul_graph():
    """Two matmuls sharing one input (the classic TASO merge example)."""
    b = GraphBuilder("shared_mm")
    x = b.input((4, 8), name="x")
    w1 = b.weight((8, 6), name="w1")
    w2 = b.weight((8, 10), name="w2")
    a = b.matmul(x, w1)
    c = b.matmul(x, w2)
    out = b.concat([a, c], axis=1)
    return b.build([out])
