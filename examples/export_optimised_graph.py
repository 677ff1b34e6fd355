"""Optimise a model with TASO-style search and export the optimised graph.

Demonstrates the ONNX-like JSON round trip the paper describes (import a
model, superoptimise, export for deployment); the graph is written to the
given path, ``squeezenet_optimised.json`` in the working directory by
default::

    python examples/export_optimised_graph.py [output.json]
"""

import sys

from repro.cost import E2ESimulator
from repro.ir import load_graph, save_graph
from repro.models import build_model
from repro.search import TASOOptimizer


def main(output_path: str = "squeezenet_optimised.json") -> None:
    graph = build_model("squeezenet")
    result = TASOOptimizer(max_iterations=60).optimise(graph, "squeezenet")
    print(result.summary())

    save_graph(result.final_graph, output_path)
    print(f"Optimised graph written to {output_path}")

    # Round-trip check: the reloaded graph has identical structure and latency.
    reloaded = load_graph(output_path)
    e2e = E2ESimulator()
    assert reloaded.structural_hash() == result.final_graph.structural_hash()
    print(f"Reloaded graph latency: {e2e.latency_ms(reloaded):.3f} ms "
          f"(matches optimised graph)")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "squeezenet_optimised.json")
