"""Compare X-RLflow against the TASO, Tensat and random-search baselines.

This mirrors the paper's Figure 4 / Figure 8 workflow on a single model, but
routes every contender through the optimisation service: the four searches
run concurrently on the worker pool, and re-running the script against a
persistent cache directory returns instantly from the fingerprint cache::

    python examples/compare_optimisers.py [model_name]
"""

import sys

from repro import build_model
from repro.experiments import small_model_kwargs
from repro.service import OptimisationService


def main(model_name: str = "squeezenet") -> None:
    graph = build_model(model_name, **small_model_kwargs(model_name))
    print(f"Optimising {model_name}: {graph.num_nodes} nodes")

    # Optimiser name -> config overrides, dispatched through the registry.
    contenders = {
        "taso": {"max_iterations": 40},
        "tensat": {"round_limit": 4},
        "random": {"num_walks": 3, "horizon": 20},
        "xrlflow": {},
    }

    with OptimisationService(num_workers=len(contenders)) as service:
        submitted = {
            name: service.submit(graph, optimiser=name, config=config,
                                 model_name=model_name)
            for name, config in contenders.items()
        }
        results = {name: future.result()
                   for name, future in submitted.items()}

        for name, result in results.items():
            print(result.search.summary())

        print("\nEnd-to-end speedup over the unoptimised graph:")
        ranked = sorted(results.items(), key=lambda kv: -kv[1].search.speedup)
        for name, result in ranked:
            origin = " [cache]" if result.cache_hit else ""
            print(f"  {name:8s} {result.search.speedup_percent:+7.2f}%  "
                  f"({result.search.optimisation_time_s:.2f}s optimisation "
                  f"time){origin}")
        print(f"\nservice stats: {service.stats()['jobs']}")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "squeezenet")
