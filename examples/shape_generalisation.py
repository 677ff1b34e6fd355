"""Shape generalisation (the paper's Figure 7): train once, reuse the agent.

A single X-RLflow agent is trained on DALL-E at one text length and then
optimises — inference only, no retraining — the same architecture at other
input lengths::

    python examples/shape_generalisation.py
"""

from repro import XRLflow
from repro.experiments import benchmark_config, small_model_kwargs
from repro.models import build_model


def main() -> None:
    base = small_model_kwargs("dalle")
    variants = [
        ("dalle-text32 (train)", dict(base, text_len=32)),
        ("dalle-text48", dict(base, text_len=48)),
        ("dalle-text64", dict(base, text_len=64)),
        ("dalle-image128", dict(base, image_tokens=128)),
    ]
    optimiser = XRLflow(benchmark_config())
    optimiser.train(build_model("dalle", **variants[0][1]))
    print("dalle generalisation — one agent, trained on the first shape")
    for label, kwargs in variants:
        result = optimiser.optimise(build_model("dalle", **kwargs), label,
                                    train=False)
        print(f"  {label:20s} speedup {result.speedup_percent:+6.2f}%  "
              f"({len(result.applied_rules)} substitutions)")


if __name__ == "__main__":
    main()
