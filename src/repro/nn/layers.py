"""Parameter holders: modules, and dense layers and MLPs whose weights the
hand-written ops of :mod:`repro.nn.gnn` and :mod:`repro.rl.ppo` read."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from .tensor import Tensor

__all__ = ["Module", "Parameter", "Linear", "MLP", "fresh_rng"]


def fresh_rng() -> np.random.Generator:
    """An independently seeded generator for a layer built without ``rng``.

    Layers used to default to ``np.random.default_rng(0)``, which meant every
    layer constructed without an explicit generator shared seed 0 and got
    *identical* weights — an MLP whose hidden layers all start equal cannot
    break symmetry.  Entropy-seeded streams keep default-constructed layers
    independent; pass an explicit ``rng`` for reproducibility.
    """
    return np.random.default_rng()


class Parameter(Tensor):
    """A tensor flagged as trainable."""

    def __init__(self, data, name: str = ""):
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class collecting parameters from attributes and sub-modules."""

    def parameters(self) -> List[Parameter]:
        """Every distinct parameter of this module and its sub-modules, in
        attribute order (the order optimisers and state dicts use)."""
        params: List[Parameter] = []
        seen = set()
        for value in self.__dict__.values():
            for p in _extract_params(value):
                if id(p) not in seen:
                    seen.add(id(p))
                    params.append(p)
        return params

    def zero_grad(self) -> None:
        """Drop every parameter's accumulated gradient."""
        for p in self.parameters():
            p.zero_grad()

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Flat mapping of parameter index to value (for save/load)."""
        return {str(i): p.data.copy() for i, p in enumerate(self.parameters())}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load a :meth:`state_dict`, each value cast to its parameter's
        dtype.  A count, key or shape mismatch raises ``ValueError`` before
        any parameter changes."""
        params = self.parameters()
        if len(state) != len(params):
            raise ValueError(
                f"state dict has {len(state)} entries, module has {len(params)} parameters")
        values = []
        for i, p in enumerate(params):
            if str(i) not in state:
                raise ValueError(f"state dict has no parameter {i}")
            value = np.asarray(state[str(i)])
            if value.shape != p.data.shape:
                raise ValueError(f"parameter {i} shape mismatch: "
                                 f"{value.shape} vs {p.data.shape}")
            values.append(value)
        for p, value in zip(params, values):
            p.data = value.astype(p.data.dtype)

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


def _extract_params(value) -> Iterable[Parameter]:
    if isinstance(value, Parameter):
        yield value
    elif isinstance(value, Module):
        yield from value.parameters()
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _extract_params(item)


class Linear(Module):
    """The parameters of a dense layer ``y = x @ W + b``, Glorot
    initialised."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: Optional[np.random.Generator] = None):
        rng = rng if rng is not None else fresh_rng()
        scale = np.sqrt(6.0 / (in_features + out_features))
        self.weight = Parameter(rng.uniform(-scale, scale, (in_features, out_features)),
                                name="weight")
        self.bias = Parameter(np.zeros(out_features), name="bias") if bias else None
        self.in_features = in_features
        self.out_features = out_features


class MLP(Module):
    """The :class:`Linear` layers of a multi-layer perceptron (ReLU between
    hidden layers, and after the last with ``activate_final``)."""

    def __init__(self, sizes: Sequence[int], activate_final: bool = False,
                 rng: Optional[np.random.Generator] = None):
        if len(sizes) < 2:
            raise ValueError("MLP needs at least input and output sizes")
        rng = rng if rng is not None else fresh_rng()
        self.layers = [Linear(a, b, rng=rng) for a, b in zip(sizes[:-1], sizes[1:])]
        self.activate_final = activate_final
