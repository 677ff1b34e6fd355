"""Gradient-based optimisers for the autodiff engine."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .layers import Parameter

__all__ = ["SGD", "Adam", "clip_grad_norm"]


def clip_grad_norm(parameters: Sequence[Parameter], max_norm: float) -> float:
    """Clip gradients in place to a maximum global L2 norm; returns the norm."""
    grads = [p.grad for p in parameters if p.grad is not None]
    if not grads:
        return 0.0
    total = float(np.sqrt(sum(float((g ** 2).sum()) for g in grads)))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for p in parameters:
            if p.grad is not None:
                p.grad *= scale
    return total


class SGD:
    """Plain stochastic gradient descent with optional momentum."""

    def __init__(self, parameters: Sequence[Parameter], lr: float = 1e-3,
                 momentum: float = 0.0):
        self.parameters = list(parameters)
        self.lr = float(lr)
        self.momentum = float(momentum)
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        """Move every parameter that has a gradient one step."""
        for p, v in zip(self.parameters, self._velocity):
            if p.grad is None:
                continue
            v *= self.momentum
            v += p.grad
            p.data -= self.lr * v

    def zero_grad(self) -> None:
        """Drop every optimised parameter's gradient."""
        for p in self.parameters:
            p.zero_grad()


class Adam:
    """Adam optimiser (Kingma & Ba, 2015)."""

    def __init__(self, parameters: Sequence[Parameter], lr: float = 5e-4,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8):
        self.parameters = list(parameters)
        self.lr = float(lr)
        self.beta1, self.beta2 = betas
        self.eps = float(eps)
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]
        self._t = 0

    def step(self) -> None:
        """One bias-corrected Adam step for every parameter that has a
        gradient."""
        self._t += 1
        # Bias-correction denominators are shared by every parameter; hoist
        # the scalar powers out of the loop (same arithmetic per parameter).
        bias1 = 1 - self.beta1 ** self._t
        bias2 = 1 - self.beta2 ** self._t
        for p, m, v in zip(self.parameters, self._m, self._v):
            if p.grad is None:
                continue
            m *= self.beta1
            m += (1 - self.beta1) * p.grad
            v *= self.beta2
            v += (1 - self.beta2) * (p.grad ** 2)
            m_hat = m / bias1
            v_hat = v / bias2
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def zero_grad(self) -> None:
        """Drop every optimised parameter's gradient."""
        for p in self.parameters:
            p.zero_grad()
