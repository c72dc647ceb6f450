"""Optimizers and learning-rate schedules.

The paper trains clients with PyTorch SGD, momentum 0.9, and an exponential
learning-rate decay of 0.98 every 10 rounds (§5.1).  :class:`SGD` replicates
PyTorch's momentum formulation (momentum buffer accumulates the gradient;
the parameter moves by ``lr * buf``) so hyperparameters transfer directly.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.nn.module import Parameter

__all__ = ["SGD", "ExponentialDecay", "StepDecay", "ConstantLR"]


class SGD:
    """Stochastic gradient descent with momentum / Nesterov / weight decay.

    Matches ``torch.optim.SGD`` semantics:

    .. code-block:: text

        g   = grad + weight_decay * param
        buf = momentum * buf + g
        g   = g + momentum * buf       (if nesterov)
            = buf                      (otherwise)
        param -= lr * g
    """

    def __init__(
        self,
        params: List[Parameter],
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
        nesterov: bool = False,
    ):
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        if nesterov and momentum <= 0:
            raise ValueError("nesterov momentum requires momentum > 0")
        self.params = list(params)
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.nesterov = nesterov
        self._buffers: Dict[int, np.ndarray] = {}

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        for p in self.params:
            g = p.grad
            if self.weight_decay:
                t = np.empty(g.shape, dtype=g.dtype)
                np.multiply(p.data, self.weight_decay, out=t)
                np.add(g, t, out=t)
                g = t
            if self.momentum:
                buf = self._buffers.get(id(p))
                if buf is None:
                    buf = g.copy()  # persistent across steps
                    self._buffers[id(p)] = buf
                else:
                    buf *= self.momentum
                    buf += g
                if self.nesterov:
                    t = np.empty(buf.shape, dtype=buf.dtype)
                    np.multiply(buf, self.momentum, out=t)
                    np.add(g, t, out=t)
                    g = t
                else:
                    g = buf
            upd = np.empty(g.shape, dtype=g.dtype)
            np.multiply(g, self.lr, out=upd)
            p.data -= upd

    def reset_state(self) -> None:
        """Drop momentum buffers (fresh client state at round start)."""
        self._buffers.clear()


class ConstantLR:
    """Flat learning-rate schedule."""

    def __init__(self, lr: float):
        self.lr = lr

    def at_round(self, round_idx: int) -> float:
        return self.lr


class ExponentialDecay:
    """``lr * decay ** (round // every)`` — the paper's 0.98-every-10 rule."""

    def __init__(self, lr: float, decay: float = 0.98, every: int = 10):
        if every <= 0:
            raise ValueError("decay interval must be positive")
        self.lr = lr
        self.decay = decay
        self.every = every

    def at_round(self, round_idx: int) -> float:
        return self.lr * self.decay ** (round_idx // self.every)


class StepDecay:
    """Piecewise-constant schedule from explicit ``{round: lr}`` milestones."""

    def __init__(self, lr: float, milestones: Dict[int, float]):
        self.lr = lr
        self.milestones = dict(sorted(milestones.items()))

    def at_round(self, round_idx: int) -> float:
        lr = self.lr
        for boundary, value in self.milestones.items():
            if round_idx >= boundary:
                lr = value
        return lr
