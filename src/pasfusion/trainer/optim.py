"""Adam with bias correction and the reduce-on-plateau schedule."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import NUMBER, check
from ..ndcore import Parameter


def adam_update(w, g, m, v, t: int, lr: float, beta1: float = 0.9,
                beta2: float = 0.999, eps: float = 1e-8):
    """One bias-corrected Adam step; returns (w, m, v) as new arrays."""
    m = beta1 * m + (1.0 - beta1) * g
    v = beta2 * v + (1.0 - beta2) * (g * g)
    mhat = m / (1.0 - beta1 ** t)
    vhat = v / (1.0 - beta2 ** t)
    w = w - lr * mhat / (np.sqrt(vhat) + eps)
    return w, m, v


class Adam:
    def __init__(self, params: list[Parameter], lr: float = 1e-4,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8):
        self.params = list(params)
        for p in self.params:
            if not p.name:
                raise ValueError("Adam needs named parameters for stateful checkpoints")
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.t = 0
        self.m = {p.name: np.zeros_like(p.data) for p in self.params}
        self.v = {p.name: np.zeros_like(p.data) for p in self.params}

    def step(self):
        self.t += 1
        for p in self.params:
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            if g.shape != p.data.shape:
                raise ValueError(
                    f"gradient shape {g.shape} != parameter shape {p.data.shape} "
                    f"for {p.name!r}")
            p.data, self.m[p.name], self.v[p.name] = adam_update(
                p.data, g.astype(p.data.dtype, copy=False), self.m[p.name],
                self.v[p.name], self.t, self.lr, self.beta1, self.beta2, self.eps)

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def state_arrays(self) -> dict[str, np.ndarray]:
        state = {}
        for name in self.m:
            state[f"adam.m/{name}"] = self.m[name]
            state[f"adam.v/{name}"] = self.v[name]
        return state


@dataclass
class SchedulerConfig:
    factor: float = 0.1
    patience: int = 10
    min_lr: float = 1e-7
    threshold: float = 1e-4

    def __post_init__(self):
        check(self.factor, "scheduler.factor", NUMBER, lambda v: 0 < v < 1, "in (0, 1)")
        check(self.patience, "scheduler.patience", (int,), lambda v: v >= 0, ">= 0")
        for name in ("min_lr", "threshold"):
            check(getattr(self, name), f"scheduler.{name}", NUMBER, lambda v: v >= 0, ">= 0")


class PlateauScheduler:
    """Multiply the LR by ``factor`` after ``patience`` consecutive epochs
    without a validation-loss improvement greater than ``threshold``."""

    def __init__(self, optimizer: Adam, config: SchedulerConfig = SchedulerConfig()):
        self.opt = optimizer
        self.config = config
        self.best = np.inf
        self.bad_epochs = 0

    @property
    def lr(self) -> float:
        return self.opt.lr

    def step(self, val_loss: float) -> float:
        if val_loss < self.best - self.config.threshold:
            self.best = val_loss
            self.bad_epochs = 0
        else:
            self.bad_epochs += 1
            if self.bad_epochs >= self.config.patience:
                self.opt.lr = max(self.opt.lr * self.config.factor,
                                  self.config.min_lr)
                self.bad_epochs = 0
        return self.opt.lr
