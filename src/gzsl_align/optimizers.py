"""First-order optimization: Adam updates and plateau-driven lr decay."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import NonFiniteGradientError


@dataclass
class AdamState:
    """Adam moment accumulators and step counter for one parameter list."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    step_count: int = 0


def init_adam(arrays: list[np.ndarray]) -> AdamState:
    """Zero-initialized moments matching the given parameter arrays."""
    return AdamState(
        m=[np.zeros_like(a, dtype=np.float64) for a in arrays],
        v=[np.zeros_like(a, dtype=np.float64) for a in arrays],
    )


def adam_step(
    arrays: list[np.ndarray],
    grads: list[np.ndarray],
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    epsilon: float = 1e-8,
) -> None:
    """One in-place Adam update with bias-corrected moment estimates.

    Every gradient array is checked for NaN/Inf before any parameter is
    touched, so a poisoned batch never half-applies an update.
    """
    if len(arrays) != len(grads) or len(arrays) != len(state.m):
        raise ValueError(
            f"mismatched lengths: {len(arrays)} params, {len(grads)} grads, "
            f"{len(state.m)} moment slots"
        )
    for i, g in enumerate(grads):
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradientError(f"non-finite gradient in array {i}")
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    for theta, g, m, v in zip(arrays, grads, state.m, state.v):
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        theta -= lr * (m / bc1) / (np.sqrt(v / bc2) + epsilon)


@dataclass
class PlateauScheduler:
    """Multiplies the learning rate by ``factor`` after a stagnant stretch.

    An observation counts as an improvement only when it beats the best
    value seen so far by more than ``min_delta``; anything else increments
    the stagnation counter. The very first observation seeds the baseline
    and counts toward stagnation, so a constant sequence triggers its first
    reduction on observation number ``patience``, not ``patience + 1``.
    Once the counter reaches ``patience`` the lr is reduced and the counter
    resets. The current lr is always ``initial_lr * factor **
    num_reductions``, computed from the power so repeated reductions stay
    exact.
    """

    initial_lr: float
    patience: int = 10
    factor: float = 0.01
    min_delta: float = 1e-6
    best: float = field(default=np.inf, init=False)
    num_bad: int = field(default=0, init=False)
    num_reductions: int = field(default=0, init=False)
    n_observed: int = field(default=0, init=False)

    def __post_init__(self):
        if self.initial_lr <= 0:
            raise ValueError(f"initial_lr must be > 0, got {self.initial_lr}")
        if self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")
        if not 0.0 < self.factor < 1.0:
            raise ValueError(f"factor must be in (0, 1), got {self.factor}")
        if self.min_delta < 0:
            raise ValueError(f"min_delta must be >= 0, got {self.min_delta}")

    @property
    def lr(self) -> float:
        return self.initial_lr * self.factor**self.num_reductions

    def observe(self, value: float) -> bool:
        """Record one monitored value; True when this triggers a reduction."""
        value = float(value)
        if np.isnan(value):
            raise ValueError("scheduler observed NaN")
        first = self.n_observed == 0
        self.n_observed += 1
        if not first and value < self.best - self.min_delta:
            self.best = value
            self.num_bad = 0
            return False
        if value < self.best:
            self.best = value
        self.num_bad += 1
        if self.num_bad >= self.patience:
            self.num_reductions += 1
            self.num_bad = 0
            return True
        return False
