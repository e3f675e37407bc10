"""First-order optimization: Adam updates and plateau-driven lr decay."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import NonFiniteGradientError

# Adam's moment decays and denominator guard; training records them in last.ckpt
ADAM_HPARAMS = {"beta1": 0.9, "beta2": 0.999, "epsilon": 1e-8}


@dataclass
class AdamState:
    """Adam's step counter and moments: one vector each, covering the updated arrays in order.

    ``scratch`` holds two work vectors of the moments' size that
    :func:`adam_step` writes its temporaries into. They are not state: a
    checkpoint never stores them, and a step rebuilds them when they are
    missing or of another size.
    """

    m: np.ndarray
    v: np.ndarray
    step_count: int = 0
    scratch: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False
    )


def init_adam(arrays: list[np.ndarray]) -> AdamState:
    """Zero moments covering the given parameter arrays in order."""
    n = sum(a.size for a in arrays)
    return AdamState(m=np.zeros(n), v=np.zeros(n))


def adam_step(
    arrays: list[np.ndarray], grads: list[np.ndarray], state: AdamState, lr: float
) -> None:
    """One in-place Adam update with bias-corrected moment estimates.

    Each gradient must have its array's shape, and the moments the arrays'
    summed size. Both, and NaN/Inf, are checked before anything is touched,
    so a rejected call changes no parameter, moment or ``step_count``.
    """
    n = 0
    for i, (theta, g) in enumerate(zip(arrays, grads, strict=True)):
        if g.shape != theta.shape:
            raise ValueError(f"mismatched sizes: gradient {i} is {g.shape}, its array {theta.shape}")
        if not np.isfinite(g).all():
            raise NonFiniteGradientError(f"non-finite gradient in array {i}")
        n += theta.size
    if n != state.m.size:
        raise ValueError(f"mismatched sizes: {n} values against {state.m.size} moments")
    if state.scratch is None or state.scratch[0].size != n:
        state.scratch = (np.empty(n), np.empty(n))
    beta1, beta2, epsilon = ADAM_HPARAMS["beta1"], ADAM_HPARAMS["beta2"], ADAM_HPARAMS["epsilon"]
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    start = 0
    for theta, g in zip(arrays, grads):
        end = start + theta.size
        m = state.m[start:end].reshape(theta.shape)
        v = state.v[start:end].reshape(theta.shape)
        a = state.scratch[0][start:end].reshape(theta.shape)
        b = state.scratch[1][start:end].reshape(theta.shape)
        start = end
        # m = beta1 m + (1 - beta1) g, v = beta2 v + (1 - beta2) g^2 and
        # theta -= lr (m / bc1) / (sqrt(v / bc2) + epsilon), each operation in
        # that order, so the bits are those of the plain expressions
        m *= beta1
        m += np.multiply(g, 1.0 - beta1, out=a)
        v *= beta2
        v += np.multiply(np.multiply(g, g, out=b), 1.0 - beta2, out=b)
        np.multiply(np.divide(m, bc1, out=a), lr, out=a)
        np.add(np.sqrt(np.divide(v, bc2, out=b), out=b), epsilon, out=b)
        theta -= np.divide(a, b, out=a)


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
    exact. The four settings are neither defaulted nor checked here:
    ``train`` takes them from a ``TrainConfig``, which does both.
    """

    initial_lr: float
    patience: int
    factor: float
    min_delta: float
    best: float = field(default=np.inf, init=False)
    num_bad: int = field(default=0, init=False)
    num_reductions: int = field(default=0, init=False)
    n_observed: int = field(default=0, init=False)

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
