"""Adam against a textbook re-implementation; plateau scheduler walks."""

import numpy as np
import pytest

from gzsl_align import NonFiniteGradientError, adam_step, init_adam
from gzsl_align.optimizers import PlateauScheduler


def _textbook_adam_trace(w0, lr, steps, beta1=0.9, beta2=0.999, eps=1e-8):
    """Independent scalar Adam on f(w) = w^2, returning every iterate."""
    w, m, v = w0, 0.0, 0.0
    trace = []
    for t in range(1, steps + 1):
        g = 2.0 * w
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        w = w - lr * m_hat / (np.sqrt(v_hat) + eps)
        trace.append(w)
    return trace


def test_adam_matches_textbook_trace_on_quadratic():
    w = np.array([1.0])
    state = init_adam([w])
    for want in _textbook_adam_trace(1.0, lr=0.1, steps=10):
        adam_step([w], [2.0 * w], state, lr=0.1)
        assert abs(w[0] - want) < 1e-12
    assert state.step_count == 10


def test_zero_gradient_leaves_params_unchanged():
    w = np.array([0.3, -0.7])
    state = init_adam([w])
    adam_step([w], [np.zeros(2)], state, lr=0.5)
    np.testing.assert_array_equal(w, [0.3, -0.7])
    assert state.step_count == 1


def test_first_step_moves_by_about_lr():
    w = np.array([5.0])
    state = init_adam([w])
    adam_step([w], [np.ones(1)], state, lr=0.01)
    # bias correction makes m_hat = v_hat = 1, so the step is lr/(1 + eps)
    assert abs((5.0 - w[0]) - 0.01) < 1e-9


def test_nonfinite_gradient_rejected_before_any_update():
    a, b = np.array([1.0, 2.0]), np.array([3.0])
    state = init_adam([a, b])
    bad = [np.array([0.1, 0.2]), np.array([np.nan])]
    with pytest.raises(NonFiniteGradientError) as exc_info:
        adam_step([a, b], bad, state, lr=0.1)
    assert "array 1" in str(exc_info.value)
    np.testing.assert_array_equal(a, [1.0, 2.0])  # first array untouched too
    np.testing.assert_array_equal(b, [3.0])
    assert state.step_count == 0 and np.all(state.m[0] == 0)


def test_scheduler_constant_loss_fires_at_patience():
    sched = PlateauScheduler(initial_lr=1e-3, patience=10, factor=0.01)
    fired_at = []
    for epoch in range(1, 26):
        if sched.observe(1.0):
            fired_at.append(epoch)
    assert fired_at[0] == 10
    assert sched.lr == 1e-3 * 0.01 ** len(fired_at)


def test_scheduler_improvement_at_five_fires_at_fifteen():
    sched = PlateauScheduler(initial_lr=0.1, patience=10, factor=0.01)
    losses = [1.0, 1.0, 1.0, 1.0, 0.5] + [0.5] * 20  # improvement at epoch 5
    fired_at = [e for e, v in enumerate(losses, start=1) if sched.observe(v)]
    assert fired_at[0] == 15


def test_scheduler_never_fires_while_improving():
    sched = PlateauScheduler(initial_lr=0.1, patience=3, factor=0.5)
    for v in (1.0, 0.9, 0.8, 0.7, 0.6, 0.5):
        assert not sched.observe(v)
    assert sched.lr == 0.1


def test_scheduler_lr_is_exact_power_of_factor():
    sched = PlateauScheduler(initial_lr=3e-4, patience=1, factor=0.01)
    sched.observe(1.0)  # fires immediately at patience=1
    assert sched.lr == 3e-4 * 0.01
    sched.observe(1.0)
    assert sched.lr == 3e-4 * 0.01**2


def test_scheduler_tiny_improvement_counts_as_stagnation():
    sched = PlateauScheduler(initial_lr=0.1, patience=2, factor=0.1, min_delta=1e-3)
    assert not sched.observe(1.0)
    assert sched.observe(1.0 - 1e-4)  # within min_delta: stagnant, fires at 2
