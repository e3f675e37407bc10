"""Adam against a textbook re-implementation; plateau scheduler walks."""

import numpy as np
import pytest

from gzsl_align import NonFiniteGradientError, adam_step, init_adam
from gzsl_align.networks import MlpSpec, init_model_params
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
    assert state.step_count == 0
    assert state.m.shape == state.v.shape == (3,)
    assert not state.m.any() and not state.v.any()


def test_moments_of_another_size_are_rejected():
    w = np.array([1.0, 2.0])
    with pytest.raises(ValueError, match="mismatched sizes"):
        adam_step([w], [np.ones(2)], init_adam([np.zeros(3)]), lr=0.1)
    np.testing.assert_array_equal(w, [1.0, 2.0])


def _per_array_adam_oracle(arrays, grads, ms, vs, t, lr, beta1=0.9, beta2=0.999, epsilon=1e-8):
    """Adam's update body from when each parameter array had its own moment arrays."""
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    for theta, g, m, v in zip(arrays, grads, ms, vs):
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        theta -= lr * (m / bc1) / (np.sqrt(v / bc2) + epsilon)


def test_per_array_and_flat_calls_equal_the_per_array_oracle_exactly():
    params = init_model_params(
        MlpSpec((6, 5, 4)), MlpSpec((3, 5, 4)), MlpSpec((6, 7, 6)), seed=4
    )
    assert init_adam(params.arrays()).m.shape == params.flat.shape
    per_array, flat, oracle = params.copy(), params.copy(), params.copy()
    per_array_state = init_adam(per_array.arrays())
    flat_state = init_adam([flat.flat])
    ms = [np.zeros_like(a) for a in oracle.arrays()]
    vs = [np.zeros_like(a) for a in oracle.arrays()]
    grads = params.zeros_like()
    rng = np.random.default_rng(9)
    n = grads.flat.size
    for t in range(1, 21):
        # gradients over eight decades, some exactly zero, and a changing lr
        grads.flat[:] = rng.standard_normal(n) * 10.0 ** rng.integers(-6, 2, n)
        grads.flat[rng.random(n) < 0.1] = 0.0
        lr = 1e-3 * 0.5 ** (t // 7)
        adam_step(per_array.arrays(), grads.arrays(), per_array_state, lr=lr)
        adam_step([flat.flat], [grads.flat], flat_state, lr=lr)
        _per_array_adam_oracle(oracle.arrays(), grads.arrays(), ms, vs, t, lr)
    want_m = np.concatenate([m.ravel() for m in ms])
    want_v = np.concatenate([v.ravel() for v in vs])
    assert not np.array_equal(oracle.flat, params.flat)
    for got, state in ((per_array, per_array_state), (flat, flat_state)):
        assert state.step_count == 20
        assert got.flat.tobytes() == oracle.flat.tobytes()
        assert state.m.tobytes() == want_m.tobytes()
        assert state.v.tobytes() == want_v.tobytes()


def test_scheduler_constant_loss_fires_at_patience():
    sched = PlateauScheduler(initial_lr=1e-3, patience=10, factor=0.01, min_delta=1e-6)
    fired_at = []
    for epoch in range(1, 26):
        if sched.observe(1.0):
            fired_at.append(epoch)
    assert fired_at[0] == 10
    assert sched.lr == 1e-3 * 0.01 ** len(fired_at)


def test_scheduler_improvement_at_five_fires_at_fifteen():
    sched = PlateauScheduler(initial_lr=0.1, patience=10, factor=0.01, min_delta=1e-6)
    losses = [1.0, 1.0, 1.0, 1.0, 0.5] + [0.5] * 20  # improvement at epoch 5
    fired_at = [e for e, v in enumerate(losses, start=1) if sched.observe(v)]
    assert fired_at[0] == 15


def test_scheduler_never_fires_while_improving():
    sched = PlateauScheduler(initial_lr=0.1, patience=3, factor=0.5, min_delta=1e-6)
    for v in (1.0, 0.9, 0.8, 0.7, 0.6, 0.5):
        assert not sched.observe(v)
    assert sched.lr == 0.1


def test_scheduler_lr_is_exact_power_of_factor():
    sched = PlateauScheduler(initial_lr=3e-4, patience=1, factor=0.01, min_delta=1e-6)
    sched.observe(1.0)  # fires immediately at patience=1
    assert sched.lr == 3e-4 * 0.01
    sched.observe(1.0)
    assert sched.lr == 3e-4 * 0.01**2


def test_scheduler_tiny_improvement_counts_as_stagnation():
    sched = PlateauScheduler(initial_lr=0.1, patience=2, factor=0.1, min_delta=1e-3)
    assert not sched.observe(1.0)
    assert sched.observe(1.0 - 1e-4)  # within min_delta: stagnant, fires at 2
