"""Adam against a textbook re-implementation; plateau scheduler walks."""

import numpy as np
import pytest

from gzsl_align import (
    NonFiniteGradientError,
    adam_step,
    init_adam,
    load_checkpoint,
    reference_model_params,
    reference_spec,
    save_checkpoint,
)
from gzsl_align.networks import ModelSpec, init_model_params
from gzsl_align.optimizers import AdamState, PlateauScheduler


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


@pytest.mark.parametrize(
    "grad_shapes, moments, message",
    [
        ([(3,), (2,)], 4, "mismatched sizes: 5 values against 4 moments"),
        ([(3,), (2, 1)], 5, r"mismatched sizes: gradient 1 is \(2, 1\), its array \(2,\)"),
        ([(2,), (3,)], 5, r"mismatched sizes: gradient 0 is \(2,\), its array \(3,\)"),
        ([(3,)], 5, "argument 2 is shorter than argument 1"),
        ([(3,), (2,), (1,)], 5, "argument 2 is longer than argument 1"),
    ],
    ids=["moments", "grad-shape", "grad-order", "grad-missing", "grad-extra"],
)
def test_moments_of_another_size_are_rejected(grad_shapes, moments, message):
    a, b = np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0])
    state = AdamState(m=np.full(moments, 0.5), v=np.full(moments, 0.25))
    with pytest.raises(ValueError, match=message):
        adam_step([a, b], [np.ones(shape) for shape in grad_shapes], state, lr=0.1)
    np.testing.assert_array_equal(a, [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(b, [4.0, 5.0])
    assert state.step_count == 0
    assert (state.m == 0.5).all() and (state.v == 0.25).all()


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


def _assert_calls_equal_the_per_array_oracle(params):
    """Twenty steps: the per-array call and the one-vector call both give the oracle's bytes."""
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


def test_per_array_and_flat_calls_equal_the_per_array_oracle_exactly():
    _assert_calls_equal_the_per_array_oracle(
        init_model_params(ModelSpec((6, 5, 4), (3, 5, 4), (6, 7, 6)), seed=4)
    )


def test_sixteen_array_reference_call_equals_the_per_array_oracle_exactly():
    params = reference_model_params(reference_spec(1), 1)
    assert len(params.arrays()) == 16  # the call shape the benchmark's Adam probe makes
    _assert_calls_equal_the_per_array_oracle(params)


def test_scratch_vectors_are_not_state(tmp_path):
    """A state loaded from last.ckpt has no scratch yet and steps to the in-memory state's bytes."""
    params = init_model_params(ModelSpec((6, 5, 4), (3, 5, 4), (6, 7, 6)), seed=4)
    state = init_adam([params.flat])
    assert state.scratch is None
    rng = np.random.default_rng(2)
    for _ in range(3):
        adam_step([params.flat], [rng.standard_normal(params.flat.size)], state, lr=1e-3)
    assert [s.size for s in state.scratch] == [params.flat.size] * 2
    path = tmp_path / "last.ckpt"
    save_checkpoint(path, params, seed=4, epoch=3, adam=state)
    loaded = load_checkpoint(path)
    assert loaded.adam.scratch is None and loaded.adam.step_count == 3
    for _ in range(5):
        g = rng.standard_normal(params.flat.size)
        adam_step([params.flat], [g], state, lr=1e-3)
        adam_step([loaded.params.flat], [g], loaded.adam, lr=1e-3)
    assert loaded.params.flat.tobytes() == params.flat.tobytes()
    assert loaded.adam.m.tobytes() == state.m.tobytes()
    assert loaded.adam.v.tobytes() == state.v.tobytes()
    assert loaded.adam.step_count == state.step_count == 8
    # scratch of another size, as after a state's moments are swapped, is rebuilt
    state.scratch = (np.empty(2), np.empty(2))
    g = rng.standard_normal(params.flat.size)
    adam_step([params.flat], [g], state, lr=1e-3)
    adam_step([loaded.params.flat], [g], loaded.adam, lr=1e-3)
    assert state.scratch[0].size == params.flat.size
    assert loaded.params.flat.tobytes() == params.flat.tobytes()


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
