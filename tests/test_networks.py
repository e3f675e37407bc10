"""MLP forward/backward against independent oracles, plus cosine helpers."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gzsl_align import (
    DegenerateVectorError,
    MlpParams,
    MlpSpec,
    ModelParams,
    cosine_similarity,
    init_model_params,
    init_params,
    mlp_backward,
    mlp_forward,
    pairwise_cosine,
    row_norms,
)


def _oracle_forward(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """Straightforward re-evaluation, written independently of mlp_forward."""
    h = np.atleast_2d(np.asarray(x, dtype=np.float64))
    last = params.spec.n_layers - 1
    for k, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = h @ w + b
        if k != last:
            h = np.maximum(h, 0.0)
    return h if np.asarray(x).ndim == 2 else h[0]


def test_zero_params_give_zero_output():
    spec = MlpSpec(layer_dims=(4, 3, 2))
    p = init_params(spec, seed=0)
    for w in p.weights:
        w[:] = 0.0
    out, _ = mlp_forward(p, np.ones(4))
    assert np.array_equal(out, np.zeros(2))


def test_single_layer_identity_passes_input_through():
    spec = MlpSpec(layer_dims=(3, 3))
    p = init_params(spec, seed=0)
    p.weights[0][:] = np.eye(3)
    p.biases[0][:] = 0.0
    x = np.array([0.3, -1.2, 4.0])
    out, _ = mlp_forward(p, x)
    assert np.array_equal(out, x)


def test_forward_matches_independent_evaluation():
    rng = np.random.default_rng(11)
    spec = MlpSpec(layer_dims=(5, 7, 6, 3))
    p = init_params(spec, seed=5)
    x = rng.standard_normal((4, 5))
    out, _ = mlp_forward(p, x)
    np.testing.assert_allclose(out, _oracle_forward(p, x), rtol=0, atol=1e-14)
    single, _ = mlp_forward(p, x[0])
    assert single.shape == (3,)
    # batched and single-row matmuls may differ in the last ulp
    np.testing.assert_allclose(single, out[0], rtol=0, atol=1e-12)


def test_backward_zero_grad_out_gives_zero_grads():
    spec = MlpSpec(layer_dims=(4, 5, 2))
    p = init_params(spec, seed=1)
    out, tape = mlp_forward(p, np.random.default_rng(0).standard_normal(4))
    grads, grad_in = mlp_backward(p, tape, np.zeros_like(out))
    assert all(np.all(g == 0) for g in grads)
    assert np.all(grad_in == 0)


def test_backward_linear_gradient_is_input():
    # d(w.x)/dw = x for a single linear layer with scalar output
    spec = MlpSpec(layer_dims=(4, 1))
    p = init_params(spec, seed=2)
    x = np.array([0.5, -1.0, 2.0, 3.0])
    _, tape = mlp_forward(p, x)
    grads, grad_in = mlp_backward(p, tape, np.ones(1))
    np.testing.assert_allclose(grads[0][:, 0], x, atol=1e-15)
    np.testing.assert_allclose(grads[1], [1.0], atol=1e-15)
    np.testing.assert_allclose(grad_in, p.weights[0][:, 0], atol=1e-15)


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(3)
    spec = MlpSpec(layer_dims=(5, 6, 4, 3))
    p = init_params(spec, seed=3)
    x = rng.standard_normal((2, 5))
    v = rng.standard_normal((2, 3))  # fixed projection, makes the output scalar

    def f() -> float:
        out, _ = mlp_forward(p, x)
        return float((out * v).sum())

    _, tape = mlp_forward(p, x)
    grads, _ = mlp_backward(p, tape, v)
    step = 1e-5
    worst = 0.0
    for arr, g in zip(p.arrays(), grads):
        flat, gflat = arr.ravel(), g.ravel()
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + step
            up = f()
            flat[i] = keep - step
            down = f()
            flat[i] = keep
            fd = (up - down) / (2 * step)
            worst = max(worst, abs(fd - gflat[i]) / (max(abs(fd), abs(gflat[i])) + 1e-3))
    assert worst < 1e-4, f"worst scaled error {worst:.3e}"


def test_backward_rejects_wrong_grad_shape():
    spec = MlpSpec(layer_dims=(3, 2))
    p = init_params(spec, seed=0)
    _, tape = mlp_forward(p, np.zeros(3))
    with pytest.raises(ValueError):
        mlp_backward(p, tape, np.zeros(3))


def test_init_params_bounds_and_determinism():
    spec = MlpSpec(layer_dims=(9, 4, 2))
    a = init_params(spec, seed=42)
    b = init_params(spec, seed=42)
    c = init_params(spec, seed=43)
    for w, fan_in in zip(a.weights, (9, 4)):
        assert np.all(np.abs(w) <= 1.0 / np.sqrt(fan_in))
    assert all(np.all(bias == 0) for bias in a.biases)
    assert all(np.array_equal(x, y) for x, y in zip(a.arrays(), b.arrays()))
    assert any(not np.array_equal(x, y) for x, y in zip(a.arrays(), c.arrays()))


def test_model_params_array_names_align_with_arrays():
    vis = MlpSpec(layer_dims=(6, 4))
    sem = MlpSpec(layer_dims=(5, 4))
    enc = MlpSpec(layer_dims=(6, 6))
    model = init_model_params(vis, sem, enc, seed=0)
    names = model.array_names()
    arrays = model.arrays()
    assert len(names) == len(arrays) == 6
    assert names[0].startswith("encoder.") and names[-1].startswith("semantic_map.")
    assert model.latent_dim == 4 and model.feature_dim == 6 and model.semantic_dim == 5


def test_model_params_flat_store_aliasing():
    vis = init_params(MlpSpec(layer_dims=(6, 4)), seed=0)
    sem = init_params(MlpSpec(layer_dims=(5, 4)), seed=1)
    enc = init_params(MlpSpec(layer_dims=(6, 6)), seed=2)
    model = ModelParams(visual_map=vis, semantic_map=sem, encoder=enc)
    layout = np.concatenate([a.ravel() for net in (enc, vis, sem) for a in net.arrays()])
    assert np.array_equal(model.flat, layout)

    # a write through a layer view shows in flat and in arrays()
    model.visual_map.weights[0][2, 3] = 7.5
    assert model.flat[enc.spec.n_params + 2 * 4 + 3] == 7.5
    assert model.arrays()[2][2, 3] == 7.5
    assert vis.weights[0][2, 3] != 7.5

    # copies, pickles and a second model over the same nets own their buffers
    second = ModelParams(visual_map=vis, semantic_map=sem, encoder=enc)
    for other in (model.copy(), pickle.loads(pickle.dumps(model)), second):
        assert not np.shares_memory(other.flat, model.flat)
        other.semantic_map.biases[0][:] = -1.0
        assert all(np.shares_memory(a, other.flat) for a in other.arrays())
        assert other.flat[-1] == -1.0
    assert all(np.shares_memory(a, model.flat) for a in model.arrays())
    assert model.flat[-1] == 0.0 and model.arrays()[2][2, 3] == 7.5

    # wrong shapes raise even when the value count matches
    for wrong in (
        MlpParams(vis.spec, [vis.weights[0].T], vis.biases),
        MlpParams(vis.spec, vis.weights, [vis.biases[0][:, None]]),
    ):
        with pytest.raises(ValueError, match="shape"):
            ModelParams(visual_map=wrong, semantic_map=sem, encoder=enc)


def test_cosine_helpers_match_hand_loop():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((3, 5))
    b = rng.standard_normal((4, 5))
    got = pairwise_cosine(a, b)
    for i in range(3):
        for j in range(4):
            want = a[i] @ b[j] / (np.linalg.norm(a[i]) * np.linalg.norm(b[j]))
            assert abs(got[i, j] - want) < 1e-14
            assert abs(cosine_similarity(a[i], b[j]) - want) < 1e-14


def test_zero_norm_rows_raise():
    with pytest.raises(DegenerateVectorError):
        row_norms(np.array([[1.0, 0.0], [0.0, 0.0]]), "latent")
    with pytest.raises(DegenerateVectorError):
        cosine_similarity(np.zeros(3), np.ones(3))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_forward_oracle_property(seed):
    rng = np.random.default_rng(seed)
    dims = tuple(int(rng.integers(1, 7)) for _ in range(int(rng.integers(2, 5))))
    p = init_params(MlpSpec(layer_dims=dims), seed=seed)
    x = rng.standard_normal((int(rng.integers(1, 4)), dims[0]))
    out, _ = mlp_forward(p, x)
    np.testing.assert_allclose(out, _oracle_forward(p, x), rtol=0, atol=1e-13)
