"""MLP forward/backward against independent oracles, plus cosine helpers."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gzsl_align import DegenerateVectorError, ModelParams, pairwise_cosine
from gzsl_align.networks import (
    MlpParams,
    MlpSpec,
    init_model_params,
    mlp_backward,
    mlp_forward,
    row_norms,
)


def _net(dims, seed) -> MlpParams:
    """One net on its own: the visual map of a model with a one-layer semantic map."""
    spec = MlpSpec(layer_dims=dims)
    return init_model_params(spec, MlpSpec(layer_dims=(1, spec.out_dim)), None, seed).visual_map


def _zeros(net: MlpParams) -> MlpParams:
    """A zeroed gradient store of the net's shapes."""
    return MlpParams(net.spec, [np.zeros_like(w) for w in net.weights],
                     [np.zeros_like(b) for b in net.biases])


def _oracle_forward(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """Straightforward re-evaluation, written independently of mlp_forward."""
    h = np.asarray(x, dtype=np.float64)
    last = params.spec.n_layers - 1
    for k, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = h @ w + b
        if k != last:
            h = np.maximum(h, 0.0)
    return h


def test_zero_params_give_zero_output():
    p = _net((4, 3, 2), seed=0)
    for w in p.weights:
        w[:] = 0.0
    out, _ = mlp_forward(p, np.ones((1, 4)))
    assert np.array_equal(out, np.zeros((1, 2)))


def test_single_layer_identity_passes_input_through():
    p = _net((3, 3), seed=0)
    p.weights[0][:] = np.eye(3)
    p.biases[0][:] = 0.0
    x = np.array([[0.3, -1.2, 4.0]])
    out, _ = mlp_forward(p, x)
    assert np.array_equal(out, x)


def test_forward_matches_independent_evaluation():
    rng = np.random.default_rng(11)
    p = _net((5, 7, 6, 3), seed=5)
    x = rng.standard_normal((4, 5))
    out, _ = mlp_forward(p, x)
    np.testing.assert_allclose(out, _oracle_forward(p, x), rtol=0, atol=1e-14)
    with pytest.raises(ValueError, match="not \\(N, 5\\) rows"):
        mlp_forward(p, x[0])


def test_backward_zero_grad_out_gives_zero_grads():
    p = _net((4, 5, 2), seed=1)
    out, tape = mlp_forward(p, np.random.default_rng(0).standard_normal((1, 4)))
    grads = _zeros(p)
    grad_in = mlp_backward(p, tape, np.zeros_like(out), grads)
    assert all(np.all(g == 0) for g in grads.arrays())
    assert np.all(grad_in == 0)


def test_backward_linear_gradient_is_input():
    # d(w.x)/dw = x for a single linear layer with scalar output
    p = _net((4, 1), seed=2)
    x = np.array([[0.5, -1.0, 2.0, 3.0]])
    _, tape = mlp_forward(p, x)
    grads = _zeros(p)
    grad_in = mlp_backward(p, tape, np.ones((1, 1)), grads)
    np.testing.assert_allclose(grads.weights[0][:, 0], x[0], atol=1e-15)
    np.testing.assert_allclose(grads.biases[0], [1.0], atol=1e-15)
    np.testing.assert_allclose(grad_in[0], p.weights[0][:, 0], atol=1e-15)


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(3)
    p = _net((5, 6, 4, 3), seed=3)
    x = rng.standard_normal((2, 5))
    v = rng.standard_normal((2, 3))  # fixed projection, makes the output scalar

    def f() -> float:
        out, _ = mlp_forward(p, x)
        return float((out * v).sum())

    _, tape = mlp_forward(p, x)
    grads = _zeros(p)
    mlp_backward(p, tape, v, grads)
    step = 1e-5
    worst = 0.0
    for arr, g in zip(p.arrays(), grads.arrays()):
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
    p = _net((3, 2), seed=0)
    _, tape = mlp_forward(p, np.zeros((1, 3)))
    with pytest.raises(ValueError):
        mlp_backward(p, tape, np.zeros((1, 3)), _zeros(p))


def test_backward_adds_into_a_nonzero_store():
    rng = np.random.default_rng(4)
    p = _net((4, 5, 3), seed=4)
    x, g_out = rng.standard_normal((3, 4)), rng.standard_normal((3, 3))
    _, tape = mlp_forward(p, x)
    fresh = _zeros(p)
    want_in = mlp_backward(p, tape, g_out, fresh)
    store = _zeros(p)
    for a in store.arrays():
        a[...] = rng.standard_normal(a.shape)
    before = [a.copy() for a in store.arrays()]
    got_in = mlp_backward(p, tape, g_out, store)
    assert isinstance(got_in, np.ndarray) and got_in.shape == x.shape
    assert np.array_equal(got_in, want_in)
    for acc, b, g in zip(store.arrays(), before, fresh.arrays()):
        assert np.array_equal(acc, b + g)


def test_init_model_params_bounds_and_determinism():
    specs = (MlpSpec(layer_dims=(9, 4, 2)), MlpSpec(layer_dims=(5, 2)), MlpSpec(layer_dims=(9, 9)))
    a = init_model_params(*specs, seed=42)
    b = init_model_params(*specs, seed=42)
    c = init_model_params(*specs, seed=43)
    for _, net in a.nets():
        for w, fan_in in zip(net.weights, net.spec.layer_dims):
            assert np.all(np.abs(w) <= 1.0 / np.sqrt(fan_in)) and np.any(w != 0)
        assert all(np.all(bias == 0) for bias in net.biases)
    assert np.array_equal(a.flat, b.flat)
    assert all(not np.array_equal(x, y) for x, y in zip(a.arrays()[::2], c.arrays()[::2]))

    # each net draws from its own stream: dropping the encoder leaves the others as they were
    no_enc = init_model_params(*specs[:2], None, seed=42)
    assert np.array_equal(no_enc.flat, a.flat[specs[2].n_params :])


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


def test_array_name_maps_first_and_last_index_of_every_array():
    model = init_model_params(
        MlpSpec(layer_dims=(6, 3, 4)), MlpSpec(layer_dims=(5, 4)), MlpSpec(layer_dims=(6, 6)),
        seed=0,
    )
    start = 0
    for name, a in zip(model.array_names(), model.arrays()):
        assert model.array_name(start) == name
        assert model.array_name(start + a.size - 1) == name
        start += a.size
    assert start == model.flat.size


def test_model_params_flat_store_aliasing():
    specs = (MlpSpec(layer_dims=(6, 4)), MlpSpec(layer_dims=(5, 4)), MlpSpec(layer_dims=(6, 6)))
    enc = specs[2]
    flat = np.arange(sum(s.n_params for s in specs), dtype=np.float64)
    model = ModelParams(flat, *specs)
    assert model.flat is flat
    layout = np.concatenate([a.ravel() for _, net in model.nets() for a in net.arrays()])
    assert np.array_equal(layout, flat)
    assert [label for label, _ in model.nets()] == ["encoder", "visual_map", "semantic_map"]
    assert model.encoder.weights[0][0, 1] == 1.0 and model.semantic_map.biases[0][-1] == flat[-1]

    # a write through a layer view shows in flat and in arrays()
    model.visual_map.weights[0][2, 3] = 7.5
    assert model.flat[enc.n_params + 2 * 4 + 3] == 7.5
    assert model.arrays()[2][2, 3] == 7.5

    # copies, pickles and zeroed stores own their buffers
    for other in (model.copy(), pickle.loads(pickle.dumps(model)), model.zeros_like()):
        assert not np.shares_memory(other.flat, model.flat)
        other.semantic_map.biases[0][:] = -1.0
        assert all(np.shares_memory(a, other.flat) for a in other.arrays())
        assert other.flat[-1] == -1.0
    assert all(np.shares_memory(a, model.flat) for a in model.arrays())
    assert model.flat[-1] == flat.size - 1 and model.arrays()[2][2, 3] == 7.5


@pytest.mark.parametrize(
    "flat",
    [np.zeros(94, dtype=np.float32), np.zeros(93), np.zeros(95), np.zeros((2, 47))],
    ids=["float32", "short", "long", "2-d"],
)
def test_model_params_rejects_wrong_flat_store(flat):
    specs = (MlpSpec(layer_dims=(6, 4)), MlpSpec(layer_dims=(5, 4)), MlpSpec(layer_dims=(6, 6)))
    assert sum(s.n_params for s in specs) == 94
    with pytest.raises(ValueError, match=r"specs need float64 \(94,\)"):
        ModelParams(flat, *specs)


def test_cosine_helpers_match_hand_loop():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((3, 5))
    b = rng.standard_normal((4, 5))
    got = pairwise_cosine(a, b)
    for i in range(3):
        for j in range(4):
            want = a[i] @ b[j] / (np.linalg.norm(a[i]) * np.linalg.norm(b[j]))
            assert abs(got[i, j] - want) < 1e-14


def test_zero_norm_rows_raise():
    with pytest.raises(DegenerateVectorError):
        row_norms(np.array([[1.0, 0.0], [0.0, 0.0]]), "latent")
    with pytest.raises(DegenerateVectorError, match="row 0 has zero norm"):
        pairwise_cosine(np.zeros(3), np.ones(3))


@settings(max_examples=100, deadline=None)
@given(
    rows=st.integers(0, 40),
    cols=st.integers(0, 20),
    log_scale=st.integers(-150, 150),
    seed=st.integers(0, 2**32 - 1),
)
def test_row_norms_equal_linalg_norm_bit_for_bit(rows, cols, log_scale, seed):
    m = np.random.default_rng(seed).standard_normal((rows, cols)) * 10.0**log_scale
    want = np.linalg.norm(m, axis=-1)
    if rows and (cols == 0 or np.any(want == 0.0)):  # 0-width rows have zero norm
        with pytest.raises(DegenerateVectorError, match="has zero norm"):
            row_norms(m, "row")
    else:
        assert np.array_equal(row_norms(m, "row"), want)


def test_pairwise_cosine_rejects_non_finite_norms():
    ok = np.ones((2, 3))
    for bad in ([1e200, 1.0, 1.0], [np.inf, 0.0, 0.0], [np.nan, 1.0, 1.0]):  # overflow, inf, NaN
        rows = np.vstack([ok, bad])
        with pytest.raises(DegenerateVectorError, match="latent 2 has a non-finite norm"):
            pairwise_cosine(rows, ok, "latent")
        with pytest.raises(DegenerateVectorError, match="latent 2 has a non-finite norm"):
            pairwise_cosine(ok, rows, "latent")


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_forward_oracle_property(seed):
    rng = np.random.default_rng(seed)
    dims = tuple(int(rng.integers(1, 7)) for _ in range(int(rng.integers(2, 5))))
    p = _net(dims, seed=seed)
    x = rng.standard_normal((int(rng.integers(1, 4)), dims[0]))
    out, _ = mlp_forward(p, x)
    np.testing.assert_allclose(out, _oracle_forward(p, x), rtol=0, atol=1e-13)
