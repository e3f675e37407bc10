"""MLP forward/backward against independent oracles, plus cosine helpers."""

import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gzsl_align import (
    DegenerateVectorError,
    ModelParams,
    generate,
    pairwise_cosine,
    reference_model_params,
    reference_spec,
)
from gzsl_align.networks import (
    MlpParams,
    MlpSpec,
    ModelSpec,
    init_model_params,
    mlp_backward,
    mlp_forward,
    row_norms,
)


def _net(dims, seed) -> MlpParams:
    """One net on its own: the visual map of a model with a one-layer semantic map."""
    spec = ModelSpec(visual_map=dims, semantic_map=(1, dims[-1]))
    return init_model_params(spec, seed).visual_map


def _zeros(net: MlpParams) -> MlpParams:
    """A zeroed gradient store of the net's shapes."""
    return MlpParams(net.spec, [np.zeros_like(w) for w in net.weights],
                     [np.zeros_like(b) for b in net.biases])


def _oracle_forward(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """Straightforward re-evaluation, written independently of mlp_forward."""
    h = np.asarray(x, dtype=np.float64)
    last = len(params.weights) - 1
    for k, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = h @ w + b
        if k != last:
            h = np.maximum(h, 0.0)
    return h


def _taped_forward_oracle(params: MlpParams, x: np.ndarray):
    """The former taped forward: each layer's input and pre-activation, the ReLU into a new array.

    Returns the output and the ``(inputs, preacts)`` pair.
    """
    a = np.asarray(x, dtype=np.float64)
    n = len(params.weights)
    inputs, preacts = [], []
    for k, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = a @ w
        z += b
        inputs.append(a)
        preacts.append(z)
        a = z if k == n - 1 else np.maximum(z, 0.0)
    return a, (inputs, preacts)


def _preact_backward(params: MlpParams, taped, grad_out: np.ndarray, grads: MlpParams):
    """The former ``mlp_backward`` body: each ReLU mask read off its pre-activation."""
    inputs, preacts = taped
    g = np.asarray(grad_out, dtype=np.float64)
    n = len(params.weights)
    for k in reversed(range(n)):
        dz = g if k == n - 1 else g * (preacts[k] > 0.0)
        np.matmul(inputs[k].T, dz, out=grads.weights[k])
        np.add.reduce(dz, axis=0, out=grads.biases[k])
        g = dz @ params.weights[k].T
    return g


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


def test_backward_overwrites_a_dirty_store():
    rng = np.random.default_rng(4)
    p = _net((4, 5, 3), seed=4)
    x, g_out = rng.standard_normal((3, 4)), rng.standard_normal((3, 3))
    _, tape = mlp_forward(p, x)
    fresh = _zeros(p)
    want_in = mlp_backward(p, tape, g_out, fresh)
    store = _zeros(p)
    for a in store.arrays():
        a[...] = rng.standard_normal(a.shape)
    got_in = mlp_backward(p, tape, g_out, store)
    assert isinstance(got_in, np.ndarray) and got_in.shape == x.shape
    assert np.array_equal(got_in, want_in)
    for got, want in zip(store.arrays(), fresh.arrays()):
        assert got.tobytes() == want.tobytes()


def _assert_tape_free_forward_matches(net: MlpParams, x: np.ndarray) -> None:
    """The tape-free forward is bit-equal to the taped one and leaves ``x`` as it was."""
    keep = x.copy()
    want, tape = mlp_forward(net, x)
    got, no_tape = mlp_forward(net, x, False)
    assert tape is not None and no_tape is None
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert x.tobytes() == keep.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(1, 9), min_size=2, max_size=5),
    st.integers(1, 40),
    st.integers(0, 2**32 - 1),
)
def test_tape_free_forward_is_bit_equal_and_keeps_its_input(dims, n, seed):
    rng = np.random.default_rng(seed)
    net = _net(tuple(dims), seed=seed)
    for b in net.biases:
        b[...] = rng.standard_normal(b.shape)  # nonzero biases: the += step is exercised
    _assert_tape_free_forward_matches(net, rng.standard_normal((n, dims[0])))


def test_tape_free_forward_is_bit_equal_at_reference_shapes():
    """The 2000-row train split through each net of the reference model."""
    spec = reference_spec(1)
    params = reference_model_params(spec, 1)
    data = generate(spec)
    rng = np.random.default_rng(0)
    params.flat[:] += 0.01 * rng.standard_normal(params.flat.size)  # trained-like biases
    x = data.train.features
    assert x.shape[0] == 2000
    _assert_tape_free_forward_matches(params.encoder, x)
    _assert_tape_free_forward_matches(params.visual_map, mlp_forward(params.encoder, x)[0])
    y = data.train.seen_label_view().astype(np.float64)
    w = data.semantics.seen_rows(data.vocab)
    counts = y.sum(axis=1)
    has = counts > 0
    w_bar = (y[has] @ w) / counts[has, None]
    _assert_tape_free_forward_matches(params.semantic_map, np.vstack([w, w_bar]))


def test_relu_is_positive_exactly_where_its_input_is():
    """The tape's premise: ``relu(z) > 0`` exactly where ``z > 0``, NaN and -0.0 included."""
    z = np.array([-0.0, 0.0, np.nan, -np.nan, 5e-324, -5e-324, np.inf, -np.inf, 2.0, -2.0])
    relu = z.copy()
    np.maximum(relu, 0.0, out=relu)
    assert np.array_equal(relu > 0.0, z > 0.0)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(1, 9), min_size=3, max_size=6),
    st.integers(1, 40),
    st.integers(0, 2**32 - 1),
)
def test_forward_and_backward_match_the_preactivation_oracle(dims, n, seed):
    """Both tape modes against the former forward and backward, bit for bit.

    Zero rows make the first layer's pre-activations exactly its biases,
    some of which are 0.0 or -0.0; rows of the smallest subnormal give
    products that round to a signed 0; a bias of -10 leaves a unit dead
    for most rows.
    """
    rng = np.random.default_rng(seed)
    net = _net(tuple(dims), seed=seed)
    for b in net.biases:
        b[...] = rng.standard_normal(b.shape)
        b[...] = np.choose(rng.integers(0, 4, b.shape), [b, 0.0, -0.0, -10.0])
    x = rng.standard_normal((n, dims[0]))
    kind = rng.integers(0, 3, n)
    x[kind == 1] = np.copysign(0.0, x[kind == 1])
    x[kind == 2] = np.copysign(5e-324, x[kind == 2])
    keep = x.copy()
    want, taped = _taped_forward_oracle(net, x)
    g_out = rng.standard_normal(want.shape)
    want_grads = _zeros(net)
    want_in = _preact_backward(net, taped, g_out, want_grads)

    got, no_tape = mlp_forward(net, x, False)
    assert no_tape is None and got.tobytes() == want.tobytes()
    got, tape = mlp_forward(net, x)
    assert got.tobytes() == want.tobytes()
    inputs, preacts = taped
    assert len(tape) == len(inputs)
    for t, a in zip(tape, inputs):
        assert t.shape == a.shape and t.tobytes() == a.tobytes()
    for t, z in zip(tape[1:], preacts):
        assert np.array_equal(t > 0.0, z > 0.0)
    grads = _zeros(net)
    assert mlp_backward(net, tape, g_out, grads).tobytes() == want_in.tobytes()
    for a, b in zip(grads.arrays(), want_grads.arrays()):
        assert a.tobytes() == b.tobytes()
    assert x.tobytes() == keep.tobytes()


@pytest.mark.parametrize("dims", [(4, 5, 3), (4, 3), (6, 5, 4, 2)])
def test_backward_without_input_grad_adds_the_same_gradients(dims):
    rng = np.random.default_rng(len(dims))
    p = _net(dims, seed=len(dims))
    x, g_out = rng.standard_normal((7, dims[0])), rng.standard_normal((7, dims[-1]))
    _, tape = mlp_forward(p, x)
    want, got = _zeros(p), _zeros(p)
    for a, b in zip(want.arrays(), got.arrays()):
        a[...] = b[...] = rng.standard_normal(a.shape)  # a dirty store on both sides
    grad_in = mlp_backward(p, tape, g_out, want)
    assert mlp_backward(p, tape, g_out, got, False) is None
    assert grad_in.shape == x.shape
    for a, b in zip(got.arrays(), want.arrays()):
        assert a.tobytes() == b.tobytes()


def test_init_model_params_bounds_and_determinism():
    spec = ModelSpec(visual_map=(9, 4, 2), semantic_map=(5, 2), encoder=(9, 9))
    a = init_model_params(spec, seed=42)
    b = init_model_params(spec, seed=42)
    c = init_model_params(spec, seed=43)
    for _, net in a.nets():
        for w, fan_in in zip(net.weights, net.spec.layer_dims):
            assert np.all(np.abs(w) <= 1.0 / np.sqrt(fan_in)) and np.any(w != 0)
        assert all(np.all(bias == 0) for bias in net.biases)
    assert np.array_equal(a.flat, b.flat)
    assert all(not np.array_equal(x, y) for x, y in zip(a.arrays()[::2], c.arrays()[::2]))

    # each net draws from its own stream: dropping the encoder leaves the others as they were
    no_enc = init_model_params(replace(spec, encoder=None), seed=42)
    assert np.array_equal(no_enc.flat, a.flat[a.encoder.spec.n_params :])


def test_model_params_array_names_align_with_arrays():
    model = init_model_params(ModelSpec(visual_map=(6, 4), semantic_map=(5, 4), encoder=(6, 6)), 0)
    names = model.array_names()
    arrays = model.arrays()
    assert len(names) == len(arrays) == 6
    assert names[0].startswith("encoder.") and names[-1].startswith("semantic_map.")
    assert model.spec.feature_dim == 6 and model.spec.semantic_dim == 5


def test_array_name_maps_first_and_last_index_of_every_array():
    model = init_model_params(
        ModelSpec(visual_map=(6, 3, 4), semantic_map=(5, 4), encoder=(6, 6)), seed=0
    )
    start = 0
    for name, a in zip(model.array_names(), model.arrays()):
        assert model.array_name(start) == name
        assert model.array_name(start + a.size - 1) == name
        start += a.size
    assert start == model.flat.size


def test_model_params_flat_store_aliasing():
    spec = ModelSpec(visual_map=(6, 4), semantic_map=(5, 4), encoder=(6, 6))
    enc = MlpSpec(layer_dims=(6, 6))
    flat = np.arange(spec.n_params, dtype=np.float64)
    model = ModelParams(flat, spec)
    assert model.flat is flat and model.spec is spec
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
        assert not np.shares_memory(other.flat, model.flat) and other.spec == spec
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
    spec = ModelSpec(visual_map=(6, 4), semantic_map=(5, 4), encoder=(6, 6))
    assert spec.n_params == 94
    with pytest.raises(ValueError, match=r"specs need float64 \(94,\)"):
        ModelParams(flat, spec)


@pytest.mark.parametrize(
    "nets, message",
    [
        ({"visual_map": (6, 4), "semantic_map": (5, 5)},
         "visual and semantic mapping nets must share the latent width: 4 != 5"),
        ({"visual_map": (32, 4), "semantic_map": (5, 4), "encoder": (6, 7)},
         "encoder output width must match visual mapping input: 7 != 32"),
    ],
    ids=["latent-width", "encoder-output"],
)
def test_model_spec_rejects_nets_that_do_not_fit(nets, message):
    with pytest.raises(ValueError, match=f"^ModelSpec: {message}$"):
        ModelSpec(**nets)


def test_layer_widths_are_python_ints():
    with pytest.raises(ValueError, match=r"^MlpSpec.layer_dims\[0\] must be int, got 4.7$"):
        MlpSpec((4.7, 3.2))
    with pytest.raises(ValueError, match=r"^ModelSpec.visual_map\[0\] must be int, got 4.9$"):
        ModelSpec(visual_map=(4.9, 3), semantic_map=(2, 3))
    with pytest.raises(ValueError, match=r"^ModelSpec.encoder\[1\] must be int, got True$"):
        ModelSpec(visual_map=(1, 3), semantic_map=(2, 3), encoder=(4, True))
    spec = ModelSpec(visual_map=np.array([4, 3]), semantic_map=(np.int32(2), 3))
    assert spec.to_dict() == {"visual_map": [4, 3], "semantic_map": [2, 3], "encoder": None}
    assert all(type(d) is int for d in spec.visual_map + spec.semantic_map)
    assert all(type(d) is int for _, net in spec.nets for d in net.layer_dims)


def test_model_spec_lists_its_nets_in_flat_order():
    spec = ModelSpec(visual_map=(6, 3, 4), semantic_map=(5, 4), encoder=(7, 6))
    assert [(name, net.layer_dims) for name, net in spec.nets] == [
        ("encoder", (7, 6)), ("visual_map", (6, 3, 4)), ("semantic_map", (5, 4)),
    ]
    assert spec.n_params == 7 * 6 + 6 + 6 * 3 + 3 + 3 * 4 + 4 + 5 * 4 + 4
    assert (spec.feature_dim, spec.semantic_dim) == (7, 5)
    assert replace(spec, encoder=None).feature_dim == 6
    assert ModelSpec.from_dict(spec.to_dict()) == spec


def test_cosine_helpers_match_hand_loop():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((3, 5))
    b = rng.standard_normal((4, 5))
    got = pairwise_cosine(a, b)
    for i in range(3):
        for j in range(4):
            want = a[i] @ b[j] / (np.linalg.norm(a[i]) * np.linalg.norm(b[j]))
            assert abs(got[i, j] - want) < 1e-14


def test_self_cosines_are_exactly_symmetric_at_paper_scale():
    x = np.random.default_rng(1).standard_normal((925, 16))
    c = pairwise_cosine(x, x)
    assert np.array_equal(c, c.T)
    # a copy takes the general product, which differs from it by rounding only
    assert np.abs(pairwise_cosine(x, x.copy()) - c).max() <= 1e-15


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_self_cosines_equal_the_two_normalization_product_at_reference_shapes(seed):
    x = np.random.default_rng(seed).standard_normal((10, 16))
    norms = np.linalg.norm(x, axis=1)[:, None]
    want = np.clip((x / norms) @ (x / norms).T, -1.0, 1.0)
    assert np.array_equal(pairwise_cosine(x, x), want)


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
