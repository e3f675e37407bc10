"""Objective terms against hand computations and finite differences."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gzsl_align import (
    DegenerateVectorError,
    LossConfig,
    ModelParams,
    align_term,
    con_term,
    pairwise_cosine,
    rank_term,
    total_loss,
)
from gzsl_align.networks import MlpSpec, init_model_params, mlp_forward, row_norms
from gzsl_align.gradcheck import GradcheckResult, run_gradient_check
from gzsl_align.losses import CON_BLOCK


def _unit(x):
    """Unit rows of ``x`` and their norms, as the align and con terms take them."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    norms = row_norms(x)
    return x / norms[:, None], norms


def _rank(scores, labels, delta=0.5, pair_normalize=False):
    return rank_term(scores, labels, delta, pair_normalize)[0]


def _align(visuals, semantics, gamma1=1.0):
    return align_term(*_unit(visuals), *_unit(semantics), gamma1)[0]


def _con(original, projected, gamma2=1.0):
    return con_term(*_unit(projected), pairwise_cosine(original, original), gamma2)[0]


def _central_diff(value, x, step=1e-6):
    """Central-difference gradient of ``value()`` w.r.t. ``x``, perturbed in place."""
    grad = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        keep = x[idx]
        x[idx] = keep + step
        up = value()
        x[idx] = keep - step
        down = value()
        x[idx] = keep
        grad[idx] = (up - down) / (2 * step)
    return grad


# ---------------------------------------------------------------- ranking

def test_ranking_hand_case_two_classes():
    got = _rank(np.array([0.2, 0.4]), np.array([1, 0]), delta=0.5)
    assert abs(got - 0.35) < 1e-12


def test_ranking_hand_case_three_classes():
    got = _rank(np.array([0.9, 0.1, 0.0]), np.array([1, 1, 0]), delta=0.5)
    assert abs(got - 0.4 / 3) < 1e-12


def test_ranking_pair_normalized_variant():
    got = _rank(
        np.array([0.9, 0.1, 0.0]), np.array([1, 1, 0]), delta=0.5, pair_normalize=True
    )
    assert abs(got - 0.4 / 2) < 1e-12


def test_ranking_zero_when_margin_satisfied():
    scores = np.array([0.9, 0.8, 0.1, 0.2])
    labels = np.array([1, 1, 0, 0])
    assert _rank(scores, labels, delta=0.5) == 0.0


def test_ranking_empty_sets_return_zero():
    assert _rank(np.array([0.1, 0.2]), np.array([1, 1])) == 0.0
    assert _rank(np.array([0.1, 0.2]), np.array([0, 0])) == 0.0


def test_batch_mean_semantics():
    scores = np.array([[0.2, 0.4], [0.9, 0.0]])
    labels = np.array([[1, 0], [1, 0]])
    a = _rank(scores[0], labels[0])
    b = _rank(scores[1], labels[1])
    got = _rank(scores, labels)
    assert abs(got - (a + b) / 2) < 1e-15
    same = _rank(np.stack([scores[0]] * 3), np.stack([labels[0]] * 3))
    assert abs(same - a) < 1e-15


def test_batch_of_eight_matches_per_image_oracle():
    rng = np.random.default_rng(21)
    scores = rng.uniform(-1, 1, size=(8, 5))
    labels = (rng.uniform(size=(8, 5)) < 0.4).astype(np.int8)
    want = np.mean([_rank(s, y) for s, y in zip(scores, labels)])
    assert abs(_rank(scores, labels) - want) < 1e-13


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_ranking_zero_set_and_monotonicity(seed):
    rng = np.random.default_rng(seed)
    s = int(rng.integers(2, 8))
    scores = rng.uniform(-1, 1, size=s)
    labels = np.zeros(s, dtype=np.int8)
    labels[rng.choice(s, size=int(rng.integers(1, s)), replace=False)] = 1
    delta = float(rng.uniform(0.05, 1.0))
    loss = _rank(scores, labels, delta=delta)
    assert loss >= 0.0
    pos, neg = scores[labels == 1], scores[labels == 0]
    assert (loss == 0.0) == (pos.min() - neg.max() >= delta)
    # raising a negative never lowers the loss; raising a positive never raises it
    j = int(np.flatnonzero(labels == 0)[0])
    bumped = scores.copy()
    bumped[j] += 0.3
    assert _rank(bumped, labels, delta=delta) >= loss
    i = int(np.flatnonzero(labels == 1)[0])
    bumped = scores.copy()
    bumped[i] += 0.3
    assert _rank(bumped, labels, delta=delta) <= loss


def _rank_oracle(scores, labels, delta, pair_normalize):
    """The direct (N, S, S) margin-tensor form of the ranking term."""
    P = np.atleast_2d(np.asarray(scores, dtype=np.float64))
    Y = np.atleast_2d(np.asarray(labels))
    n, s = P.shape
    pos = Y > 0.5
    # margins[i, p, q] = delta + P[i, q] - P[i, p] for positive p, negative q
    margins = delta + P[:, None, :] - P[:, :, None]
    pairs = pos[:, :, None] & ~pos[:, None, :]
    active = pairs & (margins > 0.0)
    if pair_normalize:
        n_pairs = pairs.sum(axis=(1, 2))
        scale = np.divide(1.0, n_pairs, out=np.zeros(n, dtype=np.float64), where=n_pairs > 0)
    else:
        scale = np.full(n, 1.0 / s)
    per_image = (margins * active).sum(axis=(1, 2)) * scale
    loss = float(per_image.sum() / n)
    d_scores = (active.sum(axis=1) - active.sum(axis=2)) * (scale / n)[:, None]
    return loss, d_scores


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 40),
    s=st.integers(2, 60),
    decimals=st.integers(0, 3),
    delta=st.sampled_from([0.0, 0.2, 0.5]),
    pair_normalize=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_ranking_sort_form_matches_margin_tensor_oracle(n, s, decimals, delta, pair_normalize, seed):
    rng = np.random.default_rng(seed)
    scores = np.round(rng.uniform(-1, 1, size=(n, s)), decimals)  # rounding forces ties
    labels = (rng.uniform(size=(n, s)) < rng.uniform(0.05, 0.95)).astype(np.int8)
    labels[rng.uniform(size=n) < 0.15] = 0  # rows without positives
    labels[rng.uniform(size=n) < 0.15] = 1  # rows without negatives
    # one exact tie fl(delta + s_q) == s_p, which is not an active pair
    r = int(rng.integers(n))
    labels[r, :2] = (0, 1)
    scores[r, 0] = float(rng.uniform(-1, 1 - delta))
    scores[r, 1] = delta + scores[r, 0]

    want_loss, want_grad = _rank_oracle(scores, labels, delta, pair_normalize)
    loss, grad = rank_term(scores, labels, delta, pair_normalize)
    assert np.array_equal(grad, want_grad)
    assert abs(loss - want_loss) <= 1e-12 * max(1.0, abs(want_loss))

    tie_loss, tie_grad = rank_term(
        scores[r : r + 1, :2], labels[r : r + 1, :2], delta, pair_normalize
    )
    assert tie_loss == 0.0 and not tie_grad.any()


def test_ranking_rejects_empty_batch_and_shape_mismatch():
    with pytest.raises(ValueError, match="at least one image"):
        rank_term(np.zeros((0, 3)), np.zeros((0, 3)), 0.5, False)
    with pytest.raises(ValueError, match="shape"):
        rank_term(np.zeros((2, 3)), np.zeros((2, 4)), 0.5, False)


# -------------------------------------------------------------- alignment

def test_alignment_perfect_pairs_are_zero():
    v = np.array([[1.0, 0.0], [0.0, 2.0]])
    w = np.array([[3.0, 0.0], [0.0, 1.0]])  # same directions, scaled
    assert abs(_align(v, w)) < 1e-12


def test_alignment_anti_aligned_pairs_hit_the_bound():
    v = np.array([[1.0, 0.0], [0.0, 2.0]])
    assert abs(_align(v, -v) - 2.0) < 1e-12


def test_alignment_mixed_batch():
    v = np.array([[1.0, 0.0], [1.0, 0.0]])
    w = np.array([[2.0, 0.0], [0.0, 5.0]])  # cosines 1 and 0
    assert abs(_align(v, w) - 0.5) < 1e-12


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_alignment_range(seed):
    rng = np.random.default_rng(seed)
    n, l = int(rng.integers(1, 6)), int(rng.integers(2, 5))
    v = rng.standard_normal((n, l))
    w = rng.standard_normal((n, l))
    got = _align(v, w)
    assert -1e-12 <= got <= 2.0 + 1e-12


def test_alignment_empty_pairing_is_zero():
    empty = np.zeros((0, 3))
    value, d_z, d_a = align_term(empty, np.zeros(0), empty, np.zeros(0), 0.1)
    assert value == 0.0 and d_z.shape == d_a.shape == (0, 3)
    assert align_term(empty, np.zeros(0), empty, np.zeros(0), 0.1, compute_grads=False) == (
        0.0, None, None
    )


def _align_oracle(latent_visuals, projected_semantics) -> float:
    """The former standalone alignment loss: cosines from the raw rows."""
    Z = np.atleast_2d(np.asarray(latent_visuals, dtype=np.float64))
    A = np.atleast_2d(np.asarray(projected_semantics, dtype=np.float64))
    if Z.shape[0] == 0:
        return 0.0
    zn = row_norms(Z, "latent visual")
    an = row_norms(A, "projected semantic")
    cos = np.clip((Z * A).sum(axis=1) / (zn * an), -1.0, 1.0)
    return float(np.mean(1.0 - cos))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_alignment_term_matches_standalone_oracle(seed):
    rng = np.random.default_rng(seed)
    n, l = int(rng.integers(0, 8)), int(rng.integers(2, 6))
    v = rng.standard_normal((n, l)) * rng.uniform(0.1, 10.0)
    w = rng.standard_normal((n, l)) * rng.uniform(0.1, 10.0)
    want = _align_oracle(v, w)
    got = align_term(*_unit(v), *_unit(w), 0.1, compute_grads=False)[0]
    assert abs(got - want) < 1e-12


def test_alignment_gradients_match_finite_differences():
    rng = np.random.default_rng(31)
    visuals = rng.standard_normal((4, 3))
    semantics = rng.standard_normal((4, 3))
    gamma1 = 0.3

    def value() -> float:
        return gamma1 * align_term(*_unit(visuals), *_unit(semantics), gamma1, False)[0]

    _, d_z, d_a = align_term(*_unit(visuals), *_unit(semantics), gamma1)
    np.testing.assert_allclose(d_z, _central_diff(value, visuals), rtol=0, atol=1e-8)
    np.testing.assert_allclose(d_a, _central_diff(value, semantics), rtol=0, atol=1e-8)


# ------------------------------------------------------------- consistency

def test_consistency_identity_and_scaling_are_zero():
    rng = np.random.default_rng(5)
    w = rng.standard_normal((4, 3))
    assert _con(w, w) == 0.0
    assert abs(_con(w, 2.5 * w)) < 1e-12


def test_consistency_matches_double_loop_oracle():
    w = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    phi = np.array([[1.0, 0.5], [-0.25, 2.0]])  # hand-picked linear map
    p = w @ phi

    def cos(a, b):
        return a @ b / (np.linalg.norm(a) * np.linalg.norm(b))

    want = 0.0
    for i in range(3):
        for j in range(3):
            if i != j:
                want += abs(cos(w[i], w[j]) - cos(p[i], p[j]))
    assert abs(_con(w, p) - want) < 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_consistency_orthogonal_invariance_and_symmetry(seed):
    rng = np.random.default_rng(seed)
    k, d = int(rng.integers(2, 6)), int(rng.integers(2, 6))
    w = rng.standard_normal((k, d))
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    assert abs(_con(w, w @ q)) < 1e-9
    p = rng.standard_normal((k, d))
    perm = rng.permutation(k)
    assert abs(_con(w, p) - _con(w[perm], p[perm])) < 1e-10


def _con_oracle(original_rows, projected_rows) -> float:
    """The former standalone consistency loss: both cosine matrices from raw rows."""
    W = np.atleast_2d(np.asarray(original_rows, dtype=np.float64))
    P = np.atleast_2d(np.asarray(projected_rows, dtype=np.float64))
    c_orig = pairwise_cosine(W, W, "semantic row")
    c_proj = pairwise_cosine(P, P, "projected row")
    diff = np.abs(c_orig - c_proj)
    np.fill_diagonal(diff, 0.0)
    return float(diff.sum())


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_consistency_term_matches_standalone_oracle(seed):
    rng = np.random.default_rng(seed)
    k, d, l = int(rng.integers(2, 12)), int(rng.integers(2, 6)), int(rng.integers(2, 6))
    w = rng.standard_normal((k, d))
    p = rng.standard_normal((k, l)) * rng.uniform(0.1, 10.0)
    assert abs(_con(w, p, gamma2=0.1) - _con_oracle(w, p)) < 1e-12


def test_alignment_and_consistency_reject_mismatched_shapes():
    with pytest.raises(ValueError, match="shape"):
        align_term(np.ones((2, 3)), np.ones(2), np.ones((1, 3)), np.ones(1), 0.1)
    with pytest.raises(ValueError, match="target shape"):
        con_term(np.ones((3, 2)), np.ones(3), np.eye(2), 0.1)


def test_consistency_gradients_match_finite_differences():
    rng = np.random.default_rng(37)
    target = pairwise_cosine(*(2 * [rng.standard_normal((5, 4))]))
    projected = rng.standard_normal((5, 3))
    gamma2 = 0.7
    drift = np.abs(pairwise_cosine(projected, projected) - target)[~np.eye(5, dtype=bool)]
    assert drift.min() > 1e-3  # away from the absolute-value kink

    def value() -> float:
        return gamma2 * con_term(*_unit(projected), target, gamma2, False)[0]

    _, d_t = con_term(*_unit(projected), target, gamma2)
    np.testing.assert_allclose(d_t, _central_diff(value, projected), rtol=0, atol=1e-7)


def _con_dense_oracle(t_hat, t_norm, target, gamma2, compute_grads):
    """The former dense consistency term: the whole class x class matrix at once."""
    c_proj = np.clip(t_hat @ t_hat.T, -1.0, 1.0)
    diff = c_proj - target
    np.fill_diagonal(diff, 0.0)
    value = float(np.abs(diff).sum())
    if not compute_grads:
        return value, None
    H = np.sign(diff)
    H = H + H.T
    d_t = gamma2 * (H @ t_hat - (H * c_proj).sum(axis=1, keepdims=True) * t_hat) / t_norm[:, None]
    return value, d_t


@settings(max_examples=60, deadline=None)
@given(
    k=st.sampled_from([1, 2, CON_BLOCK - 1, CON_BLOCK, CON_BLOCK + 1, 2 * CON_BLOCK + 3]),
    ties=st.booleans(),
    compute_grads=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_consistency_blocks_match_dense_oracle(k, ties, compute_grads, seed):
    rng = np.random.default_rng(seed)
    if ties:
        # four entries of +-1/2 per row: every cosine is a multiple of 1/4 in any
        # summation order, so a target built from t_hat ties exactly
        t_hat = np.zeros((k, 8))
        for row in t_hat:
            row[rng.choice(8, 4, replace=False)] = rng.choice([-0.5, 0.5], 4)
        t_norm = rng.uniform(0.5, 2.0, k)
        target = t_hat @ t_hat.T
        moved = rng.uniform(size=(k, k)) < 0.3  # on one side of a pair only, mostly
        target[moved] = rng.uniform(-1.0, 1.0, int(moved.sum()))
    else:
        t_hat, t_norm = _unit(rng.standard_normal((k, int(rng.integers(1, 9)))))
        target = rng.uniform(-1.0, 1.0, (k, k))  # neither symmetric nor unit-diagonal
    value, d_t = con_term(t_hat, t_norm, target, 0.3, compute_grads)
    want, want_d = _con_dense_oracle(t_hat, t_norm, target, 0.3, compute_grads)
    exact = k <= CON_BLOCK  # one diagonal block: the dense arithmetic, bit for bit
    assert value == want if exact else abs(value - want) <= 1e-12 * abs(want)
    if not compute_grads:
        assert d_t is None
        return
    assert np.array_equal(d_t, want_d) if exact else (
        np.abs(d_t - want_d).max() <= 1e-12 * np.abs(want_d).max()
    )
    # the pair {i, j} takes sign(c_ij - t_ij) + sign(c_ij - t_ji): a transposed target
    # gives the same gradient bit for bit, as the cosine blocks are exactly symmetric
    assert np.array_equal(con_term(t_hat, t_norm, target.T.copy(), 0.3)[1], d_t)


def test_consistency_term_peak_memory_at_paper_scale():
    rng = np.random.default_rng(4)
    t_hat, t_norm = _unit(rng.standard_normal((925, 16)))
    target = pairwise_cosine(*(2 * [rng.standard_normal((925, 32))]))
    tracemalloc.start()
    try:
        con_term(t_hat, t_norm, target, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one 925 x 925 float64 temporary alone takes 6.8 MB
    assert peak < 4e6, f"con_term peaked at {peak / 1e6:.2f} MB"


# -------------------------------------------------------------- total loss

def _identity_model() -> ModelParams:
    eye = np.concatenate([np.eye(2).ravel(), np.zeros(2)])  # W = I, b = 0
    spec = MlpSpec(layer_dims=(2, 2))
    return ModelParams(np.concatenate([eye, eye]), spec, spec)


def test_total_reduces_to_rank_when_gammas_vanish():
    rng = np.random.default_rng(8)
    params = init_model_params(
        MlpSpec(layer_dims=(4, 3)), MlpSpec(layer_dims=(3, 3)), MlpSpec(layer_dims=(4, 4)), seed=2
    )
    feats = rng.standard_normal((3, 4))
    labels = np.array([[1, 0, 0], [0, 1, 1], [1, 1, 0]], dtype=np.int8)
    sem = rng.standard_normal((3, 3))
    cfg = LossConfig(gamma1=0.0, gamma2=0.0)
    breakdown, _ = total_loss(feats, labels, sem, params, cfg)
    assert breakdown.total == breakdown.rank


def test_total_zero_at_perfect_configuration():
    params = _identity_model()
    sem = np.eye(2)
    feats = np.array([[2.0, 0.0], [0.0, 1.0]])
    labels = np.array([[1, 0], [0, 1]], dtype=np.int8)
    breakdown, grads = total_loss(feats, labels, sem, params, LossConfig(delta=0.5))
    assert breakdown.rank == 0.0
    assert abs(breakdown.align) < 1e-12
    assert breakdown.con == 0.0
    assert abs(breakdown.total) < 1e-12


def test_gradient_routing_by_term():
    rng = np.random.default_rng(13)
    params = init_model_params(
        MlpSpec(layer_dims=(4, 3)), MlpSpec(layer_dims=(3, 3)), MlpSpec(layer_dims=(4, 4)), seed=3
    )
    feats = rng.standard_normal((3, 4))
    labels = np.array([[1, 0, 1], [0, 1, 0], [1, 1, 0]], dtype=np.int8)
    sem = rng.standard_normal((3, 3))
    cfg = LossConfig(gamma1=0.3, gamma2=0.7).with_terms(("con",))
    _, grads = total_loss(feats, labels, sem, params, cfg)
    assert all(np.all(g == 0) for g in grads.encoder.arrays())
    assert all(np.all(g == 0) for g in grads.visual_map.arrays())
    assert any(np.any(g != 0) for g in grads.semantic_map.arrays())


def test_total_gradients_match_finite_differences():
    rng = np.random.default_rng(17)
    params = init_model_params(
        MlpSpec(layer_dims=(4, 5, 3)), MlpSpec(layer_dims=(3, 3)), MlpSpec(layer_dims=(4, 4)), seed=6
    )
    feats = rng.standard_normal((2, 4))
    labels = np.array([[1, 0, 1], [0, 1, 0]], dtype=np.int8)
    sem = rng.standard_normal((3, 3))
    cfg = LossConfig(delta=0.4, gamma1=0.05, gamma2=0.2)

    def value() -> float:
        breakdown, _ = total_loss(feats, labels, sem, params, cfg, compute_grads=False)
        return breakdown.total

    _, grads = total_loss(feats, labels, sem, params, cfg)
    step, worst = 1e-5, 0.0
    for arr, g in zip(params.arrays(), grads.arrays()):
        flat, gflat = arr.ravel(), g.ravel()
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + step
            up = value()
            flat[i] = keep - step
            down = value()
            flat[i] = keep
            fd = (up - down) / (2 * step)
            worst = max(worst, abs(fd - gflat[i]) / (max(abs(fd), abs(gflat[i])) + 1e-3))
    assert worst < 1e-4, f"worst scaled error {worst:.3e}"


def test_total_loss_composes_the_terms():
    rng = np.random.default_rng(29)
    params = init_model_params(
        MlpSpec(layer_dims=(4, 3)), MlpSpec(layer_dims=(3, 3)), MlpSpec(layer_dims=(4, 4)), seed=4
    )
    feats = rng.standard_normal((4, 4))
    labels = np.array([[1, 0, 1], [0, 0, 0], [0, 1, 0], [1, 1, 1]], dtype=np.int8)
    sem = rng.standard_normal((3, 3))
    cfg = LossConfig(delta=0.4, gamma1=0.3, gamma2=0.7)
    breakdown, _ = total_loss(feats, labels, sem, params, cfg)

    Z, _ = mlp_forward(params.visual_map, mlp_forward(params.encoder, feats)[0])
    T, _ = mlp_forward(params.semantic_map, sem)
    rank, _ = rank_term(pairwise_cosine(Z, T), labels, cfg.delta, cfg.pair_normalize)
    counts = labels.sum(axis=1)
    valid = counts > 0
    A, _ = mlp_forward(params.semantic_map, (labels[valid] @ sem) / counts[valid, None])
    z_hat, z_norm = _unit(Z)
    align, _, _ = align_term(z_hat[valid], z_norm[valid], *_unit(A), cfg.gamma1)
    con, _ = con_term(*_unit(T), pairwise_cosine(sem, sem), cfg.gamma2)
    assert (breakdown.rank, breakdown.align, breakdown.con) == (rank, align, con)
    assert breakdown.total == rank + cfg.gamma1 * align + cfg.gamma2 * con


def test_align_only_zero_latent_without_positives_raises():
    params = _identity_model()
    feats = np.array([[0.0, 0.0], [1.0, 0.0]])  # sample 0 maps to the zero latent
    labels = np.array([[0, 0], [1, 0]], dtype=np.int8)
    cfg = LossConfig().with_terms(("align",))
    with pytest.raises(DegenerateVectorError, match=r"^latent visual 0 has zero norm$"):
        total_loss(feats, labels, np.eye(2), params, cfg)


def test_loss_config_term_mask_round_trip():
    cfg = LossConfig().with_terms(("rank", "con"))
    assert (cfg.use_rank, cfg.use_align, cfg.use_con) == (True, False, True)
    with pytest.raises(ValueError):
        LossConfig().with_terms(("rank", "nope"))


# ----------------------------------------------------------- gradient check

def test_gradient_check_result_is_pinned():
    # Taken from the per-array walk that the flat walk replaced: the same entries
    # are perturbed in the same order, and the worst one has the same name.
    assert run_gradient_check(trials=20, seed=0) == GradcheckResult(
        n_trials=20,
        max_error=6.17038972259764e-07,
        tolerance=1e-4,
        passed=True,
        worst_trial=16,
        worst_array="visual_map.layer1.bias",
        n_resampled=4,
    )
