"""Objective terms against hand computations and finite differences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gzsl_align import (
    LossConfig,
    MlpSpec,
    ModelParams,
    alignment_loss,
    consistency_loss,
    init_model_params,
    init_params,
    ranking_loss_batch,
    ranking_loss_image,
    relevance_scores,
    total_loss,
)
from gzsl_align.losses import _rank_loss_and_grad


# ---------------------------------------------------------------- ranking

def test_ranking_hand_case_two_classes():
    got = ranking_loss_image(np.array([0.2, 0.4]), np.array([1, 0]), delta=0.5)
    assert abs(got - 0.35) < 1e-12


def test_ranking_hand_case_three_classes():
    got = ranking_loss_image(np.array([0.9, 0.1, 0.0]), np.array([1, 1, 0]), delta=0.5)
    assert abs(got - 0.4 / 3) < 1e-12


def test_ranking_pair_normalized_variant():
    got = ranking_loss_image(
        np.array([0.9, 0.1, 0.0]), np.array([1, 1, 0]), delta=0.5, pair_normalize=True
    )
    assert abs(got - 0.4 / 2) < 1e-12


def test_ranking_zero_when_margin_satisfied():
    scores = np.array([0.9, 0.8, 0.1, 0.2])
    labels = np.array([1, 1, 0, 0])
    assert ranking_loss_image(scores, labels, delta=0.5) == 0.0


def test_ranking_empty_sets_return_zero():
    assert ranking_loss_image(np.array([0.1, 0.2]), np.array([1, 1])) == 0.0
    assert ranking_loss_image(np.array([0.1, 0.2]), np.array([0, 0])) == 0.0


def test_batch_mean_semantics():
    scores = np.array([[0.2, 0.4], [0.9, 0.0]])
    labels = np.array([[1, 0], [1, 0]])
    a = ranking_loss_image(scores[0], labels[0])
    b = ranking_loss_image(scores[1], labels[1])
    got = ranking_loss_batch(scores, labels)
    assert abs(got - (a + b) / 2) < 1e-15
    same = ranking_loss_batch(np.stack([scores[0]] * 3), np.stack([labels[0]] * 3))
    assert abs(same - a) < 1e-15


def test_batch_of_eight_matches_per_image_oracle():
    rng = np.random.default_rng(21)
    scores = rng.uniform(-1, 1, size=(8, 5))
    labels = (rng.uniform(size=(8, 5)) < 0.4).astype(np.int8)
    want = np.mean([ranking_loss_image(s, y) for s, y in zip(scores, labels)])
    assert abs(ranking_loss_batch(scores, labels) - want) < 1e-13


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_ranking_zero_set_and_monotonicity(seed):
    rng = np.random.default_rng(seed)
    s = int(rng.integers(2, 8))
    scores = rng.uniform(-1, 1, size=s)
    labels = np.zeros(s, dtype=np.int8)
    labels[rng.choice(s, size=int(rng.integers(1, s)), replace=False)] = 1
    delta = float(rng.uniform(0.05, 1.0))
    loss = ranking_loss_image(scores, labels, delta=delta)
    assert loss >= 0.0
    pos, neg = scores[labels == 1], scores[labels == 0]
    assert (loss == 0.0) == (pos.min() - neg.max() >= delta)
    # raising a negative never lowers the loss; raising a positive never raises it
    j = int(np.flatnonzero(labels == 0)[0])
    bumped = scores.copy()
    bumped[j] += 0.3
    assert ranking_loss_image(bumped, labels, delta=delta) >= loss
    i = int(np.flatnonzero(labels == 1)[0])
    bumped = scores.copy()
    bumped[i] += 0.3
    assert ranking_loss_image(bumped, labels, delta=delta) <= loss


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
    loss, grad = _rank_loss_and_grad(scores, labels, delta, pair_normalize)
    assert np.array_equal(grad, want_grad)
    assert abs(loss - want_loss) <= 1e-12 * max(1.0, abs(want_loss))

    tie_loss, tie_grad = _rank_loss_and_grad(
        scores[r : r + 1, :2], labels[r : r + 1, :2], delta, pair_normalize
    )
    assert tie_loss == 0.0 and not tie_grad.any()


# -------------------------------------------------------------- alignment

def test_alignment_perfect_pairs_are_zero():
    v = np.array([[1.0, 0.0], [0.0, 2.0]])
    w = np.array([[3.0, 0.0], [0.0, 1.0]])  # same directions, scaled
    assert abs(alignment_loss(v, w)) < 1e-12


def test_alignment_anti_aligned_pairs_hit_the_bound():
    v = np.array([[1.0, 0.0], [0.0, 2.0]])
    assert abs(alignment_loss(v, -v) - 2.0) < 1e-12


def test_alignment_mixed_batch():
    v = np.array([[1.0, 0.0], [1.0, 0.0]])
    w = np.array([[2.0, 0.0], [0.0, 5.0]])  # cosines 1 and 0
    assert abs(alignment_loss(v, w) - 0.5) < 1e-12


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_alignment_range(seed):
    rng = np.random.default_rng(seed)
    n, l = int(rng.integers(1, 6)), int(rng.integers(2, 5))
    v = rng.standard_normal((n, l))
    w = rng.standard_normal((n, l))
    got = alignment_loss(v, w)
    assert -1e-12 <= got <= 2.0 + 1e-12


# ------------------------------------------------------------- consistency

def test_consistency_identity_and_scaling_are_zero():
    rng = np.random.default_rng(5)
    w = rng.standard_normal((4, 3))
    assert consistency_loss(w, w) == 0.0
    assert abs(consistency_loss(w, 2.5 * w)) < 1e-12


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
    assert abs(consistency_loss(w, p) - want) < 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_consistency_orthogonal_invariance_and_symmetry(seed):
    rng = np.random.default_rng(seed)
    k, d = int(rng.integers(2, 6)), int(rng.integers(2, 6))
    w = rng.standard_normal((k, d))
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    assert abs(consistency_loss(w, w @ q)) < 1e-9
    p = rng.standard_normal((k, d))
    perm = rng.permutation(k)
    assert abs(consistency_loss(w, p) - consistency_loss(w[perm], p[perm])) < 1e-10


# -------------------------------------------------------------- total loss

def _identity_model() -> ModelParams:
    vis = init_params(MlpSpec(layer_dims=(2, 2)), seed=0)
    sem = init_params(MlpSpec(layer_dims=(2, 2)), seed=1)
    for net in (vis, sem):
        net.weights[0][:] = np.eye(2)
        net.biases[0][:] = 0.0
    return ModelParams(visual_map=vis, semantic_map=sem, encoder=None)


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


def test_relevance_scores_hand_cases():
    sem = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    got = relevance_scores(np.array([[1.0, 0.0]]), sem)
    np.testing.assert_allclose(got, [[1.0, 0.0, -1.0]], atol=1e-15)
    np.testing.assert_allclose(
        relevance_scores(np.array([[-1.0, 0.0]]), sem), [[-1.0, 0.0, 1.0]], atol=1e-15
    )


def test_loss_config_term_mask_round_trip():
    cfg = LossConfig().with_terms(("rank", "con"))
    assert cfg.term_mask() == (True, False, True)
    with pytest.raises(ValueError):
        LossConfig().with_terms(("rank", "nope"))
