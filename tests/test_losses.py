"""Objective terms against hand computations and finite differences."""

import inspect
import itertools
import re
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gzsl_align import (
    DegenerateVectorError,
    LossConfig,
    ModelParams,
    adam_step,
    align_term,
    con_term,
    generate,
    init_adam,
    pairwise_cosine,
    rank_term,
    reference_model_params,
    reference_spec,
    total_loss,
)
from gzsl_align import losses
from gzsl_align.networks import ModelSpec, init_model_params, mlp_backward, mlp_forward, row_norms
from gzsl_align.gradcheck import GradcheckResult, _kink_floor, run_gradient_check
from gzsl_align.losses import CON_BLOCK, TERM_NAMES
from test_networks import _taped_forward_oracle

TERM_MASKS = [t for r in (1, 2, 3) for t in itertools.combinations(TERM_NAMES, r)]


def _unit(x):
    """Unit rows of ``x``, as the align and con terms take them."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    return x / row_norms(x)[:, None]


def _rank(scores, labels, delta=0.5, pair_normalize=False):
    return rank_term(scores, labels, delta, pair_normalize)[0]


def _align(visuals, semantics, gamma1=1.0):
    return align_term(_unit(visuals), _unit(semantics), gamma1)[0]


def _con(original, projected, gamma2=1.0):
    return con_term(_unit(projected), pairwise_cosine(original, original), gamma2)[0]


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


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 40),
    s=st.integers(2, 60),
    decimals=st.integers(0, 3),
    pair_normalize=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_ranking_without_grads_gives_the_same_loss_bits(n, s, decimals, pair_normalize, seed):
    rng = np.random.default_rng(seed)
    scores = np.round(rng.uniform(-1, 1, size=(n, s)), decimals)
    labels = (rng.uniform(size=(n, s)) < rng.uniform(0.05, 0.95)).astype(np.int8)
    loss, grad = rank_term(scores, labels, 0.5, pair_normalize)
    value_only, no_grad = rank_term(scores, labels, 0.5, pair_normalize, False)
    assert grad.shape == (n, s) and no_grad is None
    assert value_only.hex() == loss.hex()


def _rank_lexsort_oracle(scores, labels, delta, pair_normalize, compute_grads=True):
    """The former sort form: one stable lexsort of every row, negatives first on ties."""
    P = np.atleast_2d(np.asarray(scores, dtype=np.float64))
    Y = np.atleast_2d(np.asarray(labels))
    n, s = P.shape
    pos = Y > 0.5
    keys = np.where(pos, P, delta + P)
    order = np.lexsort((pos, keys), axis=-1) + np.arange(n)[:, None] * s
    k_sorted = keys.take(order)
    p_sorted = pos.take(order)
    neg_sorted = ~p_sorted
    negs_after = np.cumsum(neg_sorted[:, ::-1], axis=1)[:, ::-1]
    keys_after = np.cumsum(np.where(neg_sorted, k_sorted, 0.0)[:, ::-1], axis=1)[:, ::-1]
    if pair_normalize:
        n_pos = pos.sum(axis=1)
        n_pairs = n_pos * (s - n_pos)
        scale = np.divide(1.0, n_pairs, out=np.zeros(n, dtype=np.float64), where=n_pairs > 0)
    else:
        scale = np.full(n, 1.0 / s)
    hinge = np.where(p_sorted, keys_after - negs_after * k_sorted, 0.0)
    per_image = hinge.sum(axis=1) * scale
    loss = float(per_image.sum() / n)
    if not compute_grads:
        return loss, None
    pos_before = np.cumsum(p_sorted, axis=1)
    counts = np.empty_like(pos_before)
    counts.put(order, np.where(p_sorted, -negs_after, pos_before))
    d_scores = counts * (scale / n)[:, None]
    return loss, d_scores


def _tie_heavy_case(rng, n, s, decimals, delta):
    """Rounded scores in [-1, 1] with mixed ties fl(delta + s_q) == s_p forced into every row."""
    scores = np.clip(np.round(rng.uniform(-1.2, 1.2, size=(n, s)), decimals), -1.0, 1.0)
    labels = (rng.uniform(size=(n, s)) < rng.uniform(0.02, 0.98)).astype(np.int8)
    for r in range(n):
        for _ in range(int(rng.integers(1, 6))):
            q, p = rng.choice(s, size=2, replace=False)
            labels[r, q], labels[r, p] = 0, 1
            scores[r, p] = delta + scores[r, q]
    return scores, labels


def _assert_same_bits(got, want):
    assert got[0].hex() == want[0].hex()
    if want[1] is None:
        assert got[1] is None
    else:
        assert got[1].dtype == want[1].dtype and got[1].tobytes() == want[1].tobytes()


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 8),
    s=st.integers(2, 1100),
    decimals=st.integers(0, 3),
    delta=st.sampled_from([0.0, 0.2, 0.5]),
    pair_normalize=st.booleans(),
    compute_grads=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_ranking_matches_lexsort_oracle_bit_for_bit(
    n, s, decimals, delta, pair_normalize, compute_grads, seed
):
    """Up to sizes where numpy's SIMD argsort changes algorithm, with ties in every row."""
    scores, labels = _tie_heavy_case(np.random.default_rng(seed), n, s, decimals, delta)
    _assert_same_bits(
        rank_term(scores, labels, delta, pair_normalize, compute_grads),
        _rank_lexsort_oracle(scores, labels, delta, pair_normalize, compute_grads),
    )


@pytest.mark.parametrize("compute_grads", [True, False])
def test_ranking_repairs_every_tied_row_and_no_other(monkeypatch, compute_grads):
    repaired = []  # rows handed to the lexsort repair, per call
    lexsort = np.lexsort

    def counted(keys, axis=-1):
        repaired.append(len(keys[0]))
        return lexsort(keys, axis=axis)

    monkeypatch.setattr(losses.np, "lexsort", counted)
    s = 1000
    # every key equal, labels alternating: a positive lands ahead of a negative
    tied_scores = np.tile(np.where(np.arange(s) % 2, 0.5, 0.0), (6, 1))
    tied_labels = np.tile(np.arange(s) % 2, (6, 1)).astype(np.int8)
    got = rank_term(tied_scores, tied_labels, 0.5, False, compute_grads)
    assert repaired == [6]
    _assert_same_bits(got, _rank_lexsort_oracle(tied_scores, tied_labels, 0.5, False, compute_grads))

    repaired.clear()
    # scores on a 1/s grid and a margin half a step off it: classes interleave, no key is shared
    rng = np.random.default_rng(4)
    grid = np.stack([rng.permutation(s) for _ in range(6)]) / s - 0.5
    labels = (rng.uniform(size=grid.shape) < 0.3).astype(np.int8)
    delta = 0.25 + 0.5 / s
    got = rank_term(grid, labels, delta, True, compute_grads)
    assert repaired == []
    _assert_same_bits(got, _rank_lexsort_oracle(grid, labels, delta, True, compute_grads))


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 8),
    s=st.integers(2, 300),
    decimals=st.integers(0, 2),
    delta=st.sampled_from([0.0, 0.5]),
    pair_normalize=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_ranking_is_blind_to_column_order(n, s, decimals, delta, pair_normalize, seed):
    """No tie order, the sort's or the input's, reaches a bit of the result."""
    rng = np.random.default_rng(seed)
    scores, labels = _tie_heavy_case(rng, n, s, decimals, delta)
    perm = rng.permutation(s)
    loss, grad = rank_term(scores, labels, delta, pair_normalize)
    p_loss, p_grad = rank_term(scores[:, perm], labels[:, perm], delta, pair_normalize)
    assert p_loss.hex() == loss.hex()
    assert p_grad.tobytes() == grad[:, perm].tobytes()


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
    value, d_z, d_a = align_term(empty, empty, 0.1)
    assert value == 0.0 and d_z.shape == d_a.shape == (0, 3)


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
    got = align_term(_unit(v), _unit(w), 0.1)[0]
    assert abs(got - want) < 1e-12


def test_alignment_gradients_match_finite_differences():
    rng = np.random.default_rng(31)
    visuals = _unit(rng.standard_normal((4, 3)))
    semantics = _unit(rng.standard_normal((4, 3)))
    gamma1 = 0.3

    def value() -> float:
        return gamma1 * align_term(visuals, semantics, gamma1)[0]

    _, d_z, d_a = align_term(visuals, semantics, gamma1)
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
        align_term(np.ones((2, 3)), np.ones((1, 3)), 0.1)
    with pytest.raises(ValueError, match="target shape"):
        con_term(np.ones((3, 2)), np.eye(2), 0.1)


def test_consistency_gradients_match_finite_differences():
    rng = np.random.default_rng(37)
    target = pairwise_cosine(*(2 * [rng.standard_normal((5, 4))]))
    projected = _unit(rng.standard_normal((5, 3)))
    gamma2 = 0.7
    drift = np.abs(pairwise_cosine(projected, projected) - target)[~np.eye(5, dtype=bool)]
    assert drift.min() > 1e-3  # away from the absolute-value kink

    def value() -> float:
        return gamma2 * con_term(projected, target, gamma2, False)[0]

    _, d_t = con_term(projected, target, gamma2)
    np.testing.assert_allclose(d_t, _central_diff(value, projected), rtol=0, atol=1e-7)


def _con_dense_oracle(t_hat, target, gamma2, compute_grads):
    """The former dense consistency term: the whole class x class matrix at once."""
    c_proj = np.clip(t_hat @ t_hat.T, -1.0, 1.0)
    diff = c_proj - target
    np.fill_diagonal(diff, 0.0)
    value = float(np.abs(diff).sum())
    if not compute_grads:
        return value, None
    H = np.sign(diff)
    return value, gamma2 * ((H + H.T) @ t_hat)


def _symmetric(m):
    """``m``'s upper triangle mirrored onto its lower one."""
    return np.triu(m) + np.triu(m, 1).T


def _symmetric_con_case(rng, k, ties):
    """Unit rows and a symmetric target for the consistency term."""
    if ties:
        # four entries of +-1/2 per row: every cosine is a multiple of 1/4 in any
        # summation order, so a target built from t_hat ties exactly
        t_hat = np.zeros((k, 8))
        for row in t_hat:
            row[rng.choice(8, 4, replace=False)] = rng.choice([-0.5, 0.5], 4)
        target = t_hat @ t_hat.T
        moved = _symmetric(rng.uniform(size=(k, k)) < 0.3)  # both sides of a pair
        target[moved] = _symmetric(rng.uniform(-1.0, 1.0, (k, k)))[moved]
    else:
        t_hat = _unit(rng.standard_normal((k, int(rng.integers(1, 9)))))
        target = _symmetric(rng.uniform(-1.0, 1.0, (k, k)))  # not unit-diagonal
    return t_hat, target


CON_SIZES = [1, 2, CON_BLOCK - 1, CON_BLOCK, CON_BLOCK + 1, 2 * CON_BLOCK + 3]


@settings(max_examples=60, deadline=None)
@given(
    k=st.sampled_from(CON_SIZES),
    ties=st.booleans(),
    compute_grads=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_consistency_blocks_match_dense_oracle(k, ties, compute_grads, seed):
    t_hat, target = _symmetric_con_case(np.random.default_rng(seed), k, ties)
    value, d_t = con_term(t_hat, target, 0.3, compute_grads)
    want, want_d = _con_dense_oracle(t_hat, target, 0.3, compute_grads)
    exact = k <= CON_BLOCK  # one diagonal block: the dense arithmetic, bit for bit
    assert value == want if exact else abs(value - want) <= 1e-12 * abs(want)
    if not compute_grads:
        assert d_t is None
        return
    assert np.array_equal(d_t, want_d) if exact else (
        np.abs(d_t - want_d).max() <= 1e-12 * np.abs(want_d).max()
    )


def _con_two_sided_oracle(t_hat, target, gamma2, compute_grads):
    """The former blocked consistency term, which read each off-diagonal pair from
    both sides so that it held for a target that is not exactly symmetric."""
    k = t_hat.shape[0]
    value = 0.0
    d_t = np.zeros_like(t_hat) if compute_grads else None
    for i0 in range(0, k, CON_BLOCK):
        rows_i = slice(i0, i0 + CON_BLOCK)
        t_i = t_hat[rows_i]
        for j0 in range(i0, k, CON_BLOCK):
            rows_j = slice(j0, j0 + CON_BLOCK)
            t_j = t_hat[rows_j]
            c = t_i @ t_j.T
            cut = np.abs(c) > 1.0 if compute_grads else None
            np.clip(c, -1.0, 1.0, out=c)
            diff = c - target[rows_i, rows_j]
            if j0 == i0:
                np.fill_diagonal(diff, 0.0)
                if compute_grads:
                    H = np.sign(diff)
                    H = H + H.T
                    H[cut] = 0.0
                    d_t[rows_i] += H @ t_i
                value += float(np.abs(diff, out=diff).sum())
                continue
            diff_t = c.T - target[rows_j, rows_i]
            if compute_grads:
                H = np.sign(diff) + np.sign(diff_t).T
                H[cut] = 0.0
                d_t[rows_i] += H @ t_j
                d_t[rows_j] += H.T @ t_i
            value += float(np.abs(diff, out=diff).sum()) + float(np.abs(diff_t, out=diff_t).sum())
    if compute_grads:
        d_t *= gamma2
    return value, d_t


@settings(max_examples=60, deadline=None)
@given(
    k=st.sampled_from(CON_SIZES),
    ties=st.booleans(),
    compute_grads=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_consistency_one_sided_blocks_match_two_sided_oracle(k, ties, compute_grads, seed):
    t_hat, target = _symmetric_con_case(np.random.default_rng(seed), k, ties)
    value, d_t = con_term(t_hat, target, 0.3, compute_grads)
    want, want_d = _con_two_sided_oracle(t_hat, target, 0.3, compute_grads)
    # one diagonal block is the same arithmetic; above it, a block's mirror sum is
    # its own sum doubled, which may round differently from summing the mirror
    assert value == want if k <= CON_BLOCK else abs(value - want) <= 1e-12 * abs(want)
    if not compute_grads:
        assert d_t is None and want_d is None
        return
    assert np.array_equal(d_t, want_d)  # 2 sign(diff) is sign(diff) + sign(diff_t).T


def _con_where_oracle(t_hat, target, gamma2, compute_grads=True):
    """The former consistency term, which clipped every block into a fresh
    difference and cut its slopes with one ``np.where`` over the whole block."""
    k = t_hat.shape[0]
    value = 0.0
    d_t = np.zeros(t_hat.shape) if compute_grads else None  # H @ t_hat
    for i0 in range(0, k, CON_BLOCK):
        rows_i = slice(i0, i0 + CON_BLOCK)
        t_i = t_hat[rows_i]
        for j0 in range(i0, k, CON_BLOCK):
            rows_j = slice(j0, j0 + CON_BLOCK)
            t_j = t_hat[rows_j]
            c = t_i @ t_j.T  # syrk on the diagonal block
            diff = np.maximum(c, -1.0)
            np.minimum(diff, 1.0, out=diff)
            diff -= target[rows_i, rows_j]
            if j0 == i0:
                diff.flat[:: diff.shape[1] + 1] = 0.0
            if compute_grads:
                H = np.where(np.abs(c) > 1.0, 0.0, 2.0 * np.sign(diff))  # clip-cut: no slope
                d_t[rows_i] += H @ t_j
                if j0 != i0:
                    d_t[rows_j] += H.T @ t_i
            l1 = float(np.add.reduce(np.abs(diff, out=diff), axis=None))
            value += l1 if j0 == i0 else 2.0 * l1
    if compute_grads:
        d_t *= gamma2
    return value, d_t


def _assert_con_bytes(got, want):
    """Value and gradient equal bit for bit, so a flipped signed zero counts."""
    assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
    assert (got[1] is None) == (want[1] is None)
    if got[1] is not None:
        assert got[1].tobytes() == want[1].tobytes()


@pytest.mark.parametrize("compute_grads", [True, False], ids=["grads", "values"])
@pytest.mark.parametrize("ties", [True, False], ids=["ties", "no_ties"])
@pytest.mark.parametrize("k", [1, 2, 10, 127, 128, 129, 259, 925])
def test_consistency_term_equals_the_where_oracle_bit_for_bit(k, ties, compute_grads):
    t_hat, target = _symmetric_con_case(np.random.default_rng(k), k, ties)
    got = con_term(t_hat, target, 0.3, compute_grads)
    _assert_con_bytes(got, _con_where_oracle(t_hat, target, 0.3, compute_grads))


def _blocks_past_one(t_hat):
    """Block pairs (I, J >= I) of con_term's walk holding a cosine past +-1, self-pairs aside."""
    hits = []
    for i0 in range(0, t_hat.shape[0], CON_BLOCK):
        for j0 in range(i0, t_hat.shape[0], CON_BLOCK):
            c = t_hat[i0 : i0 + CON_BLOCK] @ t_hat[j0 : j0 + CON_BLOCK].T
            if j0 == i0:
                np.fill_diagonal(c, 0.0)
            if (np.abs(c) > 1.0).any():
                hits.append((i0, j0))
    return hits


@pytest.mark.parametrize("compute_grads", [True, False], ids=["grads", "values"])
def test_consistency_term_clips_and_cuts_only_the_blocks_past_one(monkeypatch, compute_grads):
    """Two equal unit rows in different blocks whose gemm cosine rounds past 1.

    The pair's target is below 1, so without the clip its difference and slope
    would move. Self-cosines also round past 1 in the diagonal blocks; they are
    zeroed before the range check, so only the pair's block takes the clip.
    """
    rng = np.random.default_rng(11)
    k, i, j = 2 * CON_BLOCK + 3, 5, CON_BLOCK + 9
    for _ in range(200):
        t_hat = _unit(rng.standard_normal((k, 12)))
        t_hat[j] = t_hat[i]
        if _blocks_past_one(t_hat) == [(0, CON_BLOCK)]:
            break
    else:
        pytest.fail("no draw put the equal rows' cosine, and only theirs, past 1")
    block = t_hat[:CON_BLOCK] @ t_hat[CON_BLOCK : 2 * CON_BLOCK].T
    assert block[i, j - CON_BLOCK] > 1.0
    self_cos = [np.diag(t_hat[r : r + CON_BLOCK] @ t_hat[r : r + CON_BLOCK].T) for r in (0, CON_BLOCK)]
    assert all((s > 1.0).any() for s in self_cos)  # the diagonal blocks would take the clip too
    original = rng.standard_normal((k, 20))
    target = pairwise_cosine(original, original)
    assert target[i, j] < 1.0

    clipped = []

    def spied(c):
        clipped.append(c.shape)
        return real_clip_cut(c)

    real_clip_cut = losses._clip_cut
    monkeypatch.setattr(losses, "_clip_cut", spied)
    got = con_term(t_hat, target, 0.3, compute_grads)
    _assert_con_bytes(got, _con_where_oracle(t_hat, target, 0.3, compute_grads))
    assert clipped == [(CON_BLOCK, CON_BLOCK)]


def test_consistency_term_peak_memory_at_paper_scale():
    rng = np.random.default_rng(4)
    t_hat = _unit(rng.standard_normal((925, 16)))
    target = pairwise_cosine(*(2 * [rng.standard_normal((925, 32))]))
    tracemalloc.start()
    try:
        con_term(t_hat, target, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one 925 x 925 float64 temporary alone takes 6.8 MB
    assert peak < 4e6, f"con_term peaked at {peak / 1e6:.2f} MB"


# -------------------------------------------------------------- total loss

def _identity_model() -> ModelParams:
    eye = np.concatenate([np.eye(2).ravel(), np.zeros(2)])  # W = I, b = 0
    return ModelParams(np.concatenate([eye, eye]), ModelSpec((2, 2), (2, 2)))


def test_total_reduces_to_rank_when_gammas_vanish():
    rng = np.random.default_rng(8)
    params = init_model_params(ModelSpec((4, 3), (3, 3), (4, 4)), seed=2)
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
    params = init_model_params(ModelSpec((4, 3), (3, 3), (4, 4)), seed=3)
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
    params = init_model_params(ModelSpec((4, 5, 3), (3, 3), (4, 4)), seed=6)
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
    params = init_model_params(ModelSpec((4, 3), (3, 3), (4, 4)), seed=4)
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
    align, _, _ = align_term(_unit(Z)[valid], _unit(A), cfg.gamma1)
    con, _ = con_term(_unit(T), pairwise_cosine(sem, sem), cfg.gamma2)
    assert (breakdown.rank, breakdown.align, breakdown.con) == (rank, align, con)
    assert breakdown.total == rank + cfg.gamma1 * align + cfg.gamma2 * con


def _cosine_rows_backward(Xhat, xnorm, Yhat, ynorm, C, dC):
    """Gradients of sum(dC * C) where C[i,j] = cos(x_i, y_j)."""
    dX = (dC @ Yhat - (dC * C).sum(axis=1, keepdims=True) * Xhat) / xnorm[:, None]
    dY = (dC.T @ Xhat - (dC * C).sum(axis=0)[:, None] * Yhat) / ynorm[:, None]
    return dX, dY


def _accumulating_backward(params, taped, grad_out, grads):
    """The former ``mlp_backward`` body on an oracle tape: adds into ``grads``, so
    the oracle's two semantic-map passes sum their parameter gradients."""
    inputs, preacts = taped
    g = np.asarray(grad_out, dtype=np.float64)
    n = len(params.weights)
    for k in reversed(range(n)):
        dz = g if k == n - 1 else g * (preacts[k] > 0.0)
        grads.weights[k] += inputs[k].T @ dz
        grads.biases[k] += dz.sum(axis=0)
        g = dz @ params.weights[k].T
    return g


def _total_loss_oracle(F, Y, W, params, cfg):
    """The former composition: each term takes its own norm gradients, and the
    semantic map runs twice, once over the class rows and once over the w_bar rows.

    Returns the (rank, align, con, total) values, d(total)/d(params.flat) and
    the largest gradient w.r.t. a unit latent row that a term passes back.
    """
    grads = params.zeros_like()
    rank = align = con = unit = 0.0
    if cfg.use_rank or cfg.use_align:
        enc, tape_enc = (
            (F, None) if params.encoder is None else _taped_forward_oracle(params.encoder, F)
        )
        Z, tape_vis = _taped_forward_oracle(params.visual_map, enc)
        z_norm = row_norms(Z)
        z_hat = Z / z_norm[:, None]
        dZ = np.zeros_like(Z)
    if cfg.use_rank or cfg.use_con:
        T, tape_cls = _taped_forward_oracle(params.semantic_map, W)
        t_norm = row_norms(T)
        t_hat = T / t_norm[:, None]
        dT = np.zeros_like(T)
    if cfg.use_rank:
        scores = np.clip(z_hat @ t_hat.T, -1.0, 1.0)
        rank, d_scores = rank_term(scores, Y, cfg.delta, cfg.pair_normalize)
        unit = max(unit, np.abs(d_scores @ t_hat).max(), np.abs(d_scores.T @ z_hat).max())
        dZ_r, dT_r = _cosine_rows_backward(z_hat, z_norm, t_hat, t_norm, scores, d_scores)
        dZ += dZ_r
        dT += dT_r
    if cfg.use_align:
        counts = Y.sum(axis=1)
        valid = counts > 0
        w_bar = (Y[valid] @ W) / counts[valid, None]
        A, tape_avg = _taped_forward_oracle(params.semantic_map, w_bar)
        a_norm = row_norms(A)
        a_hat = A / a_norm[:, None]
        zv, zn = z_hat[valid], z_norm[valid]
        cos = np.clip((zv * a_hat).sum(axis=1), -1.0, 1.0)
        align = float(np.mean(1.0 - cos)) if cos.size else 0.0
        coeff = cfg.gamma1 / max(cos.size, 1)
        if cos.size:  # d/d(a_hat) is -coeff * zv and d/d(zv) is -coeff * a_hat
            unit = max(unit, coeff * np.abs(zv).max(), coeff * np.abs(a_hat).max())
        dZ[valid] -= coeff * (a_hat - cos[:, None] * zv) / zn[:, None]
        dA = -coeff * (zv - cos[:, None] * a_hat) / a_norm[:, None]
        _accumulating_backward(params.semantic_map, tape_avg, dA, grads.semantic_map)
    if cfg.use_con:
        c_proj = np.clip(t_hat @ t_hat.T, -1.0, 1.0)
        diff = c_proj - pairwise_cosine(W, W)
        np.fill_diagonal(diff, 0.0)
        con = float(np.abs(diff).sum())
        H = np.sign(diff)
        H = H + H.T
        h_c = (H * c_proj).sum(axis=1, keepdims=True)
        unit = max(unit, cfg.gamma2 * np.abs(H @ t_hat).max())
        dT += cfg.gamma2 * (H @ t_hat - h_c * t_hat) / t_norm[:, None]
    if cfg.use_rank or cfg.use_con:
        _accumulating_backward(params.semantic_map, tape_cls, dT, grads.semantic_map)
    if cfg.use_rank or cfg.use_align:
        d_enc = _accumulating_backward(params.visual_map, tape_vis, dZ, grads.visual_map)
        if params.encoder is not None:
            _accumulating_backward(params.encoder, tape_enc, d_enc, grads.encoder)
    return (rank, align, con, rank + cfg.gamma1 * align + cfg.gamma2 * con), grads.flat, unit


@settings(max_examples=80, deadline=None)
@given(
    s=st.sampled_from([2, 10, 129, 259]),
    with_encoder=st.booleans(),
    terms=st.sampled_from(TERM_MASKS),
    pair_normalize=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
# dead hidden units map both classes onto one row: a zero consistency gradient
@example(s=2, with_encoder=False, terms=("con",), pair_normalize=False, seed=512472)
# the same for the ranking term: every parameter gradient is rounding residue near 1e-18
@example(s=2, with_encoder=True, terms=("rank",), pair_normalize=False, seed=19388)
def test_total_loss_matches_two_pass_oracle(s, with_encoder, terms, pair_normalize, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 12))
    encoder = (5, 5) if with_encoder else None
    params = init_model_params(ModelSpec((5, 6, 3), (4, 6, 3), encoder), seed=0)
    params.flat[:] = rng.uniform(-1.0, 1.0, params.flat.size)  # nonzero biases: no zero rows
    feats = rng.standard_normal((n, 5))
    sem = rng.standard_normal((s, 4))
    labels = (rng.uniform(size=(n, s)) < rng.uniform(0.05, 0.6)).astype(np.int8)
    labels[rng.uniform(size=n) < 0.3] = 0  # rows without positives
    cfg = LossConfig(delta=0.4, gamma1=0.3, gamma2=0.7, pair_normalize=pair_normalize)
    cfg = cfg.with_terms(terms)

    breakdown, grads = total_loss(feats, labels, sem, params, cfg)
    want, want_grad, unit = _total_loss_oracle(feats, labels, sem, params, cfg)
    got = (breakdown.rank, breakdown.align, breakdown.con, breakdown.total)
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-12 * abs(w)
    # Dead units can cancel a gradient to rounding residue that differs between
    # the sides. Both round sums of products scaled by the terms' unit-row
    # gradients, which that cancellation leaves whole, so the bound has a floor
    # of 1e-12 of their largest entry (3000 drawn cases read at most 5.6e-14).
    bound = 1e-12 * max(np.abs(want_grad).max(), unit)
    assert np.abs(grads.flat - want_grad).max() <= bound
    assert total_loss(feats, labels, sem, params, cfg, compute_grads=False) == (breakdown, None)


@pytest.mark.parametrize("with_encoder", [True, False], ids=["encoder", "no_encoder"])
def test_reused_dirty_gradient_store_matches_a_fresh_one(with_encoder):
    """Twenty Adam steps: a store that starts dirty and is reused gets the fresh store's bits."""
    spec = reference_spec(1)
    data = generate(spec)
    params = reference_model_params(spec, 1)
    if not with_encoder:  # the visual map reads the features directly
        sem = params.spec.semantic_map
        params = init_model_params(ModelSpec((spec.v, 24, sem[-1]), sem), seed=1)
    W = data.semantics.seen_rows(data.vocab)
    X, Y = data.train.features, data.train.seen_label_view()
    cfg = LossConfig(gamma1=0.1, gamma2=0.1)
    store = params.zeros_like()
    store.flat[:] = np.random.default_rng(0).standard_normal(store.flat.size)
    adam = init_adam([params.flat])
    for step in range(20):
        rows = slice(32 * step, 32 * step + 32)
        want_bd, want = total_loss(X[rows], Y[rows], W, params, cfg)
        got_bd, got = total_loss(X[rows], Y[rows], W, params, cfg, grads=store)
        assert got is store and got_bd == want_bd
        assert got.flat.tobytes() == want.flat.tobytes()
        adam_step([params.flat], [got.flat], adam, lr=1e-3)
    other = init_model_params(ModelSpec((spec.v, 8), (spec.d, 8)), seed=1)
    with pytest.raises(ValueError, match="gradient store holds"):
        total_loss(X[:4], Y[:4], W, params, cfg, grads=other.zeros_like())


@pytest.mark.parametrize("terms", TERM_MASKS, ids="+".join)
def test_dirty_store_gets_a_fresh_stores_bytes_for_every_term_mask(terms):
    """Nets that run backward write their part of the store; the rest must still read 0."""
    params = init_model_params(ModelSpec((4, 5, 3), (3, 3), (4, 4)), seed=5)
    rng = np.random.default_rng(3)
    params.flat[:] = rng.uniform(-1.0, 1.0, params.flat.size)
    labels = np.array([[1, 0, 1], [0, 0, 0], [0, 1, 0]], dtype=np.int8)
    feats, sem = rng.standard_normal((3, 4)), rng.standard_normal((3, 3))
    cfg = LossConfig().with_terms(terms)
    _, want = total_loss(feats, labels, sem, params, cfg)
    store = params.zeros_like()
    store.flat[:] = rng.standard_normal(store.flat.size)
    _, got = total_loss(feats, labels, sem, params, cfg, grads=store)
    assert got is store and got.flat.tobytes() == want.flat.tobytes()
    # a frozen encoder's part reads +0.0 and the other nets' parts do not change
    store.flat[:] = rng.standard_normal(store.flat.size)
    _, got = total_loss(feats, labels, sem, params, cfg, grads=store, frozen_encoder=True)
    _, fresh = total_loss(feats, labels, sem, params, cfg, frozen_encoder=True)
    n_enc = params.encoder.spec.n_params
    assert got.flat.tobytes() == fresh.flat.tobytes()
    assert got.flat[:n_enc].tobytes() == bytes(8 * n_enc)
    assert got.flat[n_enc:].tobytes() == want.flat[n_enc:].tobytes()


@pytest.mark.parametrize("compute_grads", [True, False], ids=["grads", "values"])
@pytest.mark.parametrize("terms", TERM_MASKS, ids="+".join)
def test_each_net_runs_forward_once_and_backward_at_most_once(monkeypatch, terms, compute_grads):
    params = init_model_params(ModelSpec((4, 5, 3), (3, 3), (4, 4)), seed=5)
    rng = np.random.default_rng(3)
    params.flat[:] = rng.uniform(-1.0, 1.0, params.flat.size)  # nonzero biases: no zero rows
    names = {id(net): name for name, net in params.nets()}
    calls = Counter()

    def counted(kind, fn):
        def wrapper(net, *args):
            calls[kind, names[id(net)]] += 1
            return fn(net, *args)
        return wrapper

    monkeypatch.setattr(losses, "mlp_forward", counted("forward", mlp_forward))
    monkeypatch.setattr(losses, "mlp_backward", counted("backward", mlp_backward))
    labels = np.array([[1, 0, 1], [0, 0, 0], [0, 1, 0]], dtype=np.int8)
    cfg = LossConfig().with_terms(terms)
    total_loss(rng.standard_normal((3, 4)), labels, rng.standard_normal((3, 3)), params, cfg,
               compute_grads=compute_grads)

    towers = ["semantic_map"]
    if "rank" in terms or "align" in terms:
        towers += ["encoder", "visual_map"]
    want = Counter({("forward", name): 1 for name in towers})
    if compute_grads:
        want.update({("backward", name): 1 for name in towers})
    assert calls == want


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
    with pytest.raises(ValueError, match="at least one of rank, align, con"):
        LossConfig().with_terms(())


def test_readme_term_signatures_match_the_code():
    """Each README ``term(...)`` lists exactly the function's parameters without a default."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    for fn in (rank_term, align_term, con_term):
        params = inspect.signature(fn).parameters.values()
        required = [p.name for p in params if p.default is inspect.Parameter.empty]
        listed = [
            [name.strip() for name in args.split(",")]
            for args in re.findall(rf"`{fn.__name__}\(([^)`]*)\)`", readme)
        ]
        assert listed and all(names == required for names in listed), (fn.__name__, listed)


# ----------------------------------------------------------- gradient check

def test_gradient_check_result_is_pinned():
    # Taken from the per-array walk that the flat walk replaced: the same entries
    # are perturbed in the same order, and the worst one has the same name.
    assert run_gradient_check(trials=20, seed=0) == GradcheckResult(
        n_trials=20,
        max_error=6.170389701708483e-07,
        tolerance=1e-4,
        passed=True,
        worst_trial=16,
        worst_array="visual_map.layer1.bias",
        n_resampled=4,
    )


@pytest.mark.parametrize("gap", [1e-9, -1e-9], ids=["above", "below"])
def test_kink_floor_sees_a_hidden_unit_at_its_relu_kink(gap):
    """The check's screen reads every hidden pre-activation, a negative one included."""
    rng = np.random.default_rng(5)
    params = init_model_params(ModelSpec((5, 6, 3), (4, 6, 3)), seed=5)
    F, W = rng.standard_normal((4, 5)), rng.standard_normal((3, 4))
    Y, cfg = np.eye(4, 3), LossConfig()
    assert _kink_floor(params, F, Y, W, cfg) > 1e-6
    net = params.visual_map
    net.biases[0][2] = gap - (F @ net.weights[0])[1, 2]  # unit 2 of row 1 sits at 0 + gap
    assert _kink_floor(params, F, Y, W, cfg) < 1e-8
