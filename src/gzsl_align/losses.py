"""Composite training objective: ranking + alignment + consistency.

Each term is one function of the latent rows that returns its value
and its gradient: :func:`rank_term`, :func:`align_term` and
:func:`con_term`. :func:`total_loss` runs the tower forwards, sums the
terms and chains their gradients back through the recorded forward tapes.
All three terms are differentiable almost everywhere; subgradients at
the hinge and absolute-value kinks are taken as 0.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .networks import ModelParams, mlp_backward, mlp_forward, pairwise_cosine, row_norms
from .records import JsonRecord

TERM_NAMES = ("rank", "align", "con")
CON_BLOCK = 128  # rows per block of the consistency term's class x class walk


@dataclass(frozen=True)
class LossConfig(JsonRecord):
    """Weights and switches of the composite objective.

    ``delta`` is the ranking margin on the cosine scale; ``gamma1`` and
    ``gamma2`` weight the alignment and consistency terms. Disabling a
    term via ``use_*`` removes both its value and its gradients, which is
    how the ablation modes are expressed. ``pair_normalize`` switches the
    per-image ranking loss from the default 1/S normalization to
    1/(|positives|*|negatives|).
    """

    delta: float = 0.5
    gamma1: float = 0.01
    gamma2: float = 0.01
    use_rank: bool = True
    use_align: bool = True
    use_con: bool = True
    pair_normalize: bool = False

    def __post_init__(self):
        if self.delta < 0:
            raise ValueError(f"margin delta must be >= 0, got {self.delta}")
        if self.gamma1 < 0 or self.gamma2 < 0:
            raise ValueError("gamma weights must be >= 0")

    def with_terms(self, terms) -> "LossConfig":
        """Config with exactly the named terms of {rank, align, con} enabled."""
        terms = set(terms)
        unknown = terms - set(TERM_NAMES)
        if unknown:
            raise ValueError(f"unknown loss terms: {sorted(unknown)}")
        return replace(
            self,
            use_rank="rank" in terms,
            use_align="align" in terms,
            use_con="con" in terms,
        )


@dataclass(frozen=True)
class LossBreakdown:
    """Per-term values; disabled terms are 0 and total folds in the gammas."""

    rank: float
    align: float
    con: float
    total: float


def rank_term(
    scores: np.ndarray, labels: np.ndarray, delta: float, pair_normalize: bool
) -> tuple[float, np.ndarray]:
    """Batch margin-ranking loss and its gradient w.r.t. the score matrix.

    Per image: (1/S) * sum over positive p, negative n of
    max(delta + s_n - s_p, 0), or 1/(|positives|*|negatives|) in place of
    1/S with ``pair_normalize``; images lacking positives or negatives
    contribute 0. The batch value is the mean over a nonempty batch.

    A pair (p, n) is active when fl(delta + s_n) > s_p. Sorting each row
    by key (s_p for positives, fl(delta + s_n) for negatives; negatives
    first on ties) puts a positive's active negatives exactly after it
    and a negative's active positives exactly before it, so cumulative
    sums give every count in O(S log S) time and O(S) memory per image.
    """
    P = np.atleast_2d(np.asarray(scores, dtype=np.float64))
    Y = np.atleast_2d(np.asarray(labels))
    if P.shape != Y.shape:
        raise ValueError(f"scores shape {P.shape} != labels shape {Y.shape}")
    n, s = P.shape
    if n == 0:
        raise ValueError("rank_term needs at least one image")
    pos = Y > 0.5
    keys = np.where(pos, P, delta + P)
    order = np.lexsort((pos, keys), axis=-1)
    k_sorted = np.take_along_axis(keys, order, axis=1)
    p_sorted = np.take_along_axis(pos, order, axis=1)
    neg_sorted = ~p_sorted
    # suffix sums over negatives: at a positive, the negatives ranked after it
    negs_after = np.cumsum(neg_sorted[:, ::-1], axis=1)[:, ::-1]
    keys_after = np.cumsum(np.where(neg_sorted, k_sorted, 0.0)[:, ::-1], axis=1)[:, ::-1]
    # prefix counts over positives: at a negative, the positives ranked before it
    pos_before = np.cumsum(p_sorted, axis=1)
    if pair_normalize:
        n_pos = pos.sum(axis=1)
        n_pairs = n_pos * (s - n_pos)
        scale = np.divide(1.0, n_pairs, out=np.zeros(n, dtype=np.float64), where=n_pairs > 0)
    else:
        scale = np.full(n, 1.0 / s)
    hinge = np.where(p_sorted, keys_after - negs_after * k_sorted, 0.0)
    per_image = hinge.sum(axis=1) * scale
    loss = float(per_image.sum() / n)
    counts = np.empty_like(pos_before)
    np.put_along_axis(counts, order, np.where(p_sorted, -negs_after, pos_before), axis=1)
    d_scores = counts * (scale / n)[:, None]
    return loss, d_scores


def align_term(
    z_hat: np.ndarray,
    z_norm: np.ndarray,
    a_hat: np.ndarray,
    a_norm: np.ndarray,
    gamma1: float,
    compute_grads: bool = True,
) -> tuple[float, np.ndarray | None, np.ndarray | None]:
    """Mean of (1 - cosine) over paired visual/semantic latent rows.

    Row i pairs the latent visual of a sample that has at least one
    positive label with the projection of its averaged positive
    semantics; each side comes as unit rows plus their norms. Returns the
    value and the gradients of ``gamma1 * value`` w.r.t. the unnormalized
    visual and semantic rows (both None without ``compute_grads``). An
    empty pairing yields 0.
    """
    if z_hat.shape != a_hat.shape:
        raise ValueError(f"visual shape {z_hat.shape} != semantic shape {a_hat.shape}")
    n = z_hat.shape[0]
    cos = np.clip((z_hat * a_hat).sum(axis=1), -1.0, 1.0)
    value = float(np.mean(1.0 - cos)) if n else 0.0
    if not compute_grads:
        return value, None, None
    coeff = gamma1 / max(n, 1)  # an empty pairing has empty gradients
    d_z = -coeff * (a_hat - cos[:, None] * z_hat) / z_norm[:, None]
    d_a = -coeff * (z_hat - cos[:, None] * a_hat) / a_norm[:, None]
    return value, d_z, d_a


def con_term(
    t_hat: np.ndarray,
    t_norm: np.ndarray,
    target: np.ndarray,
    gamma2: float,
    compute_grads: bool = True,
) -> tuple[float, np.ndarray | None]:
    """L1 drift of pairwise class cosines under the semantic projection.

    ``t_hat`` holds the projected seen-class rows as unit rows, ``t_norm``
    their norms, and ``target`` the fixed cosines of the original rows,
    ``pairwise_cosine(W, W)``. Sums |c_ij - t_ij| over ordered pairs
    i != j, where c_ij = cos(p_i, p_j), so each unordered pair counts
    twice. Returns the value and the gradient of ``gamma2 * value``
    w.r.t. the unnormalized projected rows (None without
    ``compute_grads``); the subgradient of the pair {i, j} is
    sign(c_ij - t_ij) + sign(c_ij - t_ji), for any target.

    The class x class matrix is walked in blocks of ``CON_BLOCK`` rows,
    over the block pairs (I, J >= I) of its upper triangle. Each cosine
    block is computed once and read in both orientations, so the cosine
    matrix is exactly symmetric. Time is O(S^2 d) and memory O(B S) for
    B = CON_BLOCK: a few temporaries of at most B x B besides the (S, d)
    gradient. With S <= B the whole matrix is one diagonal block.
    """
    k = t_hat.shape[0]
    if target.shape != (k, k):
        raise ValueError(f"target shape {target.shape} != ({k}, {k})")
    value = 0.0
    if compute_grads:
        h_t = np.zeros_like(t_hat)  # H @ t_hat
        h_c = np.zeros(k)  # row sums of H * C
    for i0 in range(0, k, CON_BLOCK):
        rows_i = slice(i0, i0 + CON_BLOCK)
        t_i = t_hat[rows_i]
        for j0 in range(i0, k, CON_BLOCK):
            rows_j = slice(j0, j0 + CON_BLOCK)
            t_j = t_hat[rows_j]
            c = np.clip(t_i @ t_j.T, -1.0, 1.0)  # syrk on the diagonal block
            diff = c - target[rows_i, rows_j]
            if j0 == i0:
                np.fill_diagonal(diff, 0.0)
                if compute_grads:
                    H = np.sign(diff)
                    H = H + H.T  # each row appears on both sides of every ordered pair
                    h_t[rows_i] += H @ t_i
                    h_c[rows_i] += (H * c).sum(axis=1)
                value += float(np.abs(diff, out=diff).sum())
                continue
            diff_t = c.T - target[rows_j, rows_i]
            if compute_grads:
                H = np.sign(diff) + np.sign(diff_t).T
                h_t[rows_i] += H @ t_j
                h_t[rows_j] += H.T @ t_i
                H *= c
                h_c[rows_i] += H.sum(axis=1)
                h_c[rows_j] += H.sum(axis=0)
            value += float(np.abs(diff, out=diff).sum()) + float(np.abs(diff_t, out=diff_t).sum())
    if not compute_grads:
        return value, None
    d_t = gamma2 * (h_t - h_c[:, None] * t_hat) / t_norm[:, None]
    return value, d_t


def _cosine_rows_backward(Xhat, xnorm, Yhat, ynorm, C, dC):
    """Gradients of sum(dC * C) where C[i,j] = cos(x_i, y_j)."""
    dX = (dC @ Yhat - (dC * C).sum(axis=1, keepdims=True) * Xhat) / xnorm[:, None]
    dY = (dC.T @ Xhat - (dC * C).sum(axis=0)[:, None] * Yhat) / ynorm[:, None]
    return dX, dY


def total_loss(
    features: np.ndarray,
    labels_seen: np.ndarray,
    semantics_seen: np.ndarray,
    params: ModelParams,
    cfg: LossConfig,
    compute_grads: bool = True,
    semantic_cosines: np.ndarray | None = None,
) -> tuple[LossBreakdown, ModelParams | None]:
    """Composite objective value and exact parameter gradients on one batch.

    Args:
        features: (N, v) visual feature rows.
        labels_seen: (N, S) multi-hot rows over seen classes.
        semantics_seen: (S, d) original semantic rows of the seen classes.
        params: model parameters; the encoder may be absent.
        cfg: term weights and switches.
        compute_grads: skip all backward passes and return None grads
            (evaluation-only calls).
        semantic_cosines: ``pairwise_cosine(semantics_seen, semantics_seen)``,
            the fixed target of the consistency term. Callers that evaluate
            many batches against the same semantics pass it once computed;
            when omitted it is computed here.

    Returns:
        The per-term breakdown and the gradients, a :class:`ModelParams`
        of the same layout whose ``flat`` holds d(total)/d(params.flat).
        Ranking and alignment gradients flow into the encoder and visual
        mapping nets; all three terms reach the semantic mapping net.
    """
    F = np.atleast_2d(np.asarray(features, dtype=np.float64))
    Y = np.atleast_2d(np.asarray(labels_seen))
    W = np.atleast_2d(np.asarray(semantics_seen, dtype=np.float64))
    n = F.shape[0]
    if n == 0:
        raise ValueError("empty batch")
    if Y.shape != (n, W.shape[0]):
        raise ValueError(f"labels shape {Y.shape} != (batch {n}, seen {W.shape[0]})")

    grads = params.zeros_like() if compute_grads else None

    need_visual = cfg.use_rank or cfg.use_align
    need_classes = cfg.use_rank or cfg.use_con

    Z = dZ = tape_enc = tape_vis = None
    if need_visual:
        if params.encoder is not None:
            enc_out, tape_enc = mlp_forward(params.encoder, F)
        else:
            enc_out = F
        Z, tape_vis = mlp_forward(params.visual_map, enc_out)
        z_norm = row_norms(Z, "latent visual")
        Zhat = Z / z_norm[:, None]
        dZ = np.zeros_like(Z)

    T = dT = tape_cls = None
    if need_classes:
        T, tape_cls = mlp_forward(params.semantic_map, W)
        t_norm = row_norms(T, "projected semantic")
        That = T / t_norm[:, None]
        dT = np.zeros_like(T)

    rank_val = 0.0
    if cfg.use_rank:
        scores = np.clip(Zhat @ That.T, -1.0, 1.0)
        rank_val, d_scores = rank_term(scores, Y, cfg.delta, cfg.pair_normalize)
        if compute_grads:
            dZ_r, dT_r = _cosine_rows_backward(Zhat, z_norm, That, t_norm, scores, d_scores)
            dZ += dZ_r
            dT += dT_r

    align_val = 0.0
    if cfg.use_align:
        counts = Y.sum(axis=1)
        valid = counts > 0
        w_bar = (Y[valid].astype(np.float64) @ W) / counts[valid, None]
        A, tape_avg = mlp_forward(params.semantic_map, w_bar)
        a_norm = row_norms(A, "projected averaged semantic")
        align_val, dZ_a, dA = align_term(
            Zhat[valid], z_norm[valid], A / a_norm[:, None], a_norm, cfg.gamma1, compute_grads
        )
        if compute_grads:
            dZ[valid] += dZ_a
            mlp_backward(params.semantic_map, tape_avg, dA, grads.semantic_map)

    con_val = 0.0
    if cfg.use_con:
        target = semantic_cosines
        if target is None:
            target = pairwise_cosine(W, W, "semantic row")
        con_val, dT_c = con_term(That, t_norm, target, cfg.gamma2, compute_grads)
        if compute_grads:
            dT += dT_c

    if compute_grads and need_classes:
        mlp_backward(params.semantic_map, tape_cls, dT, grads.semantic_map)
    if compute_grads and need_visual:
        d_enc_out = mlp_backward(params.visual_map, tape_vis, dZ, grads.visual_map)
        if params.encoder is not None:
            mlp_backward(params.encoder, tape_enc, d_enc_out, grads.encoder)

    total = rank_val + cfg.gamma1 * align_val + cfg.gamma2 * con_val
    return LossBreakdown(rank_val, align_val, con_val, total), grads
