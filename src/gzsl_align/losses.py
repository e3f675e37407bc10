"""Composite training objective: ranking + alignment + consistency.

All three terms are differentiable almost everywhere; gradients with
respect to every network parameter are computed analytically by chaining
cosine-similarity derivatives through the recorded forward tapes.
Subgradients at the hinge and absolute-value kinks are taken as 0.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .networks import ModelParams, mlp_backward, mlp_forward, pairwise_cosine, row_norms

TERM_NAMES = ("rank", "align", "con")


@dataclass(frozen=True)
class LossConfig:
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

    def term_mask(self) -> tuple[bool, bool, bool]:
        return (self.use_rank, self.use_align, self.use_con)


@dataclass(frozen=True)
class LossBreakdown:
    """Per-term values; disabled terms are 0 and total folds in the gammas."""

    rank: float
    align: float
    con: float
    total: float


def relevance_scores(latent_visual: np.ndarray, latent_semantics: np.ndarray) -> np.ndarray:
    """Cosine relevance of a latent visual vector against latent class rows.

    Accepts a single vector (returns shape (S,)) or a batch of row
    vectors (returns (N, S)). Scores land in [-1, 1].
    """
    lv = np.asarray(latent_visual, dtype=np.float64)
    scores = pairwise_cosine(lv, latent_semantics, "latent vector")
    return scores[0] if lv.ndim == 1 else scores


def _rank_loss_and_grad(
    scores: np.ndarray, labels: np.ndarray, delta: float, pair_normalize: bool
) -> tuple[float, np.ndarray]:
    """Batch margin-ranking loss and its gradient w.r.t. the score matrix.

    Per image: (1/S) * sum over positive p, negative n of
    max(delta + s_n - s_p, 0); images lacking positives or negatives
    contribute 0. The batch value is the mean over all images.

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


def ranking_loss_image(scores: np.ndarray, labels: np.ndarray, delta: float = 0.5,
                       pair_normalize: bool = False) -> float:
    """Margin-ranking penalty of a single image's score vector."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1:
        raise ValueError("ranking_loss_image expects a single score vector")
    loss, _ = _rank_loss_and_grad(scores[None, :], np.asarray(labels)[None, :], delta, pair_normalize)
    return loss


def ranking_loss_batch(scores, labels, delta: float = 0.5, pair_normalize: bool = False) -> float:
    """Mean of the per-image ranking penalties over a nonempty batch."""
    P = np.atleast_2d(np.asarray(scores, dtype=np.float64))
    if P.shape[0] == 0:
        raise ValueError("ranking_loss_batch needs at least one image")
    loss, _ = _rank_loss_and_grad(P, np.atleast_2d(np.asarray(labels)), delta, pair_normalize)
    return loss


def alignment_loss(latent_visuals, projected_semantics) -> float:
    """Mean of (1 - cosine) over paired visual/semantic latent vectors.

    Callers pass only pairs for samples that have at least one positive
    label; an empty pairing yields 0.
    """
    Z = np.atleast_2d(np.asarray(latent_visuals, dtype=np.float64))
    A = np.atleast_2d(np.asarray(projected_semantics, dtype=np.float64))
    if Z.shape != A.shape:
        raise ValueError(f"visual shape {Z.shape} != semantic shape {A.shape}")
    if Z.shape[0] == 0:
        return 0.0
    zn = row_norms(Z, "latent visual")
    an = row_norms(A, "projected semantic")
    cos = np.clip((Z * A).sum(axis=1) / (zn * an), -1.0, 1.0)
    return float(np.mean(1.0 - cos))


def consistency_loss(original_rows: np.ndarray, projected_rows: np.ndarray) -> float:
    """L1 drift of pairwise class cosines under the semantic projection.

    Sums |cos(w_i, w_j) - cos(p_i, p_j)| over ordered pairs i != j, so
    each unordered pair counts twice. Exactly 0 whenever the projection
    preserves all pairwise cosines.
    """
    W = np.atleast_2d(np.asarray(original_rows, dtype=np.float64))
    P = np.atleast_2d(np.asarray(projected_rows, dtype=np.float64))
    if W.shape[0] != P.shape[0]:
        raise ValueError(f"{W.shape[0]} original rows vs {P.shape[0]} projected rows")
    if W.shape[0] < 2:
        raise ValueError("consistency needs at least 2 classes")
    c_orig = pairwise_cosine(W, W, "semantic row")
    c_proj = pairwise_cosine(P, P, "projected row")
    diff = np.abs(c_orig - c_proj)
    np.fill_diagonal(diff, 0.0)
    return float(diff.sum())


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
        rank_val, d_scores = _rank_loss_and_grad(scores, Y, cfg.delta, cfg.pair_normalize)
        if compute_grads:
            dZ_r, dT_r = _cosine_rows_backward(Zhat, z_norm, That, t_norm, scores, d_scores)
            dZ += dZ_r
            dT += dT_r

    align_val = 0.0
    if cfg.use_align:
        counts = Y.sum(axis=1)
        valid = counts > 0
        n_valid = int(valid.sum())
        if n_valid > 0:
            w_bar = (Y[valid].astype(np.float64) @ W) / counts[valid, None]
            A, tape_avg = mlp_forward(params.semantic_map, w_bar)
            a_norm = row_norms(A, "projected averaged semantic")
            Ahat = A / a_norm[:, None]
            Zv, zv_norm = Zhat[valid], z_norm[valid]
            cos = np.clip((Zv * Ahat).sum(axis=1), -1.0, 1.0)
            align_val = float(np.mean(1.0 - cos))
            if compute_grads:
                coeff = cfg.gamma1 / n_valid
                dZ[valid] += -coeff * (Ahat - cos[:, None] * Zv) / zv_norm[:, None]
                dA = -coeff * (Zv - cos[:, None] * Ahat) / a_norm[:, None]
                g_avg, _ = mlp_backward(params.semantic_map, tape_avg, dA)
                for acc, g in zip(grads.semantic_map.arrays(), g_avg):
                    acc += g

    con_val = 0.0
    if cfg.use_con:
        c_orig = semantic_cosines
        if c_orig is None:
            c_orig = pairwise_cosine(W, W, "semantic row")
        c_proj = np.clip(That @ That.T, -1.0, 1.0)
        diff = c_proj - c_orig
        np.fill_diagonal(diff, 0.0)
        con_val = float(np.abs(diff).sum())
        if compute_grads:
            H = np.sign(diff)
            H = H + H.T  # each row appears on both sides of every ordered pair
            dT += cfg.gamma2 * (
                H @ That - (H * c_proj).sum(axis=1, keepdims=True) * That
            ) / t_norm[:, None]

    if compute_grads and need_classes:
        g_cls, _ = mlp_backward(params.semantic_map, tape_cls, dT)
        for acc, g in zip(grads.semantic_map.arrays(), g_cls):
            acc += g
    if compute_grads and need_visual:
        g_vis, d_enc_out = mlp_backward(params.visual_map, tape_vis, dZ)
        for acc, g in zip(grads.visual_map.arrays(), g_vis):
            acc += g
        if params.encoder is not None:
            g_enc, _ = mlp_backward(params.encoder, tape_enc, d_enc_out)
            for acc, g in zip(grads.encoder.arrays(), g_enc):
                acc += g

    total = rank_val + cfg.gamma1 * align_val + cfg.gamma2 * con_val
    return LossBreakdown(rank_val, align_val, con_val, total), grads
