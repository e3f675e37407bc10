"""Composite training objective: ranking + alignment + consistency.

Each term is one function of unit latent rows that returns its value
and its gradient w.r.t. those rows: :func:`rank_term`, :func:`align_term`
and :func:`con_term`. :func:`total_loss` makes one pass per tower: one
forward, one normalization, and one backward that takes the summed
unit-row gradients through the normalization and the recorded tape.
All three terms are differentiable almost everywhere; subgradients at
the hinge and absolute-value kinks are taken as 0.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .exceptions import DegenerateVectorError
from .networks import ModelParams, mlp_backward, mlp_forward, pairwise_cosine, row_norms
from .records import JsonRecord, check_finite

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
        check_finite(self)
        if self.delta < 0:
            raise ValueError(f"margin delta must be >= 0, got {self.delta}")
        if self.gamma1 < 0 or self.gamma2 < 0:
            raise ValueError("gamma weights must be >= 0")
        if not (self.use_rank or self.use_align or self.use_con):
            raise ValueError("the loss must use at least one of rank, align, con")

    def with_terms(self, terms) -> "LossConfig":
        """Config with exactly the named terms of {rank, align, con} enabled."""
        return replace(self, **term_switches(terms))


def term_switches(terms) -> dict[str, bool]:
    """The ``use_*`` fields that enable exactly the named terms; ValueError on an unknown name."""
    terms = set(terms)
    unknown = terms - set(TERM_NAMES)
    if unknown:
        raise ValueError(f"unknown loss terms {sorted(unknown)}; valid: {', '.join(TERM_NAMES)}")
    return {f"use_{t}": t in terms for t in TERM_NAMES}


@dataclass(frozen=True)
class LossBreakdown:
    """Per-term values; disabled terms are 0 and total folds in the gammas."""

    rank: float
    align: float
    con: float
    total: float


def rank_term(
    scores: np.ndarray,
    labels: np.ndarray,
    delta: float,
    pair_normalize: bool,
    compute_grads: bool = True,
) -> tuple[float, np.ndarray | None]:
    """Batch margin-ranking loss and its gradient w.r.t. the score matrix.

    Per image: (1/S) * sum over positive p, negative n of
    max(delta + s_n - s_p, 0), or 1/(|positives|*|negatives|) in place of
    1/S with ``pair_normalize``; images lacking positives or negatives
    contribute 0. The batch value is the mean over a nonempty batch. The
    gradient is None without ``compute_grads``.

    A pair (p, n) is active when fl(delta + s_n) > s_p. Sorting each row
    by key (s_p for positives, fl(delta + s_n) for negatives; negatives
    first on ties) puts a positive's active negatives exactly after it
    and a negative's active positives exactly before it, so cumulative
    sums give every count in O(S log S) time and O(S) memory per image.
    Rows are argsorted by key; those with a positive ahead of an equal key
    are re-sorted by (key, label). Items sharing a key and a label add equal
    values and counts, so their order cannot change a bit of the result.
    """
    P = _rows(scores, np.float64)
    Y = _rows(labels)
    if P.shape != Y.shape:
        raise ValueError(f"scores shape {P.shape} != labels shape {Y.shape}")
    n, s = P.shape
    if n == 0:
        raise ValueError("rank_term needs at least one image")
    pos = Y > 0.5
    keys = np.where(pos, P, delta + P)
    # each row's sort order as indices into the flattened (n, s) matrix
    order = keys.argsort(axis=-1)
    order += np.arange(0, n * s, s)[:, None]
    k_sorted = keys.take(order)
    p_sorted = pos.take(order)
    # where a positive sits just ahead of a negative whose key is not above its own
    rising = k_sorted[:, 1:] > k_sorted[:, :-1]
    tied = p_sorted[:, :-1] > (p_sorted[:, 1:] | rising)
    if tied.any():  # re-sort those rows with negatives first on equal keys
        rows = np.flatnonzero(tied.any(axis=1))
        order[rows] = np.lexsort((pos[rows], keys[rows]), axis=-1) + rows[:, None] * s
        k_sorted[rows] = keys.take(order[rows])
        p_sorted[rows] = pos.take(order[rows])
    neg_sorted = ~p_sorted
    # suffix sums over negatives: at a positive, the negatives ranked after it
    negs_after = np.add.accumulate(neg_sorted[:, ::-1], axis=1)[:, ::-1]
    keys_after = np.add.accumulate(np.where(neg_sorted, k_sorted, 0.0)[:, ::-1], axis=1)[:, ::-1]
    if pair_normalize:
        n_pos = np.add.reduce(pos, axis=1)
        n_pairs = n_pos * (s - n_pos)
        scale = np.divide(1.0, n_pairs, out=np.zeros(n, dtype=np.float64), where=n_pairs > 0)
    else:
        scale = 1.0 / s  # the same for every image
    hinge = np.where(p_sorted, keys_after - negs_after * k_sorted, 0.0)
    per_image = np.add.reduce(hinge, axis=1) * scale
    loss = float(np.add.reduce(per_image) / n)
    if not compute_grads:
        return loss, None
    # prefix counts over positives: at a negative, the positives ranked before it
    pos_before = np.add.accumulate(p_sorted, axis=1)
    counts = np.empty_like(pos_before)
    counts.put(order, np.where(p_sorted, -negs_after, pos_before))
    d_scores = counts * ((scale / n)[:, None] if pair_normalize else scale / n)
    return loss, d_scores


def align_term(
    z_hat: np.ndarray, a_hat: np.ndarray, gamma1: float
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean of (1 - cosine) over paired visual/semantic unit rows.

    Row i pairs the latent visual of a sample that has at least one
    positive label with the projection of its averaged positive
    semantics. Returns the value and the gradients of ``gamma1 * value``
    w.r.t. the unit rows ``z_hat`` and ``a_hat``. An empty pairing yields 0.
    """
    if z_hat.shape != a_hat.shape:
        raise ValueError(f"visual shape {z_hat.shape} != semantic shape {a_hat.shape}")
    n = z_hat.shape[0]
    cos = np.add.reduce(z_hat * a_hat, axis=1)
    np.minimum(np.maximum(cos, -1.0, out=cos), 1.0, out=cos)
    value = float(np.add.reduce(1.0 - cos) / n) if n else 0.0
    coeff = -gamma1 / (n or 1)  # an empty pairing has empty gradients
    return value, coeff * a_hat, coeff * z_hat


def con_term(
    t_hat: np.ndarray, target: np.ndarray, gamma2: float, compute_grads: bool = True
) -> tuple[float, np.ndarray | None]:
    """L1 drift of pairwise class cosines under the semantic projection.

    ``t_hat`` holds the projected seen-class rows as unit rows, and
    ``target`` the fixed cosines of the original rows; it must be
    symmetric, as ``pairwise_cosine(W, W)`` is. Sums |c_ij - t_ij| over
    ordered pairs i != j, where c_ij = t_hat_i . t_hat_j, so each
    unordered pair counts twice. Returns the value and the gradient of
    ``gamma2 * value`` w.r.t. the unit rows (None without
    ``compute_grads``); the subgradient of the pair {i, j} is
    2 sign(c_ij - t_ij). Where rounding puts t_hat_i . t_hat_j past +-1,
    c_ij is clipped and the pair has no slope (two classes projected onto
    one row would otherwise leave a gradient residue of machine-epsilon size).

    The class x class matrix is walked in blocks of ``CON_BLOCK`` rows,
    over the block pairs (I, J >= I) of its upper triangle. A block off
    the diagonal also stands for its mirror: its sum counts twice and its
    slopes reach both row blocks. Time is O(S^2 d) and memory O(B S) for
    B = CON_BLOCK: a few temporaries of at most B x B besides the (S, d)
    gradient. With S <= B the whole matrix is one diagonal block.

    Each block's cosines become its differences in place. A diagonal
    block's self-cosines are zeroed first, since rounding often puts them
    past 1 and they have no term. Only a block whose maximum or minimum
    then lies outside [-1, 1] is clipped and has its cut pairs' slopes
    zeroed. The slopes are one sign pass, and their factor 2 joins
    ``gamma2`` in the final scale; doubling is exact, so the bits are
    those of 2 sign(diff) summed block by block.
    """
    k = t_hat.shape[0]
    if target.shape != (k, k):
        raise ValueError(f"target shape {target.shape} != ({k}, {k})")
    value = 0.0
    d_t = np.zeros(t_hat.shape) if compute_grads else None  # H @ t_hat, H without its 2
    for i0 in range(0, k, CON_BLOCK):
        rows_i = slice(i0, i0 + CON_BLOCK)
        t_i = t_hat[rows_i]
        for j0 in range(i0, k, CON_BLOCK):
            rows_j = slice(j0, j0 + CON_BLOCK)
            t_j = t_hat[rows_j]
            diff = t_i @ t_j.T  # syrk on the diagonal block
            if j0 == i0:
                diff.flat[:: diff.shape[1] + 1] = 0.0
            cut = None  # fmax and fmin skip a NaN, which would hide a cosine past +-1
            if np.fmax.reduce(diff, axis=None) > 1.0 or np.fmin.reduce(diff, axis=None) < -1.0:
                cut = _clip_cut(diff)
            diff -= target[rows_i, rows_j]
            if j0 == i0:  # the self-pairs' differences, -t_ii, have no term either
                diff.flat[:: diff.shape[1] + 1] = 0.0
            if compute_grads:
                H = np.sign(diff)
                if cut is not None:
                    H[cut] = 0.0
                d_t[rows_i] += H @ t_j
                if j0 != i0:
                    d_t[rows_j] += H.T @ t_i
            l1 = float(np.add.reduce(np.abs(diff, out=diff), axis=None))
            value += l1 if j0 == i0 else 2.0 * l1
    if compute_grads:
        d_t *= 2.0 * gamma2
    return value, d_t


def _clip_cut(c: np.ndarray) -> np.ndarray:
    """Clip cosines to [-1, 1] in place; return where they lay past +-1 (the pairs with no slope)."""
    cut = np.abs(c) > 1.0
    np.minimum(np.maximum(c, -1.0, out=c), 1.0, out=c)
    return cut


def _rows(x, dtype=None) -> np.ndarray:
    """``x`` as an array of rows; a 0-D or 1-D input is one row, as ``np.atleast_2d`` makes it."""
    a = np.asarray(x, dtype=dtype)
    return a if a.ndim > 1 else a.reshape(1, -1)


def _unit_rows_backward(g: np.ndarray, x_hat: np.ndarray, x_norm: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. x from ``g``, the gradient w.r.t. x_hat = x / |x|, in place."""
    g -= np.add.reduce(g * x_hat, axis=1, keepdims=True) * x_hat
    g /= x_norm[:, None]
    return g


def total_loss(
    features: np.ndarray,
    labels_seen: np.ndarray,
    semantics_seen: np.ndarray,
    params: ModelParams,
    cfg: LossConfig,
    compute_grads: bool = True,
    semantic_cosines: np.ndarray | None = None,
    *,
    grads: ModelParams | None = None,
    frozen_encoder: bool = False,
) -> tuple[LossBreakdown, ModelParams | None]:
    """Composite objective value and exact parameter gradients on one batch.

    Args:
        features: (N, v) visual feature rows.
        labels_seen: (N, S) multi-hot rows over seen classes.
        semantics_seen: (S, d) original semantic rows of the seen classes.
        params: model parameters; the encoder may be absent.
        cfg: term weights and switches.
        compute_grads: skip all backward passes and return None grads
            (evaluation-only calls). Such a call records no forward tape
            and builds no term gradient.
        semantic_cosines: ``pairwise_cosine(semantics_seen, semantics_seen)``,
            the fixed, exactly symmetric target of the consistency term.
            Callers that evaluate many batches against the same semantics
            pass it once computed; when omitted it is computed here.
        grads: a gradient store of ``params``' layout to fill in place of
            a new one, so a training loop allocates it once. Each net's
            backward writes its part; the store is zeroed first only
            when the visual tower is skipped.
        frozen_encoder: the encoder does not train. Its backward and the
            visual map's input gradient are skipped, and the encoder's
            part of the gradient is 0.

    Returns:
        The per-term breakdown and the gradients, a :class:`ModelParams`
        of the same layout whose ``flat`` holds d(total)/d(params.flat).
        Ranking and alignment gradients flow into the encoder and visual
        mapping nets; all three terms reach the semantic mapping net.

    Each net runs forward once and backward at most once. The semantic
    map runs over one stacked input: the seen rows (for rank or con),
    then the averaged positive rows of each sample that has a positive
    (for align). Each tower output is normalized once; the terms return
    gradients w.r.t. the unit rows, which are summed per tower and taken
    through one normalization backward.
    """
    F = _rows(features, np.float64)
    Y = _rows(labels_seen)
    W = _rows(semantics_seen, np.float64)
    n = F.shape[0]
    if n == 0:
        raise ValueError("empty batch")
    if Y.shape != (n, W.shape[0]):
        raise ValueError(f"labels shape {Y.shape} != (batch {n}, seen {W.shape[0]})")

    need_visual = cfg.use_rank or cfg.use_align
    n_cls = W.shape[0] if cfg.use_rank or cfg.use_con else 0  # class rows in the stack
    if not compute_grads:
        grads = None
    elif grads is None:
        grads = params.zeros_like()
    elif grads.flat.shape != params.flat.shape:
        raise ValueError(
            f"gradient store holds {grads.flat.size} values, params {params.flat.size}"
        )
    elif not need_visual:  # each backward below writes its net's part of the store
        grads.flat.fill(0.0)
    train_encoder = params.encoder is not None and not frozen_encoder
    if grads is not None and frozen_encoder and params.encoder is not None:
        grads.flat[: params.encoder.spec.n_params] = 0.0  # the encoder leads flat

    if need_visual:
        enc_out, tape_enc = (
            (F, None) if params.encoder is None
            else mlp_forward(params.encoder, F, compute_grads)
        )
        Z, tape_vis = mlp_forward(params.visual_map, enc_out, compute_grads)
        z_norm = row_norms(Z, "latent visual")
        z_hat = Z / z_norm[:, None]
        d_z = np.zeros(Z.shape) if compute_grads else None

    n_avg = 0  # samples that take an averaged row: those with a positive
    if cfg.use_align:
        counts = np.add.reduce(Y, axis=1)
        valid = counts > 0
        n_avg = int(np.add.reduce(valid))
        if n_avg == n:  # the usual case: a slice, so no gathers or scatters
            valid = slice(None)
    sem_in = np.empty((n_cls + n_avg, W.shape[1]))
    sem_in[:n_cls] = W[:n_cls]
    if n_avg:
        np.matmul(Y[valid].astype(np.float64), W, out=sem_in[n_cls:])
        sem_in[n_cls:] /= counts[valid, None]  # each sample's w_bar
    T, tape_sem = mlp_forward(params.semantic_map, sem_in, compute_grads)
    try:
        t_norm = row_norms(T)
    except DegenerateVectorError:  # name the part that holds the zero row
        row_norms(T[:n_cls], "projected semantic")
        row_norms(T[n_cls:], "projected averaged semantic")
        raise
    t_hat = T / t_norm[:, None]
    d_t = np.zeros(T.shape) if compute_grads else None

    rank_val = 0.0
    if cfg.use_rank:
        scores = z_hat @ t_hat[:n_cls].T
        np.minimum(np.maximum(scores, -1.0, out=scores), 1.0, out=scores)
        rank_val, d_scores = rank_term(scores, Y, cfg.delta, cfg.pair_normalize, compute_grads)
        if compute_grads:
            d_z += d_scores @ t_hat[:n_cls]
            d_t[:n_cls] += d_scores.T @ z_hat

    align_val = 0.0
    if cfg.use_align:
        align_val, d_z_a, d_a = align_term(z_hat[valid], t_hat[n_cls:], cfg.gamma1)
        if compute_grads:
            d_z[valid] += d_z_a
            d_t[n_cls:] += d_a

    con_val = 0.0
    if cfg.use_con:
        if semantic_cosines is None:
            semantic_cosines = pairwise_cosine(W, W, "semantic row")
        con_val, d_t_c = con_term(t_hat[:n_cls], semantic_cosines, cfg.gamma2, compute_grads)
        if compute_grads:
            d_t[:n_cls] += d_t_c

    if compute_grads:
        g = _unit_rows_backward(d_t, t_hat, t_norm)
        mlp_backward(params.semantic_map, tape_sem, g, grads.semantic_map, False)
    if compute_grads and need_visual:
        g = _unit_rows_backward(d_z, z_hat, z_norm)
        d_enc_out = mlp_backward(params.visual_map, tape_vis, g, grads.visual_map, train_encoder)
        if train_encoder:
            mlp_backward(params.encoder, tape_enc, d_enc_out, grads.encoder, False)

    total = rank_val + cfg.gamma1 * align_val + cfg.gamma2 * con_val
    return LossBreakdown(rank_val, align_val, con_val, total), grads
