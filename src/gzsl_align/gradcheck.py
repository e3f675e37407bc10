"""Finite-difference verification of the objective's analytic gradients.

Central differences in 64-bit arithmetic agree with the analytic
gradients to high precision only away from the objective's kinks (ReLU,
hinge, the consistency absolute value). Each random trial is therefore
screened: configurations where any kink quantity sits closer to zero
than a safety margin are resampled before checking, so a failure
signals a wrong gradient rather than a crossed kink.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateVectorError
from .losses import LossConfig, total_loss
from .networks import (
    ModelParams,
    ModelSpec,
    init_model_params,
    mlp_forward,
    pairwise_cosine,
    row_norms,
)

DEFAULT_STEP = 1e-5
DEFAULT_TOLERANCE = 1e-4
KINK_MARGIN = 1e-3
MAX_RESAMPLES = 200  # kink-unsafe draws allowed per trial before giving up


@dataclass(frozen=True)
class GradcheckResult:
    """Outcome of one verification sweep."""

    n_trials: int
    max_error: float
    tolerance: float
    passed: bool
    worst_trial: int
    worst_array: str
    n_resampled: int


def _random_setup(rng: np.random.Generator):
    """One random small model, batch, and loss config."""
    v = int(rng.integers(3, 9))
    d = int(rng.integers(3, 9))
    latent = int(rng.integers(2, 5))
    s = int(rng.integers(2, 5))
    n = int(rng.integers(1, 5))

    def dims(d_in: int) -> tuple[int, ...]:
        if rng.random() < 0.5:
            return (d_in, int(rng.integers(2, 7)), latent)
        return (d_in, latent)

    with_encoder = bool(rng.random() < 0.5)
    encoder = dims(v)[:-1] + (v,) if with_encoder else None
    spec = ModelSpec(visual_map=dims(v), semantic_map=dims(d), encoder=encoder)
    params = init_model_params(spec, int(rng.integers(0, 2**31)))

    F = rng.standard_normal((n, v))
    W = rng.standard_normal((s, d))
    Y = (rng.random((n, s)) < 0.5).astype(np.float64)
    cfg = LossConfig(
        delta=float(rng.uniform(0.1, 0.8)),
        gamma1=float(rng.uniform(0.01, 0.5)),
        gamma2=float(rng.uniform(0.01, 0.5)),
        pair_normalize=bool(rng.random() < 0.25),
    )
    return params, F, Y, W, cfg


def _kink_floor(params: ModelParams, F, Y, W, cfg: LossConfig) -> float:
    """Distance of the configuration from the nearest non-smooth point.

    Checks every hidden ReLU pre-activation, every hinge margin over
    positive/negative pairs, every off-diagonal consistency difference,
    and the latent norms (small norms amplify finite-difference error).
    A degenerate (zero-norm) latent counts as margin 0.

    The screen needs the smallest |margin| over all pairs, which
    rank_term never forms: it counts active pairs by sorting. Every trial
    has S <= 4 seen classes, so the dense (N, S, S) margins and (S, S)
    drifts cost nothing here, and the screen stays separate from the terms.
    """
    floor = np.inf

    def feed(net, x):
        nonlocal floor
        out, tape = mlp_forward(net, np.atleast_2d(x))
        for a, w, b in zip(tape[:-1], net.weights, net.biases):
            z = a @ w  # the hidden pre-activation, negative units included
            z += b
            if z.size:
                floor = min(floor, float(np.min(np.abs(z))))
        return out

    try:
        enc_out = feed(params.encoder, F) if params.encoder is not None else np.atleast_2d(F)
        Z = feed(params.visual_map, enc_out)
        T = feed(params.semantic_map, W)
        floor = min(floor, float(row_norms(Z, "latent").min()) * 0.1)
        floor = min(floor, float(row_norms(T, "latent").min()) * 0.1)

        P = pairwise_cosine(Z, T)
        pos = np.atleast_2d(Y) > 0.5
        margins = cfg.delta + P[:, None, :] - P[:, :, None]
        pair_mask = pos[:, :, None] & ~pos[:, None, :]
        if pair_mask.any():
            floor = min(floor, float(np.min(np.abs(margins[pair_mask]))))

        counts = np.atleast_2d(Y).sum(axis=1)
        valid = counts > 0
        if valid.any():
            w_bar = (np.atleast_2d(Y)[valid] @ np.atleast_2d(W)) / counts[valid, None]
            A = feed(params.semantic_map, w_bar)
            floor = min(floor, float(row_norms(A, "latent").min()) * 0.1)

        c_orig = pairwise_cosine(np.atleast_2d(W), np.atleast_2d(W))
        c_proj = pairwise_cosine(T, T)
    except DegenerateVectorError:
        return 0.0
    diff = np.abs(c_proj - c_orig)
    np.fill_diagonal(diff, np.inf)
    return min(floor, float(diff.min()))


def run_gradient_check(
    trials: int = 100,
    seed: int = 0,
    tolerance: float = DEFAULT_TOLERANCE,
) -> GradcheckResult:
    """Compare analytic gradients against central differences.

    The error measure is |analytic - fd| / (max(|analytic|, |fd|) + 1e-3):
    relative for large gradients, absolute near zero where a pure ratio
    would be meaningless. Raises ValueError for fewer than one trial or a
    tolerance that is not finite and positive, which would check nothing.
    """
    if trials < 1 or not (np.isfinite(tolerance) and tolerance > 0):
        raise ValueError(f"need trials >= 1 and a finite tolerance > 0, got {trials}, {tolerance}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    max_err = 0.0
    worst_trial = -1
    worst_array = ""
    resampled = 0

    for trial in range(trials):
        for _ in range(MAX_RESAMPLES):
            setup = _random_setup(rng)
            if _kink_floor(*setup) > KINK_MARGIN:
                break
            resampled += 1
        else:
            raise RuntimeError(
                f"could not sample a kink-safe configuration in {MAX_RESAMPLES} tries"
            )
        params, F, Y, W, cfg = setup
        _, grads = total_loss(F, Y, W, params, cfg)
        flat, gflat = params.flat, grads.flat
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + DEFAULT_STEP
            up, _ = total_loss(F, Y, W, params, cfg, compute_grads=False)
            flat[i] = keep - DEFAULT_STEP
            dn, _ = total_loss(F, Y, W, params, cfg, compute_grads=False)
            flat[i] = keep
            fd = (up.total - dn.total) / (2.0 * DEFAULT_STEP)
            err = abs(gflat[i] - fd) / (max(abs(gflat[i]), abs(fd)) + 1e-3)
            if err > max_err:
                max_err = err
                worst_trial = trial
                worst_array = params.array_name(i)
    return GradcheckResult(
        n_trials=trials,
        max_error=float(max_err),
        tolerance=tolerance,
        passed=bool(max_err < tolerance),
        worst_trial=worst_trial,
        worst_array=worst_array,
        n_resampled=resampled,
    )
