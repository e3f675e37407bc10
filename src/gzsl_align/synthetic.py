"""Synthetic GZSL benchmark with known ground-truth structure.

The generator draws seen-class semantics as a centered random frame
(zero mean, constant pairwise cosine), builds unseen-class semantics as
jittered convex combinations of seen ones (so unseen classes are
honestly inferable from seen structure), and renders features through a
fixed random linear map plus Gaussian noise. Because the map, the noise
and the label prior are known, a ground-truth scoring rule
(posterior-mean de-noising, cosine scoring against the true semantics)
provides a per-class reference AUROC that trained models can approach
but not materially exceed. Centering matters here: a common direction
shared by all classes would inflate every cosine and hand trained
models a learnable edge over the fixed rule.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import comb

import numpy as np

from .data import (
    ClassVocabulary,
    DataBundle,
    Dataset,
    LabelSpace,
    SemanticMatrix,
)
from .losses import LossConfig
from .metrics import per_class_auroc
from .networks import ModelParams, init_model_params, pairwise_cosine
from .records import JsonRecord, check_finite
from .training import EncoderMode, TrainConfig, default_model_spec

REFERENCE_SEEDS = (1, 2, 3, 4, 5)

# Reference-run hyperparameters, calibrated once on the committed
# benchmark runs and then frozen; see reference_train_config.
REFERENCE_LR = 1e-3
REFERENCE_GAMMA = 0.1

# Most label subsets true_scores enumerates for its prior: the reference
# spec has 3472 (14 classes, up to 5 labels), a 1006-class spec 8.5e12.
MAX_REFERENCE_SUBSETS = 10_000


@dataclass(frozen=True)
class SemanticGeometry(JsonRecord):
    """Knobs for the inter-class cosine structure.

    Seen classes form a centered random frame (orthonormal when the
    seen count fits the semantic dimension), so their pairwise cosine is
    the constant -1/(S-1) and their mean is zero. Unseen classes combine
    ``parents_min``..``parents_max`` seen classes with Dirichlet weights
    and receive a perturbation of norm ``jitter`` before renormalization.
    """

    parents_min: int = 2
    parents_max: int = 3
    jitter: float = 0.05

    def __post_init__(self):
        check_finite(self)
        if not 1 <= self.parents_min <= self.parents_max:
            raise ValueError("need 1 <= parents_min <= parents_max")
        if self.jitter < 0:
            raise ValueError(f"jitter must be >= 0, got {self.jitter}")


@dataclass(frozen=True)
class SynthSpec(JsonRecord):
    """Benchmark size, geometry, and noise; 2000/300/700 keeps 70/10/20."""

    n_classes: int = 14
    n_seen: int = 10
    d: int = 16
    v: int = 32
    n_train: int = 2000
    n_val: int = 300
    n_test: int = 700
    geometry: SemanticGeometry = field(default_factory=SemanticGeometry)
    noise_sigma: float = 0.3
    max_labels_per_sample: int = 5
    seed: int = 0

    def __post_init__(self):
        check_finite(self)
        if not 2 <= self.n_seen < self.n_classes:
            raise ValueError(f"need 2 <= n_seen < n_classes, got {self.n_seen}/{self.n_classes}")
        for name in ("d", "v", "n_train", "n_val", "n_test"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.noise_sigma < 0:
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if not 1 <= self.max_labels_per_sample <= self.n_seen:
            raise ValueError(
                f"max_labels_per_sample={self.max_labels_per_sample} infeasible: "
                f"the training split draws from {self.n_seen} seen classes"
            )
        if self.geometry.parents_max > self.n_seen:
            raise ValueError("parents_max exceeds the number of seen classes")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def _unit(x: np.ndarray) -> np.ndarray:
    return x / np.sqrt(np.add.reduce(x * x))


def _orthonormal_rows(gauss: np.ndarray) -> np.ndarray:
    """Q of ``gauss = QR`` with a positive diagonal, transposed, by modified Gram–Schmidt."""
    q = gauss.T.copy()
    for j in range(len(q)):
        q[j] = _unit(q[j])
        q[j + 1 :] -= np.add.reduce(q[j + 1 :] * q[j], axis=1)[:, None] * q[j]
    return q


def _draw_semantics(spec: SynthSpec, rng: np.random.Generator) -> np.ndarray:
    """Seen rows as a centered random frame, unseen rows from seen parents.

    Every sum is an explicit ``np.add.reduce``, with no BLAS product, so
    the rows are the same bits on any OpenBLAS kernel.
    """
    g = spec.geometry
    rows = np.empty((spec.n_classes, spec.d))
    gauss = rng.standard_normal((spec.d, spec.n_seen))
    if spec.n_seen <= spec.d:
        frame = _orthonormal_rows(gauss)
    else:
        frame = gauss.T / np.linalg.norm(gauss.T, axis=1, keepdims=True)
    centered = frame - frame.mean(axis=0)
    rows[: spec.n_seen] = centered / np.linalg.norm(centered, axis=1, keepdims=True)
    for i in range(spec.n_seen, spec.n_classes):
        k = int(rng.integers(g.parents_min, g.parents_max + 1))
        parents = rng.choice(spec.n_seen, size=k, replace=False)
        weights = rng.dirichlet(np.ones(k))
        combo = np.add.reduce(weights[:, None] * rows[parents], axis=0)
        rows[i] = _unit(combo + g.jitter * _unit(rng.standard_normal(spec.d)))
    return rows


def _feature_map(spec: SynthSpec, rng: np.random.Generator) -> np.ndarray:
    """Fixed (v, d) linear lift with roughly norm-preserving columns."""
    return rng.standard_normal((spec.v, spec.d)) / np.sqrt(spec.d)


def _draw_split(
    n: int,
    n_allowed: int,
    semantics: np.ndarray,
    lift: np.ndarray,
    sigma: float,
    max_labels: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Features and int8 0/1 labels of ``n`` samples over classes 0..n_allowed-1.

    The stream gives, in order: all ``n`` positive counts,
    ``integers(1, max_labels + 1, size=n)``; then the classes by Floyd's
    algorithm one label slot at a time: for slot t, each sample whose
    count k exceeds t, in row order, draws ``integers(0, j + 1)`` with
    ``j = n_allowed - k + t`` and picks ``j`` if the draw repeats one of
    its earlier picks, else the draw; then, when ``sigma > 0``, the
    feature noise. So the count is uniform on 1..max_labels and every
    k-subset of the allowed classes is equally likely.

    w̄ starts at 0.0 and adds a sample's class rows in class order
    before it is divided by the count, and the features sum
    ``w̄[:, t] ⊗ lift[:, t]`` for t = 0..d-1 in order. No sum goes
    through BLAS, so the same rows, lift and stream give the same bits
    on any OpenBLAS kernel and CPU feature set.
    """
    counts = rng.integers(1, max_labels + 1, size=n)
    picks = np.full((n, max_labels), n_allowed)  # unused slots sort last
    labels = np.zeros((n, n_allowed), dtype=np.int8)
    for t in range(max_labels):
        live = np.flatnonzero(counts > t)
        j = n_allowed - counts[live] + t
        draw = rng.integers(0, j + 1)
        repeat = np.zeros(len(live), dtype=bool)
        for u in range(t):
            repeat |= picks[live, u] == draw
        pick = np.where(repeat, j, draw)
        picks[live, t] = pick
        labels[live, pick] = 1
    picks.sort(axis=1)
    w_bar = np.zeros((n, semantics.shape[1]))
    for t in range(max_labels):
        live = np.flatnonzero(counts > t)
        w_bar[live] += semantics[picks[live, t]]
    w_bar /= counts[:, None]
    features = np.multiply.outer(w_bar[:, 0], lift[:, 0])
    for t in range(1, lift.shape[1]):
        features += np.multiply.outer(w_bar[:, t], lift[:, t])
    if sigma > 0:
        features += sigma * rng.standard_normal(features.shape)
    return features, labels


def _streams(spec: SynthSpec) -> list[np.random.Generator]:
    """The generator's independent streams, in order: semantics, lift, train, val, test."""
    return [np.random.default_rng(c) for c in np.random.SeedSequence(spec.seed).spawn(5)]


def generate(spec: SynthSpec) -> DataBundle:
    """Deterministic benchmark bundle: vocabulary, semantics, three splits.

    The training split carries seen-only label rows (width S); val and
    test carry full-width rows and contain unseen-class positives.
    """
    rng_sem, rng_lift, rng_train, rng_val, rng_test = _streams(spec)
    names = tuple(f"class{i:02d}" for i in range(spec.n_classes))
    vocab = ClassVocabulary(
        names=names,
        seen_ids=tuple(range(spec.n_seen)),
        unseen_ids=tuple(range(spec.n_seen, spec.n_classes)),
    )
    rows = _draw_semantics(spec, rng_sem)
    semantics = SemanticMatrix(rows=rows)
    lift = _feature_map(spec, rng_lift)

    c, s, m = spec.n_classes, spec.n_seen, spec.max_labels_per_sample
    f_tr, y_tr = _draw_split(spec.n_train, s, rows, lift, spec.noise_sigma, m, rng_train)
    f_va, y_va = _draw_split(spec.n_val, c, rows, lift, spec.noise_sigma, m, rng_val)
    f_te, y_te = _draw_split(spec.n_test, c, rows, lift, spec.noise_sigma, m, rng_test)

    train = Dataset(features=f_tr, labels=y_tr, vocab=vocab)
    val = Dataset(features=f_va, labels=y_va, vocab=vocab)
    test = Dataset(features=f_te, labels=y_te, vocab=vocab)
    return DataBundle(vocab=vocab, semantics=semantics, train=train, val=val, test=test)


def _subset_counts(n_allowed: int, max_labels: int) -> list[int]:
    """Number of label subsets of each size 1..max_labels, within the bound."""
    counts = [comb(n_allowed, k) for k in range(1, max_labels + 1)]
    total = sum(counts)
    if total > MAX_REFERENCE_SUBSETS:
        raise ValueError(
            f"the reference prior has {total} label subsets ({n_allowed} classes, "
            f"up to {max_labels} labels each); true_scores enumerates at most "
            f"{MAX_REFERENCE_SUBSETS}"
        )
    return counts


def _candidate_label_means(rows: np.ndarray, allowed: np.ndarray, max_labels: int) -> np.ndarray:
    """Averaged semantics of every label subset the generator can emit."""
    means = [
        rows[list(combo)].mean(axis=0)
        for k in range(1, max_labels + 1)
        for combo in itertools.combinations(allowed.tolist(), k)
    ]
    return np.asarray(means)


def true_scores(
    spec: SynthSpec, features: np.ndarray, allowed: np.ndarray | None = None
) -> np.ndarray:
    """Ground-truth scoring rule: de-noise, then cosine against true rows.

    De-noising is exact posterior-mean recovery of the averaged positive
    semantics: the generator's label prior is a finite set of subsets,
    so E[w_bar | feature] is a closed-form softmax mixture over subset
    candidates. ``allowed`` restricts the prior to the classes a split
    draws from (the training split uses seen classes only); None means
    all classes. With zero noise the pseudo-inverse of the lift recovers
    w_bar exactly and is used directly. With noise, a prior of more than
    MAX_REFERENCE_SUBSETS subsets raises ValueError before any is built.
    """
    rng_sem, rng_lift, *_ = _streams(spec)
    rows = _draw_semantics(spec, rng_sem)
    lift = _feature_map(spec, rng_lift)
    feats = np.atleast_2d(features)
    if spec.noise_sigma == 0:
        w_hat = feats @ np.linalg.pinv(lift).T
        return pairwise_cosine(w_hat, rows, "de-noised projection")
    if allowed is None:
        allowed = np.arange(spec.n_classes)
    counts = _subset_counts(len(allowed), spec.max_labels_per_sample)
    w_cand = _candidate_label_means(rows, np.asarray(allowed), spec.max_labels_per_sample)
    mu = w_cand @ lift.T
    log_prior = -np.log(np.repeat(counts, counts))
    sq_dist = (
        (feats**2).sum(axis=1, keepdims=True)
        - 2.0 * feats @ mu.T
        + (mu**2).sum(axis=1)
    )
    logits = log_prior - sq_dist / (2.0 * spec.noise_sigma**2)
    logits -= logits.max(axis=1, keepdims=True)
    weights = np.exp(logits)
    weights /= weights.sum(axis=1, keepdims=True)
    w_hat = weights @ w_cand
    return pairwise_cosine(w_hat, rows, "de-noised projection")


def bayes_reference_auroc(spec: SynthSpec, split: str) -> list[float | None]:
    """Per-class AUROC of the generator's own scoring rule on one split.

    An upper reference for trained models; classes without both label
    values in the split come back as None.
    """
    bundle = generate(spec)
    ds = bundle.split(split)
    allowed = np.arange(spec.n_seen) if ds.label_space is LabelSpace.SEEN_ONLY else None
    scores = true_scores(spec, ds.features, allowed)
    if ds.label_space is LabelSpace.SEEN_ONLY:
        labels = np.zeros((len(ds), spec.n_classes))
        labels[:, : spec.n_seen] = ds.labels
    else:
        labels = ds.labels
    return per_class_auroc(scores, labels)


def reference_spec(seed: int) -> SynthSpec:
    """Default benchmark at one of the committed reference seeds."""
    return SynthSpec(seed=seed)


def reference_model_params(spec: SynthSpec, seed: int) -> ModelParams:
    """Initial model sized for the benchmark dims at a given seed."""
    return init_model_params(default_model_spec(spec.v, spec.d), seed)


def reference_train_config(
    seed: int,
    terms=("rank", "align", "con"),
    encoder_mode: EncoderMode = EncoderMode.END_TO_END,
) -> TrainConfig:
    """The committed benchmark training recipe.

    100 epochs of minibatch Adam; ``terms`` selects objective components
    for ablation comparisons; lr and gamma are the frozen calibrated
    values above.
    """
    loss = LossConfig(gamma1=REFERENCE_GAMMA, gamma2=REFERENCE_GAMMA).with_terms(terms)
    return TrainConfig(
        epochs=100,
        batch_size=32,
        lr=REFERENCE_LR,
        loss=loss,
        seed=seed,
        encoder_mode=encoder_mode,
    )
