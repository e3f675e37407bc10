"""Generator determinism, geometry structure, and the reference scoring rule."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gzsl_align import (
    LossConfig,
    SynthSpec,
    TrainConfig,
    generate,
    infer_scores,
    reference_model_params,
    reference_spec,
    reference_train_config,
    train,
)
from gzsl_align.data import check_inductive
from gzsl_align.synthetic import (
    MAX_REFERENCE_SUBSETS,
    REFERENCE_SEEDS,
    SemanticGeometry,
    _draw_split,
    bayes_reference_auroc,
    true_scores,
)
from conftest import small_spec
from test_metrics import _topk_metrics

# Reference-rule AUROCs on the default benchmark, frozen from a committed run.
DEFAULT_REF_VAL = (
    0.821168146704, 0.761864143921, 0.848793867361, 0.812911184211,
    0.783167701863, 0.788257082104, 0.790451094799, 0.834868837471,
    0.786886343848, 0.696184077079, 0.808296296296, 0.791710805085,
    0.758547008547, 0.788363367981,
)
DEFAULT_REF_TEST = (
    0.849119897959, 0.784170945751, 0.820393769553, 0.837335977282,
    0.827250698975, 0.780479843316, 0.817008892886, 0.783345879485,
    0.774595481401, 0.813883972468, 0.815539400398, 0.840278787879,
    0.806899949437, 0.785374341719,
)

# A paper-width spec (NUS-WIDE's 925 seen + 81 unseen classes) small enough to pin.
PAPER_WIDTH_SPEC = SynthSpec(n_classes=1006, n_seen=925, n_train=64, n_val=32, n_test=512, seed=1)

# sha256 of each split's int8 label bytes, then of its float64 feature bytes,
# under PAPER_WIDTH_SPEC. No BLAS product computes either, so these hold on
# every OpenBLAS kernel.
PAPER_WIDTH_SHA256 = {
    "train": (
        "33c605368aee74ef7b85fc2a659c6448232812e376cfa5ecaeb4b4d043ff61b5",
        "a7c199a4e99f46b4d1d87c3907c8785e06daae817c7390860d1f71ccab5a4fc3",
    ),
    "val": (
        "1eaa25d1b17df67aad889bf79cc324fc7bd729ec86895124ab130433945c232f",
        "ef7a78792cc1d23d790a3a60ee0e7c8600823d5b60fc9198ace93e08bc54ae60",
    ),
    "test": (
        "7809db5dc34a271af8ff268eb62b2b4054d2f3eb9889c80d737bc1f3b2f17d5b",
        "96706c03ea3e3a6af6d014b859ed94b78fb0a9db4cab9cd3b4ec281206802572",
    ),
}


def _draw_split_oracle(
    n: int,
    n_allowed: int,
    semantics: np.ndarray,
    lift: np.ndarray,
    sigma: float,
    max_labels: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """The slot-order draw with one scalar call per count and per pick, built row by row."""
    counts = [int(rng.integers(1, max_labels + 1)) for _ in range(n)]
    picks: list[list[int]] = [[] for _ in range(n)]
    for t in range(max_labels):
        for i in range(n):
            if counts[i] > t:
                j = n_allowed - counts[i] + t
                draw = int(rng.integers(0, j + 1))
                picks[i].append(j if draw in set(picks[i]) else draw)
    labels = np.zeros((n, n_allowed), dtype=np.int8)
    w_bar = np.zeros((n, semantics.shape[1]))
    features = np.zeros((n, lift.shape[0]))
    for i in range(n):
        w = np.zeros(semantics.shape[1])
        for c in sorted(picks[i]):
            labels[i, c] = 1
            w = w + semantics[c]
        w_bar[i] = w / counts[i]
        f = w_bar[i, 0] * lift[:, 0]
        for t in range(1, lift.shape[1]):
            f = f + w_bar[i, t] * lift[:, t]
        features[i] = f
    if sigma > 0:
        features = features + sigma * rng.standard_normal(features.shape)
    return features, labels


def _expected_label_rates(spec: SynthSpec, split: str) -> np.ndarray:
    """Target per-class positive rate of one split under the label model.

    Each sample draws uniform(1..max_labels) positives uniformly without
    replacement from the split's allowed classes, so every allowed class
    carries rate E[n_pos] / n_allowed.
    """
    mean_pos = (1 + spec.max_labels_per_sample) / 2.0
    rates = np.zeros(spec.n_classes)
    if split == "train":
        rates[: spec.n_seen] = mean_pos / spec.n_seen
    elif split in ("val", "test"):
        rates[:] = mean_pos / spec.n_classes
    else:
        raise ValueError(f"unknown split {split!r}")
    return rates


def test_same_seed_is_bit_identical():
    a, b = generate(small_spec(seed=9)), generate(small_spec(seed=9))
    assert np.array_equal(a.semantics.rows, b.semantics.rows)
    for name in ("train", "val", "test"):
        assert np.array_equal(a.split(name).features, b.split(name).features)
        assert np.array_equal(a.split(name).labels, b.split(name).labels)


def test_different_seeds_differ():
    a, b = generate(small_spec(seed=1)), generate(small_spec(seed=2))
    assert not np.array_equal(a.train.features, b.train.features)


def test_training_split_is_inductively_clean_for_every_reference_seed():
    for seed in REFERENCE_SEEDS:
        bundle = generate(reference_spec(seed))
        check_inductive(bundle.train)
        assert bundle.train.labels.shape[1] == 10
        assert bundle.val.labels.shape[1] == 14


def test_label_marginals_match_targets_pooled_over_reference_seeds():
    bundles = [generate(reference_spec(seed)) for seed in REFERENCE_SEEDS]
    for split in ("train", "val", "test"):
        target = _expected_label_rates(reference_spec(1), split)
        counts = np.zeros(14)
        total = 0
        for b in bundles:
            ds = b.split(split)
            counts[: ds.labels.shape[1]] += ds.labels.sum(axis=0)
            total += len(ds)
        rates = counts / total
        active = target > 0
        rel = np.abs(rates[active] / target[active] - 1.0)
        assert rel.max() <= 0.20, f"{split}: worst deviation {rel.max():.3f}"
        assert np.all(rates[~active] == 0)


def test_expected_label_rates_formula():
    spec = reference_spec(1)  # max 5 positives
    train = _expected_label_rates(spec, "train")
    np.testing.assert_allclose(train[:10], 3.0 / 10)
    assert np.all(train[10:] == 0)
    np.testing.assert_allclose(_expected_label_rates(spec, "test"), 3.0 / 14)
    with pytest.raises(ValueError):
        _expected_label_rates(spec, "dev")


def test_seen_semantics_form_a_centered_equiangular_frame():
    rows = generate(reference_spec(3)).semantics.rows
    seen = rows[:10]
    np.testing.assert_allclose(np.linalg.norm(rows, axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(seen.mean(axis=0), 0.0, atol=1e-12)
    gram = seen @ seen.T
    off = gram[~np.eye(10, dtype=bool)]
    np.testing.assert_allclose(off, -1.0 / 9.0, atol=1e-9)


def test_unseen_rows_stay_near_their_seen_parents():
    rows = generate(reference_spec(2)).semantics.rows
    # every unseen row has a strongly positive cosine with some seen row
    cos = rows[10:] @ rows[:10].T
    assert cos.max(axis=1).min() > 0.4


def test_semantics_fall_back_when_seen_exceed_dim():
    spec = small_spec(n_classes=12, n_seen=10, d=6, v=9, max_labels_per_sample=3)
    rows = generate(spec).semantics.rows
    np.testing.assert_allclose(np.linalg.norm(rows, axis=1), 1.0, atol=1e-12)
    assert np.linalg.norm(rows[:10].mean(axis=0)) < 0.35  # centered before renorm


@pytest.mark.parametrize(
    "overrides",
    [
        dict(max_labels_per_sample=5, n_seen=4, n_classes=6),
        dict(n_seen=6, n_classes=6),
        dict(noise_sigma=-0.1),
        dict(geometry=SemanticGeometry(parents_min=5, parents_max=5), n_seen=4, n_classes=6),
    ],
)
def test_infeasible_specs_are_rejected(overrides):
    base = dict(n_classes=6, n_seen=4, d=8, v=12, n_train=10, n_val=10, n_test=10)
    base.update(overrides)
    with pytest.raises(ValueError):
        SynthSpec(**base)


def test_noiseless_reference_rule_is_perfect():
    spec = small_spec(noise_sigma=0.0, max_labels_per_sample=1, seed=2)
    ref = bayes_reference_auroc(spec, "test")
    assert all(r == 1.0 for r in ref if r is not None)
    # the rule recovers the exact class: argmax score equals the true label
    bundle = generate(spec)
    scores = true_scores(spec, bundle.test.features)
    assert np.array_equal(np.argmax(scores, axis=1), np.argmax(bundle.test.labels, axis=1))


def test_noiseless_training_separates_classes():
    spec = small_spec(noise_sigma=0.0, max_labels_per_sample=1, seed=2)
    bundle = generate(spec)
    cfg = TrainConfig(
        epochs=60, batch_size=16, lr=1e-3, loss=LossConfig(gamma1=0.1, gamma2=0.1), seed=2
    )
    rec = train(cfg, bundle, reference_model_params(spec, 2))
    scores = infer_scores(rec.best_params, bundle.train.features, bundle.semantics)
    m = _topk_metrics(scores[:, : spec.n_seen], bundle.train.labels, k=1)
    assert m.recall == 1.0


def test_extreme_noise_drives_reference_toward_chance():
    ref = bayes_reference_auroc(SynthSpec(noise_sigma=50.0, seed=1), "test")
    vals = np.array([r for r in ref if r is not None])
    assert abs(vals.mean() - 0.5) < 0.02
    assert np.abs(vals - 0.5).max() < 0.10


def test_default_spec_reference_fixtures():
    spec = SynthSpec()
    for split, frozen in (("val", DEFAULT_REF_VAL), ("test", DEFAULT_REF_TEST)):
        got = bayes_reference_auroc(spec, split)
        np.testing.assert_allclose(got, frozen, rtol=0, atol=1e-9)


def test_reference_recipe_shape():
    cfg = reference_train_config(3, terms=("rank",))
    assert cfg.seed == 3 and cfg.epochs == 100
    assert (cfg.loss.use_rank, cfg.loss.use_align, cfg.loss.use_con) == (True, False, False)
    full = reference_train_config(3)
    assert full.loss.gamma1 == full.loss.gamma2 > 0
    assert reference_spec(4).seed == 4


@st.composite
def _split_draws(draw):
    n_classes = draw(st.integers(3, 30))
    n_seen = draw(st.integers(2, n_classes - 1))
    n_allowed = draw(st.sampled_from((n_seen, n_classes)))  # seen-only or all classes
    max_labels = draw(st.integers(1, n_allowed))
    sigma = draw(st.sampled_from((0.0, 0.3, 1.7)))
    return draw(st.integers(1, 40)), n_allowed, n_classes, max_labels, sigma, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None)
@given(_split_draws())
def test_draw_split_matches_slot_order_oracle_and_reads_the_same_stream(case):
    n, n_allowed, n_classes, max_labels, sigma, seed = case
    geo = np.random.default_rng(seed ^ 0x5EED)
    semantics, lift = geo.standard_normal((n_classes, 4)), geo.standard_normal((6, 4))
    rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
    got = _draw_split(n, n_allowed, semantics, lift, sigma, max_labels, rng_new)
    want = _draw_split_oracle(n, n_allowed, semantics, lift, sigma, max_labels, rng_old)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()
    assert rng_new.bit_generator.state == rng_old.bit_generator.state
    labels = got[1]
    assert labels.shape == (n, n_allowed) and labels.flags.c_contiguous
    assert set(np.unique(labels)) <= {0, 1}
    per_row = labels.sum(axis=1)
    assert per_row.min() >= 1 and per_row.max() <= max_labels


def test_every_label_subset_of_a_count_is_equally_likely():
    """Floyd's picks: 60 000 draws put each k-subset within 10% of its share (about 4.5 sigma)."""
    n, n_allowed, max_labels = 60_000, 5, 3
    _, labels = _draw_split(
        n, n_allowed, np.eye(n_allowed), np.eye(n_allowed), 0.0, max_labels,
        np.random.default_rng(11),
    )
    subsets, freq = np.unique(labels, axis=0, return_counts=True)
    per_count = subsets.sum(axis=1)
    for k in range(1, max_labels + 1):
        got = freq[per_count == k]
        assert len(got) == math.comb(n_allowed, k)
        want = n / max_labels / math.comb(n_allowed, k)
        assert np.abs(got / want - 1.0).max() <= 0.1, k


def test_paper_width_split_bytes_are_pinned():
    bundle = generate(PAPER_WIDTH_SPEC)
    for split, (label_digest, feature_digest) in PAPER_WIDTH_SHA256.items():
        ds = bundle.split(split)
        assert ds.labels.dtype == np.int8 and ds.labels.flags.c_contiguous
        assert hashlib.sha256(ds.labels.tobytes()).hexdigest() == label_digest, split
        assert hashlib.sha256(ds.features.tobytes()).hexdigest() == feature_digest, split


def test_generate_peaks_near_the_label_bytes():
    """Under a float64 label matrix plus its int8 copy; the draw itself builds only int8 labels."""
    spec = SynthSpec(n_classes=1006, n_seen=925, n_train=64, n_val=32, n_test=4000, seed=1)
    tracemalloc.start()
    try:
        generate(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * spec.n_test * spec.n_classes * (8 + 1)


def test_bayes_reference_refuses_a_prior_too_large_to_enumerate():
    spec = SynthSpec(n_classes=1006, n_seen=925, n_train=8, n_val=8, n_test=8, seed=1)
    n_subsets = sum(math.comb(1006, k) for k in range(1, 6))
    assert n_subsets > MAX_REFERENCE_SUBSETS
    with pytest.raises(ValueError, match=f"{n_subsets} label subsets"):
        bayes_reference_auroc(spec, "test")
    with pytest.raises(ValueError, match="label subsets"):
        bayes_reference_auroc(spec, "train")  # 925 seen classes


def test_noiseless_reference_needs_no_prior_at_paper_width():
    spec = SynthSpec(n_classes=1006, n_seen=925, n_train=8, n_val=8, n_test=8, noise_sigma=0.0, seed=1)
    features = generate(spec).test.features
    assert true_scores(spec, features).shape == (8, 1006)
