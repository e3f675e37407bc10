"""Generator determinism, geometry structure, and the reference scoring rule."""

import numpy as np
import pytest

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
from gzsl_align.metrics import topk_metrics
from gzsl_align.synthetic import (
    REFERENCE_SEEDS,
    SemanticGeometry,
    bayes_reference_auroc,
    true_scores,
)
from conftest import small_spec

# Reference-rule AUROCs on the default benchmark, frozen from a committed run.
DEFAULT_REF_VAL = (
    0.742769307987, 0.819115268303, 0.823923517013, 0.808229288394,
    0.873866873867, 0.754369885434, 0.769666031121, 0.776495943205,
    0.775092690678, 0.865776397516, 0.798105276366, 0.808886916836,
    0.744639376218, 0.763881845842,
)
DEFAULT_REF_TEST = (
    0.82103965245, 0.785668364571, 0.81918027668, 0.833530487149,
    0.784518213866, 0.793269287164, 0.816017971629, 0.808922025474,
    0.768459174464, 0.81484741784, 0.830419309918, 0.815515151515,
    0.759561645098, 0.786465780816,
)


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
    m = topk_metrics(scores[:, : spec.n_seen], bundle.train.labels, k=1)
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
