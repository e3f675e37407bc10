"""AUROC vs a pairwise oracle, top-k hand counts, report round-trips."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.stats import rankdata

import gzsl_align.metrics as metrics_mod
from gzsl_align import (
    MetricsReport,
    UndefinedAurocError,
    ValidationError,
    evaluate,
    infer_scores,
    pairwise_cosine,
)
from gzsl_align.data import ClassVocabulary, LabelSpace
from gzsl_align.metrics import (
    gzsl_summary,
    per_class_auroc,
    read_report_json,
    topk_metrics,
    write_report_csv,
    write_report_json,
)
from gzsl_align.networks import MlpSpec, init_model_params, mlp_forward
from conftest import hand_bundle, small_spec

from gzsl_align import generate, reference_model_params


def _column_auroc(scores, labels):
    """per_class_auroc of one score column; None when it has a single label value."""
    return per_class_auroc(scores[:, None], labels[:, None])[0]


def _pairwise_auroc(scores, labels):
    """Brute-force (wins + 0.5 ties) / (P*N) over every pos-neg pair."""
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = ties = 0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1
            elif p == q:
                ties += 1
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def _rankdata_auroc_oracle(scores, labels):
    """Per-column AUROC by the rank-sum formula over a full ranking; None if single-class."""
    out = []
    for s, y in zip(np.asarray(scores, dtype=np.float64).T, np.asarray(labels).T > 0.5):
        n_pos = int(y.sum())
        n_neg = y.size - n_pos
        if n_pos == 0 or n_neg == 0:
            out.append(None)
            continue
        ranks = rankdata(s)
        out.append(float((ranks[y].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)))
    return out


def topk_indices(scores, k):
    """Indices of each row's k best scores by a stable sort; ties go to the lower class index."""
    S = np.atleast_2d(np.asarray(scores, dtype=np.float64))
    if not 1 <= k <= S.shape[1]:
        raise ValueError(f"k={k} out of range for {S.shape[1]} classes")
    return np.argsort(-S, axis=1, kind="stable")[:, :k]


def _topk_mask_oracle(scores, k):
    picked = np.zeros(np.shape(scores), dtype=bool)
    np.put_along_axis(picked, topk_indices(scores, k), True, axis=1)
    return picked


@st.composite
def _tie_heavy_case(draw):
    """Integer-valued scores from a handful of levels, so most rows tie, and 0/1 labels."""
    n = draw(st.integers(1, 12))
    c = draw(st.integers(1, 8))
    scores = draw(arrays(np.int64, (n, c), elements=st.integers(-2, 2))).astype(np.float64)
    labels = draw(arrays(np.int8, (n, c), elements=st.integers(0, 1)))
    return scores, labels


@settings(max_examples=200, deadline=None)
@given(_tie_heavy_case())
def test_per_class_auroc_equals_rankdata_oracle_exactly(case):
    scores, labels = case
    want = _rankdata_auroc_oracle(scores, labels)
    assert per_class_auroc(scores, labels) == want
    for j, value in enumerate(want):
        assert _column_auroc(scores[:, j], labels[:, j]) == value


@settings(max_examples=200, deadline=None)
@given(_tie_heavy_case())
def test_topk_equals_stable_argsort_oracle_exactly(case):
    scores, labels = case
    for k in range(1, scores.shape[1] + 1):
        np.testing.assert_array_equal(
            metrics_mod._topk_mask(scores, k), _topk_mask_oracle(scores, k)
        )
        with mock.patch.object(metrics_mod, "_topk_mask", _topk_mask_oracle):
            want = topk_metrics(scores, labels, k)
        assert topk_metrics(scores, labels, k) == want


def test_metrics_reject_non_finite_scores_and_bad_k():
    scores = np.array([[0.1, 0.9], [0.8, 0.2], [0.3, 0.4]])
    labels = np.array([[0, 1], [1, 0], [1, 1]])
    for bad in (np.nan, np.inf, -np.inf):
        poisoned = scores.copy()
        poisoned[1, 1] = bad
        with pytest.raises(ValidationError):
            per_class_auroc(poisoned, labels)
        with pytest.raises(ValidationError):
            topk_metrics(poisoned, labels, 1)
    for k in (0, 3, -1):
        with pytest.raises(ValueError):
            topk_metrics(scores, labels, k)


def test_auroc_fixture_is_three_quarters():
    got = _column_auroc(np.array([0.1, 0.4, 0.35, 0.8]), np.array([0, 0, 1, 1]))
    assert got == 0.75


def test_auroc_matches_pairwise_oracle_with_ties():
    rng = np.random.default_rng(0)
    for _ in range(300):
        n = int(rng.integers(2, 200))
        labels = np.zeros(n, dtype=np.int8)
        labels[rng.choice(n, size=int(rng.integers(1, n)), replace=False)] = 1
        # quantized scores force plenty of exact ties
        scores = np.round(rng.uniform(0, 1, size=n), 1)
        assert abs(_column_auroc(scores, labels) - _pairwise_auroc(scores, labels)) < 1e-12


def test_auroc_needs_both_label_values():
    assert _column_auroc(np.array([0.1, 0.2]), np.array([1, 1])) is None
    assert _column_auroc(np.array([0.1, 0.2]), np.array([0, 0])) is None


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_auroc_invariant_under_increasing_transforms(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 50))
    labels = np.zeros(n, dtype=np.int8)
    labels[rng.choice(n, size=int(rng.integers(1, n)), replace=False)] = 1
    scores = np.round(rng.standard_normal(n), 1)
    base = _column_auroc(scores, labels)
    assert _column_auroc(3.0 * scores + 7.0, labels) == base
    assert _column_auroc(np.exp(scores), labels) == base


def test_topk_hand_counted_table():
    scores = np.array(
        [
            [0.9, 0.1, 0.8, 0.0],
            [0.2, 0.3, 0.4, 0.1],
            [0.5, 0.5, 0.5, 0.5],
        ]
    )
    labels = np.array(
        [
            [1, 0, 0, 0],
            [0, 1, 1, 0],
            [0, 0, 0, 1],
        ]
    )
    m = topk_metrics(scores, labels, k=2)
    # picks: {0,2}, {2,1}, {0,1} (row of ties resolves to lowest indices)
    assert m.precision == 3 / 6
    assert m.recall == 3 / 4
    assert abs(m.f1 - 0.6) < 1e-12
    assert m.macro_recall == 0.75
    assert m.macro_precision == (0.5 + 0.5 + 0.5 + 0.0) / 4


def test_topk_perfect_model_on_exactly_k_positives():
    labels = np.array([[1, 1, 0, 0], [0, 0, 1, 1]])
    scores = labels + 0.0
    m = topk_metrics(scores, labels, k=2)
    assert m.precision == m.recall == m.f1 == 1.0


def test_topk_ties_break_toward_lower_class_index():
    got = metrics_mod._topk_mask(np.array([[0.5, 0.7, 0.5, 0.5]]), k=3)
    np.testing.assert_array_equal(got, [[True, True, True, False]])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_topk_counting_invariants(seed):
    rng = np.random.default_rng(seed)
    n, c = int(rng.integers(1, 8)), int(rng.integers(2, 7))
    scores = rng.standard_normal((n, c))
    labels = (rng.uniform(size=(n, c)) < 0.4).astype(np.int8)
    prev = 0.0
    for k in range(1, c + 1):
        m = topk_metrics(scores, labels, k)
        assert m.recall >= prev - 1e-15  # recall never drops as k grows
        prev = m.recall
        tp_from_p = m.precision * n * k
        assert abs(tp_from_p - round(tp_from_p)) < 1e-9
        if labels.sum():
            tp_from_r = m.recall * labels.sum()
            assert abs(tp_from_r - round(tp_from_r)) < 1e-9


def test_gzsl_summary_two_decimal_fixtures():
    vocab = ClassVocabulary(
        names=tuple(f"c{i}" for i in range(14)),
        seen_ids=tuple(range(10)),
        unseen_ids=tuple(range(10, 14)),
    )
    per_class = [0.79] * 10 + [0.66] * 4
    s, u, h = gzsl_summary(per_class, vocab)
    assert (s, u) == (0.79, 0.66)
    assert abs(h - 0.72) <= 0.005
    per_class = [0.72] * 10 + [0.54] * 4
    _, _, h = gzsl_summary(per_class, vocab)
    assert abs(h - 0.62) <= 0.005


def test_gzsl_summary_identities():
    vocab = ClassVocabulary(names=("a", "b", "c"), seen_ids=(0, 1), unseen_ids=(2,))
    s, u, h = gzsl_summary([0.7, 0.7, 0.7], vocab)
    assert h == 0.7 == s == u
    s, u, h = gzsl_summary([0.9, 0.9, 0.6], vocab)
    assert h <= (s + u) / 2
    with pytest.raises(UndefinedAurocError):
        gzsl_summary([0.9, 0.9, None], vocab)


def test_per_class_auroc_none_for_degenerate_columns():
    scores = np.array([[0.1, 0.9], [0.8, 0.2]])
    labels = np.array([[0, 1], [1, 1]])
    got = per_class_auroc(scores, labels)
    assert got[0] == 1.0 and got[1] is None  # column 1 has no negatives


def test_infer_scores_matches_training_path_on_seen_columns():
    spec = small_spec()
    bundle = generate(spec)
    params = reference_model_params(spec, seed=3)
    scores = infer_scores(params, bundle.val.features, bundle.semantics)
    assert scores.shape == (len(bundle.val), spec.n_classes)
    enc_out, _ = mlp_forward(params.encoder, bundle.val.features)
    vis, _ = mlp_forward(params.visual_map, enc_out)
    sem, _ = mlp_forward(params.semantic_map, bundle.semantics.seen_rows(bundle.vocab))
    np.testing.assert_array_equal(scores[:, : spec.n_seen], pairwise_cosine(vis, sem))


def test_report_json_round_trip_is_exact(tmp_path):
    bundle = hand_bundle()
    params = init_model_params(
        MlpSpec(layer_dims=(4, 3)), MlpSpec(layer_dims=(3, 3)), MlpSpec(layer_dims=(4, 4)), seed=1
    )
    report = evaluate(params, bundle.test, bundle.semantics, ks=(1, 2))
    path = tmp_path / "report.json"
    write_report_json(report, path)
    again = read_report_json(path)
    assert again == report
    assert MetricsReport.from_dict(report.to_dict()) == report


def test_report_csv_layout(tmp_path):
    bundle = hand_bundle()
    params = init_model_params(
        MlpSpec(layer_dims=(4, 3)), MlpSpec(layer_dims=(3, 3)), MlpSpec(layer_dims=(4, 4)), seed=1
    )
    report = evaluate(params, bundle.test, bundle.semantics)
    path = tmp_path / "report.csv"
    write_report_csv(report, bundle.vocab, path)
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    assert header[0] == "metric" and header[1:4] == ["a", "b", "c"]
    assert header[-3:] == ["seen_mean", "unseen_mean", "harmonic"]
    row = lines[1].split(",")
    assert row[0] == "auroc"
    assert float(row[-1]) == report.harmonic


def test_evaluate_rejects_seen_only_labels():
    bundle = hand_bundle()
    params = init_model_params(
        MlpSpec(layer_dims=(4, 3)), MlpSpec(layer_dims=(3, 3)), MlpSpec(layer_dims=(4, 4)), seed=1
    )
    with pytest.raises(Exception) as exc_info:
        evaluate(params, bundle.train, bundle.semantics)
    assert "all classes" in str(exc_info.value)
