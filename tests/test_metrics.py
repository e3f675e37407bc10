"""AUROC vs a pairwise oracle, top-k hand counts, report round-trips."""

import csv
import os
import re
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.stats import rankdata

import gzsl_align.metrics as metrics_mod
from gzsl_align import (
    DegenerateVectorError,
    MetricsReport,
    UndefinedAurocError,
    ValidationError,
    evaluate,
    infer_scores,
    pairwise_cosine,
)
from gzsl_align.data import ClassVocabulary, Dataset, LabelSpace, SemanticMatrix
from gzsl_align.metrics import (
    AUROC_BLOCK,
    TOPK_BLOCK,
    gzsl_summary,
    per_class_auroc,
    read_report_json,
    topk_metrics,
    write_report_csv,
    write_report_json,
)
from gzsl_align.networks import ModelSpec, init_model_params, mlp_forward, row_norms
from conftest import hand_bundle, small_spec

from gzsl_align import SynthSpec, generate, reference_model_params
from gzsl_align.training import default_model_spec


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


def _per_class_auroc_full_sort(scores, labels):
    """per_class_auroc as it was before blocking: one sort of a full transposed copy."""
    S = np.atleast_2d(np.asarray(scores, dtype=np.float64))
    Y = np.atleast_2d(np.asarray(labels))
    if S.shape != Y.shape:
        raise ValueError(f"scores shape {S.shape} != labels shape {Y.shape}")
    if not np.isfinite(S).all():
        raise ValidationError("AUROC scores must be finite")
    cls, rows = np.nonzero(Y.T > 0.5)
    pos_scores = np.split(S[rows, cls], np.cumsum(np.bincount(cls, minlength=S.shape[1]))[:-1])
    by_class = S.T.copy()
    by_class.sort(axis=1)
    return [metrics_mod._midrank_auroc(col, pos) for col, pos in zip(by_class, pos_scores)]


def _topk_mask_full_partition(S, k):
    """_topk_mask as it was before blocking: one partition of the whole matrix."""
    c = S.shape[1]
    if not 1 <= k <= c:
        raise ValueError(f"k={k} out of range for {c} classes")
    if not np.isfinite(S).all():
        raise ValidationError("top-k scores must be finite")
    thr = np.partition(S, c - k, axis=1)[:, c - k, None]
    picked = S > thr
    tied = S == thr
    quota = k - picked.sum(axis=1)
    over = tied.sum(axis=1) > quota
    tied[over] &= np.cumsum(tied[over], axis=1) <= quota[over, None]
    picked |= tied
    return picked


def _topk_metrics_by_mask(scores, labels, k, topk_mask):
    """topk_metrics as it was before the shared ranking: counts taken from a full (N, C) mask."""
    S = np.atleast_2d(np.asarray(scores, dtype=np.float64))
    Y = np.atleast_2d(np.asarray(labels)) > 0.5
    n, c = S.shape
    picked = topk_mask(S, k)
    hit = picked & Y

    tp = int(np.count_nonzero(hit))
    total_pos = int(np.count_nonzero(Y))
    precision = tp / (n * k)
    recall = tp / total_pos if total_pos > 0 else 0.0

    tp_c = hit.sum(axis=0).astype(np.float64)
    pred_c = picked.sum(axis=0).astype(np.float64)
    pos_c = Y.sum(axis=0).astype(np.float64)
    has_pos = pos_c > 0
    if has_pos.any():
        p_c = np.divide(tp_c, pred_c, out=np.zeros(c), where=pred_c > 0)
        r_c = np.divide(tp_c, pos_c, out=np.zeros(c), where=has_pos)
        f_c = np.array([metrics_mod._f1(p, r) for p, r in zip(p_c, r_c)])
        macro_p = float(p_c[has_pos].mean())
        macro_r = float(r_c[has_pos].mean())
        macro_f = float(f_c[has_pos].mean())
    else:
        macro_p = macro_r = macro_f = 0.0
    return metrics_mod.TopKMetrics(
        k, recall, precision, metrics_mod._f1(precision, recall), macro_r, macro_p, macro_f
    )


def _picked(scores, k):
    """The (N, C) mask of the top k that ``_top_columns`` picks, block by block."""
    S = np.atleast_2d(np.asarray(scores, dtype=np.float64))
    mask = np.zeros(S.shape, dtype=bool)
    for i in range(0, S.shape[0], metrics_mod.TOPK_BLOCK):
        np.put_along_axis(mask[i:i + metrics_mod.TOPK_BLOCK],
                          metrics_mod._top_columns(S[i:i + metrics_mod.TOPK_BLOCK].copy(), k),
                          True, axis=1)
    return mask


def _ranked_candidates_oracle(B: np.ndarray, kmax: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row's candidates for its top ``kmax``: their rows, columns and ranks in their row.

    One partition per row finds the ``kmax``-th largest score ``thr``, and
    every score at or above it is a candidate. Candidates are ranked by
    descending score, then ascending column, as a stable descending sort
    would rank them, so the top k of a row, for any k <= kmax, are its
    candidates ranked below k. Rows and columns index ``B``.
    """
    c = B.shape[1]
    thr = np.partition(B, c - kmax, axis=1)[:, [c - kmax]]
    col = np.flatnonzero(B >= thr)
    row = col // c
    key = B.ravel()[col]
    np.negative(key, out=key)
    col = col[np.lexsort((key, row))]  # row-major candidates, so each row's stay in place
    del key
    np.remainder(col, c, out=col)
    per_row = np.bincount(row)  # at least kmax in every row
    rank = np.arange(row.size)
    rank -= np.repeat(np.cumsum(per_row) - per_row, per_row)
    return row, col, rank


def _around(block):
    return st.sampled_from((block - 1, block, block + 1))


def _auroc_threads(data, n):
    """Patches for a drawn tile size (1, 2 or about N) and 1 to 3 AUROC threads at any size."""
    tile = data.draw(st.sampled_from((1, 2, max(n - 1, 1), n, n + 1)), label="tile rows")
    workers = data.draw(st.integers(1, 3), label="workers")
    return (mock.patch.multiple(metrics_mod, TILE_ROWS=tile, PARALLEL_MIN_SCORES=0),
            mock.patch.object(metrics_mod, "_usable_cpus", return_value=workers))


def _pool_spy():
    """Stands in for the metrics module's ThreadPoolExecutor and records its calls."""
    return mock.patch.object(metrics_mod, "ThreadPoolExecutor", wraps=ThreadPoolExecutor)


def _stub_semantics(c: int) -> SemanticMatrix:
    """A ``c``-class matrix for ``evaluate`` while ``infer_scores`` is stubbed."""
    return SemanticMatrix(np.ones((c, 1)))


@pytest.mark.parametrize("auroc_block, topk_block", [(AUROC_BLOCK, TOPK_BLOCK), (3, 2)],
                         ids=["module blocks", "tiny blocks"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_blocked_metrics_equal_full_matrix_oracles_exactly(auroc_block, topk_block, data):
    """N and C at a block size and one either side; scores from a few levels, so ties abound."""
    n = data.draw(_around(topk_block), label="n")
    c = data.draw(_around(auroc_block), label="c")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    levels = data.draw(st.integers(1, 5), label="levels")
    scores = rng.integers(0, levels, size=(n, c)).astype(np.float64) / levels
    labels = (rng.random((n, c)) < rng.random()).astype(np.int8)
    labels[:, rng.random(c) < 0.1] = 0  # columns without positives
    labels[:, rng.random(c) < 0.1] = 1  # columns without negatives
    ks = sorted({1, 2, c // 2, c - 1, c} - {0})
    tiles, threads = _auroc_threads(data, n)
    with mock.patch.multiple(metrics_mod, AUROC_BLOCK=auroc_block, TOPK_BLOCK=topk_block), \
            tiles, threads:
        assert per_class_auroc(scores, labels) == _per_class_auroc_full_sort(scores, labels)
        for k in ks:
            np.testing.assert_array_equal(_picked(scores, k), _topk_mask_full_partition(scores, k))
            want = _topk_metrics_by_mask(scores, labels, k, _topk_mask_full_partition)
            assert topk_metrics(scores, labels, k) == want


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 30), st.integers(1, 30), st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_pairwise_cosine_is_bit_equal_to_the_clipped_product(n, m, d, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, d)) * rng.uniform(1e-3, 1e3, (n, 1))
    b = rng.standard_normal((m, d))
    b[: min(n, m)] = 3.0 * a[: min(n, m)]  # parallel rows land near +-1, where clipping acts
    an, bn = row_norms(a), row_norms(b)
    want = np.clip((a / an[:, None]) @ (b / bn[:, None]).T, -1.0, 1.0)
    got = pairwise_cosine(a, b)
    assert got.tobytes() == want.tobytes()


def test_evaluate_peaks_below_one_and_a_half_score_matrices():
    """No full-size copy of the (N, C) scores: not for clipping, sorting or ranking."""
    spec = SynthSpec(n_classes=600, n_seen=540, n_train=8, n_val=8, n_test=3000, seed=2)
    bundle = generate(spec)
    params = reference_model_params(spec, seed=2)
    score_bytes = len(bundle.test) * spec.n_classes * 8
    assert score_bytes // 8 >= metrics_mod.PARALLEL_MIN_SCORES
    with mock.patch.object(metrics_mod, "_usable_cpus", return_value=2), _pool_spy() as pool:
        tracemalloc.start()
        try:
            evaluate(params, bundle.test, bundle.semantics, ks=(1, 2, 3, 5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 1.5 * score_bytes
    assert pool.call_args_list == [mock.call(2)]  # the AUROC blocks were filled on threads


def test_topk_on_all_tied_scores_peaks_below_half_a_score_matrix():
    """All-tied scores cost no more than any others: one block is copied and ranked at a time."""
    scores = np.zeros((3000, 600))
    labels = (np.random.default_rng(0).random(scores.shape) < 0.01).astype(np.int8)
    tracemalloc.start()
    try:
        got = topk_metrics(scores, labels, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * scores.nbytes
    assert got == _topk_metrics_by_mask(scores, labels, 3, _topk_mask_full_partition)


@pytest.mark.parametrize("kind", ["random", "tie-heavy", "all tied"])
@pytest.mark.parametrize("n", [1, TOPK_BLOCK - 1, TOPK_BLOCK, TOPK_BLOCK + 1])
def test_top_columns_equal_the_ranked_candidates_oracle_exactly(kind, n):
    """Each row's first kmax oracle candidates, in rank order, are the columns ``_top_columns`` gives."""
    c = 9
    B = np.random.default_rng(n).uniform(-1.0, 1.0, (n, c))
    if kind == "tie-heavy":
        B = np.round(B * 3) / 3
    elif kind == "all tied":
        B[:] = 0.25
    for k in (1, 2, 3, c - 1, c):
        row, col, rank = _ranked_candidates_oracle(B, k)
        pick = rank < k
        want = np.empty((n, k), dtype=col.dtype)
        want[row[pick], rank[pick]] = col[pick]
        got = metrics_mod._top_columns(B.copy(), k)  # it spends the block it ranks
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("auroc_block, topk_block", [(AUROC_BLOCK, TOPK_BLOCK), (3, 2)],
                         ids=["module blocks", "tiny blocks"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_evaluate_equals_per_metric_oracles_exactly(auroc_block, topk_block, data):
    """ks out of order, k at C - 1 and C, N at a block size and one either side.

    ``per_k`` comes in ascending k, and a repeated k is rejected before scoring.
    """
    n = data.draw(_around(topk_block), label="n")
    c = data.draw(st.integers(3, 8), label="c")
    n_seen = data.draw(st.integers(2, c - 1), label="n_seen")
    extra = data.draw(st.lists(st.integers(1, c), max_size=3), label="extra ks")
    ks = tuple(data.draw(st.permutations(sorted({c, c - 1, 1, *extra})), label="ks"))
    repeated = tuple(data.draw(st.permutations([*ks, data.draw(st.sampled_from(ks))]),
                               label="repeated ks"))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    levels = data.draw(st.integers(1, 4), label="levels")
    scores = rng.integers(0, levels, size=(n, c)).astype(np.float64) / levels
    labels = (rng.random((n, c)) < rng.random()).astype(np.int8)
    labels[rng.random(n) < 0.2] = 0  # samples without positives
    vocab = ClassVocabulary(names=tuple(f"c{j}" for j in range(c)),
                            seen_ids=tuple(range(n_seen)), unseen_ids=tuple(range(n_seen, c)))
    test = Dataset(features=np.zeros((n, 1)), labels=labels, vocab=vocab)

    semantics = _stub_semantics(c)
    with mock.patch.object(metrics_mod, "infer_scores", side_effect=AssertionError) as scored:
        with pytest.raises(ValueError, match="ks must be positive and distinct"):
            evaluate(None, test, semantics, ks=repeated)
    scored.assert_not_called()
    per_class = _rankdata_auroc_oracle(scores, labels)
    tiles, threads = _auroc_threads(data, n)
    with mock.patch.multiple(metrics_mod, AUROC_BLOCK=auroc_block, TOPK_BLOCK=topk_block,
                             infer_scores=lambda params, features, semantics: scores), \
            tiles, threads:
        try:
            s, u, h = gzsl_summary(per_class, vocab)
        except UndefinedAurocError:
            with pytest.raises(UndefinedAurocError):
                evaluate(None, test, semantics, ks=ks)
            return
        got = evaluate(None, test, semantics, ks=ks)
    want = MetricsReport(
        per_k=tuple(_topk_metrics_by_mask(scores, labels, k, _topk_mask_oracle)
                    for k in sorted(ks)),
        per_class_auroc=tuple(per_class),
        seen_mean=s,
        unseen_mean=u,
        harmonic=h,
        n_samples=n,
        n_zero_positive=int((labels.sum(axis=1) == 0).sum()),
    )
    assert got == want
    assert got.to_dict() == want.to_dict()


def _column_span(cols, scores):
    """The columns ``[a, b)`` of ``scores`` that the view ``cols`` covers."""
    a = (cols.ctypes.data - scores.ctypes.data) // scores.itemsize
    return a, a + cols.shape[1]


@pytest.mark.parametrize("workers, c, block",
                         [(3, 4, 3), (3, 2, 64), (2, 65, 64), (3, 7, 2), (3, 5, 2)])
def test_auroc_threads_with_short_blocks_and_idle_workers(workers, c, block):
    """More CPUs than classes or buffer rows, and class ranges longer than a worker's rows.

    Each worker fills its class range through its own rows of the buffer,
    and a worker that would get no class or no row is never started.
    Threads switch as often as the interpreter allows, so a row written
    twice or not at all would show against the oracle.
    """
    rng = np.random.default_rng(c)
    scores = rng.integers(0, 3, size=(40, c)) / 3.0
    labels = (rng.random((40, c)) < 0.3).astype(np.int8)
    fill = metrics_mod._fill_sorted
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with mock.patch.multiple(metrics_mod, AUROC_BLOCK=block, TILE_ROWS=7,
                                 PARALLEL_MIN_SCORES=0), \
                mock.patch.object(metrics_mod, "_usable_cpus", return_value=workers), \
                mock.patch.object(metrics_mod, "_fill_sorted", wraps=fill) as spy, \
                _pool_spy() as pool:
            got = per_class_auroc(scores, labels)
    finally:
        sys.setswitchinterval(interval)
    assert got == _per_class_auroc_full_sort(scores, labels)
    assert pool.call_args_list == [mock.call(min(workers, c, block))]
    calls = [call.args for call in spy.call_args_list]
    assert all(out.shape[0] == cols.shape[1] > 0 for out, cols in calls)
    spans = sorted(_column_span(cols, scores) for _, cols in calls)
    assert [a for a, _ in spans] == [0, *(b for _, b in spans[:-1])]  # each class filled once
    assert spans[-1][1] == c


@pytest.mark.parametrize("c", [1, 2, 3, 5])  # AUROC_BLOCK 4: 1, 2, block - 1 and block + 1
def test_overlapped_evaluate_report_equals_the_inline_one(c):
    """Top-k on the calling thread beside 1 to 3 AUROC workers gives the inline report.

    A vocabulary needs two seen classes and an unseen one, so at one and
    two classes the dataset is a stand-in and the seen/unseen summary a
    stub; ``gzsl_summary`` is tested on its own.
    """
    n = 7  # TOPK_BLOCK 3: two full row blocks and a short one
    rng = np.random.default_rng(c)
    scores = rng.integers(0, 3, size=(n, c)) / 2.0
    labels = (rng.random((n, c)) < 0.4).astype(np.int8)
    ks = sorted({1, min(2, c), c})
    test = SimpleNamespace(label_space=LabelSpace.ALL_CLASSES, features=np.zeros((n, 1)),
                           labels=labels, vocab=None)
    want = MetricsReport(
        per_k=tuple(_topk_metrics_by_mask(scores, labels, k, _topk_mask_full_partition)
                    for k in ks),
        per_class_auroc=tuple(_per_class_auroc_full_sort(scores, labels)),
        seen_mean=0.25,
        unseen_mean=0.5,
        harmonic=0.75,
        n_samples=n,
        n_zero_positive=int((labels.sum(axis=1) == 0).sum()),
    ).to_dict()
    topk = metrics_mod._topk
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 2, 3):
            callers = []

            def topk_spy(*args):
                callers.append(threading.get_ident())
                return topk(*args)

            with mock.patch.multiple(metrics_mod, AUROC_BLOCK=4, TOPK_BLOCK=3,
                                     PARALLEL_MIN_SCORES=0, infer_scores=lambda *a: scores,
                                     gzsl_summary=lambda *a: (0.25, 0.5, 0.75), _topk=topk_spy), \
                    mock.patch.object(metrics_mod, "_usable_cpus", return_value=workers), \
                    _pool_spy() as pool:
                got = evaluate(None, test, _stub_semantics(c), ks=tuple(ks)).to_dict()
            assert got == want, workers
            assert callers == [threading.get_ident()]
            assert pool.call_count == (min(workers, c) > 1)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("where", ["worker", "caller"])
def test_evaluate_raises_a_worker_or_caller_error_once_every_thread_is_done(where):
    """A class's ranking that fails on a worker, or top-k that fails on the caller."""

    class Boom(Exception):
        pass

    n, c = 40, 6
    rng = np.random.default_rng(3)
    scores = rng.uniform(-1.0, 1.0, (n, c))  # distinct columns: a sorted row names its class
    labels = (rng.random((n, c)) < 0.3).astype(np.int8)
    vocab = ClassVocabulary(names=tuple(f"c{j}" for j in range(c)),
                            seen_ids=(0, 1, 2, 3), unseen_ids=(4, 5))
    test = Dataset(features=np.zeros((n, 1)), labels=labels, vocab=vocab)
    midrank, doomed, raised_on = metrics_mod._midrank_auroc, np.sort(scores[:, c - 1]), []

    def fail_on_the_last_class(sorted_scores, pos_scores):
        if np.array_equal(sorted_scores, doomed):
            raised_on.append(threading.get_ident())
            raise Boom
        return midrank(sorted_scores, pos_scores)

    fault = {"worker": {"_midrank_auroc": fail_on_the_last_class},
             "caller": {"_topk": mock.Mock(side_effect=Boom)}}[where]
    before = threading.active_count()
    with mock.patch.multiple(metrics_mod, AUROC_BLOCK=2, PARALLEL_MIN_SCORES=0,
                             infer_scores=lambda *a: scores, **fault), \
            mock.patch.object(metrics_mod, "_usable_cpus", return_value=2), \
            _pool_spy() as pool:
        with pytest.raises(Boom):
            evaluate(None, test, _stub_semantics(c))
    assert pool.call_count == 1
    assert threading.active_count() == before
    if where == "worker":
        assert len(raised_on) == 1 and raised_on[0] != threading.get_ident()


def _tied_scores_above_the_threshold(seed):
    """A (1100, 1000) score matrix of few levels, over PARALLEL_MIN_SCORES, and a dataset for it."""
    n, c = 1100, 1000
    assert n * c >= metrics_mod.PARALLEL_MIN_SCORES
    rng = np.random.default_rng(seed)
    scores = np.round(rng.uniform(-1.0, 1.0, (n, c)), 2)
    labels = (rng.random((n, c)) < 0.02).astype(np.int8)
    vocab = ClassVocabulary(names=tuple(f"c{j}" for j in range(c)),
                            seen_ids=tuple(range(900)), unseen_ids=tuple(range(900, c)))
    return scores, Dataset(features=np.zeros((n, 1)), labels=labels, vocab=vocab)


def test_report_bytes_do_not_depend_on_the_auroc_thread_count(tmp_path):
    scores, test = _tied_scores_above_the_threshold(4)
    written = []
    for workers in (1, 2):
        path = tmp_path / f"report{workers}.json"
        with mock.patch.object(metrics_mod, "infer_scores", return_value=scores), \
                mock.patch.object(metrics_mod, "_usable_cpus", return_value=workers), \
                _pool_spy() as pool:
            write_report_json(evaluate(None, test, _stub_semantics(1000)), path)
        assert pool.call_count == (workers > 1)
        written.append(path.read_bytes())
    assert written[0] == written[1]


def test_evaluate_leaves_no_thread_behind_and_opens_no_pool_below_the_threshold():
    """grid forks its workers, so no AUROC pool may outlive the call that opened it."""
    scores, test = _tied_scores_above_the_threshold(5)
    bundle = hand_bundle()
    params = init_model_params(default_model_spec(4, 3), 1)
    before = threading.active_count()
    with mock.patch.object(metrics_mod, "_usable_cpus", return_value=2), _pool_spy() as pool:
        with mock.patch.object(metrics_mod, "infer_scores", return_value=scores):
            evaluate(None, test, _stub_semantics(1000))
        assert pool.call_count == 1
        assert threading.active_count() == before
        evaluate(params, bundle.test, bundle.semantics)  # far under PARALLEL_MIN_SCORES
        assert pool.call_count == 1
    assert threading.active_count() == before


def test_usable_cpus_falls_back_to_the_cpu_count_without_affinity(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert metrics_mod._usable_cpus() == (os.cpu_count() or 1)


_BAD_KS = {  # ks against three classes, and the error each one raises
    (0,): "ks must be positive and distinct, got (0,)",
    (4,): "top-k 4 exceeds the 3 classes",
    (2, -1): "ks must be positive and distinct, got (2, -1)",
    (1, 2, 4): "top-k 4 exceeds the 3 classes",
    (2, 2): "ks must be positive and distinct, got (2, 2)",
    (): "ks must not be empty",
}


@pytest.mark.parametrize("ks", list(_BAD_KS))
def test_evaluate_rejects_a_bad_k_before_scoring(ks):
    bundle = hand_bundle()  # three classes
    with mock.patch.object(metrics_mod, "infer_scores", side_effect=AssertionError) as scored:
        with pytest.raises(ValueError, match=f"^{re.escape(_BAD_KS[ks])}$"):
            evaluate(None, bundle.test, bundle.semantics, ks=ks)
    scored.assert_not_called()


def test_evaluate_rejects_semantics_of_another_class_count_before_scoring():
    bundle = hand_bundle()  # three classes
    short = SemanticMatrix(bundle.semantics.rows[:2])
    with mock.patch.object(metrics_mod, "infer_scores", side_effect=AssertionError) as scored:
        with pytest.raises(ValueError, match="semantics has 2 classes, the dataset 3"):
            evaluate(None, bundle.test, short)
    scored.assert_not_called()


@settings(max_examples=200, deadline=None)
@given(_tie_heavy_case())
def test_per_class_auroc_equals_rankdata_oracle_exactly(case):
    scores, labels = case
    want = _rankdata_auroc_oracle(scores, labels)
    assert per_class_auroc(scores, labels) == want
    for j, value in enumerate(want):
        assert _column_auroc(scores[:, j], labels[:, j]) == value


_FMAX = np.finfo(float).max


@settings(max_examples=200, deadline=None)
@given(_tie_heavy_case())
@example((np.full((2, 4), -_FMAX), np.eye(2, 4, dtype=np.int8)))  # taken scores sink below these
@example((np.array([[0.0, _FMAX, -1.0, _FMAX], [_FMAX, -_FMAX, _FMAX, 0.0]]),
          np.eye(2, 4, dtype=np.int8)))
def test_topk_equals_stable_argsort_oracle_exactly(case):
    scores, labels = case
    c = scores.shape[1]
    for k in range(1, c + 1):
        np.testing.assert_array_equal(_picked(scores, k), _topk_mask_oracle(scores, k))
        want = _topk_metrics_by_mask(scores, labels, k, _topk_mask_oracle)
        assert topk_metrics(scores, labels, k) == want
    every = metrics_mod._top_columns(scores, c)  # k = C: each row lists each column once
    np.testing.assert_array_equal(np.sort(every, axis=1), np.broadcast_to(np.arange(c), every.shape))


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
    with pytest.raises(ValidationError, match="top-k"):
        topk_metrics(np.empty((0, 5)), np.empty((0, 5)), 2)
    for metric in (per_class_auroc, lambda s, y: topk_metrics(s, y, 1)):
        for bad_scores, bad_labels in ((scores, labels[:2]), (scores[:, :1], labels)):
            with pytest.raises(ValueError, match=r"^scores shape \(\d, \d\) != labels shape ") as exc:
                metric(bad_scores, bad_labels)
            assert exc.type is ValueError


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
    got = _picked(np.array([[0.5, 0.7, 0.5, 0.5]]), k=3)
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


@settings(max_examples=200, deadline=None)
@given(e=st.floats(-160.0, 160.0), seed=st.integers(0, 2**16))
def test_infer_scores_are_cosines_or_raise_at_any_scale(e, seed):
    """What evaluate relies on to skip its finite check: at any weight and feature
    scale, infer_scores gives finite scores in [-1, 1] or raises DegenerateVectorError,
    with no numpy warning (the suite turns warnings into errors)."""
    bundle = hand_bundle()
    params = init_model_params(default_model_spec(4, 3), seed)
    params.flat *= 10.0**e
    try:
        scores = infer_scores(params, bundle.test.features * 10.0**e, bundle.semantics)
    except DegenerateVectorError:
        return
    assert np.isfinite(scores).all()
    assert np.abs(scores).max() <= 1.0


@pytest.mark.parametrize("ks", [(1, 2), (3, 2)], ids=["ascending ks", "descending ks"])
def test_report_json_round_trip_is_exact(tmp_path, ks):
    bundle = hand_bundle()
    params = init_model_params(ModelSpec((4, 3), (3, 3), (4, 4)), seed=1)
    report = evaluate(params, bundle.test, bundle.semantics, ks=ks)
    assert [m.k for m in report.per_k] == sorted(ks)
    path = tmp_path / "report.json"
    write_report_json(report, path)
    again = read_report_json(path)
    assert again == report
    assert MetricsReport.from_dict(report.to_dict()) == report


def test_report_csv_layout(tmp_path):
    bundle = hand_bundle()
    params = init_model_params(ModelSpec((4, 3), (3, 3), (4, 4)), seed=1)
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


def test_report_csv_quotes_class_names(tmp_path):
    bundle = hand_bundle()
    params = init_model_params(ModelSpec((4, 3), (3, 3), (4, 4)), seed=1)
    report = evaluate(params, bundle.test, bundle.semantics)
    names = ("pleural effusion, left", 'the "b" class', "line\nbreak")
    vocab = ClassVocabulary(names=names, seen_ids=(0, 1), unseen_ids=(2,))
    path = tmp_path / "report.csv"
    write_report_csv(report, vocab, path)
    with open(path, newline="", encoding="utf-8") as fh:
        header, row = csv.reader(fh)
    assert len(header) == len(row) == 7
    assert tuple(header[1:4]) == names
    assert float(row[-1]) == report.harmonic


def test_evaluate_rejects_seen_only_labels():
    bundle = hand_bundle()
    params = init_model_params(ModelSpec((4, 3), (3, 3), (4, 4)), seed=1)
    with pytest.raises(Exception) as exc_info:
        evaluate(params, bundle.train, bundle.semantics)
    assert "all classes" in str(exc_info.value)
