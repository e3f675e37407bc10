"""Inference scoring and the evaluation suite: top-k metrics and AUROC.

Inference reuses the training code path (project visuals, project class
semantics, cosine relevance); the only change is that the semantic matrix
widens from the seen classes to all of them.
"""

from __future__ import annotations

import csv
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .data import ClassVocabulary, Dataset, LabelSpace, SemanticMatrix
from .exceptions import UndefinedAurocError, ValidationError
from .networks import ModelParams, mlp_forward, pairwise_cosine
from .records import JsonRecord

DEFAULT_KS = (2, 3)  # the top-k cut-offs reported when none are given
AUROC_BLOCK = 64  # score columns transposed and sorted together for AUROC
TILE_ROWS = 512  # score rows copied into an AUROC block at a time
PARALLEL_MIN_SCORES = 2**20  # AUROC is ranked on threads, beside top-k, from this size
TOPK_BLOCK = 512  # score rows ranked together for top-k


def infer_scores(
    params: ModelParams, features: np.ndarray, semantics: SemanticMatrix
) -> np.ndarray:
    """Cosine score matrix of every sample against every class.

    The returned matrix is (N, C) with entries in [-1, 1]. Restricting the
    columns to the seen classes reproduces training-time relevance exactly.
    """
    F = np.atleast_2d(np.asarray(features, dtype=np.float64))
    with np.errstate(over="ignore", invalid="ignore"):  # pairwise_cosine names a bad row
        enc = mlp_forward(params.encoder, F, False)[0] if params.encoder is not None else F
        Z, _ = mlp_forward(params.visual_map, enc, False)
        T, _ = mlp_forward(params.semantic_map, semantics.rows, False)
    return pairwise_cosine(Z, T, "latent vector")


@dataclass(frozen=True)
class TopKMetrics(JsonRecord):
    """Micro-averaged (headline) and macro-averaged (diagnostic) top-k scores."""

    k: int
    recall: float
    precision: float
    f1: float
    macro_recall: float
    macro_precision: float
    macro_f1: float


def _f1(p: float, r: float) -> float:
    return 0.0 if p + r == 0 else 2.0 * p * r / (p + r)


def _check_ks(ks, name: str, n_classes: int | None = None) -> None:
    """Top-k cut-offs are non-empty, positive, distinct and, given ``n_classes``, at most that.

    ValueError, naming ``name``, on the first rule ``ks`` breaks.
    """
    if not ks:
        raise ValueError(f"{name} must not be empty")
    if any(k < 1 for k in ks) or len(set(ks)) != len(ks):
        raise ValueError(f"{name} must be positive and distinct, got {ks}")
    if n_classes is not None and max(ks) > n_classes:
        raise ValueError(f"top-k {max(ks)} exceeds the {n_classes} classes")


def _checked_inputs(scores, labels, what: str) -> tuple[np.ndarray, np.ndarray]:
    """A caller's scores as a float64 matrix and its labels as a positive mask (label > 0.5).

    ValueError on unequal shapes; ValidationError, naming ``what``, on a non-finite score.
    """
    S = np.atleast_2d(np.asarray(scores, dtype=np.float64))
    Yb = np.atleast_2d(np.asarray(labels)) > 0.5
    if S.shape != Yb.shape:
        raise ValueError(f"scores shape {S.shape} != labels shape {Yb.shape}")
    if not np.isfinite(S).all():
        raise ValidationError(f"{what} scores must be finite")
    return S, Yb


def _positives(Yb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row and column of every positive, in row-major order."""
    return np.divmod(np.flatnonzero(Yb), Yb.shape[1])


def _top_columns(work: np.ndarray, kmax: int) -> np.ndarray:
    """Each row's ``kmax`` best columns of finite scores ``work``, best first, as (N, kmax).

    The rows give up one column each ``kmax`` times, in place, so ``work``
    is spent: the caller passes a copy it reuses from block to block.
    ``argmax`` takes a row's first maximum, so ties go to the lower column,
    as a stable descending sort ranks them, and each taken score becomes
    ``-inf``, below every finite one. Requires ``kmax`` <= the number of
    columns.
    """
    top = np.empty((work.shape[0], kmax), dtype=np.intp)
    rows = np.arange(work.shape[0])
    for r in range(kmax):
        np.argmax(work, axis=1, out=top[:, r])
        work[rows, top[:, r]] = -np.inf
    return top


def _topk(S: np.ndarray, Yb: np.ndarray, ks, pos_c: np.ndarray) -> list[TopKMetrics]:
    """Top-k metrics of checked scores for every k in ``ks``.

    The rows are copied ``TOPK_BLOCK`` at a time into one reused work
    block and ranked there, once at the largest k, so each k counts a
    prefix of the same ranking and nothing larger than a block is
    allocated.
    """
    n, c = S.shape
    tp_c = np.zeros((len(ks), c), dtype=np.int64)
    pred_c = np.zeros((len(ks), c), dtype=np.int64)
    work = np.empty((min(TOPK_BLOCK, n), c))
    for i in range(0, n, TOPK_BLOCK):
        B = work[:min(TOPK_BLOCK, n - i)]
        np.copyto(B, S[i:i + TOPK_BLOCK])
        top = _top_columns(B, max(ks))
        hit = np.take_along_axis(Yb[i:i + TOPK_BLOCK], top, axis=1)
        for j, k in enumerate(ks):
            pred_c[j] += np.bincount(top[:, :k].ravel(), minlength=c)
            tp_c[j] += np.bincount(top[:, :k][hit[:, :k]], minlength=c)

    total_pos = int(pos_c.sum())
    has_pos = pos_c > 0
    out = []
    for k, tp_k, pred_k in zip(ks, tp_c, pred_c):
        tp = int(tp_k.sum())
        precision = tp / (n * k)
        recall = tp / total_pos if total_pos > 0 else 0.0
        if has_pos.any():
            p_c = np.divide(tp_k, pred_k, out=np.zeros(c), where=pred_k > 0)
            r_c = np.divide(tp_k, pos_c, out=np.zeros(c), where=has_pos)
            pr = p_c + r_c
            f_c = np.divide(2.0 * p_c * r_c, pr, out=np.zeros(c), where=pr != 0)
            macro_p = float(p_c[has_pos].mean())
            macro_r = float(r_c[has_pos].mean())
            macro_f = float(f_c[has_pos].mean())
        else:
            macro_p = macro_r = macro_f = 0.0
        out.append(TopKMetrics(k, recall, precision, _f1(precision, recall),
                               macro_r, macro_p, macro_f))
    return out


def topk_metrics(scores: np.ndarray, labels: np.ndarray, k: int) -> TopKMetrics:
    """Overall recall/precision/f1 of the top-k predictions per sample.

    Micro counts pool true positives across the whole set: precision is
    TP/(N*k), recall is TP/(total ground-truth positives). Samples without
    positives still occupy precision denominators. Macro variants average
    per-class rates over classes that have at least one positive; a class
    never predicted gets precision 0 there. Zero samples raise ValidationError.
    """
    S, Yb = _checked_inputs(scores, labels, "top-k")
    if S.shape[0] == 0:
        raise ValidationError("top-k needs at least one sample")
    _check_ks((k,), "k", S.shape[1])
    return _topk(S, Yb, (k,), Yb.sum(axis=0))[0]


def _midrank_auroc(sorted_scores: np.ndarray, pos_scores: np.ndarray) -> float | None:
    """Mann-Whitney AUROC of one class; None when it has a single label value.

    ``sorted_scores`` holds the class's scores over all samples in ascending
    order and ``pos_scores`` those of its positives. A positive's mid-rank
    (ties averaged) is read off two binary searches. Mid-ranks are
    half-integers, so their sum is exact and the result equals the
    rank-sum formula over a full ranking bit for bit.
    """
    n_pos = pos_scores.size
    n_neg = sorted_scores.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    below = np.searchsorted(sorted_scores, pos_scores, "left")
    through = np.searchsorted(sorted_scores, pos_scores, "right")
    rank_sum = (below.sum() + through.sum() + n_pos) / 2.0
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _fill_sorted(out: np.ndarray, cols: np.ndarray) -> None:
    """Copy score columns ``cols`` into the rows of ``out``, then sort each row in place.

    The copy goes ``TILE_ROWS`` score rows at a time, so each tile's rows
    are read once while they sit in cache. Nothing is allocated.
    """
    for r in range(0, cols.shape[0], TILE_ROWS):
        out[:, r:r + TILE_ROWS] = cols[r:r + TILE_ROWS].T
    out.sort(axis=1)


def _rank_range(buf: np.ndarray, S: np.ndarray, pos_scores: list, a: int, b: int) -> list:
    """AUROC of classes ``a`` to ``b - 1``, ``len(buf)`` at a time through the rows of ``buf``.

    ``pos_scores[j]`` holds the scores of class ``j``'s positives.
    """
    out = []
    for j in range(a, b, len(buf)):
        w = min(len(buf), b - j)
        _fill_sorted(buf[:w], S[:, j:j + w])
        out += map(_midrank_auroc, buf[:w], pos_scores[j:j + w])
    return out


def _auroc(S: np.ndarray, rows: np.ndarray, cls: np.ndarray, pos_c: np.ndarray,
           meanwhile=lambda: None) -> tuple[list[float | None], object]:
    """Per-column AUROC of checked scores from the positives' rows and columns, and ``meanwhile()``.

    One ``(AUROC_BLOCK, N)`` buffer serves every class: each class's
    scores become one contiguous row, filled from row tiles and sorted,
    and the class's positives are then ranked in its row. The classes are
    split once into one contiguous range per worker, and each worker
    takes its range through its own share of the buffer's rows. From
    ``PARALLEL_MIN_SCORES`` scores on, and with more than one usable CPU,
    the workers are threads of a pool that lives only as long as this
    call (numpy releases the GIL for the copies, sorts and searches), and
    ``meanwhile`` runs on the calling thread while they rank; otherwise
    one range covering every class runs inline, then ``meanwhile``. A
    worker's error, or the caller's, is raised once every worker is done.
    There are never more workers than classes or buffer rows. The copies
    are exact and each sort and search sees the same values, so the
    result is the same bits for any tile size or number of workers.
    """
    order = np.argsort(cls, kind="stable")  # class-major: each class's positives are contiguous
    pos_sorted = S[rows[order], cls[order]]
    ends = np.cumsum(pos_c).tolist()
    pos_scores = [pos_sorted[a:b] for a, b in zip([0, *ends], ends)]
    n, c = S.shape
    buf = np.empty((min(AUROC_BLOCK, c) or 1, n))  # one row even for no classes
    workers = min(_usable_cpus(), len(buf)) if S.size >= PARALLEL_MIN_SCORES else 1
    if workers == 1:
        return _rank_range(buf, S, pos_scores, 0, c), meanwhile()
    cut = [c * i // workers for i in range(workers + 1)]
    share = [len(buf) * i // workers for i in range(workers + 1)]
    with ThreadPoolExecutor(workers) as pool:
        ranked = [pool.submit(_rank_range, buf[share[i]:share[i + 1]], S, pos_scores,
                              cut[i], cut[i + 1]) for i in range(workers)]
        beside = meanwhile()
        return [v for part in ranked for v in part.result()], beside


def per_class_auroc(scores: np.ndarray, labels: np.ndarray) -> list[float | None]:
    """AUROC per class column; None where the column is single-class.

    The scores are transposed into one reused buffer ``AUROC_BLOCK``
    columns at a time, from row tiles, by one worker per class range on
    threads for a large matrix (see ``_auroc``); no full-size copy of the
    scores is made, and the result does not depend on the number of CPUs.
    """
    S, Yb = _checked_inputs(scores, labels, "AUROC")
    rows, cls = _positives(Yb)
    return _auroc(S, rows, cls, np.bincount(cls, minlength=S.shape[1]))[0]


def gzsl_summary(
    per_class: list[float | None], vocab: ClassVocabulary
) -> tuple[float, float, float]:
    """Seen mean, unseen mean, and their harmonic mean 2SU/(S+U).

    Classes whose AUROC is undefined (None) are excluded from the means;
    seen or unseen classes without one defined value are an error.
    """
    if len(per_class) != vocab.n_classes:
        raise ValueError(f"{len(per_class)} AUROC values for {vocab.n_classes} classes")
    means = []
    for name, ids in (("seen", vocab.seen_ids), ("unseen", vocab.unseen_ids)):
        vals = [per_class[i] for i in ids if per_class[i] is not None]
        if not vals:
            raise UndefinedAurocError(f"no defined AUROC among the {name} classes")
        means.append(float(np.mean(vals)))
    s, u = means
    return s, u, _f1(s, u)


@dataclass(frozen=True)
class MetricsReport(JsonRecord):
    """Full evaluation result; round-trips exactly through JSON."""

    per_k: tuple[TopKMetrics, ...]
    per_class_auroc: tuple[float | None, ...]
    seen_mean: float
    unseen_mean: float
    harmonic: float
    n_samples: int
    n_zero_positive: int

    def to_dict(self) -> dict:
        d = super().to_dict()
        d["per_k"] = {str(m.pop("k")): m for m in d["per_k"]}  # JSON keys each entry by its k
        return d

    @classmethod
    def from_dict(cls, data) -> "MetricsReport":
        if isinstance(data, dict) and "per_k" in data:
            per_k = data["per_k"]
            if not (isinstance(per_k, dict) and all(k.isdecimal() for k in per_k)):
                raise ValueError(f"MetricsReport.per_k must be an object keyed by k, got {per_k!r}")
            entries = sorted(per_k.items(), key=lambda kv: int(kv[0]))
            _check_ks([int(k) for k, _ in entries], "MetricsReport.per_k keys")
            data = {**data, "per_k": [{**m, "k": int(k)} if isinstance(m, dict) else m
                                      for k, m in entries]}
        return super().from_dict(data)


def evaluate(
    params: ModelParams,
    dataset: Dataset,
    semantics: SemanticMatrix,
    ks: tuple[int, ...] = DEFAULT_KS,
) -> MetricsReport:
    """Score a full-width dataset and assemble the complete report.

    ``ks`` (see ``_check_ks``) and the class count of ``semantics`` are
    checked before any scoring; ``per_k`` is in ascending k, so the report
    round-trips through JSON. ``pairwise_cosine`` makes the scores finite
    and a ``Dataset`` makes the labels 0 or 1, so neither is checked again.
    Top-k runs on the calling thread while the AUROC workers rank their
    class ranges (see ``_auroc``); the report's bytes do not depend on the
    number of workers.
    """
    if dataset.label_space is not LabelSpace.ALL_CLASSES:
        raise ValidationError("evaluation needs labels over all classes")
    n, c = dataset.labels.shape
    _check_ks(ks, "ks", c)
    if len(semantics.rows) != c:
        raise ValueError(f"semantics has {len(semantics.rows)} classes, the dataset {c}")
    scores = infer_scores(params, dataset.features, semantics)
    Yb = dataset.labels.view(np.bool_)
    rows, cls = _positives(Yb)
    pos_c = np.bincount(cls, minlength=c)
    per_class, per_k = _auroc(scores, rows, cls, pos_c,
                              lambda: _topk(scores, Yb, sorted(ks), pos_c))
    s, u, h = gzsl_summary(per_class, dataset.vocab)
    return MetricsReport(
        per_k=tuple(per_k),
        per_class_auroc=tuple(per_class),
        seen_mean=s,
        unseen_mean=u,
        harmonic=h,
        n_samples=n,
        n_zero_positive=int(np.count_nonzero(np.bincount(rows, minlength=n) == 0)),
    )


def write_report_csv(report: MetricsReport, vocab: ClassVocabulary, path) -> None:
    """Per-class AUROC row plus the seen/unseen/harmonic summary columns.

    Undefined AUROC cells are left empty. Top-k metrics live in the JSON
    report; this table carries only the AUROC layout.
    """
    header = ["metric", *vocab.names, "seen_mean", "unseen_mean", "harmonic"]
    cells = ["auroc"]
    cells += ["" if v is None else repr(float(v)) for v in report.per_class_auroc]
    cells += [repr(float(v)) for v in (report.seen_mean, report.unseen_mean, report.harmonic)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, cells])
