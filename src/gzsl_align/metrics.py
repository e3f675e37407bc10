"""Inference scoring and the evaluation suite: top-k metrics and AUROC.

Inference reuses the training code path (project visuals, project class
semantics, cosine relevance); the only change is that the semantic matrix
widens from the seen classes to all of them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .data import ClassVocabulary, Dataset, LabelSpace, SemanticMatrix
from .exceptions import UndefinedAurocError, ValidationError
from .networks import ModelParams, mlp_forward, pairwise_cosine
from .records import JsonRecord, write_json

DEFAULT_KS = (2, 3)  # the top-k cut-offs reported when none are given
AUROC_BLOCK = 64  # score columns transposed and sorted together by per_class_auroc
TOPK_BLOCK = 512  # score rows partitioned together by _topk_mask


def infer_scores(
    params: ModelParams, features: np.ndarray, semantics: SemanticMatrix
) -> np.ndarray:
    """Cosine score matrix of every sample against every class.

    The returned matrix is (N, C) with entries in [-1, 1]. Restricting the
    columns to the seen classes reproduces training-time relevance exactly.
    """
    F = np.atleast_2d(np.asarray(features, dtype=np.float64))
    enc = mlp_forward(params.encoder, F, False)[0] if params.encoder is not None else F
    Z, _ = mlp_forward(params.visual_map, enc, False)
    T, _ = mlp_forward(params.semantic_map, semantics.rows, False)
    return pairwise_cosine(Z, T, "latent vector")


def _topk_mask(S: np.ndarray, k: int) -> np.ndarray:
    """Boolean mask of each row's k best scores; ties go to the lower class index.

    One partition per row finds the k-th largest score ``thr``: every score
    above it is picked, and scores equal to it fill the remaining quota in
    ascending column order, as a stable descending sort would. O(N*C).
    The rows are partitioned ``TOPK_BLOCK`` at a time, so the partition's
    copy is one block, not the whole matrix; each row's ``thr`` is the same.
    """
    n, c = S.shape
    if not 1 <= k <= c:
        raise ValueError(f"k={k} out of range for {c} classes")
    if not np.isfinite(S).all():
        raise ValidationError("top-k scores must be finite")
    thr = np.empty((n, 1))
    for i in range(0, n, TOPK_BLOCK):
        rows = slice(i, i + TOPK_BLOCK)
        thr[rows, 0] = np.partition(S[rows], c - k, axis=1)[:, c - k]
    picked = S > thr
    tied = S == thr
    quota = k - picked.sum(axis=1)
    over = tied.sum(axis=1) > quota  # only these rows have ties left out
    tied[over] &= np.cumsum(tied[over], axis=1) <= quota[over, None]
    picked |= tied
    return picked


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


def topk_metrics(scores: np.ndarray, labels: np.ndarray, k: int) -> TopKMetrics:
    """Overall recall/precision/f1 of the top-k predictions per sample.

    Micro counts pool true positives across the whole set: precision is
    TP/(N*k), recall is TP/(total ground-truth positives). Samples without
    positives still occupy precision denominators. Macro variants average
    per-class rates over classes that have at least one positive; a class
    never predicted gets precision 0 there.
    """
    S = np.atleast_2d(np.asarray(scores, dtype=np.float64))
    Y = np.atleast_2d(np.asarray(labels)) > 0.5
    if S.shape != Y.shape:
        raise ValueError(f"scores shape {S.shape} != labels shape {Y.shape}")
    n, c = S.shape
    picked = _topk_mask(S, k)
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
        f_c = np.array([_f1(p, r) for p, r in zip(p_c, r_c)])
        macro_p = float(p_c[has_pos].mean())
        macro_r = float(r_c[has_pos].mean())
        macro_f = float(f_c[has_pos].mean())
    else:
        macro_p = macro_r = macro_f = 0.0

    return TopKMetrics(k, recall, precision, _f1(precision, recall), macro_r, macro_p, macro_f)


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


def per_class_auroc(scores: np.ndarray, labels: np.ndarray) -> list[float | None]:
    """AUROC per class column; None where the column is single-class.

    The score matrix is transposed and sorted ``AUROC_BLOCK`` columns at a
    time, one contiguous row per class, and each class's positives are
    ranked in its row; no full-size copy of the scores is made.
    """
    S = np.atleast_2d(np.asarray(scores, dtype=np.float64))
    Y = np.atleast_2d(np.asarray(labels))
    if S.shape != Y.shape:
        raise ValueError(f"scores shape {S.shape} != labels shape {Y.shape}")
    if not np.isfinite(S).all():
        raise ValidationError("AUROC scores must be finite")
    c = S.shape[1]
    rows, cls = np.nonzero(Y > 0.5)
    order = np.argsort(cls, kind="stable")  # class-major: each class's positives are contiguous
    pos_scores = np.split(S[rows[order], cls[order]],
                          np.cumsum(np.bincount(cls, minlength=c))[:-1])
    out = []
    for j in range(0, c, AUROC_BLOCK):
        cols = slice(j, j + AUROC_BLOCK)
        by_class = S[:, cols].T.copy()
        by_class.sort(axis=1)
        out += map(_midrank_auroc, by_class, pos_scores[cols])
    return out


def gzsl_summary(
    per_class: list[float | None], vocab: ClassVocabulary
) -> tuple[float, float, float]:
    """Seen mean, unseen mean, and their harmonic mean 2SU/(S+U).

    Classes whose AUROC is undefined (None) are excluded from the means;
    a partition left with no defined values is an error.
    """
    if len(per_class) != vocab.n_classes:
        raise ValueError(f"{len(per_class)} AUROC values for {vocab.n_classes} classes")
    means = []
    for name, ids in (("seen", vocab.seen_ids), ("unseen", vocab.unseen_ids)):
        vals = [per_class[i] for i in ids if per_class[i] is not None]
        if not vals:
            raise UndefinedAurocError(f"no defined AUROC in the {name} partition")
        means.append(float(np.mean(vals)))
    s, u = means
    h = 0.0 if s + u == 0 else 2.0 * s * u / (s + u)
    return s, u, h


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
            data = {**data, "per_k": [{**m, "k": int(k)} if isinstance(m, dict) else m
                                      for k, m in entries]}
        return super().from_dict(data)


def evaluate(
    params: ModelParams,
    dataset: Dataset,
    semantics: SemanticMatrix,
    ks: tuple[int, ...] = DEFAULT_KS,
) -> MetricsReport:
    """Score a full-width dataset and assemble the complete report."""
    if dataset.label_space is not LabelSpace.ALL_CLASSES:
        raise ValidationError("evaluation needs labels over all classes")
    scores = infer_scores(params, dataset.features, semantics)
    per_class = per_class_auroc(scores, dataset.labels)
    s, u, h = gzsl_summary(per_class, dataset.vocab)
    return MetricsReport(
        per_k=tuple(topk_metrics(scores, dataset.labels, k) for k in ks),
        per_class_auroc=tuple(per_class),
        seen_mean=s,
        unseen_mean=u,
        harmonic=h,
        n_samples=len(dataset),
        n_zero_positive=dataset.zero_label_count(),
    )


def write_report_json(report: MetricsReport, path) -> None:
    write_json(path, report.to_dict())


def read_report_json(path) -> MetricsReport:
    with open(path, encoding="utf-8") as fh:
        return MetricsReport.from_dict(json.load(fh))


def write_report_csv(report: MetricsReport, vocab: ClassVocabulary, path) -> None:
    """Per-class AUROC row plus the seen/unseen/harmonic summary columns.

    Undefined AUROC cells are left empty. Top-k metrics live in the JSON
    report; this table carries only the AUROC layout.
    """
    header = ["metric", *vocab.names, "seen_mean", "unseen_mean", "harmonic"]
    cells = ["auroc"]
    cells += ["" if v is None else repr(float(v)) for v in report.per_class_auroc]
    cells += [repr(float(v)) for v in (report.seen_mean, report.unseen_mean, report.harmonic)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.write(",".join(cells) + "\n")
