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


def infer_scores(
    params: ModelParams, features: np.ndarray, semantics: SemanticMatrix
) -> np.ndarray:
    """Cosine score matrix of every sample against every class.

    The returned matrix is (N, C) with entries in [-1, 1]. Restricting the
    columns to the seen classes reproduces training-time relevance exactly.
    """
    F = np.atleast_2d(np.asarray(features, dtype=np.float64))
    enc = mlp_forward(params.encoder, F)[0] if params.encoder is not None else F
    Z, _ = mlp_forward(params.visual_map, enc)
    T, _ = mlp_forward(params.semantic_map, semantics.rows)
    return pairwise_cosine(Z, T, "latent vector")


def _topk_mask(S: np.ndarray, k: int) -> np.ndarray:
    """Boolean mask of each row's k best scores; ties go to the lower class index.

    One partition per row finds the k-th largest score ``thr``: every score
    above it is picked, and scores equal to it fill the remaining quota in
    ascending column order, as a stable descending sort would. O(N*C).
    """
    c = S.shape[1]
    if not 1 <= k <= c:
        raise ValueError(f"k={k} out of range for {c} classes")
    if not np.isfinite(S).all():
        raise ValidationError("top-k scores must be finite")
    thr = np.partition(S, c - k, axis=1)[:, c - k, None]
    picked = S > thr
    tied = S == thr
    quota = k - picked.sum(axis=1)
    over = tied.sum(axis=1) > quota  # only these rows have ties left out
    tied[over] &= np.cumsum(tied[over], axis=1) <= quota[over, None]
    picked |= tied
    return picked


@dataclass(frozen=True)
class TopKMetrics:
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

    tp = int((picked & Y).sum())
    total_pos = int(Y.sum())
    precision = tp / (n * k)
    recall = tp / total_pos if total_pos > 0 else 0.0

    tp_c = (picked & Y).sum(axis=0).astype(np.float64)
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

    The transposed score matrix is sorted once, one contiguous row per
    class, and each class's positives are ranked in its row.
    """
    S = np.atleast_2d(np.asarray(scores, dtype=np.float64))
    Y = np.atleast_2d(np.asarray(labels))
    if S.shape != Y.shape:
        raise ValueError(f"scores shape {S.shape} != labels shape {Y.shape}")
    if not np.isfinite(S).all():
        raise ValidationError("AUROC scores must be finite")
    cls, rows = np.nonzero(Y.T > 0.5)  # class-major: each class's positives are contiguous
    pos_scores = np.split(S[rows, cls], np.cumsum(np.bincount(cls, minlength=S.shape[1]))[:-1])
    by_class = S.T.copy()
    by_class.sort(axis=1)
    return [_midrank_auroc(col, pos) for col, pos in zip(by_class, pos_scores)]


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
class MetricsReport:
    """Full evaluation result; round-trips exactly through JSON."""

    per_k: tuple[TopKMetrics, ...]
    per_class_auroc: tuple[float | None, ...]
    seen_mean: float
    unseen_mean: float
    harmonic: float
    n_samples: int
    n_zero_positive: int

    def to_dict(self) -> dict:
        return {
            "per_k": {
                str(m.k): {
                    "recall": m.recall,
                    "precision": m.precision,
                    "f1": m.f1,
                    "macro_recall": m.macro_recall,
                    "macro_precision": m.macro_precision,
                    "macro_f1": m.macro_f1,
                }
                for m in self.per_k
            },
            "per_class_auroc": list(self.per_class_auroc),
            "seen_mean": self.seen_mean,
            "unseen_mean": self.unseen_mean,
            "harmonic": self.harmonic,
            "n_samples": self.n_samples,
            "n_zero_positive": self.n_zero_positive,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MetricsReport":
        per_k = tuple(
            TopKMetrics(
                k=int(k),
                recall=v["recall"],
                precision=v["precision"],
                f1=v["f1"],
                macro_recall=v["macro_recall"],
                macro_precision=v["macro_precision"],
                macro_f1=v["macro_f1"],
            )
            for k, v in sorted(d["per_k"].items(), key=lambda kv: int(kv[0]))
        )
        return cls(
            per_k=per_k,
            per_class_auroc=tuple(d["per_class_auroc"]),
            seen_mean=d["seen_mean"],
            unseen_mean=d["unseen_mean"],
            harmonic=d["harmonic"],
            n_samples=d["n_samples"],
            n_zero_positive=d["n_zero_positive"],
        )


def evaluate(
    params: ModelParams,
    dataset: Dataset,
    semantics: SemanticMatrix,
    ks: tuple[int, ...] = (2, 3),
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
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


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
