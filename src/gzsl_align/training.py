"""Training protocol: minibatch Adam epochs, plateau scheduling,
model selection by validation harmonic AUROC, and the hyperparameter grid.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path

import numpy as np

from .checkpoints import config_digest, save_checkpoint
from .data import DataBundle, LabelSpace, check_inductive
from .exceptions import (
    GzslError,
    NonFiniteGradientError,
    NonFiniteLossError,
    UndefinedAurocError,
)
from .losses import LossBreakdown, LossConfig, total_loss
from .metrics import MetricsReport, evaluate, infer_scores, per_class_auroc
from .networks import MlpSpec, ModelParams, model_spec_dict, pairwise_cosine
from .optimizers import ADAM_HPARAMS, AdamState, PlateauScheduler, adam_step, init_adam
from .records import JsonRecord


class EncoderMode(Enum):
    END_TO_END = "end_to_end"
    FROZEN = "frozen"

    @classmethod
    def _missing_(cls, value):
        # EncoderMode(" End-To-End ") is END_TO_END: case, dashes and padding do not count
        key = value.strip().lower().replace("-", "_") if isinstance(value, str) else None
        for mode in cls:
            if mode.value == key:
                return mode
        raise ValueError(f"unknown encoder mode {value!r} (use end-to-end or frozen)")


def default_model_specs(
    feature_dim: int,
    semantic_dim: int,
    with_encoder: bool = True,
    latent_dim: int | None = None,
) -> tuple[MlpSpec, MlpSpec, MlpSpec | None]:
    """Mapping-net shapes scaled to the data dims.

    The latent width defaults to 128 capped by the smaller input; hidden
    widths are 4x and 2x the latent, which reproduces the
    [1024, 512, 256, 128] / [d, 512, 256, 128] pyramids at full scale and
    shrinks proportionally at benchmark scale. The optional feature encoder is
    one hidden ReLU layer of the feature width.
    """
    if latent_dim is None:
        latent_dim = min(128, max(4, min(feature_dim, semantic_dim)))
    visual = MlpSpec((feature_dim, 4 * latent_dim, 2 * latent_dim, latent_dim))
    semantic = MlpSpec((semantic_dim, 4 * latent_dim, 2 * latent_dim, latent_dim))
    encoder = MlpSpec((feature_dim, feature_dim, feature_dim)) if with_encoder else None
    return visual, semantic, encoder


@dataclass(frozen=True)
class TrainConfig(JsonRecord):
    """Fully resolved knobs of one training run."""

    epochs: int = 100
    batch_size: int = 32
    lr: float = 1e-4
    loss: LossConfig = field(default_factory=LossConfig)
    seed: int = 0
    encoder_mode: EncoderMode = EncoderMode.END_TO_END
    shuffle: bool = True
    patience: int = 10
    lr_factor: float = 0.01
    min_delta: float = 1e-6
    ks: tuple[int, ...] = (2, 3)

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.lr <= 0:
            raise ValueError(f"lr must be > 0, got {self.lr}")
        if self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")
        if not 0.0 < self.lr_factor < 1.0:
            raise ValueError(f"lr_factor must be in (0, 1), got {self.lr_factor}")
        if self.min_delta < 0:
            raise ValueError(f"min_delta must be >= 0, got {self.min_delta}")
        if not self.ks or any(k < 1 for k in self.ks):
            raise ValueError(f"ks must be positive, got {self.ks}")


@dataclass(frozen=True)
class EpochRecord:
    """State after one epoch: losses on both splits, metrics, lr used."""

    epoch: int
    train_loss: LossBreakdown
    val_loss: LossBreakdown
    val_report: MetricsReport | None
    lr: float
    lr_reduced: bool


@dataclass
class RunRecord:
    """One complete training run, in memory plus optional artifacts."""

    config: TrainConfig
    epochs: list[EpochRecord]
    best_epoch: int
    best_value: float
    best_params: ModelParams
    best_report: MetricsReport | None
    final_params: ModelParams
    out_dir: str | None
    best_checkpoint: str | None
    wall_time: float


def run_config_dict(cfg: TrainConfig, params: ModelParams) -> dict:
    """The resolved, hashable config written next to every run."""
    return {"train": cfg.to_dict(), "model": model_spec_dict(params)}


_CSV_COLUMNS = (
    "epoch",
    "lr",
    "train_rank",
    "train_align",
    "train_con",
    "train_total",
    "val_rank",
    "val_align",
    "val_con",
    "val_total",
    "val_seen_auroc",
    "val_unseen_auroc",
    "val_harmonic",
)


def _metrics_rows(records: list[EpochRecord]) -> list[str]:
    lines = [",".join(_CSV_COLUMNS)]
    for r in records:
        cells = [str(r.epoch), repr(float(r.lr))]
        for bd in (r.train_loss, r.val_loss):
            cells += [repr(float(x)) for x in (bd.rank, bd.align, bd.con, bd.total)]
        if r.val_report is not None:
            cells += [
                repr(float(r.val_report.seen_mean)),
                repr(float(r.val_report.unseen_mean)),
                repr(float(r.val_report.harmonic)),
            ]
        else:
            cells += ["", "", ""]
        lines.append(",".join(cells))
    return lines


def _seen_only_selection_value(params: ModelParams, data: DataBundle) -> float:
    """Mean seen-class AUROC when the val split lacks unseen labels."""
    val = data.val
    scores = infer_scores(params, val.features, data.semantics)
    seen_cols = list(data.vocab.seen_ids)
    per_class = per_class_auroc(scores[:, seen_cols], val.labels)
    vals = [x for x in per_class if x is not None]
    return float(np.mean(vals)) if vals else float("nan")


def train(
    cfg: TrainConfig,
    data: DataBundle,
    params0: ModelParams,
    out_dir=None,
) -> RunRecord:
    """Run the full protocol on one config and return the record.

    Deterministic under (cfg, data, params0): shuffling, updates, and
    artifacts depend only on them. With ``out_dir`` set, writes
    config.json, metrics.csv, and checkpoints/{best,last}.ckpt.
    """
    t0 = time.perf_counter()
    params0.validate()
    frozen = cfg.encoder_mode is EncoderMode.FROZEN
    if frozen and params0.encoder is None:
        raise ValueError("encoder_mode frozen needs a model with an encoder, and this one has none")
    check_inductive(data.train)
    if params0.feature_dim != data.train.feature_dim:
        raise ValueError(
            f"model expects {params0.feature_dim}-dim features, data has {data.train.feature_dim}"
        )
    if params0.semantic_dim != data.semantics.dim:
        raise ValueError(
            f"model expects {params0.semantic_dim}-dim semantics, data has {data.semantics.dim}"
        )

    params = params0.copy()
    # the encoder leads the flat vector, so the trainable values are one slice
    n_frozen = params.encoder.spec.n_params if frozen else 0
    theta = params.flat[n_frozen:]
    adam = init_adam([theta])
    sched = PlateauScheduler(
        initial_lr=cfg.lr, patience=cfg.patience, factor=cfg.lr_factor, min_delta=cfg.min_delta
    )
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))

    W_seen = data.semantics.seen_rows(data.vocab)
    # the consistency target depends only on the fixed semantics
    c_seen = pairwise_cosine(W_seen, W_seen, "semantic row") if cfg.loss.use_con else None
    X = data.train.features
    Y = data.train.seen_label_view()
    Xv = data.val.features
    Yv = data.val.seen_label_view()
    n = len(data.train)

    records: list[EpochRecord] = []
    best_value = -np.inf
    best_epoch = 0
    best_params = params.copy()
    best_report: MetricsReport | None = None

    for epoch in range(1, cfg.epochs + 1):
        lr_now = sched.lr
        order = rng.permutation(n) if cfg.shuffle else np.arange(n)
        for b, start in enumerate(range(0, n, cfg.batch_size)):
            idx = order[start : start + cfg.batch_size]
            breakdown, grads = total_loss(
                X[idx], Y[idx], W_seen, params, cfg.loss, semantic_cosines=c_seen
            )
            if not np.isfinite(breakdown.total):
                raise NonFiniteLossError(epoch=epoch, batch_index=b, value=breakdown.total)
            try:
                adam_step([theta], [grads.flat[n_frozen:]], adam, lr=lr_now)
            except NonFiniteGradientError:
                bad = n_frozen + int(np.flatnonzero(~np.isfinite(grads.flat[n_frozen:]))[0])
                raise NonFiniteGradientError(
                    f"non-finite gradient in {grads.array_name(bad)}"
                ) from None

        train_eval, _ = total_loss(
            X, Y, W_seen, params, cfg.loss, compute_grads=False, semantic_cosines=c_seen
        )
        val_eval, _ = total_loss(
            Xv, Yv, W_seen, params, cfg.loss, compute_grads=False, semantic_cosines=c_seen
        )

        report: MetricsReport | None = None
        if data.val.label_space is LabelSpace.ALL_CLASSES:
            try:
                report = evaluate(params, data.val, data.semantics, cfg.ks)
                value = report.harmonic
            except UndefinedAurocError:
                value = float("nan")
        else:
            value = _seen_only_selection_value(params, data)

        reduced = sched.observe(val_eval.total)
        records.append(EpochRecord(epoch, train_eval, val_eval, report, lr_now, reduced))
        if np.isfinite(value) and value > best_value:
            best_value = value
            best_epoch = epoch
            best_params = params.copy()
            best_report = report

    if best_epoch == 0:
        best_epoch = cfg.epochs
        best_params = params.copy()
        best_value = float("nan")

    best_ckpt_path = None
    if out_dir is not None:
        out = Path(out_dir)
        (out / "checkpoints").mkdir(parents=True, exist_ok=True)
        config = run_config_dict(cfg, params)
        digest = config_digest(config)
        with open(out / "config.json", "w", encoding="utf-8") as fh:
            json.dump(config, fh, indent=2, sort_keys=True)
            fh.write("\n")
        with open(out / "metrics.csv", "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(_metrics_rows(records)) + "\n")
        best_ckpt_path = str(out / "checkpoints" / "best.ckpt")
        save_checkpoint(
            best_ckpt_path, best_params, seed=cfg.seed, epoch=best_epoch, config_hash=digest
        )
        # a frozen encoder's moments are stored as zeros, so the layout stays full
        pad = [np.zeros(n_frozen)]
        save_checkpoint(
            str(out / "checkpoints" / "last.ckpt"),
            params,
            seed=cfg.seed,
            epoch=cfg.epochs,
            config_hash=digest,
            adam=AdamState(m=pad + adam.m, v=pad + adam.v, step_count=adam.step_count),
            adam_hparams={**ADAM_HPARAMS, "lr": sched.lr, "frozen_encoder": frozen},
        )

    return RunRecord(
        config=cfg,
        epochs=records,
        best_epoch=best_epoch,
        best_value=best_value,
        best_params=best_params,
        best_report=best_report,
        final_params=params,
        out_dir=None if out_dir is None else str(out_dir),
        best_checkpoint=best_ckpt_path,
        wall_time=time.perf_counter() - t0,
    )


@dataclass(frozen=True)
class GridSpec:
    """Candidate sets of the hyperparameter search; gamma ties both weights."""

    gamma_candidates: tuple[float, ...] = (0.1, 0.01, 0.05)
    lr_candidates: tuple[float, ...] = (1e-4, 5e-5, 1e-5)

    def __post_init__(self):
        if not self.gamma_candidates or not self.lr_candidates:
            raise ValueError("candidate sets must be non-empty")
        if any(g < 0 for g in self.gamma_candidates):
            raise ValueError("gamma candidates must be >= 0")
        if any(lr <= 0 for lr in self.lr_candidates):
            raise ValueError("lr candidates must be > 0")

    def combos(self) -> list[tuple[float, float]]:
        return [(g, lr) for g in self.gamma_candidates for lr in self.lr_candidates]


@dataclass
class GridResult:
    best: RunRecord
    leaderboard: list[dict]
    failures: list[dict]


def _combo_config(base_cfg: TrainConfig, gamma: float, lr: float) -> TrainConfig:
    return replace(base_cfg, lr=lr, loss=replace(base_cfg.loss, gamma1=gamma, gamma2=gamma))


def _combo_dir(out_dir, gamma: float, lr: float):
    if out_dir is None:
        return None
    return str(Path(out_dir) / f"gamma{gamma:g}_lr{lr:g}")


def _selection_key(gamma: float, lr: float, rec: RunRecord):
    h = rec.best_report.harmonic if rec.best_report else -np.inf
    u = rec.best_report.unseen_mean if rec.best_report else -np.inf
    return (-h, -u, lr, gamma)


def grid_search(
    grid: GridSpec,
    base_cfg: TrainConfig,
    data: DataBundle,
    params0: ModelParams,
    out_dir=None,
    jobs: int = 1,
    random_trials: int | None = None,
) -> GridResult:
    """Train one run per (gamma, lr) combination and pick the winner.

    Selection maximizes validation harmonic AUROC; ties break by higher
    unseen AUROC, then lower lr, then lower gamma. All runs share the
    base config's seed and initial parameters so combos differ only in
    hyperparameters. ``random_trials`` subsamples the grid without
    replacement (seeded by the base config); ``jobs`` > 1 runs combos in
    parallel worker processes.
    """
    combos = grid.combos()
    if random_trials is not None:
        if not 1 <= random_trials <= len(combos):
            raise ValueError(
                f"random_trials must be in [1, {len(combos)}], got {random_trials}"
            )
        rng = np.random.default_rng(np.random.SeedSequence(base_cfg.seed))
        chosen = rng.choice(len(combos), size=random_trials, replace=False)
        combos = [combos[i] for i in sorted(chosen)]

    tasks = [(base_cfg, data, params0, out_dir, g, lr) for g, lr in combos]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_grid_worker_safe, tasks))
    else:
        results = list(map(_grid_worker_safe, tasks))
    outcomes = [(g, lr, rec, err) for (g, lr), (rec, err) in zip(combos, results)]

    failures = [{"gamma": g, "lr": lr, "error": err} for g, lr, rec, err in outcomes if rec is None]
    ranked = sorted(
        ((g, lr, rec) for g, lr, rec, _ in outcomes if rec is not None),
        key=lambda run: _selection_key(*run),
    )
    if not ranked:
        raise GzslError(f"every grid run failed: {failures}")
    leaderboard = [
        {
            "gamma": g,
            "lr": lr,
            "harmonic": rec.best_report.harmonic if rec.best_report else None,
            "unseen_mean": rec.best_report.unseen_mean if rec.best_report else None,
            "seen_mean": rec.best_report.seen_mean if rec.best_report else None,
            "best_epoch": rec.best_epoch,
            "out_dir": rec.out_dir,
        }
        for g, lr, rec in ranked
    ]
    return GridResult(best=ranked[0][2], leaderboard=leaderboard, failures=failures)


def _grid_worker_safe(args) -> tuple[RunRecord | None, str | None]:
    """Train one combo; a ``GzslError`` becomes the failure text instead of the record."""
    base_cfg, data, params0, out_dir, gamma, lr = args
    try:
        cfg = _combo_config(base_cfg, gamma, lr)
        return train(cfg, data, params0, _combo_dir(out_dir, gamma, lr)), None
    except GzslError as exc:
        return None, f"{type(exc).__name__}: {exc}"
