"""Training protocol: minibatch Adam epochs, plateau scheduling,
model selection by validation harmonic AUROC, and the hyperparameter grid.
"""

from __future__ import annotations

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
from .metrics import DEFAULT_KS, MetricsReport, evaluate, infer_scores, per_class_auroc
from .networks import MlpSpec, ModelParams, model_spec_dict, pairwise_cosine
from .optimizers import ADAM_HPARAMS, PlateauScheduler, adam_step, init_adam
from .records import JsonRecord, check_finite, write_json


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


def default_model_specs(feature_dim: int, semantic_dim: int) -> tuple[MlpSpec, MlpSpec, MlpSpec]:
    """Mapping-net shapes scaled to the data dims.

    The latent width is 128 capped by the smaller input; hidden
    widths are 4x and 2x the latent, which reproduces the
    [1024, 512, 256, 128] / [d, 512, 256, 128] pyramids at full scale and
    shrinks proportionally at benchmark scale. The feature encoder is
    one hidden ReLU layer of the feature width.
    """
    latent_dim = min(128, max(4, min(feature_dim, semantic_dim)))
    visual = MlpSpec((feature_dim, 4 * latent_dim, 2 * latent_dim, latent_dim))
    semantic = MlpSpec((semantic_dim, 4 * latent_dim, 2 * latent_dim, latent_dim))
    encoder = MlpSpec((feature_dim, feature_dim, feature_dim))
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
    ks: tuple[int, ...] = DEFAULT_KS

    def __post_init__(self):
        check_finite(self)
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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not self.ks:
            raise ValueError("ks must not be empty")
        if any(k < 1 for k in self.ks) or len(set(self.ks)) != len(self.ks):
            raise ValueError(f"ks must be positive and distinct, got {self.ks}")


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


def check_run(cfg: TrainConfig, data: DataBundle, params0: ModelParams) -> None:
    """Raise unless ``train(cfg, data, params0)`` can run; it does no work and writes nothing."""
    params0.validate()
    if cfg.encoder_mode is EncoderMode.FROZEN and params0.encoder is None:
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
    if max(cfg.ks) > data.vocab.n_classes:
        raise ValueError(f"top-k {max(cfg.ks)} exceeds the {data.vocab.n_classes} classes")


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
    check_run(cfg, data, params0)
    frozen = cfg.encoder_mode is EncoderMode.FROZEN
    params = params0.copy()
    adam = init_adam([params.flat])
    grads = params.zeros_like()  # refilled by every batch's total_loss
    n_frozen = params.encoder.spec.n_params if frozen else 0  # the encoder leads flat
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
            breakdown, _ = total_loss(
                X[idx], Y[idx], W_seen, params, cfg.loss, semantic_cosines=c_seen, grads=grads
            )
            if not np.isfinite(breakdown.total):
                raise NonFiniteLossError(epoch=epoch, batch_index=b, value=breakdown.total)
            # a frozen encoder's zero gradient and zero moments make its update exactly 0.0
            grads.flat[:n_frozen] = 0.0
            try:
                adam_step([params.flat], [grads.flat], adam, lr=lr_now)
            except NonFiniteGradientError:
                bad = int(np.flatnonzero(~np.isfinite(grads.flat))[0])
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
        write_json(out / "config.json", config)
        with open(out / "metrics.csv", "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(_metrics_rows(records)) + "\n")
        best_ckpt_path = str(out / "checkpoints" / "best.ckpt")
        save_checkpoint(
            best_ckpt_path, best_params, seed=cfg.seed, epoch=best_epoch, config_hash=digest
        )
        save_checkpoint(
            str(out / "checkpoints" / "last.ckpt"),
            params,
            seed=cfg.seed,
            epoch=cfg.epochs,
            config_hash=digest,
            adam=adam,
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

    def configs(self, base_cfg: TrainConfig, random_trials: int | None = None) -> list[TrainConfig]:
        """``base_cfg`` at each (gamma, lr) combo, gamma-major.

        Each candidate is checked as the ``LossConfig`` and ``TrainConfig``
        it becomes, and two that would share a run directory raise
        ``ValueError``. ``random_trials`` keeps that many combos, drawn
        without replacement (seeded by ``base_cfg.seed``) and kept in grid
        order.
        """
        configs = [
            replace(base_cfg, lr=lr, loss=replace(base_cfg.loss, gamma1=g, gamma2=g))
            for g in self.gamma_candidates
            for lr in self.lr_candidates
        ]
        _check_run_names(configs)
        if random_trials is None:
            return configs
        if not 1 <= random_trials <= len(configs):
            raise ValueError(f"random_trials must be in [1, {len(configs)}], got {random_trials}")
        rng = np.random.default_rng(np.random.SeedSequence(base_cfg.seed))
        chosen = rng.choice(len(configs), size=random_trials, replace=False)
        return [configs[i] for i in sorted(chosen)]


def _run_name(cfg: TrainConfig) -> str:
    """The directory a grid run of ``cfg`` writes to, under the grid's ``out_dir``."""
    return f"gamma{cfg.loss.gamma1:g}_lr{cfg.lr:g}"


def _check_run_names(configs: list[TrainConfig]) -> None:
    """Raise ``ValueError`` when two configs would write to one run directory."""
    names = set()
    for cfg in configs:
        name = _run_name(cfg)
        if name in names:
            raise ValueError(f"two grid candidates share the run directory {name}")
        names.add(name)


@dataclass
class GridResult:
    best: RunRecord
    leaderboard: list[dict]
    failures: list[dict]


def _selection_key(rec: RunRecord):
    h = rec.best_value if np.isfinite(rec.best_value) else -np.inf
    u = rec.best_report.unseen_mean if rec.best_report else -np.inf
    return (-h, -u, rec.config.lr, rec.config.loss.gamma1)


def grid_search(
    configs: list[TrainConfig],
    data: DataBundle,
    params0: ModelParams,
    out_dir=None,
    jobs: int = 1,
) -> GridResult:
    """Train one run per config and pick the winner.

    Selection maximizes the value each run selected its best epoch on
    (``RunRecord.best_value``: validation harmonic AUROC, or mean seen
    AUROC on a seen-only val split); ties break by higher unseen AUROC,
    then lower lr, then lower gamma (``loss.gamma1``). All runs start
    from ``params0``, so configs from ``GridSpec.configs`` differ only in
    gamma and lr. With ``out_dir`` set, each run writes under
    ``gamma{gamma:g}_lr{lr:g}``; configs that would share that name raise
    ``ValueError`` before any run trains. ``jobs`` > 1 runs configs in
    parallel worker processes.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    _check_run_names(configs)
    tasks = [(cfg, data, params0, out_dir) for cfg in configs]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_grid_worker_safe, tasks))
    else:
        results = list(map(_grid_worker_safe, tasks))

    failures = [
        {"gamma": cfg.loss.gamma1, "lr": cfg.lr, "error": err}
        for cfg, (rec, err) in zip(configs, results)
        if rec is None
    ]
    ranked = sorted((rec for rec, _ in results if rec is not None), key=_selection_key)
    if not ranked:
        raise GzslError(f"every grid run failed: {failures}")
    leaderboard = [
        {
            "gamma": rec.config.loss.gamma1,
            "lr": rec.config.lr,
            **_leaderboard_means(rec),
            "best_epoch": rec.best_epoch,
            "out_dir": rec.out_dir,
        }
        for rec in ranked
    ]
    return GridResult(best=ranked[0], leaderboard=leaderboard, failures=failures)


def _leaderboard_means(rec: RunRecord) -> dict:
    """A run's selection means; on a seen-only val split ``best_value`` is the seen mean."""
    if rec.best_report is not None:
        r = rec.best_report
        return {"harmonic": r.harmonic, "unseen_mean": r.unseen_mean, "seen_mean": r.seen_mean}
    seen = rec.best_value if np.isfinite(rec.best_value) else None
    return {"harmonic": None, "unseen_mean": None, "seen_mean": seen}


def _grid_worker_safe(args) -> tuple[RunRecord | None, str | None]:
    """Train one config; a ``GzslError`` becomes the failure text instead of the record."""
    cfg, data, params0, out_dir = args
    run_dir = None if out_dir is None else Path(out_dir) / _run_name(cfg)
    try:
        return train(cfg, data, params0, run_dir), None
    except GzslError as exc:
        return None, f"{type(exc).__name__}: {exc}"
