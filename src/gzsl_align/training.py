"""Training protocol: minibatch Adam epochs, plateau scheduling,
model selection by validation harmonic AUROC, and the hyperparameter grid.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass, field, fields, replace
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
from .metrics import (
    DEFAULT_KS,
    MetricsReport,
    _check_ks,
    evaluate,
    infer_scores,
    per_class_auroc,
)
from .networks import MlpSpec, ModelParams, model_spec_dict, pairwise_cosine
from .optimizers import ADAM_HPARAMS, AdamState, PlateauScheduler, adam_step, init_adam
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
        _check_ks(self.ks, "ks")


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
    "epoch", "lr",
    *(f"{split}_{f.name}" for split in ("train", "val") for f in fields(LossBreakdown)),
    "val_seen_auroc", "val_unseen_auroc", "val_harmonic",
)


def _metrics_rows(records: list[EpochRecord]) -> list[str]:
    lines = [",".join(_CSV_COLUMNS)]
    for r in records:
        values = [r.lr, *astuple(r.train_loss), *astuple(r.val_loss)]
        if r.val_report is not None:  # a seen-only val split leaves the AUROC cells empty
            values += [r.val_report.seen_mean, r.val_report.unseen_mean, r.val_report.harmonic]
        cells = [str(r.epoch), *(repr(float(x)) for x in values)]
        lines.append(",".join(cells + [""] * (len(_CSV_COLUMNS) - len(cells))))
    return lines


def _seen_only_selection_value(params: ModelParams, data: DataBundle) -> float:
    """Mean seen-class AUROC when the val split lacks unseen labels."""
    scores = infer_scores(params, data.val.features, data.semantics)
    per_class = per_class_auroc(scores[:, list(data.vocab.seen_ids)], data.val.labels)
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
    _check_ks(cfg.ks, "ks", data.vocab.n_classes)


@dataclass
class _RunState:
    """A run between epochs: ``_start`` builds it and ``_run_epoch`` advances it."""

    cfg: TrainConfig
    data: DataBundle
    params: ModelParams
    adam: AdamState
    sched: PlateauScheduler
    rng: np.random.Generator
    grads: ModelParams  # refilled by every batch's total_loss
    W_seen: np.ndarray
    c_seen: np.ndarray | None  # the consistency target depends only on the fixed semantics
    records: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = 0
    best_value: float = -np.inf
    best_params: ModelParams | None = None
    best_report: MetricsReport | None = None

    def record(self, out_dir, best_checkpoint: str | None, wall_time: float) -> RunRecord:
        return RunRecord(
            config=self.cfg, epochs=self.records, best_epoch=self.best_epoch,
            best_value=self.best_value, best_params=self.best_params,
            best_report=self.best_report, final_params=self.params,
            out_dir=None if out_dir is None else str(out_dir),
            best_checkpoint=best_checkpoint, wall_time=wall_time,
        )


def _start(cfg: TrainConfig, data: DataBundle, params0: ModelParams) -> _RunState:
    """Check the inputs, then build a run's state at epoch 0 and its per-run constants."""
    check_run(cfg, data, params0)
    params = params0.copy()
    W_seen = data.semantics.seen_rows(data.vocab)
    return _RunState(
        cfg, data, params, init_adam([params.flat]),
        PlateauScheduler(cfg.lr, cfg.patience, cfg.lr_factor, cfg.min_delta),
        np.random.default_rng(np.random.SeedSequence(cfg.seed)),
        grads=params.zeros_like(),
        W_seen=W_seen,
        c_seen=pairwise_cosine(W_seen, W_seen, "semantic row") if cfg.loss.use_con else None,
    )


def _run_epoch(st: _RunState) -> None:
    """One epoch: minibatch Adam steps, the no-gradient train and val passes,
    model selection, then the scheduler. With no finite selection value by
    the last epoch, the last epoch is the best.
    """
    cfg, data, params, grads, adam = st.cfg, st.data, st.params, st.grads, st.adam
    W_seen, c_seen, epoch, lr_now = st.W_seen, st.c_seen, len(st.records) + 1, st.sched.lr
    X, Y = data.train.features, data.train.seen_label_view()
    # a frozen encoder leads flat; its zero gradient and moments make its update exactly 0.0
    n_frozen = params.encoder.spec.n_params if cfg.encoder_mode is EncoderMode.FROZEN else 0
    n = len(data.train)
    order = st.rng.permutation(n) if cfg.shuffle else np.arange(n)
    for b, start in enumerate(range(0, n, cfg.batch_size)):
        idx = order[start : start + cfg.batch_size]
        breakdown, _ = total_loss(
            X[idx], Y[idx], W_seen, params, cfg.loss, semantic_cosines=c_seen, grads=grads
        )
        if not np.isfinite(breakdown.total):
            raise NonFiniteLossError(epoch=epoch, batch_index=b, value=breakdown.total)
        grads.flat[:n_frozen] = 0.0
        try:
            adam_step([params.flat], [grads.flat], adam, lr=lr_now)
        except NonFiniteGradientError:
            bad = grads.array_name(int(np.flatnonzero(~np.isfinite(grads.flat))[0]))
            raise NonFiniteGradientError(f"non-finite gradient in {bad}") from None

    train_eval, val_eval = (
        total_loss(F, L, W_seen, params, cfg.loss, compute_grads=False, semantic_cosines=c_seen)[0]
        for F, L in ((X, Y), (data.val.features, data.val.seen_label_view()))
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

    reduced = st.sched.observe(val_eval.total)
    st.records.append(EpochRecord(epoch, train_eval, val_eval, report, lr_now, reduced))
    # a nan value never wins, and it comes with no report
    if value > st.best_value or (st.best_epoch == 0 and epoch == cfg.epochs):
        st.best_epoch, st.best_value, st.best_report = epoch, value, report
        st.best_params = params.copy()


def _write_run(st: _RunState, out: Path) -> str:
    """Write config.json, metrics.csv and checkpoints/{best,last}.ckpt; return best.ckpt's path."""
    cfg, frozen = st.cfg, st.cfg.encoder_mode is EncoderMode.FROZEN
    (out / "checkpoints").mkdir(parents=True, exist_ok=True)
    config = run_config_dict(cfg, st.params)
    digest = config_digest(config)
    write_json(out / "config.json", config)
    with open(out / "metrics.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(_metrics_rows(st.records)) + "\n")
    best = str(out / "checkpoints" / "best.ckpt")
    save_checkpoint(best, st.best_params, seed=cfg.seed, epoch=st.best_epoch, config_hash=digest)
    save_checkpoint(
        str(out / "checkpoints" / "last.ckpt"), st.params, seed=cfg.seed,
        epoch=len(st.records), config_hash=digest, adam=st.adam,
        adam_hparams={**ADAM_HPARAMS, "lr": st.sched.lr, "frozen_encoder": frozen},
    )
    return best


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
    st = _start(cfg, data, params0)
    for _ in range(cfg.epochs):
        _run_epoch(st)
    best_checkpoint = None if out_dir is None else _write_run(st, Path(out_dir))
    return st.record(out_dir, best_checkpoint, time.perf_counter() - t0)


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
