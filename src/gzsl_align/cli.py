"""Command-line surface: generate, validate, train, grid, eval, gradcheck, report.

Exit codes: 0 success, 1 validation failure (bad inputs, bad config,
inductive violations), 2 runtime error. Config precedence for training
commands is flags > config file > defaults, and the fully resolved
config is written next to the outputs. GZSL_ALIGN_LOG=debug|info|...
controls verbosity.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys
from pathlib import Path

from .checkpoints import load_checkpoint
from .data import SPLIT_NAMES, load_manifest, save_manifest
from .exceptions import GzslError, ValidationError
from .gradcheck import run_gradient_check
from .losses import TERM_NAMES
from .metrics import (
    MetricsReport,
    evaluate,
    read_report_json,
    write_report_csv,
    write_report_json,
)
from .networks import ModelParams, init_model_params, read_model_spec
from .records import to_json
from .synthetic import SemanticGeometry, SynthSpec, generate
from .training import (
    EncoderMode,
    GridSpec,
    TrainConfig,
    default_model_specs,
    grid_search,
    train,
)

log = logging.getLogger("gzsl_align")


def _setup_logging() -> None:
    level_name = os.environ.get("GZSL_ALIGN_LOG", "warning").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(",") if x.strip())
    except ValueError as exc:
        raise ValidationError(f"expected comma-separated numbers, got {text!r}") from exc


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError as exc:
        raise ValidationError(f"expected comma-separated integers, got {text!r}") from exc


def _parse_terms(text: str) -> tuple[str, ...]:
    terms = tuple(t.strip() for t in text.split(",") if t.strip())
    unknown = set(terms) - set(TERM_NAMES)
    if unknown:
        raise ValidationError(
            f"unknown loss terms {sorted(unknown)}; valid: {', '.join(TERM_NAMES)}"
        )
    if not terms:
        raise ValidationError("term mask must name at least one of rank, align, con")
    return terms


def _write_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_config_file(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: config file must hold a JSON object")
    return data


def _overlay(base: dict, layer, where: str = "train config") -> dict:
    """``base`` with ``layer``'s keys on top; nested objects merge key by key."""
    if not isinstance(layer, dict):
        raise ValueError(f"{where} must be a JSON object, got {layer!r}")
    merged = dict(base)
    for key, value in layer.items():
        merged[key] = _overlay(base[key], value, key) if isinstance(base.get(key), dict) else value
    return merged


def _resolve_train_config(args) -> tuple[TrainConfig, dict | None]:
    """Layer the defaults, the config file's train section and the set flags.

    Returns the config and the file's model section (None without one).
    """
    layers = [TrainConfig().to_dict()]
    model_section = None
    if args.config is not None:
        file_cfg = _load_config_file(args.config)
        model_section = file_cfg.get("model")
        # a run's config.json nests the train section; a flat file is one
        section = {k: v for k, v in file_cfg.items() if k != "model"}
        layers.append(section["train"] if set(section) == {"train"} else section)
    loss = {"gamma1": args.gamma1, "gamma2": args.gamma2, "delta": args.delta}
    if args.term_mask is not None:
        terms = _parse_terms(args.term_mask)
        loss.update({f"use_{t}": t in terms for t in TERM_NAMES})
    flags = {
        "epochs": args.epochs,
        "batch_size": args.batch_size,
        "lr": args.lr,
        "seed": args.seed,
        "encoder_mode": args.encoder_mode,
        "ks": None if args.k is None else _parse_ints(args.k),
        "loss": {k: v for k, v in loss.items() if v is not None},
    }
    layers.append(to_json({k: v for k, v in flags.items() if v is not None}))
    try:
        return TrainConfig.from_dict(functools.reduce(_overlay, layers)), model_section
    except ValueError as exc:
        raise ValidationError(f"invalid training config: {exc}") from exc


def _build_model(bundle, cfg: TrainConfig, model_section, latent_dim) -> ModelParams:
    """Initial parameters: the config file's model section, else the default shapes.

    Rejects what the run could not honour before any artifact is written:
    ``--latent-dim`` beside a model section, and frozen mode without an encoder.
    """
    if model_section is None:
        v, d = bundle.train.feature_dim, bundle.semantics.dim
        specs = default_model_specs(v, d, True, latent_dim)
    elif latent_dim is not None:
        raise ValidationError(
            "--latent-dim cannot be combined with the --config model section; "
            "drop one of them"
        )
    else:
        specs = read_model_spec(model_section)
    if cfg.encoder_mode is EncoderMode.FROZEN and specs[2] is None:
        raise ValidationError(
            "encoder mode frozen needs an encoder, and the --config model section "
            'has "encoder": null'
        )
    return init_model_params(*specs, cfg.seed)


def _cmd_generate(args) -> int:
    geometry = SemanticGeometry(
        parents_min=args.parents_min,
        parents_max=args.parents_max,
        jitter=args.jitter,
    )
    try:
        spec = SynthSpec(
            n_classes=args.classes,
            n_seen=args.seen,
            d=args.d,
            v=args.v,
            n_train=args.n_train,
            n_val=args.n_val,
            n_test=args.n_test,
            geometry=geometry,
            noise_sigma=args.noise_sigma,
            max_labels_per_sample=args.max_labels,
            seed=args.seed,
        )
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    bundle = generate(spec)
    manifest_path = save_manifest(bundle, out)
    _write_json(out / "synth_spec.json", spec.to_dict())
    log.info("benchmark written under %s", out)
    print(manifest_path)
    return 0


def _cmd_validate(args) -> int:
    bundle = load_manifest(args.manifest)  # raises on every input it rejects
    for name in SPLIT_NAMES:
        ds = bundle.split(name)
        print(f"{name}: {len(ds)} samples, {ds.zero_label_count()} zero-positive samples")
    print("OK")
    return 0


def _cmd_train(args) -> int:
    cfg, model_section = _resolve_train_config(args)
    bundle = load_manifest(args.manifest)
    params0 = _build_model(bundle, cfg, model_section, args.latent_dim)
    record = train(cfg, bundle, params0, args.out_dir)
    h = record.best_report.harmonic if record.best_report else float("nan")
    print(
        f"best epoch {record.best_epoch}: harmonic={h:.4f} "
        f"(checkpoint {record.best_checkpoint})"
    )
    return 0


def _cmd_grid(args) -> int:
    cfg, model_section = _resolve_train_config(args)
    grid = GridSpec(
        gamma_candidates=_parse_floats(args.gammas) if args.gammas else GridSpec().gamma_candidates,
        lr_candidates=_parse_floats(args.lrs) if args.lrs else GridSpec().lr_candidates,
    )
    bundle = load_manifest(args.manifest)
    params0 = _build_model(bundle, cfg, model_section, args.latent_dim)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(
        out / "grid_config.json",
        {
            "base": cfg.to_dict(),
            "gamma_candidates": list(grid.gamma_candidates),
            "lr_candidates": list(grid.lr_candidates),
            "jobs": args.jobs,
            "random_trials": args.random_trials,
        },
    )
    result = grid_search(
        grid, cfg, bundle, params0,
        out_dir=out, jobs=args.jobs, random_trials=args.random_trials,
    )
    _write_json(
        out / "grid_summary.json",
        {
            "leaderboard": result.leaderboard,
            "failures": result.failures,
            "best": {
                "gamma": result.best.config.loss.gamma1,
                "lr": result.best.config.lr,
                "out_dir": result.best.out_dir,
                "best_epoch": result.best.best_epoch,
                "harmonic": result.best.best_report.harmonic if result.best.best_report else None,
            },
        },
    )
    best = result.best
    h = best.best_report.harmonic if best.best_report else float("nan")
    print(
        f"best: gamma={best.config.loss.gamma1:g} lr={best.config.lr:g} "
        f"harmonic={h:.4f} ({best.out_dir})"
    )
    return 0


def _cmd_eval(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    bundle = load_manifest(args.manifest)
    ds = bundle.split(args.split)
    ks = _parse_ints(args.k) if args.k else (2, 3)
    report = evaluate(ckpt.params, ds, bundle.semantics, ks)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(
        out / "eval_config.json",
        {
            "checkpoint": str(args.checkpoint),
            "manifest": str(args.manifest),
            "split": args.split,
            "ks": list(ks),
        },
    )
    write_report_json(report, out / "metrics.json")
    write_report_csv(report, bundle.vocab, out / "report.csv")
    print(
        f"{args.split}: seen={report.seen_mean:.4f} unseen={report.unseen_mean:.4f} "
        f"harmonic={report.harmonic:.4f}"
    )
    return 0


def _cmd_gradcheck(args) -> int:
    result = run_gradient_check(
        trials=args.trials, seed=args.seed, tolerance=args.tolerance
    )
    status = "PASS" if result.passed else "FAIL"
    print(
        f"{status}: max relative error {result.max_error:.3e} over "
        f"{result.n_trials} trials (tolerance {result.tolerance:g})"
    )
    if not result.passed:
        print(f"worst: trial {result.worst_trial}, array {result.worst_array}")
        return 1
    return 0


def _render_text_table(report: MetricsReport, vocab) -> str:
    width = max(len(n) for n in vocab.names) + 2
    lines = [f"{'class':<{width}}{'partition':<10}auroc"]
    for i, name in enumerate(vocab.names):
        part = "seen" if i in vocab.seen_ids else "unseen"
        val = report.per_class_auroc[i]
        cell = "-" if val is None else f"{val:.4f}"
        lines.append(f"{name:<{width}}{part:<10}{cell}")
    lines.append("")
    lines.append(
        f"seen_mean={report.seen_mean:.4f} unseen_mean={report.unseen_mean:.4f} "
        f"harmonic={report.harmonic:.4f}"
    )
    for m in report.per_k:
        lines.append(
            f"top-{m.k}: precision={m.precision:.4f} recall={m.recall:.4f} f1={m.f1:.4f}"
        )
    return "\n".join(lines)


def _cmd_report(args) -> int:
    report = read_report_json(args.metrics)
    bundle = load_manifest(args.manifest)
    if len(report.per_class_auroc) != bundle.vocab.n_classes:
        raise ValidationError(
            f"report covers {len(report.per_class_auroc)} classes, "
            f"manifest declares {bundle.vocab.n_classes}"
        )
    print(_render_text_table(report, bundle.vocab))
    if args.out_dir is not None:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_report_csv(report, bundle.vocab, out / "report.csv")
    return 0


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--manifest", required=True, help="dataset manifest JSON")
    p.add_argument("--out-dir", required=True, help="run artifact directory")
    p.add_argument("--config", help="JSON config file (overridden by flags)")
    p.add_argument("--seed", type=int, help="training seed")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--gamma1", type=float)
    p.add_argument("--gamma2", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--encoder-mode", type=EncoderMode, help="end-to-end or frozen")
    p.add_argument("--term-mask", help="comma list from {rank,align,con}")
    p.add_argument("--k", help="comma list of top-k values, e.g. 2,3")
    p.add_argument("--latent-dim", type=int, help="latent width override")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gzsl-align",
        description="Generalized zero-shot multi-label classification engine.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic benchmark")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--classes", type=int, default=14)
    p.add_argument("--seen", type=int, default=10)
    p.add_argument("--d", type=int, default=16)
    p.add_argument("--v", type=int, default=32)
    p.add_argument("--n-train", type=int, default=2000)
    p.add_argument("--n-val", type=int, default=300)
    p.add_argument("--n-test", type=int, default=700)
    p.add_argument("--noise-sigma", type=float, default=0.3)
    p.add_argument("--max-labels", type=int, default=5)
    p.add_argument("--jitter", type=float, default=0.05)
    p.add_argument("--parents-min", type=int, default=2)
    p.add_argument("--parents-max", type=int, default=3)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("validate", help="lint a dataset manifest")
    p.add_argument("--manifest", required=True)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("train", help="one training run")
    _add_train_flags(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("grid", help="hyperparameter grid search")
    _add_train_flags(p)
    p.add_argument("--gammas", help="comma list, default 0.1,0.01,0.05")
    p.add_argument("--lrs", help="comma list, default 1e-4,5e-5,1e-5")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--random-trials", type=int)
    p.set_defaults(func=_cmd_grid)

    p = sub.add_parser("eval", help="score a checkpoint on one split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--split", choices=SPLIT_NAMES, default="test")
    p.add_argument("--out-dir", default=".")
    p.add_argument("--k")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("report", help="render a metrics.json to table form")
    p.add_argument("--metrics", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out-dir")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValidationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except GzslError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
