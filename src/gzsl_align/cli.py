"""Command-line surface: generate, validate, train, grid, eval, gradcheck, report.

Exit codes: 0 success, 1 validation failure (bad inputs, bad config,
inductive violations), 2 runtime error. Config precedence for training
commands is flags > config file > defaults, and the fully resolved
config is written next to the outputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .checkpoints import load_checkpoint
from .data import SPLIT_NAMES, DataBundle, load_manifest, save_manifest
from .exceptions import GzslError, ValidationError
from .gradcheck import DEFAULT_TOLERANCE, run_gradient_check
from .losses import LossConfig, term_switches
from .metrics import (
    DEFAULT_KS,
    MetricsReport,
    _check_ks,
    evaluate,
    write_report_csv,
)
from .networks import ModelParams, ModelSpec, init_model_params
from .records import to_json, write_json
from .synthetic import SemanticGeometry, SynthSpec, generate
from .training import (
    GridSpec,
    TrainConfig,
    check_run,
    default_model_spec,
    grid_search,
    train,
)

def _parse_list(text: str, kind: type, noun: str) -> tuple:
    """The non-blank items of a comma list as ``kind``; ``noun`` names them in the error."""
    try:
        return tuple(kind(x) for x in text.split(",") if x.strip())
    except ValueError as exc:
        raise ValidationError(f"expected comma-separated {noun}, got {text!r}") from exc


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


# train's and grid's setting flags and the field each one sets; an unset flag sets nothing
_TRAIN_FLAGS = {
    "--epochs": "epochs",
    "--batch-size": "batch_size",
    "--lr": "lr",
    "--seed": "seed",
    "--encoder-mode": "encoder_mode",
}
_LOSS_FLAGS = {"--gamma1": "gamma1", "--gamma2": "gamma2", "--delta": "delta"}


def _resolve_run(args) -> tuple[TrainConfig, DataBundle, ModelParams]:
    """The config, data and initial model of a ``train`` or ``grid`` run.

    Layers the defaults, the config file's train section and the set flags;
    the file's model section sets the widths, else ``default_model_spec``
    does. Raises on every input ``train`` would reject, before anything is
    written.
    """
    layers = [TrainConfig().to_dict()]
    model_section = None
    if args.config is not None:
        file_cfg = _load_config_file(args.config)
        model_section = file_cfg.get("model")
        # a run's config.json nests the train section; a flat file is one
        section = {k: v for k, v in file_cfg.items() if k != "model"}
        layers.append(section["train"] if set(section) == {"train"} else section)
    loss = {f: getattr(args, f) for f in _LOSS_FLAGS.values()}
    if args.term_mask is not None:
        loss.update(term_switches(_parse_list(args.term_mask, str.strip, "loss terms")))
    flags = {f: getattr(args, f) for f in _TRAIN_FLAGS.values()}
    flags["ks"] = None if args.k is None else _parse_list(args.k, int, "integers")
    flags["loss"] = {k: v for k, v in loss.items() if v is not None}
    layers.append(to_json({k: v for k, v in flags.items() if v is not None}))
    try:
        cfg = TrainConfig.from_dict(functools.reduce(_overlay, layers))
    except ValueError as exc:
        raise ValidationError(f"invalid training config: {exc}") from exc
    bundle = load_manifest(args.manifest)
    if model_section is None:
        spec = default_model_spec(bundle.train.feature_dim, bundle.semantics.dim)
    else:
        spec = ModelSpec.from_dict(model_section)
    params0 = init_model_params(spec, cfg.seed)
    check_run(cfg, bundle, params0)
    return cfg, bundle, params0


# generate's flags and the record field each one sets; the records hold the defaults
_SPEC_FLAGS = {
    "--seed": "seed",
    "--classes": "n_classes",
    "--seen": "n_seen",
    "--d": "d",
    "--v": "v",
    "--n-train": "n_train",
    "--n-val": "n_val",
    "--n-test": "n_test",
    "--noise-sigma": "noise_sigma",
    "--max-labels": "max_labels_per_sample",
}
_GEOMETRY_FLAGS = {"--jitter": "jitter", "--parents-min": "parents_min", "--parents-max": "parents_max"}


def _cmd_generate(args) -> int:
    geometry = SemanticGeometry(**{f: getattr(args, f) for f in _GEOMETRY_FLAGS.values()})
    spec = SynthSpec(geometry=geometry, **{f: getattr(args, f) for f in _SPEC_FLAGS.values()})
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    bundle = generate(spec)
    manifest_path = save_manifest(bundle, out)
    write_json(out / "synth_spec.json", spec.to_dict())
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
    cfg, bundle, params0 = _resolve_run(args)
    record = train(cfg, bundle, params0, args.out_dir)
    h = record.best_report.harmonic if record.best_report else float("nan")
    print(
        f"best epoch {record.best_epoch}: harmonic={h:.4f} "
        f"(checkpoint {record.best_checkpoint})"
    )
    return 0


def _cmd_grid(args) -> int:
    # an unset list keeps GridSpec's default candidates
    lists = {"gamma_candidates": args.gammas, "lr_candidates": args.lrs}
    grid = GridSpec(**{f: _parse_list(t, float, "numbers") for f, t in lists.items() if t is not None})
    if args.jobs < 1:
        raise ValidationError(f"jobs must be >= 1, got {args.jobs}")
    cfg, bundle, params0 = _resolve_run(args)
    configs = grid.configs(cfg, args.random_trials)  # raises before anything is written
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_json(
        out / "grid_config.json",
        {
            "base": cfg.to_dict(),
            "gamma_candidates": list(grid.gamma_candidates),
            "lr_candidates": list(grid.lr_candidates),
            "jobs": args.jobs,
            "random_trials": args.random_trials,
        },
    )
    result = grid_search(configs, bundle, params0, out_dir=out, jobs=args.jobs)
    best = result.leaderboard[0]
    write_json(
        out / "grid_summary.json",
        {
            "leaderboard": result.leaderboard,
            "failures": result.failures,
            "best": {k: best[k] for k in ("gamma", "lr", "out_dir", "best_epoch", "harmonic")},
        },
    )
    h = float("nan") if best["harmonic"] is None else best["harmonic"]
    print(f"best: gamma={best['gamma']:g} lr={best['lr']:g} harmonic={h:.4f} ({best['out_dir']})")
    return 0


def _cmd_eval(args) -> int:
    ks = DEFAULT_KS if args.k is None else _parse_list(args.k, int, "integers")
    _check_ks(ks, "--k")  # the class count is checked once the manifest is read
    ckpt = load_checkpoint(args.checkpoint)
    bundle = load_manifest(args.manifest)
    ds = bundle.split(args.split)
    report = evaluate(ckpt.params, ds, bundle.semantics, ks)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_json(
        out / "eval_config.json",
        {
            "checkpoint": str(args.checkpoint),
            "manifest": str(args.manifest),
            "split": args.split,
            "ks": list(ks),
        },
    )
    write_json(out / "metrics.json", report.to_dict())
    write_report_csv(report, bundle.vocab, out / "report.csv")
    print(
        f"{args.split}: seen={report.seen_mean:.4f} unseen={report.unseen_mean:.4f} "
        f"harmonic={report.harmonic:.4f}"
    )
    return 0


def _cmd_gradcheck(args) -> int:
    result = run_gradient_check(args.trials, args.seed, args.tolerance)
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
    with open(args.metrics, encoding="utf-8") as fh:
        report = MetricsReport.from_dict(json.load(fh))
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
    for flags, record in ((_TRAIN_FLAGS, TrainConfig()), (_LOSS_FLAGS, LossConfig())):
        for flag, name in flags.items():
            p.add_argument(flag, dest=name, type=type(getattr(record, name)))
    p.add_argument("--term-mask", help="comma list from {rank,align,con}")
    p.add_argument("--k", help="comma list of top-k values, e.g. 2,3")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gzsl-align",
        description="Generalized zero-shot multi-label classification engine.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic benchmark")
    p.add_argument("--out-dir", required=True)
    for flags, record in ((_SPEC_FLAGS, SynthSpec()), (_GEOMETRY_FLAGS, SemanticGeometry())):
        for flag, name in flags.items():
            default = getattr(record, name)
            p.add_argument(flag, dest=name, type=type(default), default=default)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("validate", help="lint a dataset manifest")
    p.add_argument("--manifest", required=True)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("train", help="one training run")
    _add_train_flags(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("grid", help="hyperparameter grid search")
    _add_train_flags(p)
    grid = GridSpec()  # an unset list keeps its candidates
    for flag, values in (("--gammas", grid.gamma_candidates), ("--lrs", grid.lr_candidates)):
        p.add_argument(flag, help=f"comma list, default {','.join(map(str, values))}")
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
    p.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("report", help="render a metrics.json to table form")
    p.add_argument("--metrics", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out-dir")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
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
