"""End-to-end CLI tests, in-process through main(argv) unless a test needs a fresh interpreter."""

import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gzsl_align import (
    CheckpointError,
    LossConfig,
    TrainConfig,
    ValidationError,
    load_checkpoint,
    save_checkpoint,
)
from gzsl_align.cli import _LOSS_FLAGS, _TRAIN_FLAGS, _build_parser, _resolve_run, main
from gzsl_align.losses import TERM_NAMES
from gzsl_align.records import to_json

from conftest import rewrite_checkpoint_header

ROOT = Path(__file__).resolve().parents[1]

GEN_FLAGS = [
    "--classes", "6", "--seen", "4", "--d", "8", "--v", "12",
    "--n-train", "160", "--n-val", "80", "--n-test", "80",
    "--noise-sigma", "0.2", "--max-labels", "3",
    "--parents-min", "2", "--parents-max", "2", "--seed", "3",
]
FAST_TRAIN = ["--epochs", "2", "--lr", "1e-3", "--gamma1", "0.1", "--gamma2", "0.1"]


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    assert main(["generate", "--out-dir", str(out), *GEN_FLAGS]) == 0
    return out / "manifest.json"


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, bench):
    out = tmp_path_factory.mktemp("run")
    code = main(
        ["train", "--manifest", str(bench), "--out-dir", str(out), *FAST_TRAIN]
    )
    assert code == 0
    return out


def test_generate_writes_benchmark(tmp_path, capsys):
    out = tmp_path / "bench"
    assert main(["generate", "--out-dir", str(out), *GEN_FLAGS]) == 0
    printed = capsys.readouterr().out.strip()
    assert printed == str(out / "manifest.json")
    for name in [
        "manifest.json", "synth_spec.json", "embeddings.npy",
        "train_features.npy", "train_labels.npy",
        "val_features.npy", "val_labels.npy",
        "test_features.npy", "test_labels.npy",
    ]:
        assert (out / name).is_file(), name
    spec = json.loads((out / "synth_spec.json").read_text())
    assert spec["n_classes"] == 6 and spec["n_seen"] == 4


def test_generate_rejects_infeasible_spec(tmp_path, capsys):
    code = main(
        ["generate", "--out-dir", str(tmp_path / "x"), "--classes", "6", "--seen", "6"]
    )
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


def test_validate_clean_benchmark(bench, capsys):
    assert main(["validate", "--manifest", str(bench)]) == 0
    out = capsys.readouterr().out
    assert "OK" in out
    assert "train: 160 samples, 0 zero-positive samples" in out


def test_validate_missing_manifest(tmp_path, capsys):
    assert main(["validate", "--manifest", str(tmp_path / "nope.json")]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit",
    [
        lambda splits: splits["val"].pop("features"),
        lambda splits: splits.update(test=None),
    ],
    ids=["split without features", "null split"],
)
def test_validate_malformed_split_entry_is_input_error(bench, tmp_path, capsys, edit):
    for src in bench.parent.iterdir():
        (tmp_path / src.name).write_bytes(src.read_bytes())
    manifest = tmp_path / "manifest.json"
    doc = json.loads(manifest.read_text())
    edit(doc["splits"])
    manifest.write_text(json.dumps(doc))
    assert main(["validate", "--manifest", str(manifest)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.out + captured.err


def test_train_writes_artifacts(run_dir, capsys):
    for name in ["config.json", "metrics.csv", "checkpoints/best.ckpt", "checkpoints/last.ckpt"]:
        assert (run_dir / name).is_file(), name


def test_train_prints_best_epoch(bench, tmp_path, capsys):
    code = main(
        ["train", "--manifest", str(bench), "--out-dir", str(tmp_path), *FAST_TRAIN]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("best epoch ")
    assert "harmonic=" in out


def test_train_reruns_byte_identical(bench, run_dir, tmp_path):
    code = main(
        ["train", "--manifest", str(bench), "--out-dir", str(tmp_path), *FAST_TRAIN]
    )
    assert code == 0
    for name in ["config.json", "metrics.csv", "checkpoints/best.ckpt", "checkpoints/last.ckpt"]:
        assert (tmp_path / name).read_bytes() == (run_dir / name).read_bytes(), name


def test_train_config_file_and_flag_precedence(bench, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"train": {"epochs": 5, "lr": 1e-3, "seed": 9}}))
    out = tmp_path / "run"
    code = main(
        [
            "train", "--manifest", str(bench), "--out-dir", str(out),
            "--config", str(cfg_path), "--epochs", "1",
        ]
    )
    assert code == 0
    stored = json.loads((out / "config.json").read_text())["train"]
    assert stored["epochs"] == 1  # flag beats file
    assert stored["lr"] == 1e-3  # file beats default
    assert stored["seed"] == 9


def test_train_model_section_reused_from_config(bench, run_dir, tmp_path):
    out = tmp_path / "resume"
    code = main(
        [
            "train", "--manifest", str(bench), "--out-dir", str(out),
            "--config", str(run_dir / "config.json"), "--epochs", "1",
        ]
    )
    assert code == 0
    stored = json.loads((out / "config.json").read_text())
    assert stored["model"]["visual_map"] == [12, 32, 16, 8]


def test_train_latent_dim_override(bench, tmp_path):
    config = tmp_path / "model.json"
    config.write_text(json.dumps({"model": {
        "encoder": [12, 12, 12], "visual_map": [12, 16, 8, 4], "semantic_map": [8, 16, 8, 4],
    }}))
    out = tmp_path / "narrow"
    code = main(
        [
            "train", "--manifest", str(bench), "--out-dir", str(out),
            "--config", str(config), *FAST_TRAIN, "--epochs", "1",
        ]
    )
    assert code == 0
    stored = json.loads((out / "config.json").read_text())
    assert stored["model"]["visual_map"] == [12, 16, 8, 4]
    assert stored["model"]["semantic_map"] == [8, 16, 8, 4]


def test_train_bad_term_mask(bench, tmp_path, capsys):
    code = main(
        [
            "train", "--manifest", str(bench), "--out-dir", str(tmp_path),
            "--term-mask", "rank,bogus",
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "unknown loss terms" in err
    with pytest.raises(ValueError) as exc_info:
        LossConfig().with_terms(("rank", "bogus"))
    assert err == f"error: {exc_info.value}\n" == (
        "error: unknown loss terms ['bogus']; valid: rank, align, con\n"
    )


@pytest.mark.parametrize("r", range(len(TERM_NAMES) + 1))
def test_term_mask_sets_what_with_terms_sets(bench, tmp_path, r):
    """Every subset of the term names, in a mask with blank items and spaces around names."""
    for terms in itertools.combinations(TERM_NAMES, r):
        mask = " , ".join(("", *terms, " "))
        args = _build_parser().parse_args(
            ["train", "--manifest", str(bench), "--out-dir", str(tmp_path), "--term-mask", mask]
        )
        if not terms:  # neither side builds a config without a term, for the same reason
            with pytest.raises(ValueError) as want:
                LossConfig().with_terms(terms)
            with pytest.raises(ValidationError, match=f"^invalid training config: {want.value}$"):
                _resolve_run(args)
            continue
        assert _resolve_run(args)[0].loss == LossConfig().with_terms(terms), mask


@pytest.mark.parametrize(
    "command, flags",
    [
        ("train", ["--lr", "nan"]),
        ("train", ["--lr", "inf"]),
        ("train", ["--gamma1", "nan"]),
        ("train", ["--delta", "inf"]),
        ("train", ["--config", '{"min_delta": Infinity}']),
        ("grid", ["--gammas", "0.1,nan"]),
        ("generate", ["--noise-sigma", "nan"]),
        ("generate", ["--jitter", "inf"]),
    ],
    ids=[
        "lr-nan", "lr-inf", "gamma1-nan", "delta-inf", "config-min_delta-inf",
        "grid-gamma-nan", "noise_sigma-nan", "jitter-inf",
    ],
)
def test_non_finite_setting_is_input_error(bench, tmp_path, capsys, command, flags):
    if flags[0] == "--config":
        config = tmp_path / "config.json"
        config.write_text(flags[1])
        flags = ["--config", str(config)]
    out = tmp_path / "out"
    argv = [command, "--out-dir", str(out), *flags]
    if command != "generate":
        argv += ["--manifest", str(bench), "--epochs", "1"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "finite" in err, err
    assert not out.exists()


def test_train_refuses_unseen_positive(bench, tmp_path, capsys):
    # widen the stored train labels to full class width and poison sample 2
    poisoned = tmp_path / "poisoned"
    poisoned.mkdir()
    for name in Path(bench).parent.iterdir():
        (poisoned / name.name).write_bytes(name.read_bytes())
    labels = np.load(poisoned / "train_labels.npy")
    wide = np.hstack([labels, np.zeros((len(labels), 2), dtype=np.int8)])
    wide[2, 4] = 1
    np.save(poisoned / "train_labels.npy", wide)
    code = main(
        [
            "train", "--manifest", str(poisoned / "manifest.json"),
            "--out-dir", str(tmp_path / "run"), *FAST_TRAIN,
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "sample 2" in err
    assert "class04" in err
    assert not (tmp_path / "run").exists()


def test_eval_writes_reports(bench, run_dir, tmp_path, capsys):
    ckpt = run_dir / "checkpoints" / "best.ckpt"
    out = tmp_path / "eval"
    code = main(
        [
            "eval", "--checkpoint", str(ckpt), "--manifest", str(bench),
            "--split", "test", "--out-dir", str(out),
        ]
    )
    assert code == 0
    assert "harmonic=" in capsys.readouterr().out
    assert (out / "metrics.json").is_file()
    assert (out / "report.csv").is_file()
    stored = json.loads((out / "eval_config.json").read_text())
    assert stored["split"] == "test" and stored["ks"] == [2, 3]
    metrics = json.loads((out / "metrics.json").read_text())
    assert len(metrics["per_class_auroc"]) == 6


def test_eval_rejects_seen_only_split(bench, run_dir, tmp_path, capsys):
    code = main(
        [
            "eval", "--checkpoint", str(run_dir / "checkpoints" / "best.ckpt"),
            "--manifest", str(bench), "--split", "train", "--out-dir", str(tmp_path),
        ]
    )
    assert code == 1
    assert "all classes" in capsys.readouterr().err


@pytest.mark.parametrize("ks", ["2,2", ","], ids=["repeated", "empty"])
def test_eval_repeated_or_empty_k_is_input_error(bench, run_dir, tmp_path, capsys, ks):
    out = tmp_path / "eval"
    argv = ["eval", "--checkpoint", str(run_dir / "checkpoints" / "best.ckpt"),
            "--manifest", str(bench), "--out-dir", str(out), "--k", ks]
    err = _assert_input_error_writes_nothing(argv, out, capsys)
    assert "--k" in err and err.count("\n") == 1, err


def test_eval_degenerate_model_is_runtime_error(bench, run_dir, tmp_path, capsys):
    ckpt = load_checkpoint(run_dir / "checkpoints" / "best.ckpt")
    dead = ckpt.params.copy()
    for arr in dead.arrays():
        arr[:] = 0.0
    dead_path = tmp_path / "dead.ckpt"
    save_checkpoint(dead_path, dead, seed=0, epoch=1, config_hash=None)
    code = main(
        [
            "eval", "--checkpoint", str(dead_path), "--manifest", str(bench),
            "--out-dir", str(tmp_path),
        ]
    )
    assert code == 2
    assert "zero" in capsys.readouterr().err


def test_eval_overflowing_model_prints_only_its_error(bench, run_dir, tmp_path):
    """Run as a user runs it, with numpy's default warning filters, not the suite's."""
    ckpt = load_checkpoint(run_dir / "checkpoints" / "best.ckpt")
    huge = ckpt.params.copy()
    huge.flat *= 1e100
    huge_path = tmp_path / "huge.ckpt"
    save_checkpoint(huge_path, huge, seed=0, epoch=1, config_hash=None)
    proc = subprocess.run(
        [
            sys.executable, "-m", "gzsl_align.cli", "eval", "--checkpoint", str(huge_path),
            "--manifest", str(bench), "--out-dir", str(tmp_path / "eval"),
        ],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error:") and "RuntimeWarning" not in proc.stderr, proc.stderr


def test_eval_truncated_checkpoint_is_input_error(bench, run_dir, tmp_path, capsys):
    cut = tmp_path / "cut.ckpt"
    cut.write_bytes((run_dir / "checkpoints" / "best.ckpt").read_bytes()[:10])
    code = main(
        [
            "eval", "--checkpoint", str(cut), "--manifest", str(bench),
            "--out-dir", str(tmp_path),
        ]
    )
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err


def test_eval_malformed_header_is_input_error(bench, run_dir, tmp_path, capsys):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes((run_dir / "checkpoints" / "best.ckpt").read_bytes())
    rewrite_checkpoint_header(bad, lambda header: [header])
    code = main(
        [
            "eval", "--checkpoint", str(bad), "--manifest", str(bench),
            "--out-dir", str(tmp_path),
        ]
    )
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err


@settings(max_examples=150, deadline=None)
@given(
    where=st.floats(0.0, 1.0, exclude_max=True),
    flip=st.one_of(st.none(), st.integers(1, 255)),
)
def test_mangled_checkpoint_fails_only_as_typed_error(bench, run_dir, where, flip):
    """A truncated (flip None) or byte-flipped last.ckpt never fails as a raw error."""
    last = run_dir / "checkpoints" / "last.ckpt"
    assert load_checkpoint(last).adam is not None
    blob = bytearray(last.read_bytes())
    at = int(where * len(blob))
    if flip is None:
        del blob[at:]
    else:
        blob[at] ^= flip
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mangled.ckpt"
        path.write_bytes(bytes(blob))
        try:
            load_checkpoint(path)
            loaded = True
        except CheckpointError:
            loaded = False
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(
                [
                    "eval", "--checkpoint", str(path), "--manifest", str(bench),
                    "--out-dir", str(Path(tmp) / "eval"),
                ]
            )
    assert "Traceback" not in err.getvalue()
    if not loaded:
        assert code == 1 and err.getvalue().startswith("error:")
    elif code:
        # a flip inside a float can leave a loadable model whose latents overflow
        assert code == 2 and err.getvalue().startswith("error:")


def test_grid_summary_and_winner(bench, tmp_path, capsys):
    out = tmp_path / "grid"
    code = main(
        [
            "grid", "--manifest", str(bench), "--out-dir", str(out),
            "--epochs", "1", "--gammas", "0.1", "--lrs", "1e-3,1e-5",
        ]
    )
    assert code == 0
    assert capsys.readouterr().out.startswith("best: gamma=")
    summary = json.loads((out / "grid_summary.json").read_text())
    assert len(summary["leaderboard"]) == 2
    assert summary["failures"] == []
    assert summary["best"]["harmonic"] == summary["leaderboard"][0]["harmonic"]
    top = summary["leaderboard"][0]
    assert summary["best"] == {k: top[k] for k in ("gamma", "lr", "out_dir", "best_epoch",
                                                   "harmonic")}
    assert (Path(summary["best"]["out_dir"]) / "checkpoints" / "best.ckpt").is_file()
    assert (out / "grid_config.json").is_file()


@pytest.mark.parametrize("gammas", ["0.1,0.1", "0.1,0.1000001"], ids=["repeated", "print-alike"])
def test_grid_candidates_sharing_a_run_dir_are_input_error(bench, tmp_path, capsys, gammas):
    out = tmp_path / "grid"
    argv = ["grid", "--manifest", str(bench), "--out-dir", str(out), "--epochs", "1",
            "--gammas", gammas, "--lrs", "1e-3"]
    err = _assert_input_error_writes_nothing(argv, out, capsys)
    assert "gamma0.1_lr0.001" in err and err.count("\n") == 1, err


# a valid value, other than the default, for each train and grid setting flag
SETTING_VALUES = {
    "--epochs": "3", "--batch-size": "7", "--lr": "0.002", "--seed": "5",
    "--encoder-mode": "frozen", "--gamma1": "0.3", "--gamma2": "0.4", "--delta": "0.7",
}


@pytest.mark.parametrize("flag, field", [*_TRAIN_FLAGS.items(), *_LOSS_FLAGS.items()])
@pytest.mark.parametrize("command", ["train", "grid"])
def test_setting_flag_sets_its_field_and_unset_keeps_the_config_file(bench, tmp_path, command,
                                                                    flag, field):
    in_loss = flag in _LOSS_FLAGS
    default = getattr(LossConfig() if in_loss else TrainConfig(), field)
    want = type(default)(SETTING_VALUES[flag])
    assert want != default

    def resolve(*argv):
        args = _build_parser().parse_args(
            [command, "--manifest", str(bench), "--out-dir", str(tmp_path / "out"), *argv]
        )
        cfg = _resolve_run(args)[0]
        return args, getattr(cfg.loss if in_loss else cfg, field)

    args, got = resolve(flag, SETTING_VALUES[flag])
    assert type(getattr(args, field)) is type(default)
    assert got == want
    # unset, it leaves the file's value, whatever the other flags set
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"loss": {field: to_json(want)}} if in_loss
                                 else {field: to_json(want)}))
    others = [x for f, v in SETTING_VALUES.items() if f != flag for x in (f, v)]
    args, got = resolve("--config", str(config), *others)
    assert getattr(args, field) is None
    assert got == want


@pytest.mark.parametrize("ks, message", [("2,2", "distinct"), (",", "must not be empty")],
                         ids=["repeated", "empty"])
@pytest.mark.parametrize("command", ["train", "grid"])
def test_train_repeated_or_empty_k_is_input_error(bench, tmp_path, capsys, command, ks, message):
    out = tmp_path / "out"
    argv = [command, "--manifest", str(bench), "--out-dir", str(out), *FAST_TRAIN, "--k", ks]
    err = _assert_input_error_writes_nothing(argv, out, capsys)
    assert "ks" in err and message in err and err.count("\n") == 1, err


@pytest.mark.parametrize("text", ["", ","], ids=["empty", "comma"])
@pytest.mark.parametrize("flag", ["--gammas", "--lrs"])
def test_grid_empty_candidate_list_is_input_error(bench, tmp_path, capsys, flag, text):
    out = tmp_path / "out"
    argv = ["grid", "--manifest", str(bench), "--out-dir", str(out), *FAST_TRAIN, flag, text]
    err = _assert_input_error_writes_nothing(argv, out, capsys)
    assert err == "error: candidate sets must be non-empty\n", err


def test_grid_rejects_unparseable_candidates(bench, tmp_path, capsys):
    code = main(
        [
            "grid", "--manifest", str(bench), "--out-dir", str(tmp_path),
            "--gammas", "a,b",
        ]
    )
    assert code == 1
    assert "comma-separated numbers" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["generate", "train"])
def test_negative_seed_is_input_error_naming_seed(bench, tmp_path, capsys, command):
    out = tmp_path / "out"
    argv = [command, "--out-dir", str(out), "--seed", "-1"]
    if command == "train":
        argv += ["--manifest", str(bench), *FAST_TRAIN]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "seed" in err, err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("existing", [False, True], ids=["new-dir", "existing-dir"])
def test_grid_bad_random_trials_writes_nothing(bench, tmp_path, capsys, existing):
    out = tmp_path / "grid"
    if existing:
        out.mkdir()
        (out / "notes.txt").write_text("kept\n")

    def tree():
        return sorted((str(p.relative_to(out)), p.read_bytes() if p.is_file() else None)
                      for p in out.rglob("*")) if out.exists() else None

    before = tree()
    argv = ["grid", "--manifest", str(bench), "--out-dir", str(out), *FAST_TRAIN,
            "--random-trials", "0"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "random_trials" in err, err
    assert tree() == before


def test_gradcheck_passes(capsys):
    assert main(["gradcheck", "--trials", "5", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS")
    assert "5 trials" in out


@pytest.mark.parametrize(
    "flags",
    [["--trials", "0"], ["--trials", "-5"], ["--tolerance", "nan"], ["--tolerance", "inf"],
     ["--tolerance", "0"], ["--tolerance=-1e-4"]],
    ids=" ".join,
)
def test_gradcheck_that_checks_nothing_is_input_error(capsys, flags):
    assert main(["gradcheck", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""  # no PASS or FAIL line
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1, captured.err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_grid_jobs_below_one_is_input_error(bench, tmp_path, capsys, jobs):
    out = tmp_path / "grid"
    argv = ["grid", "--manifest", str(bench), "--out-dir", str(out), *FAST_TRAIN, "--jobs", jobs]
    assert "jobs" in _assert_input_error_writes_nothing(argv, out, capsys)


def test_report_renders_table(bench, run_dir, tmp_path, capsys):
    eval_dir = tmp_path / "eval"
    main(
        [
            "eval", "--checkpoint", str(run_dir / "checkpoints" / "best.ckpt"),
            "--manifest", str(bench), "--out-dir", str(eval_dir),
        ]
    )
    capsys.readouterr()
    code = main(
        [
            "report", "--metrics", str(eval_dir / "metrics.json"),
            "--manifest", str(bench), "--out-dir", str(tmp_path / "render"),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "class00" in out and "unseen" in out
    assert "seen_mean=" in out
    assert "top-2:" in out
    assert (tmp_path / "render" / "report.csv").is_file()


def test_report_rejects_mismatched_manifest(bench, run_dir, tmp_path, capsys):
    other = tmp_path / "other"
    code = main(
        [
            "generate", "--out-dir", str(other), "--classes", "5", "--seen", "3",
            "--d", "8", "--v", "12", "--n-train", "80", "--n-val", "40",
            "--n-test", "40", "--max-labels", "2", "--seed", "1",
        ]
    )
    assert code == 0
    eval_dir = tmp_path / "eval"
    main(
        [
            "eval", "--checkpoint", str(run_dir / "checkpoints" / "best.ckpt"),
            "--manifest", str(bench), "--out-dir", str(eval_dir),
        ]
    )
    capsys.readouterr()
    # a report over 6 classes cannot render against the 5-class manifest
    code = main(
        [
            "report", "--metrics", str(eval_dir / "metrics.json"),
            "--manifest", str(other / "manifest.json"),
        ]
    )
    assert code == 1
    assert "manifest declares 5" in capsys.readouterr().err


def test_argparse_error_codes(capsys):
    assert main(["bogus"]) == 2
    assert main(["validate"]) == 2
    assert main(["--help"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("command", ["train", "grid"])
def test_frozen_encoder_mode_flag(bench, tmp_path, command):
    out = tmp_path / command
    argv = [
        command, "--manifest", str(bench), "--out-dir", str(out),
        *FAST_TRAIN, "--epochs", "1", "--encoder-mode", "frozen",
    ]
    if command == "grid":
        argv += ["--gammas", "0.1", "--lrs", "1e-3"]
    assert main(argv) == 0
    run = out if command == "train" else out / "gamma0.1_lr0.001"
    assert json.loads((run / "config.json").read_text())["train"]["encoder_mode"] == "frozen"


def _encoderless_config(tmp_path) -> Path:
    path = tmp_path / "model.json"
    path.write_text(json.dumps(
        {"model": {"encoder": None, "visual_map": [12, 8, 4], "semantic_map": [8, 4]}}
    ))
    return path


def _assert_input_error_writes_nothing(argv, out, capsys) -> str:
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.out + captured.err
    assert not out.exists()
    return captured.err


@pytest.mark.parametrize("command", ["train", "grid"])
def test_frozen_mode_without_encoder_is_input_error(bench, tmp_path, capsys, command):
    out = tmp_path / "out"
    argv = [
        command, "--manifest", str(bench), "--out-dir", str(out), "--config",
        str(_encoderless_config(tmp_path)), *FAST_TRAIN, "--encoder-mode", "frozen",
    ]
    assert "frozen" in _assert_input_error_writes_nothing(argv, out, capsys)


@pytest.mark.parametrize(
    "config, flags, message",
    [
        ({"model": {"encoder": None, "visual_map": [7, 8, 4], "semantic_map": [8, 4]}}, [],
         "expects 7-dim features, data has 12"),
        ({"model": {"encoder": None, "visual_map": [12, 4], "semantic_map": [5, 4]}}, [],
         "expects 5-dim semantics, data has 8"),
        (None, ["--k", "2,7"], "top-k 7 exceeds the 6 classes"),
        ({"loss": {"use_rank": False, "use_align": False, "use_con": False}}, [],
         "at least one of rank, align, con"),
        ({"model": {"encoder": None, "visual_map": [12, 4], "semantic_map": [8, 5]}}, [],
         "visual and semantic mapping nets must share the latent width: 4 != 5"),
        ({"model": {"encoder": [12, 7], "visual_map": [32, 4], "semantic_map": [8, 4]}}, [],
         "encoder output width must match visual mapping input: 7 != 32"),
    ],
    ids=["visual-width", "semantic-width", "k-above-classes", "no-loss-term", "latent-misfit",
         "encoder-misfit"],
)
@pytest.mark.parametrize("command", ["train", "grid"])
def test_run_train_would_reject_is_input_error(bench, tmp_path, capsys, command, config, flags,
                                               message):
    out = tmp_path / "out"
    argv = [command, "--manifest", str(bench), "--out-dir", str(out), *FAST_TRAIN, *flags]
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    assert message in _assert_input_error_writes_nothing(argv, out, capsys)


def _report_keyed(*ks) -> dict:
    """A metrics.json for the 6-class bench whose per_k entries carry the keys ``ks``."""
    entry = dict.fromkeys(
        ("recall", "precision", "f1", "macro_recall", "macro_precision", "macro_f1"), 0.5
    )
    return {
        "per_k": {k: entry for k in ks}, "per_class_auroc": [0.5] * 6, "seen_mean": 0.5,
        "unseen_mean": 0.5, "harmonic": 0.5, "n_samples": 80, "n_zero_positive": 0,
    }


@pytest.mark.parametrize(
    "command, payload",
    [
        ("train", {"encoder_mode": 5}),
        ("train", {"train": [1]}),
        ("train", {"model": 5}),
        ("train", {"model": {"encoder": None}}),
        ("train", {"model": {"visual_map": 3, "semantic_map": [16, 8]}}),
        ("train", {"model": {"visual_map": [12, 4], "semantic_map": [8, 4], "decoder": [4, 8]}}),
        ("train", {"model": {"visual_map": [12, 0, 4], "semantic_map": [8, 4]}}),
        ("train", {"model": {"visual_map": [12, 4.0], "semantic_map": [8, 4]}}),
        ("train", {"loss": [1]}),
        ("train", {"epochs": 1.5}),
        ("train", {"epochs": True}),
        ("train", {"epoch": 5}),
        ("report", {"per_k": {}}),
        ("report", [1]),
        ("report", _report_keyed("2", "02")),
        ("report", _report_keyed("0", "2")),
    ],
    ids=repr,
)
def test_malformed_config_or_metrics_is_input_error(bench, tmp_path, capsys, command, payload):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    if command == "train":
        argv = ["train", "--config", str(path), "--out-dir", str(tmp_path / "run")]
    else:
        argv = ["report", "--metrics", str(path)]
    assert main([*argv, "--manifest", str(bench)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.out + captured.err
    assert not (tmp_path / "run").exists()
