"""End-to-end CLI tests, all in-process through main(argv)."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gzsl_align import CheckpointError, load_checkpoint, save_checkpoint
from gzsl_align.cli import main

from conftest import rewrite_checkpoint_header

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
        "manifest.json", "synth_spec.json", "embeddings.csv",
        "train_features.csv", "train_labels.csv",
        "val_features.csv", "val_labels.csv",
        "test_features.csv", "test_labels.csv",
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
    out = tmp_path / "narrow"
    code = main(
        [
            "train", "--manifest", str(bench), "--out-dir", str(out),
            *FAST_TRAIN, "--epochs", "1", "--latent-dim", "4",
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
    assert "unknown loss terms" in capsys.readouterr().err


def test_train_refuses_unseen_positive(bench, tmp_path, capsys):
    # widen the stored train labels to full class width and poison sample 2
    poisoned = tmp_path / "poisoned"
    poisoned.mkdir()
    for name in Path(bench).parent.iterdir():
        (poisoned / name.name).write_bytes(name.read_bytes())
    lines = (poisoned / "train_labels.csv").read_text().splitlines()
    wide = [line + ",0,0" for line in lines]
    cells = wide[2].split(",")
    cells[4] = "1"
    wide[2] = ",".join(cells)
    (poisoned / "train_labels.csv").write_text("\n".join(wide) + "\n")
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
    assert (Path(summary["best"]["out_dir"]) / "checkpoints" / "best.ckpt").is_file()
    assert (out / "grid_config.json").is_file()


def test_grid_rejects_unparseable_candidates(bench, tmp_path, capsys):
    code = main(
        [
            "grid", "--manifest", str(bench), "--out-dir", str(tmp_path),
            "--gammas", "a,b",
        ]
    )
    assert code == 1
    assert "comma-separated numbers" in capsys.readouterr().err


def test_gradcheck_passes(capsys):
    assert main(["gradcheck", "--trials", "5", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS")
    assert "5 trials" in out


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


@pytest.mark.parametrize("command", ["train", "grid"])
def test_frozen_mode_without_encoder_is_input_error(bench, tmp_path, capsys, command):
    out = tmp_path / "out"
    argv = [
        command, "--manifest", str(bench), "--out-dir", str(out), "--config",
        str(_encoderless_config(tmp_path)), *FAST_TRAIN, "--encoder-mode", "frozen",
    ]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "frozen" in captured.err
    assert "Traceback" not in captured.out + captured.err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "grid"])
def test_latent_dim_with_config_model_section_is_input_error(bench, tmp_path, capsys, command):
    out = tmp_path / "out"
    argv = [
        command, "--manifest", str(bench), "--out-dir", str(out), "--config",
        str(_encoderless_config(tmp_path)), *FAST_TRAIN, "--latent-dim", "6",
    ]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert "--latent-dim" in captured.err and "--config model section" in captured.err
    assert "Traceback" not in captured.out + captured.err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, payload",
    [
        ("train", {"encoder_mode": 5}),
        ("train", {"train": [1]}),
        ("train", {"model": 5}),
        ("train", {"model": {"encoder": None}}),
        ("train", {"model": {"visual_map": 3, "semantic_map": [16, 8]}}),
        ("train", {"loss": [1]}),
        ("train", {"epochs": 1.5}),
        ("train", {"epochs": True}),
        ("train", {"epoch": 5}),
        ("report", {"per_k": {}}),
        ("report", [1]),
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
