"""Training protocol tests: determinism, selection, artifacts, grid search."""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gzsl_align import (
    EncoderMode,
    InductiveViolationError,
    LossConfig,
    NonFiniteGradientError,
    NonFiniteLossError,
    TrainConfig,
    evaluate,
    load_checkpoint,
    reference_model_params,
    reference_spec,
    reference_train_config,
    train,
)
from gzsl_align.data import Dataset, LabelSpace
from gzsl_align.networks import init_model_params
from gzsl_align.training import GridSpec, default_model_specs, grid_search
import gzsl_align.training as training_module
from gzsl_align.data import DataBundle
from gzsl_align.synthetic import generate

from conftest import small_spec


def quick_cfg(epochs=3, **overrides) -> TrainConfig:
    base = dict(
        epochs=epochs,
        batch_size=32,
        lr=1e-3,
        loss=LossConfig(gamma1=0.1, gamma2=0.1),
        seed=0,
    )
    base.update(overrides)
    return TrainConfig(**base)


def quick_params(bundle, seed=0, with_encoder=True):
    visual, semantic, encoder = default_model_specs(
        bundle.train.feature_dim, bundle.semantics.dim, with_encoder
    )
    return init_model_params(visual, semantic, encoder, seed)


def arrays_equal(a, b) -> bool:
    return all(np.array_equal(x, y) for x, y in zip(a.arrays(), b.arrays()))


@pytest.fixture(scope="module")
def bundle() -> DataBundle:
    return generate(small_spec(seed=3))


def test_default_model_specs_scale_to_dims():
    visual, semantic, encoder = default_model_specs(12, 8)
    assert visual.layer_dims == (12, 32, 16, 8)
    assert semantic.layer_dims == (8, 32, 16, 8)
    assert encoder.layer_dims == (12, 12, 12)
    _, _, none_enc = default_model_specs(12, 8, with_encoder=False)
    assert none_enc is None
    # large dims reproduce the full-scale pyramid widths
    visual, semantic, _ = default_model_specs(1024, 300)
    assert visual.layer_dims == (1024, 512, 256, 128)
    assert semantic.layer_dims == (300, 512, 256, 128)


def test_single_epoch_record(bundle):
    cfg = quick_cfg(epochs=1)
    rec = train(cfg, bundle, quick_params(bundle))
    assert len(rec.epochs) == 1
    ep = rec.epochs[0]
    assert ep.epoch == 1
    assert ep.lr == cfg.lr
    assert not ep.lr_reduced
    assert np.isfinite(ep.train_loss.total)
    assert rec.best_epoch == 1
    assert rec.best_report is not None
    assert rec.best_value == rec.best_report.harmonic
    assert rec.wall_time > 0
    assert rec.out_dir is None and rec.best_checkpoint is None


def test_training_is_deterministic(bundle):
    cfg = quick_cfg(epochs=3)
    rec_a = train(cfg, bundle, quick_params(bundle))
    rec_b = train(cfg, bundle, quick_params(bundle))
    assert arrays_equal(rec_a.final_params, rec_b.final_params)
    assert arrays_equal(rec_a.best_params, rec_b.best_params)
    for ea, eb in zip(rec_a.epochs, rec_b.epochs):
        assert ea.train_loss.total == eb.train_loss.total
        assert ea.val_loss.total == eb.val_loss.total
    assert rec_a.best_value == rec_b.best_value


def test_loss_descends(bundle):
    rec = train(quick_cfg(epochs=12), bundle, quick_params(bundle))
    totals = [ep.train_loss.total for ep in rec.epochs]
    assert totals[-1] < totals[0]


def test_seed_changes_trajectory(bundle):
    params = quick_params(bundle)
    rec_a = train(quick_cfg(epochs=2, seed=0), bundle, params)
    rec_b = train(quick_cfg(epochs=2, seed=1), bundle, params)
    assert not arrays_equal(rec_a.final_params, rec_b.final_params)


def test_frozen_encoder_stays_at_init(bundle):
    params0 = quick_params(bundle)
    frozen = train(
        quick_cfg(epochs=2, encoder_mode=EncoderMode.FROZEN), bundle, params0
    )
    for w0, w1 in zip(params0.encoder.weights, frozen.final_params.encoder.weights):
        assert np.array_equal(w0, w1)
    for b0, b1 in zip(params0.encoder.biases, frozen.final_params.encoder.biases):
        assert np.array_equal(b0, b1)
    # the mapping nets still move
    assert not np.array_equal(
        params0.visual_map.weights[0], frozen.final_params.visual_map.weights[0]
    )
    e2e = train(quick_cfg(epochs=2), bundle, params0)
    assert not np.array_equal(
        params0.encoder.weights[0], e2e.final_params.encoder.weights[0]
    )


def test_frozen_mode_without_encoder_is_rejected_before_any_work(bundle, tmp_path, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("train ran the objective")

    monkeypatch.setattr(training_module, "total_loss", no_work)
    cfg = quick_cfg(epochs=1, encoder_mode=EncoderMode.FROZEN)
    with pytest.raises(ValueError, match="frozen needs a model with an encoder"):
        train(cfg, bundle, quick_params(bundle, with_encoder=False), out_dir=tmp_path / "run")
    assert not (tmp_path / "run").exists()


def test_best_params_frozen_at_best_epoch(bundle):
    rec = train(quick_cfg(epochs=6), bundle, quick_params(bundle))
    harmonics = [ep.val_report.harmonic for ep in rec.epochs]
    assert rec.best_epoch == int(np.argmax(harmonics)) + 1
    assert rec.best_value == max(harmonics)
    report = evaluate(rec.best_params, bundle.val, bundle.semantics, rec.config.ks)
    assert report == rec.best_report


def test_artifacts_written_and_rerun_identical(bundle, tmp_path):
    cfg = quick_cfg(epochs=3)
    params = quick_params(bundle)
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    train(cfg, bundle, params, out_dir=dir_a)
    train(cfg, bundle, params, out_dir=dir_b)
    names = ["config.json", "metrics.csv", "checkpoints/best.ckpt", "checkpoints/last.ckpt"]
    for name in names:
        pa, pb = dir_a / name, dir_b / name
        assert pa.is_file(), name
        assert pa.read_bytes() == pb.read_bytes(), name


def test_config_json_round_trips(bundle, tmp_path):
    cfg = quick_cfg(epochs=2, patience=4)
    train(cfg, bundle, quick_params(bundle), out_dir=tmp_path)
    stored = json.loads((tmp_path / "config.json").read_text())
    assert TrainConfig.from_dict(stored["train"]) == cfg
    assert stored["model"]["visual_map"] == [12, 32, 16, 8]


def test_metrics_csv_matches_history(bundle, tmp_path):
    cfg = quick_cfg(epochs=3)
    rec = train(cfg, bundle, quick_params(bundle), out_dir=tmp_path)
    lines = (tmp_path / "metrics.csv").read_text().splitlines()
    assert lines[0].startswith("epoch,lr,train_rank,")
    assert len(lines) == 1 + cfg.epochs
    last = lines[-1].split(",")
    assert int(last[0]) == cfg.epochs
    assert float(last[5]) == rec.epochs[-1].train_loss.total
    assert float(last[-1]) == rec.epochs[-1].val_report.harmonic


def test_best_checkpoint_reproduces_best_report(bundle, tmp_path):
    rec = train(quick_cfg(epochs=4), bundle, quick_params(bundle), out_dir=tmp_path)
    ckpt = load_checkpoint(rec.best_checkpoint)
    assert ckpt.epoch == rec.best_epoch
    assert ckpt.adam is None
    assert arrays_equal(ckpt.params, rec.best_params)
    report = evaluate(ckpt.params, bundle.val, bundle.semantics, rec.config.ks)
    assert report == rec.best_report


def test_last_checkpoint_carries_full_adam_state(bundle, tmp_path):
    cfg = quick_cfg(epochs=2, encoder_mode=EncoderMode.FROZEN)
    rec = train(cfg, bundle, quick_params(bundle), out_dir=tmp_path)
    ckpt = load_checkpoint(Path(tmp_path) / "checkpoints" / "last.ckpt")
    assert ckpt.epoch == cfg.epochs
    assert arrays_equal(ckpt.params, rec.final_params)
    assert ckpt.adam_hparams["frozen_encoder"] is True
    # each moment is one vector in flat's layout: a zero encoder head, then nonzero moments
    n_enc = ckpt.params.encoder.spec.n_params
    for moments in (ckpt.adam.m, ckpt.adam.v):
        assert len(moments) == 1 and moments[0].shape == ckpt.params.flat.shape
        assert not moments[0][:n_enc].any()
        start = n_enc
        for _, net in ckpt.params.nets()[1:]:
            for a in net.arrays():
                assert moments[0][start : start + a.size].any()
                start += a.size


@pytest.mark.parametrize(
    "mode, offender",
    [(EncoderMode.END_TO_END, "encoder.layer0.weight"),
     (EncoderMode.FROZEN, "visual_map.layer2.weight")],
    ids=lambda x: getattr(x, "value", x),
)
def test_non_finite_gradient_stops_before_any_update(bundle, monkeypatch, mode, offender):
    seen = {}

    def poisoned_loss(*args, **kwargs):
        breakdown, grads = real_loss(*args, **kwargs)
        if grads is not None:
            seen.setdefault("params", args[3])
            seen.setdefault("before", args[3].flat.copy())
            grads.encoder.weights[0][1, 2] = np.nan
            grads.visual_map.weights[2][0, 0] = np.inf
        return breakdown, grads

    def spied_adam(arrays):
        seen["adam"] = real_init(arrays)
        return seen["adam"]

    real_loss, real_init = training_module.total_loss, training_module.init_adam
    monkeypatch.setattr(training_module, "total_loss", poisoned_loss)
    monkeypatch.setattr(training_module, "init_adam", spied_adam)
    with pytest.raises(NonFiniteGradientError, match=rf"in {offender}$"):
        train(quick_cfg(epochs=1, encoder_mode=mode), bundle, quick_params(bundle))
    assert np.array_equal(seen["params"].flat, seen["before"])
    adam = seen["adam"]
    assert adam.step_count == 0
    assert not any(a.any() for a in adam.m + adam.v)


def test_scheduler_reduces_lr_when_val_loss_plateaus(bundle):
    # an lr too small to move the val loss by min_delta forces a plateau
    cfg = quick_cfg(
        epochs=5, lr=1e-12, patience=2, lr_factor=0.5, min_delta=1.0, shuffle=False
    )
    rec = train(cfg, bundle, quick_params(bundle))
    reduced_at = [ep.epoch for ep in rec.epochs if ep.lr_reduced]
    assert reduced_at == [2, 4]
    assert rec.epochs[2].lr == cfg.lr * 0.5
    assert rec.epochs[4].lr == cfg.lr * 0.25


def test_seen_only_val_selects_by_seen_auroc(bundle):
    seen_cols = list(bundle.vocab.seen_ids)
    val = Dataset(
        features=bundle.val.features,
        labels=bundle.val.labels[:, seen_cols],
        label_space=LabelSpace.SEEN_ONLY,
        vocab=bundle.vocab,
    )
    data = DataBundle(
        vocab=bundle.vocab,
        semantics=bundle.semantics,
        train=bundle.train,
        val=val,
        test=bundle.test,
    )
    rec = train(quick_cfg(epochs=2), data, quick_params(bundle))
    assert rec.best_report is None
    assert all(ep.val_report is None for ep in rec.epochs)
    assert np.isfinite(rec.best_value)
    assert 0.0 <= rec.best_value <= 1.0


def test_rejects_unseen_positive_in_train_split(bundle):
    wide = np.zeros((len(bundle.train), bundle.vocab.n_classes), dtype=np.int8)
    wide[:, : bundle.vocab.n_seen] = bundle.train.labels
    wide[2, bundle.vocab.unseen_ids[0]] = 1
    poisoned = Dataset(
        features=bundle.train.features,
        labels=wide,
        label_space=LabelSpace.ALL_CLASSES,
        vocab=bundle.vocab,
    )
    data = DataBundle(
        vocab=bundle.vocab,
        semantics=bundle.semantics,
        train=poisoned,
        val=bundle.val,
        test=bundle.test,
    )
    with pytest.raises(InductiveViolationError) as exc_info:
        train(quick_cfg(epochs=1), data, quick_params(bundle))
    err = exc_info.value
    assert err.sample_index == 2
    assert bundle.vocab.names[bundle.vocab.unseen_ids[0]] in str(err)


def test_nonfinite_loss_names_epoch_and_batch(bundle):
    # cosine scoring absorbs mere overflow, but NaN features must be fatal
    blown = Dataset(
        features=np.full_like(bundle.train.features, np.nan),
        labels=bundle.train.labels,
        label_space=bundle.train.label_space,
        vocab=bundle.vocab,
    )
    data = DataBundle(
        vocab=bundle.vocab,
        semantics=bundle.semantics,
        train=blown,
        val=bundle.val,
        test=bundle.test,
    )
    with pytest.raises(NonFiniteLossError) as exc_info:
        train(quick_cfg(epochs=1), data, quick_params(bundle))
    assert exc_info.value.epoch == 1
    assert exc_info.value.batch_index == 0


def test_dimension_mismatch_rejected(bundle):
    visual, semantic, encoder = default_model_specs(9, bundle.semantics.dim)
    wrong = init_model_params(visual, semantic, encoder, 0)
    with pytest.raises(ValueError, match="features"):
        train(quick_cfg(epochs=1), bundle, wrong)


def test_grid_single_combo_matches_direct_train(bundle):
    base = quick_cfg(epochs=2)
    params = quick_params(bundle)
    grid = GridSpec(gamma_candidates=(0.1,), lr_candidates=(1e-3,))
    result = grid_search(grid, base, bundle, params)
    direct = train(
        replace(base, lr=1e-3, loss=replace(base.loss, gamma1=0.1, gamma2=0.1)),
        bundle,
        params,
    )
    assert result.best.best_value == direct.best_value
    assert arrays_equal(result.best.final_params, direct.final_params)
    assert len(result.leaderboard) == 1
    assert result.failures == []


def test_grid_winner_tops_leaderboard(bundle):
    grid = GridSpec(gamma_candidates=(0.1, 0.0), lr_candidates=(1e-3, 1e-5))
    result = grid_search(grid, quick_cfg(epochs=2), bundle, quick_params(bundle))
    assert len(result.leaderboard) == 4
    harmonics = [row["harmonic"] for row in result.leaderboard]
    assert harmonics == sorted(harmonics, reverse=True)
    assert result.best.best_report.harmonic == harmonics[0]
    top = result.leaderboard[0]
    assert result.best.config.lr == top["lr"]
    assert result.best.config.loss.gamma1 == top["gamma"]


def test_grid_random_trials_subsamples(bundle):
    grid = GridSpec(gamma_candidates=(0.1, 0.0), lr_candidates=(1e-3, 1e-5))
    result = grid_search(
        grid, quick_cfg(epochs=1), bundle, quick_params(bundle), random_trials=2
    )
    assert len(result.leaderboard) + len(result.failures) == 2
    with pytest.raises(ValueError, match="random_trials"):
        grid_search(
            grid, quick_cfg(epochs=1), bundle, quick_params(bundle), random_trials=5
        )


def test_grid_parallel_matches_serial(bundle):
    grid = GridSpec(gamma_candidates=(0.1,), lr_candidates=(1e-3, 1e-5))
    cfg = quick_cfg(epochs=1)
    params = quick_params(bundle)
    serial = grid_search(grid, cfg, bundle, params, jobs=1)
    parallel = grid_search(grid, cfg, bundle, params, jobs=2)
    assert [r["harmonic"] for r in serial.leaderboard] == [
        r["harmonic"] for r in parallel.leaderboard
    ]
    assert arrays_equal(serial.best.final_params, parallel.best.final_params)


def test_grid_writes_per_combo_dirs(bundle, tmp_path):
    grid = GridSpec(gamma_candidates=(0.1,), lr_candidates=(1e-3,))
    result = grid_search(
        grid, quick_cfg(epochs=1), bundle, quick_params(bundle), out_dir=tmp_path
    )
    combo = tmp_path / "gamma0.1_lr0.001"
    assert (combo / "config.json").is_file()
    assert (combo / "checkpoints" / "best.ckpt").is_file()
    assert result.best.out_dir == str(combo)


def test_encoder_mode_parse():
    assert EncoderMode("end-to-end") is EncoderMode.END_TO_END
    assert EncoderMode("FROZEN") is EncoderMode.FROZEN
    with pytest.raises(ValueError, match="encoder mode"):
        EncoderMode("detached")


def test_train_config_validation():
    with pytest.raises(ValueError, match="epochs"):
        quick_cfg(epochs=0)
    with pytest.raises(ValueError, match="lr_factor"):
        quick_cfg(lr_factor=1.0)
    with pytest.raises(ValueError, match="ks"):
        quick_cfg(ks=())
    with pytest.raises(ValueError, match="candidate"):
        GridSpec(gamma_candidates=(), lr_candidates=(1e-3,))
    with pytest.raises(ValueError, match="lr"):
        GridSpec(gamma_candidates=(0.1,), lr_candidates=(0.0,))


# Artifacts of 3-epoch reference runs at seed 1, per encoder mode. The
# end-to-end ones were recorded with the direct (N, S, S) margin-tensor
# ranking term, the frozen ones with per-array parameter storage and
# optimizer state. Refactors that keep the maths must reproduce the
# checkpoints byte for byte.
PINNED_RUNS = {
    EncoderMode.END_TO_END: (
        {
            "best.ckpt": "adc043bd60012a32df304bcaad59a38aacd2b8baf4a0914a99c7296641827194",
            "last.ckpt": "ff5ee44138f7f6fd16a60c49d7e767d48b891c581242c3b5f2d3bf33585fc3ad",
        },
        """\
epoch,lr,train_rank,train_align,train_con,train_total,val_rank,val_align,val_con,val_total,val_seen_auroc,val_unseen_auroc,val_harmonic
1,0.001,0.5653019720780127,0.5670457988418417,1.1947360073916922,0.7414801527013661,0.5212284679601816,0.6526763382832331,1.1947360073916922,0.7059697025276742,0.7093950471730607,0.6545439185255014,0.6808665572823844
2,0.001,0.4813068580414121,0.5315314949813644,0.6483841597610022,0.5992984235156488,0.4652072671227692,0.618111892991453,0.6483841597610022,0.5918568723980147,0.7410887076732715,0.6936456645108673,0.7165827752672688
3,0.001,0.4334832644259534,0.4799434464074981,0.7295675360654256,0.5544343626732458,0.45396083226425293,0.5849832945081362,0.7295675360654256,0.5854159153216091,0.7553262318001284,0.702148260659653,0.7277671103444096
""",
    ),
    EncoderMode.FROZEN: (
        {
            "best.ckpt": "780c658a645ade6c5618c639c6b26c322d3754833de9192769113fc51c840b63",
            "last.ckpt": "adeb0ecf133cb84774774b9b74401636b7dac41f00014de1aed4c414f47515f6",
        },
        """\
epoch,lr,train_rank,train_align,train_con,train_total,val_rank,val_align,val_con,val_total,val_seen_auroc,val_unseen_auroc,val_harmonic
1,0.001,0.6405846889838497,0.6167415743411442,1.1761933405512452,0.8198781804730886,0.565451190512593,0.6897517238010862,1.1761933405512452,0.7520456969478262,0.6831128463249219,0.6192112070884375,0.6495942834532216
2,0.001,0.5713972612114123,0.5768557645675262,0.7102760828631832,0.7001104459544834,0.5192838362596077,0.6480719174396283,0.7102760828631832,0.6551186362898889,0.7057092381324428,0.6529692866747749,0.6783156565877475
3,0.001,0.5380388783452525,0.5387999180683603,0.6115286904220332,0.6530717391942918,0.5194679262384464,0.6299792551771096,0.6115286904220332,0.6436187207983607,0.7186700947014838,0.660323089331982,0.6882622229585658
""",
    ),
}


@pytest.mark.parametrize("mode", list(PINNED_RUNS), ids=lambda mode: mode.value)
def test_reference_run_artifacts_match_pinned_digests(tmp_path, mode):
    digests, metrics_csv = PINNED_RUNS[mode]
    spec = reference_spec(1)
    cfg = replace(reference_train_config(1), epochs=3, encoder_mode=mode)
    train(cfg, generate(spec), reference_model_params(spec, 1), out_dir=tmp_path)
    for name, digest in digests.items():
        blob = (tmp_path / "checkpoints" / name).read_bytes()
        assert hashlib.sha256(blob).hexdigest() == digest, name
    # loss cells may move in the last digits when a summation order changes
    got = [line.split(",") for line in (tmp_path / "metrics.csv").read_text().splitlines()]
    want = [line.split(",") for line in metrics_csv.splitlines()]
    assert len(got) == len(want) and got[0] == want[0]
    for g_row, w_row in zip(got[1:], want[1:]):
        assert len(g_row) == len(w_row)
        for col, g, w in zip(want[0], g_row, w_row):
            if col.endswith(("_rank", "_align", "_con", "_total")):
                assert abs(float(g) - float(w)) <= 1e-12 * abs(float(w)), col
            else:
                assert g == w, col
