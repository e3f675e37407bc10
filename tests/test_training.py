"""Training protocol tests: determinism, selection, artifacts, grid search."""

import functools
import gc
import hashlib
import itertools
import json
import sys
import tempfile
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gzsl_align import (
    EncoderMode,
    GzslError,
    InductiveViolationError,
    LossConfig,
    NonFiniteGradientError,
    NonFiniteLossError,
    RunRecord,
    SynthSpec,
    TrainConfig,
    UndefinedAurocError,
    evaluate,
    infer_scores,
    load_checkpoint,
    reference_model_params,
    reference_spec,
    reference_train_config,
    total_loss,
    train,
)
from gzsl_align.data import Dataset, LabelSpace
from gzsl_align.losses import TERM_NAMES, term_switches
from gzsl_align.metrics import per_class_auroc
from gzsl_align.networks import init_model_params
from gzsl_align.training import EpochRecord, GridSpec, default_model_spec, grid_search
import gzsl_align.losses as losses_module
import gzsl_align.training as training_module
from gzsl_align.data import DataBundle
from gzsl_align.synthetic import generate

from conftest import small_spec
from test_optimizers import _per_array_adam_oracle


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


def quick_params(bundle, seed=0):
    spec = default_model_spec(bundle.train.feature_dim, bundle.semantics.dim)
    return init_model_params(spec, seed)


def arrays_equal(a, b) -> bool:
    return all(np.array_equal(x, y) for x, y in zip(a.arrays(), b.arrays()))


@pytest.fixture(scope="module")
def bundle() -> DataBundle:
    return generate(small_spec(seed=3))


def test_default_model_specs_scale_to_dims():
    spec = default_model_spec(12, 8)
    assert spec.visual_map == (12, 32, 16, 8)
    assert spec.semantic_map == (8, 32, 16, 8)
    assert spec.encoder == (12, 12, 12)
    # large dims reproduce the full-scale pyramid widths
    spec = default_model_spec(1024, 300)
    assert spec.visual_map == (1024, 512, 256, 128)
    assert spec.semantic_map == (300, 512, 256, 128)


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


@pytest.mark.parametrize("mode", list(EncoderMode), ids=lambda mode: mode.value)
def test_only_a_trained_encoder_runs_backward(bundle, monkeypatch, mode):
    params0 = quick_params(bundle)
    calls = Counter()

    def spied(net, tape, grad_out, grads, input_grad=True):
        calls[net.spec, input_grad] += 1
        return real_backward(net, tape, grad_out, grads, input_grad)

    real_backward = losses_module.mlp_backward
    monkeypatch.setattr(losses_module, "mlp_backward", spied)
    train(quick_cfg(epochs=1, encoder_mode=mode), bundle, params0)
    steps = -(-len(bundle.train) // 32)
    trained = mode is EncoderMode.END_TO_END
    want = Counter({(params0.semantic_map.spec, False): steps,
                    (params0.visual_map.spec, trained): steps})
    if trained:
        want[params0.encoder.spec, False] = steps
    assert calls == want


def test_frozen_mode_without_encoder_is_rejected_before_any_work(bundle, tmp_path, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("train ran the objective")

    monkeypatch.setattr(training_module, "total_loss", no_work)
    cfg = quick_cfg(epochs=1, encoder_mode=EncoderMode.FROZEN)
    spec = replace(default_model_spec(bundle.train.feature_dim, bundle.semantics.dim), encoder=None)
    with pytest.raises(ValueError, match="frozen needs a model with an encoder"):
        train(cfg, bundle, init_model_params(spec, 0), out_dir=tmp_path / "run")
    assert not (tmp_path / "run").exists()


def test_topk_above_class_count_is_rejected_before_any_work(bundle, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("train ran the objective")

    monkeypatch.setattr(training_module, "total_loss", no_work)
    cfg = quick_cfg(epochs=1, ks=(2, bundle.vocab.n_classes + 1))
    with pytest.raises(ValueError, match=f"exceeds the {bundle.vocab.n_classes} classes"):
        train(cfg, bundle, quick_params(bundle))


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
    assert ckpt.header.epoch == rec.best_epoch
    assert ckpt.adam is None
    assert arrays_equal(ckpt.params, rec.best_params)
    report = evaluate(ckpt.params, bundle.val, bundle.semantics, rec.config.ks)
    assert report == rec.best_report


def test_last_checkpoint_carries_full_adam_state(bundle, tmp_path):
    cfg = quick_cfg(epochs=2, encoder_mode=EncoderMode.FROZEN)
    rec = train(cfg, bundle, quick_params(bundle), out_dir=tmp_path)
    ckpt = load_checkpoint(Path(tmp_path) / "checkpoints" / "last.ckpt")
    assert ckpt.header.epoch == cfg.epochs
    assert arrays_equal(ckpt.params, rec.final_params)
    assert ckpt.header.optimizer["frozen_encoder"] is True
    # each moment is one vector in flat's layout: a zero encoder head, then nonzero moments
    n_enc = ckpt.params.encoder.spec.n_params
    for moments in (ckpt.adam.m, ckpt.adam.v):
        assert moments.shape == ckpt.params.flat.shape
        assert not moments[:n_enc].any()
        start = n_enc
        for _, net in ckpt.params.nets()[1:]:
            for a in net.arrays():
                assert moments[start : start + a.size].any()
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
        store = kwargs.get("grads")
        if store is not None:  # total_loss overwrites this, or zeroes it for a frozen encoder
            store.encoder.weights[0][1, 2] = np.nan
        breakdown, grads = real_loss(*args, **kwargs)
        if grads is not None:
            seen.setdefault("params", args[3])
            seen.setdefault("before", args[3].flat.copy())
            if not kwargs.get("frozen_encoder"):
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
    assert adam.m.shape == adam.v.shape == seen["params"].flat.shape
    assert not adam.m.any() and not adam.v.any()


@pytest.mark.parametrize("mode", list(EncoderMode), ids=lambda mode: mode.value)
def test_state_advanced_epoch_by_epoch_records_what_train_returns(bundle, tmp_path, mode):
    cfg, params0 = quick_cfg(epochs=3, encoder_mode=mode), quick_params(bundle)
    st = training_module._start(cfg, bundle, params0)
    for _ in range(cfg.epochs):
        training_module._run_epoch(st)
    got = st.record(tmp_path / "a", training_module._write_run(st, tmp_path / "a"), 0.0)
    want = train(cfg, bundle, params0, out_dir=tmp_path / "b")
    for f in fields(RunRecord):
        g, w = getattr(got, f.name), getattr(want, f.name)
        if f.name.endswith("_params"):
            assert arrays_equal(g, w), f.name
        elif f.name in ("out_dir", "best_checkpoint"):
            assert Path(g).relative_to(tmp_path / "a") == Path(w).relative_to(tmp_path / "b")
        elif f.name != "wall_time":
            assert g == w, f.name
    for name in ["config.json", "metrics.csv", "checkpoints/best.ckpt", "checkpoints/last.ckpt"]:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name


@pytest.mark.parametrize("use_con", [True, False], ids=["con", "no-con"])
def test_one_run_calls_each_layer_per_step_and_builds_its_constants_once(
    bundle, monkeypatch, use_con
):
    calls = dict.fromkeys(["total_loss", "evaluate", "pairwise_cosine"], 0)

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(training_module, name, counted(name, getattr(training_module, name)))
    loss = LossConfig(gamma1=0.1, gamma2=0.1, use_con=use_con)
    cfg = quick_cfg(epochs=3, batch_size=16, loss=loss)
    train(cfg, bundle, quick_params(bundle))
    n_batches = -(-len(bundle.train) // cfg.batch_size)
    assert n_batches > 1
    assert calls == {
        "total_loss": cfg.epochs * (n_batches + 2),
        "evaluate": cfg.epochs,
        "pairwise_cosine": int(use_con),
    }


def _without_harmonic(bundle) -> DataBundle:
    """The val split with every unseen label cleared: no unseen AUROC, so no harmonic."""
    labels = bundle.val.labels.copy()
    labels[:, list(bundle.vocab.unseen_ids)] = 0
    return replace(bundle, val=Dataset(features=bundle.val.features, labels=labels,
                                       vocab=bundle.vocab))


def test_last_epoch_is_best_when_no_epoch_has_a_selection_value(bundle, tmp_path):
    data = _without_harmonic(bundle)
    rec = train(quick_cfg(epochs=2), data, quick_params(bundle), out_dir=tmp_path)
    assert rec.best_epoch == 2 and np.isnan(rec.best_value) and rec.best_report is None
    assert arrays_equal(rec.best_params, rec.final_params)
    assert load_checkpoint(rec.best_checkpoint).header.epoch == 2


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


def _with_seen_only_val(bundle) -> DataBundle:
    seen_cols = list(bundle.vocab.seen_ids)
    val = Dataset(
        features=bundle.val.features,
        labels=bundle.val.labels[:, seen_cols],
        vocab=bundle.vocab,
    )
    return DataBundle(
        vocab=bundle.vocab,
        semantics=bundle.semantics,
        train=bundle.train,
        val=val,
        test=bundle.test,
    )


def test_seen_only_val_selects_by_seen_auroc(bundle):
    data = _with_seen_only_val(bundle)
    rec = train(quick_cfg(epochs=2), data, quick_params(bundle))
    assert rec.best_report is None
    assert all(ep.val_report is None for ep in rec.epochs)
    assert np.isfinite(rec.best_value)
    assert 0.0 <= rec.best_value <= 1.0


def _train_oracle(cfg, data, params0):
    """README's training protocol as one plain loop, for ``train`` to equal bit for bit.

    Each epoch draws a fresh permutation (or keeps the order), takes one
    per-array Adam step per batch, scores the whole train and val splits
    without gradients, selects on the val harmonic AUROC (the seen mean
    on a seen-only val split; a strict gain wins, and with no finite
    value the last epoch is best), then feeds the val loss to the
    plateau scheduler. Returns the epoch records, the best epoch, value,
    report and params, the last params and the text of metrics.csv.
    """
    frozen = cfg.encoder_mode is EncoderMode.FROZEN
    params = params0.copy()
    skip = len(params.encoder.arrays()) if frozen else 0  # a frozen encoder takes no step
    ms = [np.zeros_like(a) for a in params.arrays()[skip:]]
    vs = [np.zeros_like(a) for a in params.arrays()[skip:]]
    seen = list(data.vocab.seen_ids)
    W = data.semantics.rows[seen]
    Y_train, Y_val = data.train.seen_label_view(), data.val.seen_label_view()
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    n, t = len(data.train), 0
    best_loss, n_bad, n_cuts = np.inf, 0, 0
    best = (0, -np.inf, None, None)
    records, rows = [], [
        "epoch,lr,train_rank,train_align,train_con,train_total,val_rank,val_align,val_con,"
        "val_total,val_seen_auroc,val_unseen_auroc,val_harmonic"
    ]
    for epoch in range(1, cfg.epochs + 1):
        lr = cfg.lr * cfg.lr_factor**n_cuts
        order = rng.permutation(n) if cfg.shuffle else np.arange(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            _, grads = total_loss(
                data.train.features[idx], Y_train[idx], W, params, cfg.loss, frozen_encoder=frozen
            )
            t += 1
            _per_array_adam_oracle(params.arrays()[skip:], grads.arrays()[skip:], ms, vs, t, lr)
        train_loss = total_loss(data.train.features, Y_train, W, params, cfg.loss,
                                compute_grads=False)[0]
        val_loss = total_loss(data.val.features, Y_val, W, params, cfg.loss, compute_grads=False)[0]

        report, value = None, float("nan")
        if data.val.label_space is LabelSpace.ALL_CLASSES:
            try:
                report = evaluate(params, data.val, data.semantics, cfg.ks)
                value = report.harmonic
            except UndefinedAurocError:
                pass
        else:
            scores = infer_scores(params, data.val.features, data.semantics)[:, seen]
            aurocs = [a for a in per_class_auroc(scores, data.val.labels) if a is not None]
            if aurocs:
                value = float(np.mean(aurocs))
        if value > best[1] or (best[0] == 0 and epoch == cfg.epochs):
            best = (epoch, value, report, params.copy())

        # the first val loss only sets the baseline; a gain counts past min_delta
        improved = epoch > 1 and val_loss.total < best_loss - cfg.min_delta
        best_loss = min(best_loss, val_loss.total)
        n_bad = 0 if improved else n_bad + 1
        reduced = n_bad == cfg.patience
        if reduced:
            n_cuts, n_bad = n_cuts + 1, 0

        records.append(EpochRecord(epoch, train_loss, val_loss, report, lr, reduced))
        values = [lr, train_loss.rank, train_loss.align, train_loss.con, train_loss.total,
                  val_loss.rank, val_loss.align, val_loss.con, val_loss.total]
        aurocs = ["", "", ""] if report is None else [
            repr(float(x)) for x in (report.seen_mean, report.unseen_mean, report.harmonic)
        ]
        rows.append(",".join([str(epoch), *(repr(float(x)) for x in values), *aurocs]))
    return records, *best, params, "\n".join(rows) + "\n"


@functools.cache
def _oracle_bundle(val: str) -> DataBundle:
    data = generate(small_spec(seed=3))
    if val == "seen only":
        return _with_seen_only_val(data)
    return _without_harmonic(data) if val == "no harmonic" else data


@settings(max_examples=30, deadline=None)
# tied selection values: at lr 1e-9 every epoch has the same val AUROCs
@example(batch_size=32, lr=1e-9, shuffle=False, patience=1, lr_factor=0.5, min_delta=0.0,
         terms=("rank",), mode=EncoderMode.END_TO_END, val="all classes", epochs=2)
# at lr 1e-2 the train and val losses stop improving in different epochs
@example(batch_size=1, lr=1e-2, shuffle=False, patience=1, lr_factor=0.5, min_delta=0.0,
         terms=("rank",), mode=EncoderMode.END_TO_END, val="all classes", epochs=4)
# no epoch has a selection value, and each epoch draws its own order
@example(batch_size=32, lr=1e-3, shuffle=True, patience=2, lr_factor=0.01, min_delta=1e-6,
         terms=TERM_NAMES, mode=EncoderMode.FROZEN, val="no harmonic", epochs=3)
@given(
    batch_size=st.sampled_from([1, 7, 32, None]),  # None: the whole split in one batch
    lr=st.sampled_from([1e-2, 1e-3, 1e-9]),  # 1e-9 barely moves: values tie, losses plateau
    shuffle=st.booleans(),
    patience=st.integers(1, 3),
    lr_factor=st.sampled_from([0.5, 0.01]),
    min_delta=st.sampled_from([0.0, 1e-6, 1e-2]),
    terms=st.sampled_from([t for r in (1, 2, 3) for t in itertools.combinations(TERM_NAMES, r)]),
    mode=st.sampled_from(list(EncoderMode)),
    val=st.sampled_from(["all classes", "seen only", "no harmonic"]),
    epochs=st.integers(1, 4),
)
def test_train_equals_the_plain_loop_oracle_bit_for_bit(
    batch_size, lr, shuffle, patience, lr_factor, min_delta, terms, mode, val, epochs
):
    data = _oracle_bundle(val)
    cfg = quick_cfg(
        epochs=epochs, batch_size=batch_size or len(data.train), lr=lr, shuffle=shuffle,
        patience=patience, lr_factor=lr_factor, min_delta=min_delta, encoder_mode=mode,
        loss=LossConfig(gamma1=0.1, gamma2=0.1, **term_switches(terms)),
    )
    params0 = quick_params(data)
    with tempfile.TemporaryDirectory() as out:
        rec = train(cfg, data, params0, out_dir=out)
        csv_text = (Path(out) / "metrics.csv").read_text(encoding="utf-8")
    records, best_epoch, best_value, best_report, best_params, last, want_csv = _train_oracle(
        cfg, data, params0
    )
    assert repr(rec.epochs) == repr(records)  # repr: exact floats, and nan equals nan
    assert (rec.best_epoch, repr(rec.best_value), rec.best_report) == (
        best_epoch, repr(best_value), best_report
    )
    assert rec.best_params.flat.tobytes() == best_params.flat.tobytes()
    assert rec.final_params.flat.tobytes() == last.flat.tobytes()
    assert csv_text == want_csv


def test_rejects_unseen_positive_in_train_split(bundle):
    wide = np.zeros((len(bundle.train), bundle.vocab.n_classes), dtype=np.int8)
    wide[:, : bundle.vocab.n_seen] = bundle.train.labels
    wide[2, bundle.vocab.unseen_ids[0]] = 1
    poisoned = Dataset(
        features=bundle.train.features,
        labels=wide,
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
    # Dataset rejects NaN features when built, so train meets a non-finite
    # loss only when its own steps diverge: at lr=1e300 the first batch's
    # update overflows the weights
    with pytest.raises(ValueError, match="^features row 0 column 0 is nan$"):
        Dataset(np.full_like(bundle.train.features, np.nan), bundle.train.labels, bundle.vocab)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteLossError) as exc_info:
        train(quick_cfg(epochs=1, lr=1e300), bundle, quick_params(bundle))
    assert exc_info.value.epoch == 1
    assert exc_info.value.batch_index == 1


def test_dimension_mismatch_rejected(bundle):
    wrong = init_model_params(default_model_spec(9, bundle.semantics.dim), 0)
    with pytest.raises(ValueError, match="features"):
        train(quick_cfg(epochs=1), bundle, wrong)


def test_grid_single_combo_matches_direct_train(bundle):
    base = quick_cfg(epochs=2)
    params = quick_params(bundle)
    grid = GridSpec(gamma_candidates=(0.1,), lr_candidates=(1e-3,))
    result = grid_search(grid.configs(base), bundle, params)
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
    result = grid_search(grid.configs(quick_cfg(epochs=2)), bundle, quick_params(bundle))
    assert len(result.leaderboard) == 4
    harmonics = [row["harmonic"] for row in result.leaderboard]
    assert harmonics == sorted(harmonics, reverse=True)
    assert result.best.best_report.harmonic == harmonics[0]
    top = result.leaderboard[0]
    assert result.best.config.lr == top["lr"]
    assert result.best.config.loss.gamma1 == top["gamma"]


def test_grid_ranks_seen_only_runs_by_their_selection_value(bundle):
    # no run has a harmonic here, so ranking by it would tie them all and pick the lowest lr
    data = _with_seen_only_val(bundle)
    cfg, params = quick_cfg(epochs=2), quick_params(bundle)
    result = grid_search(GridSpec((0.1,), (1e-6, 1e-2)).configs(cfg), data, params)
    by_lr = {lr: train(replace(cfg, lr=lr), data, params).best_value for lr in (1e-6, 1e-2)}
    assert by_lr[1e-2] > by_lr[1e-6]
    assert result.best.config.lr == 1e-2
    assert result.best.best_value == by_lr[1e-2]
    assert [row["lr"] for row in result.leaderboard] == [1e-2, 1e-6]
    # the leaderboard shows each run's selection value as its seen mean
    assert [row["seen_mean"] for row in result.leaderboard] == [by_lr[1e-2], by_lr[1e-6]]
    assert all(row["harmonic"] is None and row["unseen_mean"] is None
               for row in result.leaderboard)


def test_grid_random_trials_subsamples(bundle):
    grid = GridSpec(gamma_candidates=(0.1, 0.0), lr_candidates=(1e-3, 1e-5))
    configs = grid.configs(quick_cfg(epochs=1), random_trials=2)
    result = grid_search(configs, bundle, quick_params(bundle))
    assert len(result.leaderboard) + len(result.failures) == 2
    with pytest.raises(ValueError, match="random_trials"):
        grid.configs(quick_cfg(epochs=1), random_trials=5)
    with pytest.raises(ValueError, match="jobs must be >= 1"):
        grid_search(configs, bundle, quick_params(bundle), jobs=0)


def test_grid_parallel_matches_serial(bundle):
    grid = GridSpec(gamma_candidates=(0.1,), lr_candidates=(1e-3, 1e-5))
    configs = grid.configs(quick_cfg(epochs=1))
    params = quick_params(bundle)
    serial = grid_search(configs, bundle, params, jobs=1)
    parallel = grid_search(configs, bundle, params, jobs=2)
    assert [r["harmonic"] for r in serial.leaderboard] == [
        r["harmonic"] for r in parallel.leaderboard
    ]
    assert arrays_equal(serial.best.final_params, parallel.best.final_params)


def test_grid_writes_per_combo_dirs(bundle, tmp_path):
    grid = GridSpec(gamma_candidates=(0.1,), lr_candidates=(1e-3,))
    result = grid_search(grid.configs(quick_cfg(epochs=1)), bundle, quick_params(bundle),
                         out_dir=tmp_path)
    combo = tmp_path / "gamma0.1_lr0.001"
    assert (combo / "config.json").is_file()
    assert (combo / "checkpoints" / "best.ckpt").is_file()
    assert result.best.out_dir == str(combo)


def test_grid_failure_rows_come_from_each_failed_run_config(bundle, monkeypatch):
    real_train = training_module.train

    def fail_low_lr(cfg, data, params0, out_dir=None):
        if cfg.lr == 1e-5:
            raise GzslError(f"diverged at gamma {cfg.loss.gamma1:g}")
        return real_train(cfg, data, params0, out_dir)

    monkeypatch.setattr(training_module, "train", fail_low_lr)
    grid = GridSpec(gamma_candidates=(0.05, 0.0), lr_candidates=(1e-3, 1e-5))
    result = grid_search(grid.configs(quick_cfg(epochs=1)), bundle, quick_params(bundle))
    assert result.failures == [
        {"gamma": 0.05, "lr": 1e-5, "error": "GzslError: diverged at gamma 0.05"},
        {"gamma": 0.0, "lr": 1e-5, "error": "GzslError: diverged at gamma 0"},
    ]
    assert sorted(row["gamma"] for row in result.leaderboard) == [0.0, 0.05]
    assert all(row["lr"] == 1e-3 for row in result.leaderboard)


def test_grid_candidates_sharing_a_run_dir_raise_before_any_run(bundle, monkeypatch):
    def no_train(*args):
        raise AssertionError("a run trained")

    monkeypatch.setattr(training_module, "train", no_train)
    cfg = quick_cfg(epochs=1)
    for gammas in [(0.1, 0.1), (0.1, 0.1000001)]:
        with pytest.raises(ValueError, match="gamma0.1_lr0.001"):
            GridSpec(gammas, (1e-3,)).configs(cfg)
    twin = replace(cfg, lr=1e-3)
    with pytest.raises(ValueError, match="gamma0.1_lr0.001"):
        grid_search([twin, twin], bundle, quick_params(bundle))


@pytest.mark.parametrize(
    "ks, message",
    [((), "must not be empty"), ((2, 2), "distinct"), ((3, 2, 3), "distinct"), ((0,), "positive")],
)
def test_train_config_rejects_empty_repeated_or_non_positive_ks(ks, message):
    with pytest.raises(ValueError, match=message):
        quick_cfg(ks=ks)


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
        GridSpec(gamma_candidates=(0.1,), lr_candidates=(0.0,)).configs(quick_cfg())


# Artifacts of 3-epoch reference runs at seed 1, per encoder mode, recorded
# once generate drew its splits slot by slot with no BLAS product. Training's
# own products still sum in the order of the OpenBLAS kernel they run on, so
# these hold on the SkylakeX kernel they were recorded on (ROADMAP item 13).
# Refactors that keep the maths must reproduce the checkpoints byte for
# byte, and config.json, whose model section the model spec's codec writes.
PINNED_RUNS = {
    EncoderMode.END_TO_END: (
        {
            "checkpoints/best.ckpt": "1acc626ee3a6ca40e53ff8d0751f9caa00aaea6484c565b84ab6e3968834676f",
            "checkpoints/last.ckpt": "de3087a513d8e19ef7450e2474555acbddf3ad438206e6852bc66be76c4c72d6",
            "config.json": "fec81462886d6150cdaec65a7bcb45a871246668618ce020ba9abe04475938f3",
        },
        """\
epoch,lr,train_rank,train_align,train_con,train_total,val_rank,val_align,val_con,val_total,val_seen_auroc,val_unseen_auroc,val_harmonic
1,0.001,0.586456236876051,0.5808519268769221,1.0091265534598408,0.7454540849097273,0.4964091150037649,0.6683926401275622,1.0091265534598408,0.6641610343625053,0.6976433015965373,0.6654285860605667,0.681155264017582
2,0.001,0.4889994041038215,0.536072003812604,0.6744331537662344,0.6100499198617053,0.43421713978204385,0.6280183675829177,0.6744331537662344,0.5644622919169591,0.737205031316566,0.7241613584958088,0.7306249831525022
3,0.001,0.4597606149153748,0.5086845884703122,0.6251810292591147,0.5731471766883174,0.4234435766916552,0.6095442559365948,0.6251810292591147,0.5469161052112261,0.7554122340368199,0.7401102599823758,0.7476829631954462
""",
    ),
    EncoderMode.FROZEN: (
        {
            "checkpoints/best.ckpt": "775fe46e464481204cfba149440876be0cb14b61631a36321b286d1703353ddc",
            "checkpoints/last.ckpt": "3c88200d8538dcf9419f068658c88219d99e0675b9ee0bf5d12eacc9954edeb8",
            "config.json": "a058467a8896aaa974c21756e082238aeecaae2ff972c60af1c989b6b4450f27",
        },
        """\
epoch,lr,train_rank,train_align,train_con,train_total,val_rank,val_align,val_con,val_total,val_seen_auroc,val_unseen_auroc,val_harmonic
1,0.001,0.6687327621337026,0.613995281658139,1.2513937128939003,0.8552716615889064,0.536103101072592,0.685973570058495,1.2513937128939003,0.7298398293678314,0.6738497658524908,0.6422312881566513,0.6576607144813389
2,0.001,0.5894910380173595,0.582113747153326,0.6497733480245769,0.7126797475351497,0.4808107089353975,0.6532474841008558,0.6497733480245769,0.6111127921479408,0.7077758757170003,0.6695348826843319,0.6881244991726099
3,0.001,0.5652609862908003,0.5749803706611571,0.6353793673210179,0.6862969600890179,0.4734866362750124,0.648845024915118,0.6353793673210179,0.601909075498626,0.7212715528805751,0.6853491992818075,0.7028516826181199
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
        blob = (tmp_path / name).read_bytes()
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


# Calls made straight from package code in one reference training step: those
# of ``training._step`` (total_loss, isfinite, the scheduler's lr, adam_step)
# and those made inside them. It was 168, 118, then 95 when the count covered
# total_loss and adam_step alone, then 94 while each forward built a tape record.
# A change that cuts calls lowers the ceiling and says so in CHANGES.md.
STEP_CALLS_CEILING = 91
# The same count for one step at paper scale (925 seen classes), where the
# consistency term walks 36 blocks: a call added per block shows as 36 more.
PAPER_STEP_CALLS_CEILING = 196


def _package_calls(fn) -> int:
    """Calls made from ``gzsl_align`` frames while ``fn`` runs, as ``sys.setprofile`` sees them.

    A Python call counts by its caller's frame and a C call by the frame that
    makes it, so numpy's own internal calls do not count. The collector is off
    for the count: a collection inside ``fn`` would run the ``gc.callbacks``
    (Hypothesis installs one) from a package frame and count them.
    """
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        caller = frame.f_back if event == "call" else frame if event == "c_call" else None
        if caller is not None and caller.f_globals.get("__name__", "").startswith("gzsl_align"):
            calls += 1

    gc_was_enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
        if gc_was_enabled:
            gc.enable()
    return calls


def _second_step(spec: SynthSpec, cfg: TrainConfig, mode: EncoderMode):
    """``train``'s second step on the first 32 training rows, from a state ``_start`` builds."""
    cfg = replace(cfg, encoder_mode=mode)
    st = training_module._start(cfg, generate(spec), reference_model_params(spec, spec.seed))
    idx = np.arange(32)
    training_module._step(st, 0, idx)  # the first step also builds Adam's scratch vectors
    return lambda: training_module._step(st, 1, idx)


_PAPER_SCALE = SynthSpec(n_classes=1006, n_seen=925, n_train=128, n_val=64, n_test=64, seed=1)
# batch 32 with both gammas 0.1, as the paper-train benchmark trains
_PAPER_CFG = TrainConfig(batch_size=32, lr=1e-3, loss=LossConfig(gamma1=0.1, gamma2=0.1), seed=1)


@pytest.mark.parametrize("mode", list(EncoderMode), ids=lambda mode: mode.value)
def test_reference_step_calls_stay_under_the_ceiling(mode):
    calls = _package_calls(_second_step(reference_spec(1), reference_train_config(1), mode))
    assert calls <= STEP_CALLS_CEILING, f"{calls} calls per step, ceiling {STEP_CALLS_CEILING}"


@pytest.mark.parametrize("mode", list(EncoderMode), ids=lambda mode: mode.value)
def test_paper_scale_step_calls_stay_under_the_ceiling(mode):
    """925 seen of 1006 classes, as the paper-train benchmark trains."""
    calls = _package_calls(_second_step(_PAPER_SCALE, _PAPER_CFG, mode))
    assert calls <= PAPER_STEP_CALLS_CEILING, (
        f"{calls} calls per step, ceiling {PAPER_STEP_CALLS_CEILING}"
    )


def _ignore_collection(phase, info):
    pass


def test_step_count_holds_while_collections_fire():
    """A ``gc.callbacks`` entry and a collection at every allocation leave the count as it is."""
    spec, cfg, mode = reference_spec(1), reference_train_config(1), EncoderMode.END_TO_END
    quiet = _package_calls(_second_step(spec, cfg, mode))
    step = _second_step(spec, cfg, mode)
    threshold = gc.get_threshold()
    gc.callbacks.append(_ignore_collection)
    gc.set_threshold(1)
    try:
        noisy = _package_calls(step)
    finally:
        gc.set_threshold(*threshold)
        gc.callbacks.remove(_ignore_collection)
    assert noisy == quiet
