"""Binary checkpoint format: round-trips, headers, corruption handling."""

import json
import struct

import numpy as np
import pytest

from gzsl_align import (
    CheckpointError,
    init_adam,
    load_checkpoint,
    save_checkpoint,
)
from gzsl_align.checkpoints import config_digest
from gzsl_align.networks import ModelSpec, init_model_params

from conftest import rewrite_checkpoint_header


def _model(seed=0):
    return init_model_params(
        ModelSpec(visual_map=(6, 4), semantic_map=(5, 4), encoder=(6, 8, 6)), seed=seed
    )


def test_params_round_trip_bit_identically(tmp_path):
    params = _model(seed=3)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, seed=3, epoch=17, config_hash="abc123")
    ck = load_checkpoint(path)
    assert ck.header.seed == 3 and ck.header.epoch == 17 and ck.header.config_hash == "abc123"
    assert ck.adam is None
    for a, b in zip(params.arrays(), ck.params.arrays()):
        assert np.array_equal(a, b)
    for (n1, _), (n2, _) in zip(params.nets(), ck.params.nets()):
        assert n1 == n2


def test_adam_state_round_trips(tmp_path):
    params = _model(seed=1)
    state = init_adam(params.arrays())
    rng = np.random.default_rng(0)
    state.m[:] = rng.standard_normal(state.m.shape)
    state.v[:] = rng.uniform(size=state.v.shape)
    state.step_count = 42
    path = tmp_path / "full.ckpt"
    hparams = {"lr": 1e-3, "beta1": 0.9, "beta2": 0.999, "epsilon": 1e-8}
    save_checkpoint(path, params, seed=1, epoch=5, adam=state, adam_hparams=hparams)
    ck = load_checkpoint(path)
    assert ck.adam is not None and ck.adam.step_count == 42
    assert ck.header.optimizer["lr"] == 1e-3
    # the moments come back as one vector each, in flat's layout
    assert ck.adam.m.shape == ck.adam.v.shape == params.flat.shape
    assert np.array_equal(ck.adam.m, state.m)
    assert np.array_equal(ck.adam.v, state.v)


def test_moments_shorter_than_flat_are_rejected(tmp_path):
    params = _model(seed=1)
    trainable = init_adam([params.flat[params.encoder.spec.n_params :]])
    path = tmp_path / "short.ckpt"
    with pytest.raises(CheckpointError, match="optimizer moments"):
        save_checkpoint(path, params, seed=1, epoch=1, adam=trainable)
    assert not path.exists()


def test_saved_files_are_deterministic(tmp_path):
    params = _model(seed=2)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, params, seed=2, epoch=0)
    save_checkpoint(p2, params, seed=2, epoch=0)
    assert p1.read_bytes() == p2.read_bytes()


def test_wrong_magic_is_rejected(tmp_path):
    path = tmp_path / "bogus.ckpt"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_truncated_payload_is_rejected(tmp_path):
    params = _model(seed=4)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, seed=4, epoch=1)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 16])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


@pytest.mark.parametrize("size", [8, 9, 10, 11])
def test_file_cut_inside_header_length_is_rejected(tmp_path, size):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, _model(seed=4), seed=4, epoch=1)
    path.write_bytes(path.read_bytes()[:size])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def test_body_of_partial_values_is_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, _model(seed=4), seed=4, epoch=1)
    path.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(CheckpointError, match="float64"):
        load_checkpoint(path)


def test_non_finite_weight_is_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, _model(seed=4), seed=4, epoch=1)
    blob = bytearray(path.read_bytes())
    (header_len,) = struct.unpack("<I", blob[8:12])
    blob[12 + header_len : 20 + header_len] = struct.pack("<d", float("nan"))
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="non-finite"):
        load_checkpoint(path)


MALFORMED_HEADERS = {
    "no-n_values": lambda h: {k: v for k, v in h.items() if k != "n_values"},
    "null-specs": lambda h: {**h, "specs": None},
    "list-header": lambda h: [h],
    "specs-off-body": lambda h: {**h, "specs": {**h["specs"], "visual_map": [6, 5]}},
    "string-seed": lambda h: {**h, "seed": "x"},
    "unknown-key": lambda h: {**h, "resume": {}},
    "bool-seed": lambda h: {**h, "seed": True},
    "float-n_values": lambda h: {**h, "n_values": float(h["n_values"])},
    "int-config_hash": lambda h: {**h, "config_hash": 5},
    "optimizer-without-step_count": lambda h: {**h, "optimizer": {}},
    "bool-step_count": lambda h: {**h, "optimizer": {"step_count": True}},
    "zero-width": lambda h: {**h, "specs": {**h["specs"], "visual_map": [6, 0]}},
    "one-width": lambda h: {**h, "specs": {**h["specs"], "visual_map": [6]}},
    # nets that do not fit, with as many values as the body holds
    "latent-misfit": lambda h: {**h, "specs": {**h["specs"], "semantic_map": [3, 6]}},
    "encoder-misfit": lambda h: {**h, "specs": {**h["specs"], "encoder": [6, 2, 32]}},
}


@pytest.mark.parametrize("edit", MALFORMED_HEADERS.values(), ids=MALFORMED_HEADERS.keys())
def test_malformed_header_is_rejected(tmp_path, edit):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, _model(seed=4), seed=4, epoch=1)
    rewrite_checkpoint_header(path, edit)
    with pytest.raises(CheckpointError, match="malformed checkpoint header"):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "version, extra",
    [(2, {}), (2, {"data_digest": "abc"}), (True, {}), (1.0, {})],
    ids=["2", "2-with-unknown-key", "true", "1.0"],
)
def test_unsupported_version_is_named_before_other_fields(tmp_path, version, extra):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, _model(seed=4), seed=4, epoch=1)
    rewrite_checkpoint_header(path, lambda h: {**h, **extra, "version": version})
    with pytest.raises(CheckpointError, match=f"unsupported checkpoint version {json.dumps(version)}$"):
        load_checkpoint(path)


def test_loaded_buffers_are_private_and_writable(tmp_path):
    params = _model(seed=6)
    path = tmp_path / "full.ckpt"
    save_checkpoint(path, params, seed=6, epoch=1, adam=init_adam([params.flat]))
    ck = load_checkpoint(path)
    assert np.array_equal(ck.params.flat, params.flat)
    assert not np.shares_memory(ck.params.flat, params.flat)
    assert not np.shares_memory(ck.adam.m, ck.adam.v)
    for moment in (ck.adam.m, ck.adam.v):
        assert moment.flags.writeable
        assert not np.shares_memory(moment, ck.params.flat)
    ck.params.visual_map.weights[0][0, 0] = 2.5
    assert ck.params.flat[params.encoder.spec.n_params] == 2.5


def test_header_is_inspectable_json(tmp_path):
    params = _model(seed=5)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, seed=5, epoch=9)
    blob = path.read_bytes()
    assert blob[:8] == b"GZSLCKPT"
    (header_len,) = struct.unpack("<I", blob[8:12])
    header = json.loads(blob[12 : 12 + header_len])
    assert header["seed"] == 5 and header["epoch"] == 9
    assert set(header["specs"]) == {"encoder", "visual_map", "semantic_map"}


def test_config_digest_is_order_insensitive():
    a = config_digest({"lr": 0.001, "epochs": 100})
    b = config_digest({"epochs": 100, "lr": 0.001})
    c = config_digest({"epochs": 100, "lr": 0.002})
    assert a == b != c
    assert len(a) == 64  # sha256 hex
