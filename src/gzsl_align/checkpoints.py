"""Checkpoint serialization: JSON header + flat little-endian f64 block.

Layout: 8-byte magic, uint32 little-endian header length, UTF-8 JSON
header with sorted keys, then one contiguous block of float64
little-endian values holding every parameter array in declared layer
order (encoder, visual mapping, semantic mapping; weights before biases
per layer). When optimizer state is included, its first- and
second-moment buffers follow in the same order. Identical inputs produce
byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass

import numpy as np

from .exceptions import CheckpointError
from .networks import MlpParams, MlpSpec, ModelParams
from .optimizers import AdamState

MAGIC = b"GZSLCKPT"
FORMAT_VERSION = 1


def config_digest(config: dict) -> str:
    """Stable sha256 of a JSON-serializable config dict."""
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


@dataclass
class Checkpoint:
    """Everything a checkpoint file carries, decoded."""

    params: ModelParams
    seed: int
    epoch: int
    config_hash: str | None
    adam: AdamState | None
    adam_hparams: dict | None


def _spec_list(spec: MlpSpec | None):
    return None if spec is None else list(spec.layer_dims)


def _block(arrays) -> bytes:
    return b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for a in arrays)


def save_checkpoint(
    path,
    params: ModelParams,
    *,
    seed: int,
    epoch: int,
    config_hash: str | None = None,
    adam: AdamState | None = None,
    adam_hparams: dict | None = None,
) -> None:
    """Write params (and optionally Adam state) to ``path``.

    ``adam_hparams`` records the scalar optimizer settings (beta1, beta2,
    epsilon, lr) alongside the moment buffers so training can resume.
    """
    params.validate()
    arrays = params.arrays()
    header = {
        "version": FORMAT_VERSION,
        "seed": int(seed),
        "epoch": int(epoch),
        "config_hash": config_hash,
        "specs": {
            "encoder": _spec_list(params.encoder.spec if params.encoder else None),
            "visual_map": _spec_list(params.visual_map.spec),
            "semantic_map": _spec_list(params.semantic_map.spec),
        },
        "n_values": int(sum(a.size for a in arrays)),
        "optimizer": None,
    }
    blocks = [_block(arrays)]
    if adam is not None:
        if len(adam.m) != len(arrays):
            raise CheckpointError(
                f"optimizer tracks {len(adam.m)} arrays, model has {len(arrays)}"
            )
        header["optimizer"] = {
            "step_count": int(adam.step_count),
            **(adam_hparams or {}),
        }
        blocks.append(_block(adam.m))
        blocks.append(_block(adam.v))
    raw = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(raw)))
        fh.write(raw)
        for b in blocks:
            fh.write(b)


def _take_net(values: np.ndarray, offset: int, spec: MlpSpec) -> tuple[MlpParams, int]:
    weights, biases = [], []
    for d_in, d_out in zip(spec.layer_dims[:-1], spec.layer_dims[1:]):
        w = values[offset : offset + d_in * d_out].reshape(d_in, d_out)
        offset += d_in * d_out
        b = values[offset : offset + d_out]
        offset += d_out
        weights.append(np.array(w))
        biases.append(np.array(b))
    return MlpParams(spec=spec, weights=weights, biases=biases), offset


def _take_model(values: np.ndarray, offset: int, specs: dict) -> tuple[ModelParams, int]:
    encoder = None
    if specs["encoder"] is not None:
        encoder, offset = _take_net(values, offset, MlpSpec(tuple(specs["encoder"])))
    visual, offset = _take_net(values, offset, MlpSpec(tuple(specs["visual_map"])))
    semantic, offset = _take_net(values, offset, MlpSpec(tuple(specs["semantic_map"])))
    return ModelParams(visual_map=visual, semantic_map=semantic, encoder=encoder), offset


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[: len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    pos = len(MAGIC)
    if len(data) < pos + 4:
        raise CheckpointError(f"{path}: truncated checkpoint (no header length)")
    (hlen,) = struct.unpack_from("<I", data, pos)
    pos += 4
    try:
        header = json.loads(data[pos : pos + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: corrupt checkpoint header: {exc}") from exc
    pos += hlen
    if header.get("version") != FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {header.get('version')}")

    body = data[pos:]
    if len(body) % 8:
        raise CheckpointError(
            f"{path}: parameter block of {len(body)} bytes is not a whole number of float64 values"
        )
    values = np.frombuffer(body, dtype="<f8").astype(np.float64)
    n = int(header["n_values"])
    opt = header.get("optimizer")
    expected = n * (3 if opt is not None else 1)
    if values.size != expected:
        raise CheckpointError(
            f"{path}: parameter block holds {values.size} values, expected {expected}"
        )

    params, offset = _take_model(values, 0, header["specs"])
    try:
        params.validate()
    except ValueError as exc:
        raise CheckpointError(f"{path}: invalid parameters: {exc}") from exc

    adam = None
    hparams = None
    if opt is not None:
        m_model, offset = _take_model(values, offset, header["specs"])
        v_model, offset = _take_model(values, offset, header["specs"])
        adam = AdamState(m=m_model.arrays(), v=v_model.arrays(), step_count=int(opt["step_count"]))
        hparams = {k: v for k, v in opt.items() if k != "step_count"}

    return Checkpoint(
        params=params,
        seed=int(header["seed"]),
        epoch=int(header["epoch"]),
        config_hash=header.get("config_hash"),
        adam=adam,
        adam_hparams=hparams,
    )
