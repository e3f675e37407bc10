"""Checkpoint serialization: JSON header + flat little-endian f64 body.

Layout: 8-byte magic, uint32 little-endian header length, UTF-8 JSON
header with sorted keys, then the body: the model's flat parameter
vector (:attr:`ModelParams.flat`: encoder, visual mapping, semantic
mapping; weights before biases per layer) as little-endian float64.
When optimizer state is included, two more blocks of the same length
follow: Adam's first- and second-moment vectors, laid out like the
parameters, with zeros for a frozen encoder, so ``m[i]`` is the moment
of ``params.flat[i]``. Identical inputs produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass

import numpy as np

from .exceptions import CheckpointError
from .networks import ModelParams, ModelSpec
from .optimizers import AdamState
from .records import JsonRecord, canonical_json, is_int

MAGIC = b"GZSLCKPT"
FORMAT_VERSION = 1


def config_digest(config: dict) -> str:
    """Stable sha256 of a JSON-serializable config dict."""
    return hashlib.sha256(canonical_json(config).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CheckpointHeader(JsonRecord):
    """A checkpoint file's JSON header: what its body holds and how it was made.

    ``optimizer`` is null for a parameter-only file, else Adam's
    ``step_count`` plus whatever scalar settings were saved with it.
    """

    seed: int
    epoch: int
    specs: ModelSpec
    n_values: int
    config_hash: str | None = None
    optimizer: dict | None = None
    version: int = FORMAT_VERSION

    def __post_init__(self):
        if self.optimizer is not None and not is_int(self.optimizer.get("step_count")):
            raise ValueError("CheckpointHeader.optimizer needs an integer step_count")
        need = self.specs.n_params
        if self.n_values != need:
            raise ValueError(f"CheckpointHeader.n_values is {self.n_values}, the specs need {need}")


@dataclass
class Checkpoint:
    """Everything a checkpoint file carries, decoded."""

    params: ModelParams
    seed: int
    epoch: int
    config_hash: str | None
    adam: AdamState | None
    adam_hparams: dict | None


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

    Each of ``adam``'s moments must have ``params.flat``'s length.
    ``adam_hparams`` records the scalar optimizer settings (beta1,
    beta2, epsilon, lr) alongside them.
    """
    params.validate()
    n = params.flat.size
    optimizer = None
    blocks = [params.flat]
    if adam is not None:
        if adam.m.shape != (n,) or adam.v.shape != (n,):
            raise CheckpointError(
                f"optimizer moments have shapes {adam.m.shape} and {adam.v.shape}, model has {n}"
            )
        optimizer = {"step_count": int(adam.step_count), **(adam_hparams or {})}
        blocks += [adam.m, adam.v]
    header = CheckpointHeader(
        seed=int(seed), epoch=int(epoch), specs=params.spec, n_values=n,
        config_hash=config_hash, optimizer=optimizer,
    )
    raw = canonical_json(header.to_dict()).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(raw)))
        fh.write(raw)
        fh.write(_block(blocks))


def _read_header(path, header) -> CheckpointHeader:
    """The decoded header; its version comes first, as a newer one may add keys."""
    if isinstance(header, dict):
        version = header.get("version")
        if type(version) is not int or version != FORMAT_VERSION:
            raise CheckpointError(f"{path}: unsupported checkpoint version {canonical_json(version)}")
    try:
        return CheckpointHeader.from_dict(header)
    except ValueError as exc:
        raise CheckpointError(f"{path}: malformed checkpoint header: {exc}") from None


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
    header = _read_header(path, header)

    body = data[pos:]
    if len(body) % 8:
        raise CheckpointError(
            f"{path}: parameter block of {len(body)} bytes is not a whole number of float64 values"
        )
    values = np.frombuffer(body, dtype="<f8")
    n, opt = header.n_values, header.optimizer
    expected = n * (3 if opt is not None else 1)
    if values.size != expected:
        raise CheckpointError(
            f"{path}: parameter block holds {values.size} values, expected {expected}"
        )

    def block(i: int) -> np.ndarray:
        return values[i * n : (i + 1) * n].astype(np.float64)

    params = ModelParams(block(0), header.specs)
    try:
        params.validate()
    except ValueError as exc:
        raise CheckpointError(f"{path}: invalid parameters: {exc}") from exc

    adam = hparams = None
    if opt is not None:
        adam = AdamState(m=block(1), v=block(2), step_count=opt["step_count"])
        hparams = {k: v for k, v in opt.items() if k != "step_count"}

    return Checkpoint(
        params=params,
        seed=header.seed,
        epoch=header.epoch,
        config_hash=header.config_hash,
        adam=adam,
        adam_hparams=hparams,
    )
