"""Checkpoint serialization: JSON header + flat little-endian f64 body.

Layout: 8-byte magic, uint32 little-endian header length, UTF-8 JSON
header with sorted keys, then the body: the model's flat parameter
vector (:attr:`ModelParams.flat`: encoder, visual mapping, semantic
mapping; weights before biases per layer) as little-endian float64.
When optimizer state is included, two more blocks of the same length
follow: Adam's first- and second-moment vectors, laid out like the
parameters, with zeros for a frozen encoder. Loading gives each moment
back as one vector of that length, so ``m[0][i]`` is the moment of
``params.flat[i]``. Identical inputs produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass

import numpy as np

from .exceptions import CheckpointError
from .networks import MlpSpec, ModelParams, model_spec_dict, read_model_spec
from .optimizers import AdamState
from .records import is_int

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

    ``adam`` may split its moments into any arrays whose values, in
    order, cover ``params.flat``. ``adam_hparams`` records the scalar
    optimizer settings (beta1, beta2, epsilon, lr) alongside them.
    """
    params.validate()
    n = params.flat.size
    header = {
        "version": FORMAT_VERSION,
        "seed": int(seed),
        "epoch": int(epoch),
        "config_hash": config_hash,
        "specs": model_spec_dict(params),
        "n_values": n,
        "optimizer": None,
    }
    blocks = [params.flat]
    if adam is not None:
        m_size, v_size = (sum(a.size for a in moments) for moments in (adam.m, adam.v))
        if m_size != n or v_size != n:
            raise CheckpointError(
                f"optimizer moments hold {m_size} and {v_size} values, model has {n}"
            )
        header["optimizer"] = {
            "step_count": int(adam.step_count),
            **(adam_hparams or {}),
        }
        blocks += [*adam.m, *adam.v]
    raw = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(raw)))
        fh.write(raw)
        fh.write(_block(blocks))


def _header_specs(path, header) -> tuple[MlpSpec, MlpSpec, MlpSpec | None]:
    """Check the decoded header's fields; return the (visual, semantic, encoder) specs."""

    def malformed(what: str) -> CheckpointError:
        return CheckpointError(f"{path}: malformed checkpoint header: {what}")

    if not isinstance(header, dict):
        raise malformed(f"expected a JSON object, got {type(header).__name__}")
    if header.get("version") != FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {header.get('version')}")
    for key in ("seed", "epoch", "n_values"):
        if not is_int(header.get(key)):
            raise malformed(f"{key!r} must be an integer, got {header.get(key)!r}")
    if not isinstance(header.get("config_hash"), (str, type(None))):
        raise malformed("'config_hash' must be a string or null")
    opt = header.get("optimizer")
    if opt is not None and not (isinstance(opt, dict) and is_int(opt.get("step_count"))):
        raise malformed("'optimizer' must be null or an object with an integer 'step_count'")

    try:
        specs = read_model_spec(header.get("specs"))
    except ValueError as exc:
        raise malformed(f"'specs': {exc}") from None
    need = sum(spec.n_params for spec in specs if spec is not None)
    if header["n_values"] != need:
        raise malformed(f"'n_values' is {header['n_values']}, the specs need {need}")
    return specs


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
    specs = _header_specs(path, header)

    body = data[pos:]
    if len(body) % 8:
        raise CheckpointError(
            f"{path}: parameter block of {len(body)} bytes is not a whole number of float64 values"
        )
    values = np.frombuffer(body, dtype="<f8")
    n = header["n_values"]
    opt = header.get("optimizer")
    expected = n * (3 if opt is not None else 1)
    if values.size != expected:
        raise CheckpointError(
            f"{path}: parameter block holds {values.size} values, expected {expected}"
        )

    def block(i: int) -> np.ndarray:
        return values[i * n : (i + 1) * n].astype(np.float64)

    params = ModelParams(block(0), *specs)
    try:
        params.validate()
    except ValueError as exc:
        raise CheckpointError(f"{path}: invalid parameters: {exc}") from exc

    adam = None
    hparams = None
    if opt is not None:
        adam = AdamState(m=[block(1)], v=[block(2)], step_count=opt["step_count"])
        hparams = {k: v for k, v in opt.items() if k != "step_count"}

    return Checkpoint(
        params=params,
        seed=header["seed"],
        epoch=header["epoch"],
        config_hash=header.get("config_hash"),
        adam=adam,
        adam_hparams=hparams,
    )
