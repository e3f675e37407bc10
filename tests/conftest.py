"""Shared fixtures: small deterministic problem instances."""

import json
import struct

import numpy as np
import pytest

from gzsl_align import DataBundle, SynthSpec, generate
from gzsl_align.data import ClassVocabulary, Dataset, SemanticMatrix
from gzsl_align.synthetic import SemanticGeometry


def small_spec(seed=0, **overrides) -> SynthSpec:
    """A benchmark small enough for second-scale training in tests."""
    base = dict(
        n_classes=6,
        n_seen=4,
        d=8,
        v=12,
        n_train=160,
        n_val=80,
        n_test=80,
        noise_sigma=0.2,
        max_labels_per_sample=3,
        geometry=SemanticGeometry(parents_min=2, parents_max=2, jitter=0.05),
        seed=seed,
    )
    base.update(overrides)
    return SynthSpec(**base)


@pytest.fixture
def tiny_bundle() -> DataBundle:
    return generate(small_spec())


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def hand_bundle() -> DataBundle:
    """Fully hand-written 3-class bundle (2 seen, 1 unseen)."""
    vocab = ClassVocabulary(names=("a", "b", "c"), seen_ids=(0, 1), unseen_ids=(2,))
    rows = np.array(
        [
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.6, 0.8, 0.0],
        ]
    )
    semantics = SemanticMatrix(rows=rows)
    rng = np.random.default_rng(7)
    feats = {name: rng.standard_normal((5, 4)) for name in ("train", "val", "test")}
    y_train = np.array([[1, 0], [0, 1], [1, 1], [1, 0], [0, 1]], dtype=np.int8)
    y_eval = np.array(
        [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 1], [0, 1, 1]], dtype=np.int8
    )
    train = Dataset(
        features=feats["train"], labels=y_train, vocab=vocab
    )
    val = Dataset(
        features=feats["val"], labels=y_eval, vocab=vocab
    )
    test = Dataset(
        features=feats["test"], labels=y_eval, vocab=vocab
    )
    return DataBundle(vocab=vocab, semantics=semantics, train=train, val=val, test=test)


def rewrite_checkpoint_header(path, edit) -> None:
    """Replace a saved checkpoint's JSON header with ``edit(header)``, body kept."""
    blob = path.read_bytes()
    (header_len,) = struct.unpack("<I", blob[8:12])
    raw = json.dumps(edit(json.loads(blob[12 : 12 + header_len]))).encode("utf-8")
    path.write_bytes(blob[:8] + struct.pack("<I", len(raw)) + raw + blob[12 + header_len :])
