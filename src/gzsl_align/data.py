"""Class vocabulary, semantic embeddings, labeled datasets, and file I/O.

On-disk layout is a JSON manifest binding one 2-D array file per
embedding matrix, feature matrix and label matrix: ``.npy`` files
(``<f8`` for embeddings and features, int8 for labels) as
``save_manifest`` writes them, or plain CSV text (one row per vector,
``.`` decimal separator, no header) for any other suffix. Label files
hold 0/1 rows of width S (seen classes only, in seen order) or width C
(all classes, in vocabulary order). All objects are immutable after
construction.
"""

from __future__ import annotations

import enum
import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .exceptions import DegenerateVectorError, InductiveViolationError, ManifestError
from .networks import usable_row_norms
from .records import is_int, write_json

LABEL_BLOCK = 1024  # label rows a Dataset checks together
_NPY_FLOAT = np.dtype("<f8")  # .npy embeddings and features
_NPY_LABEL = np.dtype("i1")  # .npy labels


class LabelSpace(enum.Enum):
    """Which classes a dataset's label columns cover."""

    SEEN_ONLY = "seen_only"
    ALL_CLASSES = "all_classes"


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ClassVocabulary:
    """Named classes split into disjoint seen and unseen partitions."""

    names: tuple[str, ...]
    seen_ids: tuple[int, ...]
    unseen_ids: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(str(n) for n in self.names))
        object.__setattr__(self, "seen_ids", tuple(int(i) for i in self.seen_ids))
        object.__setattr__(self, "unseen_ids", tuple(int(i) for i in self.unseen_ids))
        c = len(self.names)
        if len(set(self.names)) != c or any(not n for n in self.names):
            raise ValueError("class names must be unique and non-empty")
        seen, unseen = set(self.seen_ids), set(self.unseen_ids)
        if seen & unseen:
            raise ValueError(f"seen/unseen overlap: {sorted(seen & unseen)}")
        if seen | unseen != set(range(c)):
            raise ValueError("seen and unseen ids must partition 0..C-1")
        if len(self.seen_ids) < 2:
            raise ValueError("need at least 2 seen classes for ranking")

    @property
    def n_classes(self) -> int:
        return len(self.names)

    @property
    def n_seen(self) -> int:
        return len(self.seen_ids)


@dataclass(frozen=True)
class SemanticMatrix:
    """One d-dimensional embedding per class, rows in vocabulary order."""

    rows: np.ndarray

    def __post_init__(self):
        rows = np.array(self.rows, dtype=np.float64)
        if rows.ndim != 2:
            raise ValueError(f"semantic matrix must be 2-D, got shape {rows.shape}")
        if not np.isfinite(rows).all():
            bad = np.argwhere(~np.isfinite(rows))[0]
            raise ValueError(f"semantic row {bad[0]} component {bad[1]} is not finite")
        try:
            usable_row_norms(rows, "semantic row")
        except DegenerateVectorError as exc:  # an unusable row is bad input like any other
            raise ValueError(str(exc)) from None
        object.__setattr__(self, "rows", _frozen(rows))

    @property
    def dim(self) -> int:
        return self.rows.shape[1]

    @property
    def n_classes(self) -> int:
        return self.rows.shape[0]

    def seen_rows(self, vocab: ClassVocabulary) -> np.ndarray:
        return self.rows[list(vocab.seen_ids)]


@dataclass(frozen=True)
class Dataset:
    """Immutable feature/label arrays bound to a vocabulary.

    ``features`` is (N, v) float64 and ``labels`` (N, K) int8, where the
    width K sets ``label_space``: S is seen-only, C all classes (a
    vocabulary without unseen classes reads as seen-only). Any other
    width, or any label that is not exactly 0 or 1, raises ValueError.
    """

    features: np.ndarray
    labels: np.ndarray
    vocab: ClassVocabulary

    def __post_init__(self):
        feats = np.array(self.features, dtype=np.float64)
        raw = np.asarray(self.labels)
        if feats.ndim != 2 or raw.ndim != 2:
            raise ValueError("features and labels must be 2-D arrays")
        if raw.shape[1] not in (self.vocab.n_seen, self.vocab.n_classes):
            raise ValueError(
                f"labels have {raw.shape[1]} columns; expected "
                f"{self.vocab.n_seen} (seen only) or {self.vocab.n_classes} (all classes)"
            )
        for i in range(0, raw.shape[0], LABEL_BLOCK):  # no temporary beyond one block
            block = raw[i : i + LABEL_BLOCK]
            binary = block == 0
            binary |= block == 1
            if not binary.all():
                r, j = np.argwhere(~binary)[0]
                raise ValueError(f"labels row {i + r} column {j}: non-binary value {block[r, j]}")
        labels = raw.astype(np.int8)
        if feats.shape[0] != labels.shape[0]:
            raise ValueError(
                f"{feats.shape[0]} feature rows vs {labels.shape[0]} label rows"
            )
        object.__setattr__(self, "features", _frozen(feats))
        object.__setattr__(self, "labels", _frozen(labels))

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def label_space(self) -> LabelSpace:
        """SEEN_ONLY when the labels are S wide, else ALL_CLASSES."""
        if self.labels.shape[1] == self.vocab.n_seen:
            return LabelSpace.SEEN_ONLY
        return LabelSpace.ALL_CLASSES

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def seen_label_view(self) -> np.ndarray:
        """Labels restricted to seen classes, columns in seen order."""
        if self.label_space is LabelSpace.SEEN_ONLY:
            return self.labels
        return self.labels[:, list(self.vocab.seen_ids)]

    def zero_label_count(self) -> int:
        return int(np.count_nonzero(~self.labels.any(axis=1)))


def check_inductive(ds: Dataset) -> None:
    """Raise InductiveViolationError at the first positive for an unseen class.

    A training split must not have one; seen-only label rows never do.
    """
    if ds.label_space is LabelSpace.SEEN_ONLY:
        return
    unseen = list(ds.vocab.unseen_ids)
    hits = np.argwhere(ds.labels[:, unseen] != 0)
    if hits.size:
        i, j = hits[0]
        raise InductiveViolationError(int(i), ds.vocab.names[unseen[j]])


@dataclass(frozen=True)
class DataBundle:
    """Everything one manifest provides: vocabulary, semantics, three splits."""

    vocab: ClassVocabulary
    semantics: SemanticMatrix
    train: Dataset
    val: Dataset
    test: Dataset

    def split(self, name: str) -> Dataset:
        try:
            return {"train": self.train, "val": self.val, "test": self.test}[name]
        except KeyError:
            raise ValueError(f"unknown split '{name}', expected train/val/test") from None


SPLIT_NAMES = ("train", "val", "test")


def _member(obj, key: str, what: str):
    """``obj[key]`` of a parsed manifest object; ManifestError if it is absent."""
    if not isinstance(obj, dict):
        raise ManifestError(f"{what} must be a JSON object, got {type(obj).__name__}")
    if key not in obj:
        raise ManifestError(f"{what} missing key '{key}'")
    return obj[key]


def _data_path(base: Path, name, what: str) -> Path:
    if not isinstance(name, str):
        raise ManifestError(f"{what} file name must be a string, got {name!r}")
    path = base / name
    if not path.is_file():
        raise ManifestError(f"{what} file not found: {path}")
    return path


def _read_csv(path: Path, what: str) -> np.ndarray:
    try:
        with warnings.catch_warnings():
            # loadtxt only warns on input without data; reported below
            warnings.simplefilter("ignore", UserWarning)
            mat = np.loadtxt(
                path, delimiter=",", dtype=np.float64, comments=None, ndmin=2, encoding="utf-8"
            )
    except ValueError as exc:  # bad cell, ragged row, or not UTF-8
        raise ManifestError(f"{what} file {path}: {exc}") from None
    if mat.size == 0:
        raise ManifestError(f"{what} file is empty: {path}")
    return mat


def _read_array(path: Path, what: str, dtype: np.dtype) -> np.ndarray:
    """A data file's 2-D array: a ``.npy`` file of exactly ``dtype``, else CSV text."""
    if path.suffix != ".npy":
        return _read_csv(path, what)
    try:
        with open(path, "rb") as fh:
            mat = np.load(fh, allow_pickle=False)
            single = isinstance(mat, np.ndarray) and not fh.read(1)  # not .npz, no bytes after
    # np.load raises more than ValueError/OSError/EOFError on a damaged
    # file: a cut header gives tokenize.TokenError, a garbled one SyntaxError
    except Exception as exc:
        raise ManifestError(f"{what} file {path}: {exc}") from None
    if not single:
        raise ManifestError(f"{what} file {path}: not exactly one .npy array")
    if mat.dtype != dtype or mat.ndim != 2:
        raise ManifestError(
            f"{what} file {path}: {mat.dtype.str} array of shape {mat.shape}, "
            f"expected a 2-D {dtype.str} array"
        )
    if mat.size == 0:
        raise ManifestError(f"{what} file is empty: {path}")
    return mat


def _require_finite(mat: np.ndarray, what: str) -> None:
    if not np.isfinite(mat).all():
        i, j = np.argwhere(~np.isfinite(mat))[0]
        raise ManifestError(f"{what} row {i} column {j} is {mat[i, j]}")


def load_manifest(path) -> DataBundle:
    """Load and fully validate a manifest and all files it references.

    Raises ManifestError on structural problems and
    InductiveViolationError when the training split carries a positive
    for an unseen class (named with its sample index).
    """
    path = Path(path)
    if not path.is_file():
        raise ManifestError(f"manifest not found: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ManifestError(f"manifest is not valid JSON: {exc}") from None
    for key in ("classes", "d", "v", "embeddings", "splits"):
        _member(doc, key, "manifest")

    base = path.parent
    d, v = doc["d"], doc["v"]
    for key, value in (("d", d), ("v", v)):
        if not is_int(value):
            raise ManifestError(f"manifest {key} must be a JSON integer, got {value!r}")
    entries = doc["classes"]
    try:
        names = tuple(e["name"] for e in entries)
        seen = tuple(e["seen"] for e in entries)
        emb_rows = [e["embedding_row"] for e in entries]
    except (KeyError, TypeError) as exc:
        raise ManifestError(f"malformed class entry: {exc}") from None
    for i, (name, flag) in enumerate(zip(names, seen)):
        if not isinstance(name, str):
            raise ManifestError(f"class entry {i}: name must be a string, got {name!r}")
        if not isinstance(flag, bool):
            raise ManifestError(f"class entry {i}: seen must be true or false, got {flag!r}")
    seen_ids = tuple(i for i, flag in enumerate(seen) if flag)
    unseen_ids = tuple(i for i, flag in enumerate(seen) if not flag)
    try:
        vocab = ClassVocabulary(names, seen_ids, unseen_ids)
    except ValueError as exc:
        raise ManifestError(str(exc)) from None

    raw_emb = _read_array(_data_path(base, doc["embeddings"], "embeddings"), "embeddings",
                          _NPY_FLOAT)
    _require_finite(raw_emb, "embeddings")
    if raw_emb.shape[1] != d:
        raise ManifestError(f"embeddings have {raw_emb.shape[1]} columns, manifest declares d={d}")
    if not all(map(is_int, emb_rows)) or sorted(emb_rows) != list(range(vocab.n_classes)):
        raise ManifestError("embedding_row values must be a permutation of 0..C-1")
    if raw_emb.shape[0] != vocab.n_classes:
        raise ManifestError(
            f"embeddings have {raw_emb.shape[0]} rows, expected {vocab.n_classes} classes"
        )
    try:
        semantics = SemanticMatrix(raw_emb[emb_rows])
    except ValueError as exc:
        raise ManifestError(str(exc)) from None

    splits = {}
    for split in SPLIT_NAMES:
        ref = _member(doc["splits"], split, "manifest splits")
        what = f"{split} features"
        path = _data_path(base, _member(ref, "features", f"{split} split"), what)
        feats = _read_array(path, what, _NPY_FLOAT)
        _require_finite(feats, f"{split} features")
        if feats.shape[1] != v:
            raise ManifestError(
                f"{split} features have {feats.shape[1]} columns, manifest declares v={v}"
            )
        what = f"{split} labels"
        path = _data_path(base, _member(ref, "labels", f"{split} split"), what)
        labels = _read_array(path, what, _NPY_LABEL)
        try:
            splits[split] = Dataset(feats, labels, vocab)
        except ValueError as exc:
            raise ManifestError(f"{split}: {exc}") from None

    check_inductive(splits["train"])
    return DataBundle(vocab, semantics, splits["train"], splits["val"], splits["test"])


def save_manifest(bundle: DataBundle, out_dir) -> Path:
    """Write a bundle as manifest.json plus ``.npy`` files; returns the manifest path.

    Embeddings and features are written as ``<f8``, labels as int8.
    Writing then loading reproduces the bundle exactly, and a second save
    of the loaded bundle is byte-identical.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    np.save(out / "embeddings.npy", bundle.semantics.rows.astype(_NPY_FLOAT, copy=False))
    seen = set(bundle.vocab.seen_ids)
    doc = {
        "classes": [
            {"name": n, "seen": i in seen, "embedding_row": i}
            for i, n in enumerate(bundle.vocab.names)
        ],
        "d": bundle.semantics.dim,
        "v": bundle.train.feature_dim,
        "embeddings": "embeddings.npy",
        "splits": {},
    }
    for split in SPLIT_NAMES:
        ds = bundle.split(split)
        f_name, l_name = f"{split}_features.npy", f"{split}_labels.npy"
        np.save(out / f_name, ds.features.astype(_NPY_FLOAT, copy=False))
        np.save(out / l_name, ds.labels.astype(_NPY_LABEL, copy=False))
        doc["splits"][split] = {"features": f_name, "labels": l_name}
    manifest = out / "manifest.json"
    write_json(manifest, doc)
    return manifest
