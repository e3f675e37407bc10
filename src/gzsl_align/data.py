"""Class vocabulary, semantic embeddings, labeled datasets, and file I/O.

On-disk layout is a JSON manifest binding plain CSV files: one row per
vector, ``.`` decimal separator, no header. Label files hold 0/1 rows of
width S (seen classes only, in seen order) or width C (all classes, in
vocabulary order). All objects are immutable after construction.
"""

from __future__ import annotations

import enum
import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .exceptions import InductiveViolationError, ManifestError
from .networks import row_norms


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
        row_norms(rows, "semantic row")
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

    ``features`` is (N, v) float64 and ``labels`` (N, K) int8 where K is
    S or C depending on ``label_space``.
    """

    features: np.ndarray
    labels: np.ndarray
    label_space: LabelSpace
    vocab: ClassVocabulary

    def __post_init__(self):
        feats = np.array(self.features, dtype=np.float64)
        labels = np.array(self.labels, dtype=np.int8)
        if feats.ndim != 2 or labels.ndim != 2:
            raise ValueError("features and labels must be 2-D arrays")
        if feats.shape[0] != labels.shape[0]:
            raise ValueError(
                f"{feats.shape[0]} feature rows vs {labels.shape[0]} label rows"
            )
        want = self.vocab.n_seen if self.label_space is LabelSpace.SEEN_ONLY else self.vocab.n_classes
        if labels.shape[1] != want:
            raise ValueError(
                f"label width {labels.shape[1]} does not match "
                f"{self.label_space.value} width {want}"
            )
        object.__setattr__(self, "features", _frozen(feats))
        object.__setattr__(self, "labels", _frozen(labels))

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def seen_label_view(self) -> np.ndarray:
        """Labels restricted to seen classes, columns in seen order."""
        if self.label_space is LabelSpace.SEEN_ONLY:
            return self.labels
        return self.labels[:, list(self.vocab.seen_ids)]

    def zero_label_count(self) -> int:
        return int((self.labels.sum(axis=1) == 0).sum())


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


def _write_csv(path: Path, matrix: np.ndarray, integer: bool) -> None:
    fmt = str if integer else repr
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(",".join(map(fmt, row)) + "\n" for row in matrix.tolist())


def _member(obj, key: str, what: str):
    """``obj[key]`` of a parsed manifest object; ManifestError if it is absent."""
    if not isinstance(obj, dict):
        raise ManifestError(f"{what} must be a JSON object, got {type(obj).__name__}")
    if key not in obj:
        raise ManifestError(f"{what} missing key '{key}'")
    return obj[key]


def _read_csv(base: Path, name, what: str) -> np.ndarray:
    if not isinstance(name, str):
        raise ManifestError(f"{what} file name must be a string, got {name!r}")
    path = base / name
    if not path.is_file():
        raise ManifestError(f"{what} file not found: {path}")
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
    try:
        d, v = int(doc["d"]), int(doc["v"])
    except (TypeError, ValueError) as exc:
        raise ManifestError(f"manifest d and v must be integers: {exc}") from None
    entries = doc["classes"]
    try:
        names = tuple(e["name"] for e in entries)
        seen = tuple(e["seen"] for e in entries)
        emb_rows = [int(e["embedding_row"]) for e in entries]
    except (KeyError, TypeError, ValueError) as exc:
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

    raw_emb = _read_csv(base, doc["embeddings"], "embeddings")
    _require_finite(raw_emb, "embeddings")
    if raw_emb.shape[1] != d:
        raise ManifestError(f"embeddings have {raw_emb.shape[1]} columns, manifest declares d={d}")
    if sorted(emb_rows) != list(range(vocab.n_classes)):
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
        feats = _read_csv(base, _member(ref, "features", f"{split} split"), f"{split} features")
        _require_finite(feats, f"{split} features")
        if feats.shape[1] != v:
            raise ManifestError(
                f"{split} features have {feats.shape[1]} columns, manifest declares v={v}"
            )
        labels = _read_csv(base, _member(ref, "labels", f"{split} split"), f"{split} labels")
        if not np.isin(labels, (0.0, 1.0)).all():
            i, j = np.argwhere(~np.isin(labels, (0.0, 1.0)))[0]
            raise ManifestError(f"{split} labels row {i} column {j}: non-binary value {labels[i, j]}")
        if labels.shape[1] == vocab.n_seen:
            space = LabelSpace.SEEN_ONLY
        elif labels.shape[1] == vocab.n_classes:
            space = LabelSpace.ALL_CLASSES
        else:
            raise ManifestError(
                f"{split} labels have {labels.shape[1]} columns; expected "
                f"{vocab.n_seen} (seen only) or {vocab.n_classes} (all classes)"
            )
        try:
            splits[split] = Dataset(feats, labels.astype(np.int8), space, vocab)
        except ValueError as exc:
            raise ManifestError(f"{split}: {exc}") from None

    check_inductive(splits["train"])
    return DataBundle(vocab, semantics, splits["train"], splits["val"], splits["test"])


def save_manifest(bundle: DataBundle, out_dir) -> Path:
    """Write a bundle as manifest.json plus CSV files; returns the manifest path.

    Writing then loading reproduces the bundle exactly, and a second save
    of the loaded bundle is byte-identical.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "embeddings.csv", bundle.semantics.rows, integer=False)
    doc = {
        "classes": [
            {"name": n, "seen": i in set(bundle.vocab.seen_ids), "embedding_row": i}
            for i, n in enumerate(bundle.vocab.names)
        ],
        "d": bundle.semantics.dim,
        "v": bundle.train.feature_dim,
        "embeddings": "embeddings.csv",
        "splits": {},
    }
    for split in SPLIT_NAMES:
        ds = bundle.split(split)
        f_name, l_name = f"{split}_features.csv", f"{split}_labels.csv"
        _write_csv(out / f_name, ds.features, integer=False)
        _write_csv(out / l_name, ds.labels, integer=True)
        doc["splits"][split] = {"features": f_name, "labels": l_name}
    manifest = out / "manifest.json"
    manifest.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return manifest
