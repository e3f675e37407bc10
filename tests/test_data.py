"""Vocabulary, dataset validation, and manifest round-trip behavior."""

import contextlib
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import tokenize
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gzsl_align import (
    DataBundle,
    DegenerateVectorError,
    InductiveViolationError,
    ManifestError,
    SynthSpec,
    TrainConfig,
    generate,
    load_manifest,
    pairwise_cosine,
    save_manifest,
    train,
)
from gzsl_align.data import (
    LABEL_BLOCK,
    ClassVocabulary,
    Dataset,
    LabelSpace,
    SemanticMatrix,
    check_inductive,
)
from gzsl_align.checkpoints import save_checkpoint
from gzsl_align.networks import ModelSpec, init_model_params
from gzsl_align.training import default_model_spec
from gzsl_align.synthetic import SemanticGeometry
from gzsl_align.cli import main

from conftest import hand_bundle

TOY_SPEC = SynthSpec(n_classes=3, n_seen=2, d=4, v=6, n_train=4, n_val=4, n_test=4,
                     max_labels_per_sample=2,
                     geometry=SemanticGeometry(parents_min=2, parents_max=2))
DATA_CSVS = tuple(f"{split}_{part}.csv" for split in ("train", "val", "test")
                  for part in ("features", "labels"))


def _save_csv_manifest(bundle: DataBundle, out: Path) -> Path:
    """``save_manifest`` with each array as CSV text, the layout older versions wrote.

    A float cell is the ``repr`` of its value and a label cell its one
    digit, cells joined by ``,``, one row per line.
    """
    manifest = save_manifest(bundle, out)
    for npy in out.glob("*.npy"):
        rows = np.load(npy).tolist()
        npy.with_suffix(".csv").write_bytes(
            "".join(",".join(map(repr, row)) + "\n" for row in rows).encode())
        npy.unlink()
    manifest.write_text(manifest.read_text().replace(".npy", ".csv"))
    return manifest


def test_vocabulary_partition_counts():
    vocab = ClassVocabulary(
        names=tuple(f"c{i}" for i in range(14)),
        seen_ids=tuple(range(10)),
        unseen_ids=tuple(range(10, 14)),
    )
    assert vocab.n_classes == 14 and vocab.n_seen == 10 and len(vocab.unseen_ids) == 4


def test_vocabulary_rejects_overlap_and_gaps():
    with pytest.raises(Exception):
        ClassVocabulary(names=("a", "b"), seen_ids=(0, 1), unseen_ids=(1,))
    with pytest.raises(Exception):
        ClassVocabulary(names=("a", "b", "c"), seen_ids=(0,), unseen_ids=(2,))


def test_train_labels_accept_both_widths():
    b = hand_bundle()
    assert b.train.labels.shape[1] == 2  # seen width
    wide = np.hstack([b.train.labels, np.zeros((5, 1), dtype=np.int8)])
    ds = Dataset(
        features=b.train.features,
        labels=wide,
        vocab=b.vocab,
    )
    check_inductive(ds)  # full width, but no unseen positive
    assert np.array_equal(ds.seen_label_view(), b.train.labels)


def test_inductive_violation_names_sample_and_class():
    b = hand_bundle()
    labels = np.array([[0, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=np.int8)
    ds = Dataset(
        features=np.zeros((3, 4)),
        labels=labels,
        vocab=b.vocab,
    )
    with pytest.raises(InductiveViolationError) as exc_info:
        check_inductive(ds)
    assert exc_info.value.sample_index == 2
    assert exc_info.value.class_name == "c"


def test_unseen_class_name_with_quote_is_reported_whole(tmp_path, capsys):
    b = hand_bundle()
    vocab = ClassVocabulary(names=("a", "b", "o'brien"), seen_ids=(0, 1), unseen_ids=(2,))
    labels = np.hstack([b.train.labels, np.zeros((5, 1), dtype=np.int8)])
    labels[3, 2] = 1
    poisoned = Dataset(b.train.features, labels, vocab)
    val = Dataset(b.val.features, b.val.labels, vocab)
    test = Dataset(b.test.features, b.test.labels, vocab)
    data = DataBundle(vocab, b.semantics, poisoned, val, test)
    params0 = init_model_params(ModelSpec((4, 3), (3, 3)), seed=1)
    with pytest.raises(InductiveViolationError) as exc_info:
        train(TrainConfig(epochs=1), data, params0)
    assert (exc_info.value.sample_index, exc_info.value.class_name) == (3, "o'brien")
    manifest = save_manifest(data, tmp_path)
    with pytest.raises(InductiveViolationError) as exc_info:
        load_manifest(manifest)
    assert (exc_info.value.sample_index, exc_info.value.class_name) == (3, "o'brien")
    assert main(["validate", "--manifest", str(manifest)]) == 1
    assert capsys.readouterr().err.startswith(
        "error: train sample 3 has a positive label for unseen class 'o'brien';"
    )


def test_zero_label_rows_are_counted_not_rejected():
    b = hand_bundle()
    labels = b.train.labels.copy()
    labels[0, :] = 0
    ds = Dataset(features=b.train.features, labels=labels, vocab=b.vocab)
    assert ds.zero_label_count() == 1


@pytest.mark.parametrize("split", ["train", "val", "test"])
def test_split_with_no_rows_is_rejected_before_train_or_evaluate_sees_it(split):
    """Top-k divides by the sample count and train's val pass needs a batch: no empty split."""
    ds = getattr(hand_bundle(), split)
    with pytest.raises(ValueError, match="^a split needs at least one sample, got 0 rows$"):
        Dataset(features=ds.features[:0], labels=ds.labels[:0], vocab=ds.vocab)


@pytest.mark.parametrize("bad, shown", [
    (2, "2"), (-1, "-1"), (0.5, "0.5"), (float("nan"), "nan"), (np.int64(257), "257"),
], ids=["2", "-1", "0.5", "nan", "int64 257"])
def test_non_binary_label_is_rejected_with_its_cell(bad, shown):
    b = hand_bundle()
    labels = b.train.labels.astype(np.array(bad).dtype)
    labels[3, 1] = bad
    with pytest.raises(ValueError, match=f"labels row 3 column 1: non-binary value {shown}$"):
        Dataset(b.train.features, labels, b.vocab)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_feature_is_rejected_with_its_cell(bad):
    b = hand_bundle()
    features = b.train.features.copy()
    features[3, 1] = bad
    with pytest.raises(ValueError, match=f"^features row 3 column 1 is {bad}$"):
        Dataset(features, b.train.labels, b.vocab)


def test_non_binary_label_past_the_first_block_is_named_with_its_row():
    b = hand_bundle()
    labels = np.zeros((LABEL_BLOCK + 3, 2), dtype=np.int8)
    labels[LABEL_BLOCK + 1, 1] = 3
    features = np.zeros((len(labels), 4))
    with pytest.raises(ValueError, match=f"labels row {LABEL_BLOCK + 1} column 1: non-binary value 3$"):
        Dataset(features, labels, b.vocab)


def test_dataset_label_check_peaks_near_the_label_bytes():
    """The 0/1 check works in row blocks: beside the int8 copy no full-size temporary."""
    n, c = 20000, 1006
    vocab = ClassVocabulary(tuple(f"c{i}" for i in range(c)), tuple(range(925)), tuple(range(925, c)))
    labels = np.random.default_rng(5).integers(0, 2, size=(n, c), dtype=np.int8)
    features = np.zeros((n, 1))
    tracemalloc.start()
    try:
        Dataset(features, labels, vocab)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - features.nbytes <= 1.25 * labels.nbytes


def _blank_line_after_first_row(blob: bytes) -> bytes:
    cut = blob.index(b"\n") + 1
    return blob[:cut] + b"\n" + blob[cut:]


NON_CANONICAL_LABELS = {
    "1.0": lambda b: b.replace(b"1", b"1.0"),
    "every cell 0.0 or 1.0": lambda b: b.replace(b"0", b"0.0").replace(b"1", b"1.0"),
    "space before 1": lambda b: b.replace(b"1", b" 1"),
    "+1": lambda b: b.replace(b"1", b"+1"),
    "CRLF endings": lambda b: b.replace(b"\n", b"\r\n"),
    "no final newline": lambda b: b[:-1],
    "blank line": _blank_line_after_first_row,
}


@pytest.mark.parametrize("edit", NON_CANONICAL_LABELS.values(), ids=NON_CANONICAL_LABELS.keys())
def test_non_canonical_label_spellings_load_to_the_same_labels(tmp_path, edit):
    bundle = generate(TOY_SPEC)
    manifest = _save_csv_manifest(bundle, tmp_path)
    for split in ("train", "test"):
        path = tmp_path / f"{split}_labels.csv"
        blob = path.read_bytes()
        assert b"1" in blob
        path.write_bytes(edit(blob))
        assert path.read_bytes() != blob
    loaded = load_manifest(manifest)
    for split in ("train", "test"):
        np.testing.assert_array_equal(loaded.split(split).labels, bundle.split(split).labels)


def test_canonical_manifest_reads_no_label_file_with_loadtxt(tmp_path, monkeypatch):
    """A manifest as save_manifest writes it is all .npy: loadtxt reads no file of it."""
    bundle = generate(TOY_SPEC)
    manifest = save_manifest(bundle, tmp_path)
    parsed = []
    loadtxt = np.loadtxt

    def spy(fname, *args, **kwargs):
        parsed.append(Path(fname).name)
        return loadtxt(fname, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", spy)
    loaded = load_manifest(manifest)
    assert parsed == []
    for split in ("train", "val", "test"):
        assert loaded.split(split).labels.dtype == np.int8
        np.testing.assert_array_equal(loaded.split(split).labels, bundle.split(split).labels)


# sha256 of every file save_manifest writes for generate(TOY_SPEC): any byte
# drift in a .npy file or in manifest.json fails.
TOY_MANIFEST_SHA256 = {
    "embeddings.npy": "972fbffa9546f450626a0f2a0aa1ea19ecf042091c25825458e57405d0874e26",
    "manifest.json": "e9ca068fc19d0dba6facc9c0ef152bcb2a053cd4423d8ab8f98ee43e62ebce15",
    "test_features.npy": "05241532d2e5b725116f1286839895b8b4d1d40ab68d5ca86a1b9c49664fda48",
    "test_labels.npy": "b9930399f67ec3de2d83a8cab436f93385fda145d669fd825d44e70c72f7d829",
    "train_features.npy": "1ca52ce88cfa743d706e4fa054283e5bdd1db0a9d5bf7354b622833e15cd3c9a",
    "train_labels.npy": "4182a99c24395ae777ffec3782392afb16bcbdd064bc23172fadea367d9dbce8",
    "val_features.npy": "e84a9ed74a9eb0904b4129fae26d9d4e4e095c7e893b55256b28cd069ce1cd7b",
    "val_labels.npy": "2078c7bda8b190e7003281669def3687013d826376699290d9f02001a5c745bd",
}

# the same bundle in the CSV layout that save_manifest wrote before it switched
# to .npy, so the CSV reader keeps being tested on that layout. The layout is
# the old one; the values are those of today's generate, whose draw has
# changed since.
CSV_MANIFEST_SHA256 = {
    "embeddings.csv": "fdbbed92751f0c905b2d715a33290f7d4f924930c50e54952747995605eaed04",
    "manifest.json": "43b431297869d1e4d0287b26242c42c5835340fd3731534bbbc8fa995cbc82cd",
    "test_features.csv": "8298cc9158a7ea99270cfe7ddf0d446ef913c831b11535a8f24d388569ea85de",
    "test_labels.csv": "b9a3256e5c275f4eabbf076df515376c5ba180af3d9200653f185e9addd592ef",
    "train_features.csv": "aa9b91a881a235ff9049ed9271d83f544e83f1fdb6e70f8a3ffe665268f3f53d",
    "train_labels.csv": "f9467597c0c6664d33656d28b28658096eacf5a26fcfb38500423d4466871e63",
    "val_features.csv": "7dea6aeb29578fe7dc64b63551dc6ca49271b2ad6a656730a759a213586f2154",
    "val_labels.csv": "9415e7b14b3c65f958c29ceefc51dd065926da991074f09ec6ff9fd6ced853f2",
}

# Settings that load another OpenBLAS kernel, or keep numpy off its newer SIMD
# targets. generate sums without BLAS, so none of them may move a byte.
KERNEL_ENVIRONMENTS = {
    "default": {},
    "haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "sandybridge": {"OPENBLAS_CORETYPE": "Sandybridge"},
    "no-avx2": {"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"},
}


def _digests(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}


def test_toy_manifest_files_are_pinned(tmp_path):
    save_manifest(generate(TOY_SPEC), tmp_path)
    assert _digests(tmp_path) == TOY_MANIFEST_SHA256


@pytest.mark.parametrize("settings", KERNEL_ENVIRONMENTS.values(), ids=KERNEL_ENVIRONMENTS)
def test_toy_manifest_is_the_same_bytes_on_every_kernel(tmp_path, settings):
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
    src = Path(__file__).resolve().parents[1] / "src"
    env.update(settings, PYTHONPATH=os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")])))
    code = (
        "import json, sys\n"
        "from gzsl_align import SynthSpec, generate, save_manifest\n"
        "save_manifest(generate(SynthSpec.from_dict(json.loads(sys.argv[1]))), sys.argv[2])\n"
    )
    argv = [sys.executable, "-c", code, json.dumps(TOY_SPEC.to_dict()), str(tmp_path)]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert _digests(tmp_path) == TOY_MANIFEST_SHA256


def test_csv_layout_is_the_one_older_versions_wrote(tmp_path):
    _save_csv_manifest(generate(TOY_SPEC), tmp_path)
    assert _digests(tmp_path) == CSV_MANIFEST_SHA256


def _assert_bit_equal(got: DataBundle, want: DataBundle) -> None:
    """Same vocabulary, and every array of the same dtype, shape and bytes."""
    assert got.vocab == want.vocab
    pairs = [(got.semantics.rows, want.semantics.rows)]
    for split in ("train", "val", "test"):
        pairs += [(got.split(split).features, want.split(split).features),
                  (got.split(split).labels, want.split(split).labels)]
    for a, b in pairs:
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


def test_csv_manifest_loads_bit_equal_to_the_npy_manifest(tmp_path):
    bundle = generate(TOY_SPEC)
    from_npy = load_manifest(save_manifest(bundle, tmp_path / "npy"))
    _assert_bit_equal(load_manifest(_save_csv_manifest(bundle, tmp_path / "csv")), from_npy)


def test_manifest_round_trips_byte_identically(tmp_path):
    spec = SynthSpec(
        n_classes=3,
        n_seen=2,
        d=16,
        v=8,
        n_train=5,
        n_val=5,
        n_test=5,
        max_labels_per_sample=2,
        geometry=SemanticGeometry(parents_min=2, parents_max=2),
        seed=4,
    )
    bundle = generate(spec)
    first = tmp_path / "first"
    second = tmp_path / "second"
    manifest = save_manifest(bundle, first)
    reloaded = load_manifest(manifest)
    _assert_bit_equal(reloaded, bundle)
    for name, dtype in (("embeddings", "<f8"), ("train_features", "<f8"), ("val_labels", "|i1")):
        assert np.load(first / f"{name}.npy").dtype.str == dtype
    save_manifest(reloaded, second)
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_manifest_dimension_mismatch_is_reported(tmp_path):
    bundle = generate(SynthSpec(n_classes=3, n_seen=2, d=4, v=6, n_train=4, n_val=4, n_test=4,
                                max_labels_per_sample=2,
                                geometry=SemanticGeometry(parents_min=2, parents_max=2)))
    manifest = save_manifest(bundle, tmp_path)
    text = manifest.read_text().replace('"d": 4', '"d": 5')
    manifest.write_text(text)
    with pytest.raises(ManifestError):
        load_manifest(manifest)


def test_manifest_missing_file_is_reported(tmp_path):
    bundle = generate(SynthSpec(n_classes=3, n_seen=2, d=4, v=6, n_train=4, n_val=4, n_test=4,
                                max_labels_per_sample=2,
                                geometry=SemanticGeometry(parents_min=2, parents_max=2)))
    manifest = save_manifest(bundle, tmp_path)
    (tmp_path / "test_features.npy").unlink()
    with pytest.raises(ManifestError, match="test features file not found"):
        load_manifest(manifest)


def test_loading_train_split_with_unseen_positive_raises(tmp_path):
    bundle = generate(SynthSpec(n_classes=3, n_seen=2, d=4, v=6, n_train=4, n_val=4, n_test=4,
                                max_labels_per_sample=2,
                                geometry=SemanticGeometry(parents_min=2, parents_max=2)))
    manifest = save_manifest(bundle, tmp_path)
    # widen the training labels to full width and poison sample 2
    wide = np.zeros((4, 3), dtype=np.int8)
    wide[:, :2] = bundle.train.labels
    wide[2, 2] = 1
    np.save(tmp_path / "train_labels.npy", wide)
    with pytest.raises(InductiveViolationError) as exc_info:
        load_manifest(manifest)
    assert exc_info.value.sample_index == 2
    assert "class02" in str(exc_info.value)


# Each case lays the toy bundle out in a directory, damages it, and returns
# the manifest path.

def _edit_manifest(edit):
    def build(bundle: DataBundle, out: Path) -> Path:
        manifest = save_manifest(bundle, out)
        edit(manifest)
        return manifest
    return build


def _edit_doc(edit):
    def apply(manifest: Path) -> None:
        doc = json.loads(manifest.read_text())
        edit(doc)
        manifest.write_text(json.dumps(doc))
    return _edit_manifest(apply)


def _edit_bytes(name, edit):
    """Edit the bytes of one data file; a ``.csv`` name lays the bundle out as CSV."""
    def build(bundle: DataBundle, out: Path) -> Path:
        save = _save_csv_manifest if name.endswith(".csv") else save_manifest
        manifest = save(bundle, out)
        path = out / name
        path.write_bytes(edit(path.read_bytes()))
        return manifest
    return build


def _edit_npy(name, edit):
    """Replace the array of one ``.npy`` data file with ``edit(array)``."""
    def apply(manifest: Path) -> None:
        path = manifest.parent / name
        np.save(path, edit(np.load(path)))
    return _edit_manifest(apply)


def _npz_archive(_: bytes) -> bytes:
    buf = io.BytesIO()
    np.savez(buf, labels=np.zeros((4, 2), dtype=np.int8))
    return buf.getvalue()


def _set_cell(value):
    def edit(arr: np.ndarray) -> np.ndarray:
        arr[0, 0] = value
        return arr
    return edit


def _declare_one_column_d_true(manifest: Path) -> None:
    """Cut the embeddings to one column and declare ``"d": true``, which ``int`` reads as 1."""
    path = manifest.parent / "embeddings.npy"
    np.save(path, np.load(path)[:, :1])
    doc = json.loads(manifest.read_text())
    doc["d"] = True
    manifest.write_text(json.dumps(doc))


MALFORMED_MANIFESTS = {
    "split without features": _edit_doc(lambda d: d["splits"]["val"].pop("features")),
    "split without labels": _edit_doc(lambda d: d["splits"]["test"].pop("labels")),
    "null split": _edit_doc(lambda d: d["splits"].update(val=None)),
    "splits not an object": _edit_doc(lambda d: d.update(splits=["train", "val", "test"])),
    "non-integer d": _edit_doc(lambda d: d.update(d="x")),
    "fractional d": _edit_doc(lambda d: d.update(d=d["d"] + 0.7)),
    "integral float v": _edit_doc(lambda d: d.update(v=float(d["v"]))),
    "numeric string d": _edit_doc(lambda d: d.update(d=str(d["d"]))),
    "boolean d": _edit_manifest(_declare_one_column_d_true),
    "non-integer embedding_row": _edit_doc(lambda d: d["classes"][0].update(embedding_row="x")),
    "fractional embedding_row": _edit_doc(lambda d: d["classes"][1].update(embedding_row=1.5)),
    "seen not a boolean": _edit_doc(lambda d: d["classes"][0].update(seen="no")),
    "name not a string": _edit_doc(lambda d: d["classes"][1].update(name=[1])),
    "file name not a string": _edit_doc(lambda d: d.update(embeddings=5)),
    "manifest not an object": _edit_manifest(lambda m: m.write_text("[1, 2]")),
    "manifest not UTF-8": _edit_manifest(lambda m: m.write_bytes(b'{"d": "\xff"}')),
    "CSV not UTF-8": _edit_bytes("val_features.csv", lambda b: b"\xff" + b[1:]),
    "empty CSV": _edit_bytes("test_labels.csv", lambda b: b""),
    "CSV of blank lines": _edit_bytes("test_labels.csv", lambda b: b"\n\n"),
    "digit underscore": _edit_bytes("embeddings.csv", lambda b: b"1_0" + b[b.index(b","):]),
    "whitespace-only line": _edit_bytes("train_features.csv", lambda b: b"  \n" + b),
    "comment line": _edit_bytes("train_labels.csv", lambda b: b"# labels\n" + b),
    "ragged row": _edit_bytes("val_labels.csv", lambda b: b[: b.rindex(b",")] + b"\n"),
    "non-binary label": _edit_bytes("train_labels.csv", lambda b: b"2" + b[1:]),
    "non-finite feature": _edit_bytes("val_features.csv", lambda b: b"nan" + b[b.index(b","):]),
    "embedding norm overflows": _edit_bytes("embeddings.csv", lambda b: b"1e200" + b[b.index(b","):]),
    "npy non-finite feature": _edit_npy("val_features.npy", _set_cell(np.inf)),
    "npy non-finite embedding": _edit_npy("embeddings.npy", _set_cell(np.nan)),
    "npy non-binary label": _edit_npy("train_labels.npy", _set_cell(2)),
    "npy embedding norm overflows": _edit_npy("embeddings.npy", _set_cell(1e200)),
    "npy features not float64": _edit_npy("test_features.npy", lambda a: a.astype(np.float32)),
    "npy labels not int8": _edit_npy("test_labels.npy", lambda a: a.astype(np.float64)),
    "npy archive": _edit_bytes("val_labels.npy", _npz_archive),
    "npy bytes after the array": _edit_bytes("val_labels.npy", lambda b: b + b"\0"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("edit", MALFORMED_MANIFESTS.values(), ids=MALFORMED_MANIFESTS.keys())
def test_malformed_manifest_raises_manifest_error(tmp_path, edit):
    manifest = edit(generate(TOY_SPEC), tmp_path)
    with pytest.raises(ManifestError):
        load_manifest(manifest)


@pytest.mark.parametrize("name, value, shown", [
    ("val_labels.npy", 5, "val: labels row 0 column 0: non-binary value 5"),
    ("val_features.npy", np.inf, "val: features row 0 column 0 is inf"),
], ids=["label", "feature"])
def test_non_binary_label_cell_is_named_with_its_split(tmp_path, name, value, shown):
    manifest = _edit_npy(name, _set_cell(value))(generate(TOY_SPEC), tmp_path)
    with pytest.raises(ManifestError, match=f"^{shown}$"):
        load_manifest(manifest)


def test_non_finite_embedding_is_named_with_its_vocabulary_row(tmp_path):
    """File row 0 holds class 1's embedding, so the message names semantic row 1."""
    with pytest.raises(ValueError, match="^semantic row 1 component 0 is not finite$"):
        SemanticMatrix(np.array([[1.0, 0.0], [np.inf, 1.0]]))

    def class_1_from_a_nan_row_0(manifest: Path) -> None:
        doc = json.loads(manifest.read_text())
        doc["classes"][0]["embedding_row"], doc["classes"][1]["embedding_row"] = 1, 0
        manifest.write_text(json.dumps(doc))
        path = manifest.parent / "embeddings.npy"
        np.save(path, _set_cell(np.nan)(np.load(path)))

    manifest = _edit_manifest(class_1_from_a_nan_row_0)(generate(TOY_SPEC), tmp_path)
    with pytest.raises(ManifestError, match="^semantic row 1 component 0 is not finite$"):
        load_manifest(manifest)


def _same_message_as_pairwise_cosine(rows: np.ndarray) -> str:
    """SemanticMatrix's ValueError on ``rows``, checked equal to pairwise_cosine's message."""
    with pytest.raises(DegenerateVectorError) as want:
        pairwise_cosine(rows, rows, "semantic row")
    with pytest.raises(ValueError) as got:
        SemanticMatrix(rows)
    assert type(got.value) is ValueError and str(got.value) == str(want.value)
    return str(got.value)


def test_finite_embedding_whose_norm_overflows_is_rejected(tmp_path, capsys):
    with pytest.raises(ValueError, match="^semantic row 1 has a non-finite norm$"):
        SemanticMatrix(np.array([[1.0, 0.0], [1e200, 1e200]]))
    rows = np.array([[1.0, 0.0], [1e200, 1e200]])
    assert _same_message_as_pairwise_cosine(rows) == "semantic row 1 has a non-finite norm"
    manifest = _edit_npy("embeddings.npy", _set_cell(1e200))(generate(TOY_SPEC), tmp_path)
    assert main(["validate", "--manifest", str(manifest)]) == 1
    assert capsys.readouterr().err == "error: semantic row 0 has a non-finite norm\n"


def test_zero_embedding_row_exits_1_from_every_command_that_loads_it(tmp_path, capsys):
    with pytest.raises(ValueError, match="^semantic row 1 has zero norm$"):
        SemanticMatrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
    rows = np.array([[1.0, 0.0], [0.0, 0.0]])
    assert _same_message_as_pairwise_cosine(rows) == "semantic row 1 has zero norm"

    def zero_row_1(arr: np.ndarray) -> np.ndarray:
        arr[1] = 0.0
        return arr

    manifest = _edit_npy("embeddings.npy", zero_row_1)(generate(TOY_SPEC), tmp_path)
    ckpt = tmp_path / "init.ckpt"
    save_checkpoint(ckpt, init_model_params(default_model_spec(TOY_SPEC.v, TOY_SPEC.d), 0),
                    seed=0, epoch=0)
    for argv in (["validate"], ["train", "--out-dir", str(tmp_path / "run")],
                 ["eval", "--checkpoint", str(ckpt), "--out-dir", str(tmp_path / "eval")]):
        assert main([*argv, "--manifest", str(manifest)]) == 1
        assert capsys.readouterr().err == "error: semantic row 1 has zero norm\n"


NPY_OF_WRONG_KIND = {
    ">f8": np.zeros((4, 6), dtype=">f8"),
    "float32": np.zeros((4, 6), dtype=np.float32),
    "object": np.full((4, 6), None, dtype=object),
    "1-D": np.zeros(24),
    "3-D": np.zeros((4, 6, 1)),
    "0-D": np.zeros(()),
    "zero size": np.zeros((0, 6)),
}


@pytest.mark.parametrize("arr", NPY_OF_WRONG_KIND.values(), ids=NPY_OF_WRONG_KIND.keys())
def test_npy_of_wrong_dtype_or_shape_is_named(tmp_path, arr):
    manifest = save_manifest(generate(TOY_SPEC), tmp_path)
    path = tmp_path / "val_features.npy"
    np.save(path, arr, allow_pickle=True)
    with pytest.raises(ManifestError, match="^val features file ") as exc_info:
        load_manifest(manifest)
    assert str(path) in str(exc_info.value)


@pytest.mark.parametrize("seen_ids, unseen_ids, width, space", [
    ((0, 1), (2,), 2, LabelSpace.SEEN_ONLY),
    ((0, 1), (2,), 3, LabelSpace.ALL_CLASSES),
    ((0, 1, 2), (), 3, LabelSpace.SEEN_ONLY),
], ids=["width S", "width C", "no unseen class"])
def test_label_width_sets_the_label_space(seen_ids, unseen_ids, width, space):
    vocab = ClassVocabulary(("a", "b", "c"), seen_ids, unseen_ids)
    assert Dataset(np.zeros((4, 6)), np.zeros((4, width), dtype=np.int8), vocab).label_space is space


@pytest.mark.parametrize("width", [1, 4])
def test_label_width_other_than_seen_or_all_classes_is_rejected(tmp_path, width):
    message = re.escape(f"labels have {width} columns; expected 2 (seen only) or 3 (all classes)")
    with pytest.raises(ValueError, match=f"^{message}$"):
        Dataset(np.zeros((4, 6)), np.zeros((4, width), dtype=np.int8), hand_bundle().vocab)
    manifest = save_manifest(generate(TOY_SPEC), tmp_path)
    np.save(tmp_path / "val_labels.npy", np.zeros((4, width), dtype=np.int8))
    with pytest.raises(ManifestError, match=f"^val: {message}$"):
        load_manifest(manifest)


@pytest.fixture(scope="module")
def toy_manifest_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("toy")
    _save_csv_manifest(generate(TOY_SPEC), out)
    return out


@settings(max_examples=150, deadline=None)
@given(
    name=st.sampled_from(DATA_CSVS),
    where=st.floats(0.0, 1.0, exclude_max=True),
    flip=st.one_of(st.none(), st.integers(1, 255)),
)
def test_corrupted_csv_raises_only_typed_errors(toy_manifest_dir, name, where, flip):
    """A truncated (flip None) or byte-flipped data CSV fails as a typed error, never raw."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp) / "m"
        shutil.copytree(toy_manifest_dir, work)
        path = work / name
        blob = bytearray(path.read_bytes())
        at = int(where * len(blob))
        if flip is None:
            del blob[at:]
        else:
            blob[at] ^= flip
        path.write_bytes(bytes(blob))
        manifest = work / "manifest.json"
        try:
            load_manifest(manifest)
            loaded = True
        except (ManifestError, InductiveViolationError):
            loaded = False
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["validate", "--manifest", str(manifest)])
    if loaded:
        assert code == 0 and out.getvalue().endswith("OK\n")
    else:
        assert code == 1 and err.getvalue().startswith("error:")


def _damaged(blob: bytes):
    """Every cut of a ``.npy`` file, every one-bit flip of its header, every body byte inverted."""
    header = blob.index(b"\n") + 1
    for cut in range(len(blob)):
        yield blob[:cut]
    for at in range(len(blob)):
        for mask in [1 << bit for bit in range(8)] if at < header else [0xFF]:
            flipped = bytearray(blob)
            flipped[at] ^= mask
            yield bytes(flipped)


def test_damaged_npy_raises_only_manifest_error(tmp_path):
    """A damaged .npy file loads through every check or raises ManifestError.

    np.load raises tokenize.TokenError for most cut headers and SyntaxError
    for some flipped ones; neither may reach the caller raw. ``validate``
    runs once per outcome: a load, or a ManifestError raised over each
    type of error that np.load or a later check gave.
    """
    manifest = save_manifest(generate(TOY_SPEC), tmp_path)
    path = tmp_path / "embeddings.npy"
    outcomes = set()
    for blob in _damaged(path.read_bytes()):
        path.write_bytes(blob)
        try:
            load_manifest(manifest)
            outcome = None
        except ManifestError as exc:
            outcome = type(exc.__context__)
        if outcome in outcomes:
            continue
        outcomes.add(outcome)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["validate", "--manifest", str(manifest)])
        if outcome is None:
            assert code == 0 and out.getvalue().endswith("OK\n"), blob
        else:
            assert code == 1 and err.getvalue().startswith("error:"), blob
    assert {tokenize.TokenError, SyntaxError, type(None)} < outcomes
