"""Vocabulary, dataset validation, and manifest round-trip behavior."""

import contextlib
import hashlib
import io
import json
import re
import shutil
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from gzsl_align import (
    DataBundle,
    InductiveViolationError,
    ManifestError,
    SynthSpec,
    TrainConfig,
    generate,
    load_manifest,
    save_manifest,
    train,
)
from gzsl_align.data import (
    LABEL_BLOCK,
    ClassVocabulary,
    Dataset,
    LabelSpace,
    _read_canonical_labels,
    _write_labels,
    check_inductive,
)
from gzsl_align.networks import MlpSpec, init_model_params
from gzsl_align.synthetic import SemanticGeometry
from gzsl_align.cli import main

from conftest import hand_bundle

TOY_SPEC = SynthSpec(n_classes=3, n_seen=2, d=4, v=6, n_train=4, n_val=4, n_test=4,
                     max_labels_per_sample=2,
                     geometry=SemanticGeometry(parents_min=2, parents_max=2))
DATA_CSVS = tuple(f"{split}_{part}.csv" for split in ("train", "val", "test")
                  for part in ("features", "labels"))


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
    params0 = init_model_params(MlpSpec((4, 3)), MlpSpec((3, 3)), None, seed=1)
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


@pytest.mark.parametrize("bad, shown", [
    (2, "2"), (-1, "-1"), (0.5, "0.5"), (float("nan"), "nan"), (np.int64(257), "257"),
], ids=["2", "-1", "0.5", "nan", "int64 257"])
def test_non_binary_label_is_rejected_with_its_cell(bad, shown):
    b = hand_bundle()
    labels = b.train.labels.astype(np.array(bad).dtype)
    labels[3, 1] = bad
    with pytest.raises(ValueError, match=f"labels row 3 column 1: non-binary value {shown}$"):
        Dataset(b.train.features, labels, b.vocab)


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


def _per_cell_labels_csv(labels: np.ndarray) -> bytes:
    """Reference label CSV: ``str`` of each cell, joined by commas."""
    return "".join(",".join(map(str, row)) + "\n" for row in labels.tolist()).encode()


LABEL_SHAPES = {
    "no rows": np.zeros((0, 5), dtype=np.int8),
    "one column": np.array([[0], [1], [1], [0]], dtype=np.int8),
    "all zero": np.zeros((3, 7), dtype=np.int8),
    "all one": np.ones((3, 7), dtype=np.int8),
    "random 300x1006": (np.random.default_rng(12).random((300, 1006)) < 0.1).astype(np.int8),
}


@pytest.mark.parametrize("labels", LABEL_SHAPES.values(), ids=LABEL_SHAPES.keys())
def test_label_writer_matches_per_cell_formula(tmp_path, labels):
    _write_labels(tmp_path / "labels.csv", labels)
    assert (tmp_path / "labels.csv").read_bytes() == _per_cell_labels_csv(labels)


def _loadtxt_labels(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", dtype=np.float64, comments=None, ndmin=2,
                      encoding="utf-8")


@settings(max_examples=100, deadline=None)
@given(arrays(np.int8, array_shapes(min_dims=2, max_dims=2, max_side=40), elements=st.integers(0, 1)))
@example(np.ones((1, 1), dtype=np.int8))
@example(np.array([[0, 1, 1, 0, 1]], dtype=np.int8))
@example(np.array([[1], [0], [0]], dtype=np.int8))
@example(np.eye(LABEL_BLOCK + 1, 3, dtype=np.int8))
def test_canonical_label_reader_matches_loadtxt(labels):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "labels.csv"
        _write_labels(path, labels)
        got = _read_canonical_labels(path)
        want = _loadtxt_labels(path)
    assert got.dtype == np.int8
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(got, labels)


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
    manifest = save_manifest(bundle, tmp_path)
    for split in ("train", "test"):
        path = tmp_path / f"{split}_labels.csv"
        blob = path.read_bytes()
        assert b"1" in blob
        path.write_bytes(edit(blob))
        assert _read_canonical_labels(path) is None
    loaded = load_manifest(manifest)
    for split in ("train", "test"):
        np.testing.assert_array_equal(loaded.split(split).labels, bundle.split(split).labels)


def test_canonical_manifest_reads_no_label_file_with_loadtxt(tmp_path, monkeypatch):
    """A canonical label file is read from its bytes; loadtxt is left for the floats."""
    bundle = generate(TOY_SPEC)
    manifest = save_manifest(bundle, tmp_path)
    parsed = []
    loadtxt = np.loadtxt

    def spy(fname, *args, **kwargs):
        parsed.append(Path(fname).name)
        return loadtxt(fname, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", spy)
    loaded = load_manifest(manifest)
    assert sorted(parsed) == ["embeddings.csv", "test_features.csv", "train_features.csv",
                              "val_features.csv"]
    for split in ("train", "val", "test"):
        assert loaded.split(split).labels.dtype == np.int8
        np.testing.assert_array_equal(loaded.split(split).labels, bundle.split(split).labels)


# sha256 of every file save_manifest writes for generate(TOY_SPEC): any byte
# drift in a CSV or in manifest.json fails.
TOY_MANIFEST_SHA256 = {
    "embeddings.csv": "9ad17b15526a67ccf4d3e940d03b2f76cff2eb686c9c15986cf92bf6ed2aff03",
    "manifest.json": "43b431297869d1e4d0287b26242c42c5835340fd3731534bbbc8fa995cbc82cd",
    "test_features.csv": "a913f687c2062d323c5b049115a77b3d1aa8b7feb502cb133b4d88be0742aebf",
    "test_labels.csv": "1081e97c1b3caaa58b20ec575e2a0e8273f16e88c0df955fc2ca50163a667531",
    "train_features.csv": "07a3efadf443a0d775874c500decd85d006bd6a814ab347da8d6826f5cc9ffff",
    "train_labels.csv": "d1cb1b155ffe6c710f6a712eca1a9b4baedd3ff12760388356e10dd418abf580",
    "val_features.csv": "26c70023425715be544b5f53a199abe908ec3c9d4184b3a349f8ae322bb6d4fd",
    "val_labels.csv": "e5e2704869bfbea8e16ad494a80949f76975162a8947c6da5e73b0e9ea7a1fc9",
}


def test_toy_manifest_files_are_pinned(tmp_path):
    save_manifest(generate(TOY_SPEC), tmp_path)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert digests == TOY_MANIFEST_SHA256


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
    (tmp_path / "test_features.csv").unlink()
    with pytest.raises(ManifestError):
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
    lines = [",".join(str(v) for v in row) for row in wide]
    (tmp_path / "train_labels.csv").write_text("\n".join(lines) + "\n")
    with pytest.raises(InductiveViolationError) as exc_info:
        load_manifest(manifest)
    assert exc_info.value.sample_index == 2
    assert "class02" in str(exc_info.value)


def _edit_doc(edit):
    def apply(manifest: Path) -> None:
        doc = json.loads(manifest.read_text())
        edit(doc)
        manifest.write_text(json.dumps(doc))
    return apply


def _edit_csv(name, edit):
    def apply(manifest: Path) -> None:
        path = manifest.parent / name
        path.write_bytes(edit(path.read_bytes()))
    return apply


MALFORMED_MANIFESTS = {
    "split without features": _edit_doc(lambda d: d["splits"]["val"].pop("features")),
    "split without labels": _edit_doc(lambda d: d["splits"]["test"].pop("labels")),
    "null split": _edit_doc(lambda d: d["splits"].update(val=None)),
    "splits not an object": _edit_doc(lambda d: d.update(splits=["train", "val", "test"])),
    "non-integer d": _edit_doc(lambda d: d.update(d="x")),
    "non-integer embedding_row": _edit_doc(lambda d: d["classes"][0].update(embedding_row="x")),
    "seen not a boolean": _edit_doc(lambda d: d["classes"][0].update(seen="no")),
    "name not a string": _edit_doc(lambda d: d["classes"][1].update(name=[1])),
    "file name not a string": _edit_doc(lambda d: d.update(embeddings=5)),
    "manifest not an object": lambda m: m.write_text("[1, 2]"),
    "manifest not UTF-8": lambda m: m.write_bytes(b'{"d": "\xff"}'),
    "CSV not UTF-8": _edit_csv("val_features.csv", lambda b: b"\xff" + b[1:]),
    "empty CSV": _edit_csv("test_labels.csv", lambda b: b""),
    "CSV of blank lines": _edit_csv("test_labels.csv", lambda b: b"\n\n"),
    "digit underscore": _edit_csv("embeddings.csv", lambda b: b"1_0" + b[b.index(b","):]),
    "whitespace-only line": _edit_csv("train_features.csv", lambda b: b"  \n" + b),
    "comment line": _edit_csv("train_labels.csv", lambda b: b"# labels\n" + b),
    "ragged row": _edit_csv("val_labels.csv", lambda b: b[: b.rindex(b",")] + b"\n"),
    "non-binary label": _edit_csv("train_labels.csv", lambda b: b"2" + b[1:]),
    "non-finite feature": _edit_csv("val_features.csv", lambda b: b"nan" + b[b.index(b","):]),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("edit", MALFORMED_MANIFESTS.values(), ids=MALFORMED_MANIFESTS.keys())
def test_malformed_manifest_raises_manifest_error(tmp_path, edit):
    manifest = save_manifest(generate(TOY_SPEC), tmp_path)
    edit(manifest)
    with pytest.raises(ManifestError):
        load_manifest(manifest)


def test_non_binary_label_cell_is_named_with_its_split(tmp_path):
    manifest = save_manifest(generate(TOY_SPEC), tmp_path)
    _edit_csv("val_labels.csv", lambda b: b"1.5" + b[1:])(manifest)
    with pytest.raises(ManifestError, match="^val: labels row 0 column 0: non-binary value 1.5$"):
        load_manifest(manifest)


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
    (tmp_path / "val_labels.csv").write_text((",".join("0" * width) + "\n") * 4)
    with pytest.raises(ManifestError, match=f"^val: {message}$"):
        load_manifest(manifest)


@pytest.fixture(scope="module")
def toy_manifest_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("toy")
    save_manifest(generate(TOY_SPEC), out)
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
