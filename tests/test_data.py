"""Vocabulary, dataset validation, and manifest round-trip behavior."""

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from gzsl_align.data import ClassVocabulary, Dataset, LabelSpace, check_inductive
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
        label_space=LabelSpace.ALL_CLASSES,
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
        label_space=LabelSpace.ALL_CLASSES,
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
    poisoned = Dataset(b.train.features, labels, LabelSpace.ALL_CLASSES, vocab)
    val = Dataset(b.val.features, b.val.labels, LabelSpace.ALL_CLASSES, vocab)
    test = Dataset(b.test.features, b.test.labels, LabelSpace.ALL_CLASSES, vocab)
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
    ds = Dataset(
        features=b.train.features, labels=labels, label_space=LabelSpace.SEEN_ONLY, vocab=b.vocab
    )
    assert ds.zero_label_count() == 1


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
