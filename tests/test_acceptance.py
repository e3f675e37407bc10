"""Shipping acceptance battery.

Each numbered criterion is one test, so ``pytest -v`` prints one
pass/fail line per criterion; the assert message repeats the measured
numbers. The reference battery (5 committed seeds x 4 training variants
of the benchmark recipe) trains once per session and feeds criteria
5 through 7 plus the generator-bound property at the end.
"""

import multiprocessing
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from gzsl_align import (
    EncoderMode,
    align_term,
    con_term,
    evaluate,
    generate,
    pairwise_cosine,
    rank_term,
    reference_model_params,
    reference_spec,
    reference_train_config,
    run_gradient_check,
    train,
)
from gzsl_align.data import ClassVocabulary
from gzsl_align.metrics import gzsl_summary, per_class_auroc
from gzsl_align.optimizers import PlateauScheduler
from gzsl_align.synthetic import REFERENCE_SEEDS, bayes_reference_auroc
from gzsl_align.cli import main

pytestmark = pytest.mark.acceptance

VARIANTS = {
    "rank": ("rank",),
    "rank_align": ("rank", "align"),
    "full": ("rank", "align", "con"),
}


def check(n: int, passed: bool, detail: str) -> None:
    line = f"criterion {n}: {'PASS' if passed else 'FAIL'} - {detail}"
    print(line)
    assert passed, line


def median(values) -> float:
    return float(np.median(values))


def _battery_run(seed: int, terms: tuple[str, ...], mode: EncoderMode) -> dict:
    """Train one reference recipe and evaluate its best model on the test split.

    The run executes in a spawned worker, which does not inherit pytest's
    ``filterwarnings = ["error"]``; the same filter is set here, so a
    warning (a numpy ``RuntimeWarning``, say) fails the battery as it
    would in-process.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spec = reference_spec(seed)
        bundle = generate(spec)
        cfg = reference_train_config(seed, terms, mode)
        rec = train(cfg, bundle, reference_model_params(spec, seed))
        test_report = evaluate(rec.best_params, bundle.test, bundle.semantics, cfg.ks)
    return {
        "val_unseen": rec.best_report.unseen_mean,
        "val_harmonic": rec.best_report.harmonic,
        "val_per_class": rec.best_report.per_class_auroc,
        "test_unseen": test_report.unseen_mean,
        "test_harmonic": test_report.harmonic,
        "test_per_class": test_report.per_class_auroc,
        "wall_time": rec.wall_time,
    }


@pytest.fixture(scope="session")
def battery():
    """Train the committed reference recipe across seeds and variants.

    The 20 independent runs share two worker processes with one BLAS
    thread each; a run's ``wall_time`` includes that contention.
    """
    jobs = {}
    for seed in REFERENCE_SEEDS:
        for name, terms in VARIANTS.items():
            jobs[(name, seed)] = (seed, terms, EncoderMode.END_TO_END)
        jobs[("frozen", seed)] = (seed, VARIANTS["full"], EncoderMode.FROZEN)
    with pytest.MonkeyPatch.context() as env:
        env.setenv("OPENBLAS_NUM_THREADS", "1")  # read by numpy as a worker starts
        with ProcessPoolExecutor(2, mp_context=multiprocessing.get_context("spawn")) as pool:
            futures = {key: pool.submit(_battery_run, *job) for key, job in jobs.items()}
            bayes: dict[tuple[str, int], list] = {}
            for seed in REFERENCE_SEEDS:
                bayes[("val", seed)] = bayes_reference_auroc(reference_spec(seed), "val")
                bayes[("test", seed)] = bayes_reference_auroc(reference_spec(seed), "test")
            runs = {key: future.result() for key, future in futures.items()}
    return {"runs": runs, "bayes": bayes}


def test_criterion_01_gradient_oracle():
    t0 = time.perf_counter()
    result = run_gradient_check(trials=100, seed=0, tolerance=1e-4)
    elapsed = time.perf_counter() - t0
    check(
        1,
        result.passed and elapsed < 60.0,
        f"max relative error {result.max_error:.3e} < 1e-4 over "
        f"{result.n_trials} trials in {elapsed:.1f}s",
    )


def _unit(rows):
    rows = np.asarray(rows, dtype=np.float64)
    return rows / np.linalg.norm(rows, axis=1)[:, None]


def _align(visuals, semantics) -> float:
    return align_term(_unit(visuals), _unit(semantics), 1.0)[0]


def _con(original, projected) -> float:
    target = pairwise_cosine(original, original)
    return con_term(_unit(projected), target, 1.0, compute_grads=False)[0]


def test_criterion_02_loss_fixtures():
    errors = [
        abs(rank_term(np.array([0.2, 0.4]), np.array([1, 0]), 0.5, False)[0] - 0.35),
        abs(rank_term(np.array([0.9, 0.1, 0.0]), np.array([1, 1, 0]), 0.5, False)[0] - 0.4 / 3),
        abs(_align(np.array([[1.0, 0.0]]), np.array([[3.0, 0.0]]))),
        abs(_align(np.array([[1.0, 0.0]]), np.array([[-1.0, 0.0]])) - 2.0),
        abs(_align(np.array([[1.0, 0.0], [1.0, 0.0]]), np.array([[2.0, 0.0], [0.0, 5.0]])) - 0.5),
        abs(_con(np.eye(3), np.eye(3))),
        abs(_con(np.eye(3), 2.5 * np.eye(3))),
    ]
    check(2, max(errors) < 1e-12, f"7 hand fixtures, worst deviation {max(errors):.2e}")


def brute_force_auroc(scores: np.ndarray, labels: np.ndarray) -> float:
    pos, neg = scores[labels == 1], scores[labels == 0]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def column_auroc(scores: np.ndarray, labels: np.ndarray) -> float:
    return per_class_auroc(scores[:, None], labels[:, None])[0]


def test_criterion_03_auroc_oracle():
    fixture = column_auroc(np.array([0.1, 0.4, 0.35, 0.8]), np.array([0, 0, 1, 1]))
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 201))
        labels = np.zeros(n, dtype=np.int8)
        labels[rng.choice(n, size=int(rng.integers(1, n)), replace=False)] = 1
        scores = np.round(rng.uniform(-1, 1, size=n), 1)  # coarse grid forces ties
        worst = max(worst, abs(column_auroc(scores, labels) - brute_force_auroc(scores, labels)))
    check(
        3,
        fixture == 0.75 and worst < 1e-12,
        f"fixture {fixture} == 0.75, max |rank - pairwise| {worst:.2e} over 1000 instances",
    )


def test_criterion_04_harmonic_fixtures():
    vocab = ClassVocabulary(
        names=tuple(f"c{i:02d}" for i in range(14)),
        seen_ids=tuple(range(10)),
        unseen_ids=tuple(range(10, 14)),
    )
    _, _, h1 = gzsl_summary([0.79] * 10 + [0.66] * 4, vocab)
    _, _, h2 = gzsl_summary([0.72] * 10 + [0.54] * 4, vocab)
    check(
        4,
        abs(h1 - 0.72) <= 0.005 and abs(h2 - 0.62) <= 0.005,
        f"harmonic(0.79, 0.66) = {h1:.4f} ~ 0.72; harmonic(0.72, 0.54) = {h2:.4f} ~ 0.62",
    )


def test_criterion_05_synthetic_gzsl_recovery(battery):
    runs = battery["runs"]
    test_u = median([runs[("full", s)]["test_unseen"] for s in REFERENCE_SEEDS])
    h_full = median([runs[("full", s)]["test_harmonic"] for s in REFERENCE_SEEDS])
    h_ra = median([runs[("rank_align", s)]["test_harmonic"] for s in REFERENCE_SEEDS])
    h_rank = median([runs[("rank", s)]["test_harmonic"] for s in REFERENCE_SEEDS])
    slowest = max(r["wall_time"] for r in runs.values())
    check(
        5,
        test_u >= 0.70 and h_full >= h_ra and h_full >= h_rank and slowest < 120.0,
        f"median test unseen {test_u:.4f} >= 0.70; median harmonic {h_full:.4f} >= "
        f"ablations ({h_ra:.4f}, {h_rank:.4f}); slowest run {slowest:.1f}s < 120s",
    )


def test_criterion_06_component_ordering(battery):
    runs = battery["runs"]
    u_full = median([runs[("full", s)]["val_unseen"] for s in REFERENCE_SEEDS])
    u_ra = median([runs[("rank_align", s)]["val_unseen"] for s in REFERENCE_SEEDS])
    u_rank = median([runs[("rank", s)]["val_unseen"] for s in REFERENCE_SEEDS])
    tie = 0.01
    check(
        6,
        u_full >= u_ra - tie and u_ra >= u_rank - tie,
        f"median val unseen: full {u_full:.4f} >= rank+align {u_ra:.4f} >= "
        f"rank {u_rank:.4f} (ties within {tie})",
    )


def test_criterion_07_end_to_end_beats_frozen(battery):
    runs = battery["runs"]
    h_e2e = median([runs[("full", s)]["val_harmonic"] for s in REFERENCE_SEEDS])
    h_frozen = median([runs[("frozen", s)]["val_harmonic"] for s in REFERENCE_SEEDS])
    check(
        7,
        h_e2e >= h_frozen - 0.01,
        f"median val harmonic: end-to-end {h_e2e:.4f} >= frozen {h_frozen:.4f} - 0.01",
    )


def test_criterion_08_training_determinism(tmp_path):
    bench = tmp_path / "bench"
    assert main(["generate", "--out-dir", str(bench), "--seed", "1"]) == 0
    manifest = str(bench / "manifest.json")
    flags = ["--epochs", "5", "--lr", "1e-3", "--seed", "1"]
    for run in ("a", "b"):
        code = main(
            ["train", "--manifest", manifest, "--out-dir", str(tmp_path / run), *flags]
        )
        assert code == 0
    names = ["config.json", "metrics.csv", "checkpoints/best.ckpt", "checkpoints/last.ckpt"]
    same = {
        name: (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        for name in names
    }
    check(
        8,
        all(same.values()),
        "repeated runs byte-identical: "
        + ", ".join(f"{n}={'yes' if ok else 'NO'}" for n, ok in same.items()),
    )


def test_criterion_09_scheduler_state_machine():
    sched = PlateauScheduler(initial_lr=0.2, patience=10, factor=0.01, min_delta=1e-6)
    fired_at = [epoch for epoch in range(1, 11) if sched.observe(1.0)]
    constant_ok = fired_at == [10] and sched.lr == 0.2 * 0.01

    sched = PlateauScheduler(initial_lr=0.2, patience=10, factor=0.01, min_delta=1e-6)
    first_fire = None
    for epoch in range(1, 21):
        loss = 1.0 if epoch < 5 else 0.5
        if sched.observe(loss) and first_fire is None:
            first_fire = epoch
    improve_ok = first_fire == 15
    check(
        9,
        constant_ok and improve_ok,
        f"constant loss fires once at epoch {fired_at} with lr 0.002 exactly; "
        f"improvement at epoch 5 delays the cut to epoch {first_fire}",
    )


def test_criterion_10_inductive_guard(tmp_path, capsys):
    bench = tmp_path / "bench"
    code = main(
        [
            "generate", "--out-dir", str(bench), "--classes", "6", "--seen", "4",
            "--d", "8", "--v", "12", "--n-train", "120", "--n-val", "60",
            "--n-test", "60", "--max-labels", "3", "--seed", "7",
        ]
    )
    assert code == 0
    # widen the train labels to full class width with one unseen positive
    labels_path = bench / "train_labels.npy"
    labels = np.load(labels_path)
    wide = np.hstack([labels, np.zeros((len(labels), 2), dtype=np.int8)])
    wide[3, 5] = 1
    np.save(labels_path, wide)
    capsys.readouterr()
    code = main(
        [
            "train", "--manifest", str(bench / "manifest.json"),
            "--out-dir", str(tmp_path / "run"), "--epochs", "1",
        ]
    )
    err = capsys.readouterr().err
    check(
        10,
        code != 0 and "sample 3" in err,
        f"poisoned manifest rejected with exit code {code}, message names sample 3",
    )


def test_property_trained_models_respect_generator_bound(battery):
    """Per-class AUROC medians stay within slack of the generator's own rule."""
    runs, bayes = battery["runs"], battery["bayes"]
    worst = -np.inf
    for split, key in (("val", "val_per_class"), ("test", "test_per_class")):
        n_classes = len(bayes[(split, REFERENCE_SEEDS[0])])
        for c in range(n_classes):
            diffs = []
            for s in REFERENCE_SEEDS:
                trained = runs[("full", s)][key][c]
                bound = bayes[(split, s)][c]
                if trained is not None and bound is not None:
                    diffs.append(trained - bound)
            if diffs:
                worst = max(worst, median(diffs))
    assert worst <= 0.02, f"worst per-class median excess {worst:.4f} > 0.02 slack"
