"""The benchmark's workloads: set-up, one timed repetition, output checks.

Every call into the program goes through the ``gzsl_align`` package
attributes, so a :class:`spans.Tracer` installed on the package sees it.
"""

from __future__ import annotations

import hashlib
import math
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import gzsl_align as ga

# The paper-scale label space: NUS-WIDE's 925 seen + 81 unseen classes.
PAPER_CLASSES = 1006
PAPER_SEEN = 925
PAPER_LOSS = ga.LossConfig(gamma1=0.1, gamma2=0.1)
KS = (2, 3)


def _paper_spec(n_test: int) -> Callable[[int], ga.SynthSpec]:
    # train/val stay this small until the ranking term stops building an
    # (N, S, S) tensor: n_train=256 already peaks near 4 GB.
    def spec(seed: int) -> ga.SynthSpec:
        return ga.SynthSpec(
            n_classes=PAPER_CLASSES, n_seen=PAPER_SEEN,
            n_train=128, n_val=64, n_test=n_test, seed=seed,
        )
    return spec


def _paper_train_config(seed: int) -> ga.TrainConfig:
    return ga.TrainConfig(epochs=3, batch_size=32, lr=1e-3, loss=PAPER_LOSS, seed=seed)


@dataclass(frozen=True)
class Workload:
    """Inputs of one workload; ``config`` None means the eval path, no training.

    Why each workload is there is recorded next to its name in BENCHMARK.json.
    """

    name: str
    spec: Callable[[int], ga.SynthSpec]
    config: Callable[[int], ga.TrainConfig] | None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ref-train", ga.reference_spec, ga.reference_train_config),
        Workload("paper-train", _paper_spec(n_test=64), _paper_train_config),
        Workload("paper-eval", _paper_spec(n_test=20000), None),
    )
}


@dataclass
class Inputs:
    """What set-up leaves for the timed part."""

    bundle: ga.DataBundle
    params0: ga.ModelParams
    config: ga.TrainConfig | None
    manifest: Path | None = None
    checkpoint: Path | None = None
    manifest_bytes: int = 0


def setup(wl: Workload, seed: int, work: Path) -> Inputs:
    """Generate inputs and seeded initial params; the eval path also writes them."""
    work.mkdir(parents=True, exist_ok=True)
    spec = wl.spec(seed)
    bundle = ga.generate(spec)
    params0 = ga.reference_model_params(spec, seed)
    inputs = Inputs(bundle, params0, wl.config(seed) if wl.config else None)
    if inputs.config is None:
        inputs.manifest = ga.save_manifest(bundle, work / "manifest")
        inputs.manifest_bytes = sum(p.stat().st_size for p in inputs.manifest.parent.iterdir())
        inputs.checkpoint = work / "init.ckpt"
        ga.save_checkpoint(str(inputs.checkpoint), params0, seed=seed, epoch=0)
    return inputs


@dataclass
class Rep:
    """Wall times and outputs of one repetition of the timed part."""

    run_s: float
    eval_s: float
    train_s: float | None = None
    load_s: float | None = None
    report: ga.MetricsReport | None = None
    params: ga.ModelParams | None = None  # what was evaluated
    expected: ga.ModelParams | None = None  # what the checkpoint should hold
    bundle: ga.DataBundle | None = None
    record: ga.RunRecord | None = None
    digests: tuple[str, str] | None = None  # metrics.csv, best.ckpt


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_rep(inputs: Inputs, out: Path) -> Rep:
    """One repetition: train, reload the best checkpoint, evaluate on test.

    The eval path loads the manifest and the initial checkpoint instead of
    training.
    """
    t0 = time.perf_counter()
    if inputs.config is not None:
        record = ga.train(inputs.config, inputs.bundle, inputs.params0, out_dir=str(out))
        t1 = time.perf_counter()
        params = ga.load_checkpoint(record.best_checkpoint).params
        bundle = inputs.bundle
    else:
        record = None
        bundle = ga.load_manifest(inputs.manifest)
        params = ga.load_checkpoint(str(inputs.checkpoint)).params
        t1 = time.perf_counter()
    t2 = time.perf_counter()
    report = ga.evaluate(params, bundle.test, bundle.semantics, KS)
    t3 = time.perf_counter()
    rep = Rep(run_s=t3 - t0, eval_s=t3 - t2, report=report, params=params, bundle=bundle)
    if record is not None:
        rep.train_s = t1 - t0
        rep.record = record
        rep.expected = record.best_params
        rep.digests = (_sha256(out / "metrics.csv"), _sha256(Path(record.best_checkpoint)))
    else:
        rep.load_s = t1 - t0
        rep.expected = inputs.params0
    return rep


@dataclass
class Tally:
    """Operations and output checks attempted, and those that failed."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


def _same_params(a: ga.ModelParams, b: ga.ModelParams) -> bool:
    xs, ys = a.arrays(), b.arrays()
    return len(xs) == len(ys) and all(np.array_equal(x, y) for x, y in zip(xs, ys))


def _auroc_by_pairs(scores: np.ndarray, positive: np.ndarray) -> float:
    """AUROC as the share of (positive, negative) pairs ranked right, ties half."""
    neg = np.sort(scores[~positive])
    pos = scores[positive]
    below = np.searchsorted(neg, pos, side="left")
    tied = np.searchsorted(neg, pos, side="right") - below
    return float((below.sum() + 0.5 * tied.sum()) / (pos.size * neg.size))


def check_rep(inputs: Inputs, rep: Rep, first: Rep | None, tally: Tally) -> None:
    """Output checks of one repetition; ``first`` is the run's first repetition."""
    report, vocab = rep.report, inputs.bundle.vocab
    per_class = report.per_class_auroc
    tally.check(_same_params(rep.params, rep.expected), "checkpoint does not round-trip")
    tally.check(math.isfinite(report.harmonic), f"test harmonic {report.harmonic} not finite")
    tally.check(len(per_class) == vocab.n_classes,
                f"{len(per_class)} per-class AUROC entries for {vocab.n_classes} classes")
    tally.check(all(v is None or 0.0 <= v <= 1.0 for v in per_class), "AUROC outside [0, 1]")

    seen = [per_class[i] for i in vocab.seen_ids if per_class[i] is not None]
    unseen = [per_class[i] for i in vocab.unseen_ids if per_class[i] is not None]
    s, u = float(np.mean(seen)), float(np.mean(unseen))
    h = 0.0 if s + u == 0 else 2 * s * u / (s + u)
    tally.check(abs(report.harmonic - h) <= 1e-12, "harmonic != 2SU/(S+U)")

    # recompute a few AUROCs from the scores by counting pairs, not ranks
    test = rep.bundle.test
    scores = ga.infer_scores(rep.params, test.features, rep.bundle.semantics)
    for group in (vocab.seen_ids, vocab.unseen_ids):
        for j in [j for j in group if per_class[j] is not None][:2]:
            oracle = _auroc_by_pairs(scores[:, j], test.labels[:, j] > 0)
            tally.check(abs(oracle - per_class[j]) <= 1e-12,
                        f"class {j} AUROC {per_class[j]} != pair count {oracle}")

    if rep.record is not None:
        epochs = rep.record.epochs
        tally.check(epochs[-1].train_loss.total < epochs[0].train_loss.total,
                    "training loss did not fall")
        if first is not None:
            tally.check(rep.digests == first.digests,
                        "metrics.csv or best.ckpt differs from the run's first repetition")
    else:
        for name in ga.SPLIT_NAMES:
            a, b = inputs.bundle.split(name), rep.bundle.split(name)
            tally.check(np.array_equal(a.features, b.features)
                        and np.array_equal(a.labels, b.labels),
                        f"{name} split changed in the manifest round trip")
        tally.check(np.array_equal(inputs.bundle.semantics.rows, rep.bundle.semantics.rows),
                    "semantics changed in the manifest round trip")


def _median_call_s(fn, min_calls: int, min_s: float) -> float:
    times = []
    start = time.perf_counter()
    while len(times) < min_calls or time.perf_counter() - start < min_s:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


ADAM_PROBE_CALLS = 1200  # enough for ten calls beyond the 99th percentile


def probe_layers(inputs: Inputs, min_s: float) -> tuple[dict, list[float]]:
    """Loss terms and Adam at the workload's shapes, outside the traced pass.

    Each loss term runs through the public ``total_loss`` on the first
    training batch of 32 with only that term enabled. Returns the
    metrics and the per-call Adam step durations.
    """
    bundle = inputs.bundle
    W = bundle.semantics.seen_rows(bundle.vocab)
    X = bundle.train.features[:32]
    Y = bundle.train.seen_label_view()[:32]
    base = inputs.config.loss if inputs.config else PAPER_LOSS
    out = {}
    for term in ("rank", "align", "con"):
        cfg = base.with_terms({term})
        call = lambda: ga.total_loss(X, Y, W, inputs.params0, cfg)  # noqa: E731
        out[f"losses.term.{term}.ms"] = _median_call_s(call, 3, min_s) * 1e3
    tracemalloc.start()
    ga.total_loss(X, Y, W, inputs.params0, base.with_terms({"rank"}))
    out["losses.term.rank.peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()
    pos = (Y > 0).sum(axis=1)
    n, s = Y.shape
    out["losses.rank.pair_ratio"] = float((pos * (s - pos)).sum() / (n * s * s))

    params = inputs.params0.copy()
    _, grads = ga.total_loss(X, Y, W, params, base)
    arrays, grad_arrays = params.arrays(), grads.arrays()
    state = ga.init_adam(arrays)
    durations = []
    for _ in range(ADAM_PROBE_CALLS):
        t0 = time.perf_counter()
        ga.adam_step(arrays, grad_arrays, state, lr=1e-3)
        durations.append(time.perf_counter() - t0)
    out["optimizers.n_params"] = int(sum(a.size for a in arrays))
    return out, durations


def towers(params: ga.ModelParams) -> dict[tuple[int, ...], str]:
    """Tower name of each net, keyed by its layer widths."""
    names = {"encoder": "encoder", "visual_map": "visual", "semantic_map": "semantic"}
    return {net.spec.layer_dims: names[label] for label, net in params.nets()}
