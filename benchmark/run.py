"""Benchmark of gzsl-align: one workload, one closed-loop caller, one process.

    python3 benchmark/run.py --workload ref-train --seed 1 --seconds 20 --trace 0

The timed part repeats, at least twice and until ``--seconds`` have
passed. Before each repetition set-up runs again, for at least half a
second, so set-up samples spread over the whole run. Medians are
reported, scaled to reference seconds by a calibration kernel timed
between the intervals (see calibration.py); wall-clock medians are
printed beside them. Every repetition's outputs are checked.

With ``--trace 1`` the untraced measurement is followed by one traced
set-up and repetition, which yield the per-layer metrics (wall seconds),
and by probes of the loss terms and of Adam at the workload's shapes.

Human-readable lines come first; the last line of standard output is one
JSON object holding the metrics that BENCHMARK.json names. A fuller
record (environment, every metric, span aggregates) goes to
benchmark/out/.
"""

from __future__ import annotations

import os

# BLAS must see these before numpy loads it.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gzip  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_REPS = 2  # a train workload compares its artifacts across repetitions
SETUP_MIN_S = 0.5  # per repetition; cheap set-ups repeat until then
PROBE_MIN_S = 0.3


def environment() -> dict:
    import numpy
    import scipy

    def blas(mod) -> str:
        info = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info['name']} {info['version']}"

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "gzsl_align").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numpy_blas": blas(numpy),
        "scipy": scipy.__version__,
        "scipy_blas": blas(scipy),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def measure(wl, seed: int, seconds: float, work: Path, tally, cal):
    """Set-up and timed repetitions without tracing.

    The calibration kernel runs before the first set-up and after every
    set-up batch and repetition; all times are scaled to reference
    seconds by the run's factor. Returns the end-to-end metrics, the wall
    times behind them and the first repetition.
    """
    import workloads as W

    setup_wall, reps = [], []
    cal.mark()
    start = time.perf_counter()
    while len(reps) < MIN_REPS or time.perf_counter() - start < seconds:
        batch_start = time.perf_counter()
        while True:
            i = len(setup_wall)
            t0 = time.perf_counter()
            inputs = W.setup(wl, seed, work / f"setup{i}")
            setup_wall.append(time.perf_counter() - t0)
            if i:
                shutil.rmtree(work / f"setup{i - 1}")
            if time.perf_counter() - batch_start >= SETUP_MIN_S:
                break
        cal.mark()

        out = work / f"rep{len(reps)}"
        tally.attempted += 1
        try:
            rep = W.run_rep(inputs, out)
        except Exception:
            traceback.print_exc()
            tally.failed += 1
            tally.failures.append(f"repetition {len(reps)} raised")
            break
        cal.mark()
        W.check_rep(inputs, rep, reps[0] if reps else None, tally)
        if reps:
            reps[-1].bundle = reps[-1].record = None  # keep memory flat
        reps.append(rep)
        shutil.rmtree(out, ignore_errors=True)
    if not reps:
        raise RuntimeError("no repetition of the timed part completed")

    f = cal.factor()

    def median_wall(attr: str) -> float:
        return statistics.median(getattr(r, attr) for r in reps)

    metrics = {
        "setup_s": (statistics.median(setup_wall) * f, "s"),
        "run_s": (median_wall("run_s") * f, "s"),
    }
    # evaluate() on the 700-sample reference test split takes ~5 ms, too short
    # to be steady here, so eval_samples_per_s is reported on the eval path only
    if inputs.config is not None:
        n_seen = inputs.config.epochs * len(inputs.bundle.train)
        metrics["train_samples_per_s"] = (n_seen / (median_wall("train_s") * f), "1/s")
    else:
        metrics["load_s"] = (median_wall("load_s") * f, "s")
        metrics["eval_samples_per_s"] = (len(inputs.bundle.test) / (median_wall("eval_s") * f), "1/s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    metrics["test_harmonic"] = (reps[0].report.harmonic, "ratio")
    metrics["setup_wall_s"] = (statistics.median(setup_wall), "s")
    metrics["run_wall_s"] = (median_wall("run_s"), "s")
    metrics["kernel_ms"] = (statistics.median(cal.samples) * 1e3, "ms")
    metrics["setup_reps"] = (len(setup_wall), "count")
    metrics["reps"] = (len(reps), "count")
    samples = {
        "setup_wall_s": setup_wall, "run_wall_s": [r.run_s for r in reps],
        "kernel_s": list(cal.samples),
    }
    return metrics, samples, reps[0]


def trace_layers(wl, seed: int, work: Path, untraced_wall_s: float, first, tally, cal):
    """One traced set-up and repetition, then the probes; returns per-layer metrics."""
    import workloads as W
    from spans import Tracer, percentile_or_none

    towers = W.towers(first.expected)
    tracer = Tracer(towers)
    with tracer.installed():
        with tracer.span("bench.setup"):
            inputs = W.setup(wl, seed, work / "traced")
        with tracer.span("bench.rep"):
            rep = W.run_rep(inputs, work / "traced-rep")
    cal.mark()
    tally.attempted += 1  # the traced repetition
    W.check_rep(inputs, rep, first, tally)
    probes, adam_durations = W.probe_layers(inputs, PROBE_MIN_S)
    summary = tracer.summary()

    def get(name: str, key: str):
        return summary.get(name, {}).get(key, 0)

    m = {}
    m["training.train.calls"] = (get("training.train", "calls"), "count")
    m["training.train.self_s"] = (get("training.train", "self_s"), "s")
    m["losses.total_loss.calls"] = (
        get("losses.total_loss.step", "calls") + get("losses.total_loss.eval", "calls"), "count")
    m["losses.total_loss.step_s"] = (get("losses.total_loss.step", "total_s"), "s")
    m["losses.total_loss.eval_s"] = (get("losses.total_loss.eval", "total_s"), "s")
    probe_units = {"ms": "ms", "peak_mb": "MB", "pair_ratio": "ratio", "n_params": "count"}
    for name, value in probes.items():
        m[name] = (value, probe_units[name.rsplit(".", 1)[1]])
    m["optimizers.adam_step.calls"] = (get("optimizers.adam_step", "calls"), "count")
    m["optimizers.adam_step.total_s"] = (get("optimizers.adam_step", "total_s"), "s")
    m["optimizers.adam_step.p50_us"] = (percentile_or_none(adam_durations, 0.5) * 1e6, "us")
    m["optimizers.adam_step.p99_us"] = (percentile_or_none(adam_durations, 0.99) * 1e6, "us")
    m["optimizers.adam_step.probe_calls"] = (len(adam_durations), "count")
    for fn in ("mlp_forward", "mlp_backward"):
        for tower in sorted(set(towers.values())):
            name = f"networks.{fn}.{tower}"
            m[f"{name}.calls"] = (get(name, "calls"), "count")
            m[f"{name}.total_s"] = (get(name, "total_s"), "s")
    for fn in ("evaluate", "infer_scores", "per_class_auroc", "topk_metrics"):
        m[f"metrics.{fn}.calls"] = (get(f"metrics.{fn}", "calls"), "count")
        m[f"metrics.{fn}.total_s"] = (get(f"metrics.{fn}", "total_s"), "s")
    for fn in ("save_checkpoint", "load_checkpoint"):
        name = f"checkpoints.{fn}"
        m[f"{name}.calls"] = (get(name, "calls"), "count")
        m[f"{name}.total_s"] = (get(name, "total_s"), "s")
        m[f"{name}.bytes"] = (tracer.bytes.get(name, 0), "bytes")
    for fn in ("save_manifest", "load_manifest"):
        m[f"data.{fn}.calls"] = (get(f"data.{fn}", "calls"), "count")
        m[f"data.{fn}.s"] = (get(f"data.{fn}", "total_s"), "s")
    m["data.manifest_mb"] = (inputs.manifest_bytes / 2**20, "MB")
    m["synthetic.generate.s"] = (get("synthetic.generate", "total_s"), "s")
    m["trace.spans"] = (len(tracer.spans), "count")
    m["trace.run_s"] = (rep.run_s * cal.factor(), "s")
    m["trace.overhead_s"] = ((rep.run_s - untraced_wall_s) * cal.factor(), "s")

    spans = {}
    for name, agg in sorted(summary.items()):
        p50 = percentile_or_none(agg["durations"], 0.5)
        p99 = percentile_or_none(agg["durations"], 0.99)
        spans[name] = {
            "calls": agg["calls"], "total_s": agg["total_s"], "self_s": agg["self_s"],
            "p50_us": None if p50 is None else p50 * 1e6,
            "p99_us": None if p99 is None else p99 * 1e6,
        }
    return m, spans, tracer.dump()


def run_workload(wl, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload in this process and return its full record."""
    import workloads as W
    from calibration import Calibration

    tally = W.Tally()
    cal = Calibration()
    work = HERE / ".work" / f"{wl.name}-{os.getpid()}"
    layers = spans = dump = None
    try:
        e2e, samples, first = measure(wl, seed, seconds, work, tally, cal)
        if trace:
            layers, spans, dump = trace_layers(
                wl, seed, work, e2e["run_wall_s"][0], first, tally, cal)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    e2e["failed_ops"] = (tally.failed / tally.attempted, "ratio")
    return {
        "workload": wl.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "end_to_end": e2e, "samples": samples, "per_layer": layers,
        "artifacts_sha256": first.digests, "spans": spans, "span_dump": dump,
        "attempted": tally.attempted, "failed": tally.failed, "failures": tally.failures,
    }


def result_line(bench: dict, record: dict) -> dict:
    """The last output line: the metrics BENCHMARK.json names, in its units."""
    if record["trace"]:
        table, wanted = record["per_layer"], bench["per_layer"]
    else:
        table, wanted = record["end_to_end"], bench["end_to_end"]
    metrics = {}
    for spec in wanted:
        value, unit = table[spec["name"]]
        if unit != spec["unit"]:
            raise RuntimeError(f"{spec['name']}: measured in {unit}, BENCHMARK.json says {spec['unit']}")
        metrics[spec["name"]] = {"value": value, "unit": unit}
    return {"correct": record["failed"] == 0, "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, default=1, help="workload seed (1 is the reference seed)")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gzsl_align" / "__init__.py").is_file():
        print(f"error: no gzsl_align sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gzsl_align
    import workloads as W

    if Path(gzsl_align.__file__).resolve().parent != (SRC / "gzsl_align").resolve():
        print(f"error: imported gzsl_align from {gzsl_align.__file__}, not {SRC}", file=sys.stderr)
        return 2

    record = run_workload(W.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    record["why"] = next(w["why"] for w in bench["workloads"] if w["name"] == args.workload)
    record["env"] = environment()
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"# why: {record['why']}")
    for title, table in (("end to end", record["end_to_end"]), ("per layer", record["per_layer"])):
        if table:
            print(f"# {title}")
            for name, (value, unit) in table.items():
                print(f"{name:42s} {value:>16.6g} {unit}")
    if record["artifacts_sha256"]:
        csv_sha, ckpt_sha = record["artifacts_sha256"]
        print(f"# sha256 metrics.csv {csv_sha} best.ckpt {ckpt_sha}")
    print(f"# checks: {record['attempted'] - record['failed']}/{record['attempted']} passed")
    for failure in record["failures"]:
        print(f"# FAILED: {failure}")
    print("# env " + json.dumps(record["env"], sort_keys=True))

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    dump = record.pop("span_dump")
    (out / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if dump is not None:
        with gzip.open(out / f"{stem}-spans.json.gz", "wt") as fh:
            json.dump(dump, fh)
    print(json.dumps(result_line(bench, record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
