"""Toy-size self check of the benchmark; stdlib and numpy only.

    python3 benchmark/smoke.py

Runs every workload, traced, on tiny inputs in a few seconds and checks
that the result line has the schema BENCHMARK.json sets, that every output check
passes, and that the checks do fail on broken outputs. Last, it checks
that the benchmark refuses to run, printing no result, where the
program's sources are missing. Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import run  # sets the BLAS thread variables before numpy loads

sys.path.insert(0, str(run.SRC))
import gzsl_align as ga  # noqa: E402
import workloads as W  # noqa: E402

TOY = {
    "ref-train": dict(n_train=64, n_val=48, n_test=64),
    "paper-train": dict(n_classes=40, n_seen=30, n_train=32, n_val=48, n_test=64),
    "paper-eval": dict(n_classes=40, n_seen=30, n_train=32, n_val=48, n_test=200),
}


def shrink(wl: W.Workload, **spec_changes) -> W.Workload:
    """The same workload on a smaller spec and at most two epochs."""
    def spec(seed: int) -> ga.SynthSpec:
        return replace(wl.spec(seed), **spec_changes)

    def config(seed: int) -> ga.TrainConfig:
        cfg = wl.config(seed)
        return replace(cfg, epochs=min(2, cfg.epochs))

    return replace(wl, spec=spec, config=config if wl.config else None)


def check_schema(bench: dict, line: dict, trace: int) -> None:
    assert set(line) == {"correct", "attempted", "failed", "metrics"}, line.keys()
    assert line["correct"] is True and line["failed"] == 0, line
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    wanted = bench["per_layer" if trace else "end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in wanted]
    for spec in wanted:
        got = line["metrics"][spec["name"]]
        assert set(got) == {"value", "unit"} and got["unit"] == spec["unit"], (spec, got)
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), got
    json.dumps(line, allow_nan=False)


def check_checks(wl: W.Workload, work: Path) -> None:
    """The output checks flag a checkpoint mismatch, changed artifacts and a bad AUROC."""
    inputs = W.setup(wl, 3, work / "setup")
    first = W.run_rep(inputs, work / "rep0")
    tally = W.Tally()
    W.check_rep(inputs, first, None, tally)
    assert tally.failed == 0, tally.failures

    broken = W.run_rep(inputs, work / "rep1")
    broken.params = broken.params.copy()
    broken.params.visual_map.weights[0][0, 0] += 1e-9
    per_class = list(broken.report.per_class_auroc)
    j = next(i for i, v in enumerate(per_class) if v is not None)
    per_class[j] = 1.5
    broken.report = replace(broken.report, per_class_auroc=tuple(per_class))
    if broken.digests is not None:
        broken.digests = ("0" * 64, broken.digests[1])
    tally = W.Tally()
    W.check_rep(inputs, broken, first, tally)
    want = {"checkpoint does not round-trip", "AUROC outside [0, 1]"}
    if broken.digests is not None:
        want.add("metrics.csv or best.ckpt differs from the run's first repetition")
    assert want <= set(tally.failures), tally.failures


def check_refuses_without_sources(work: Path) -> None:
    bare = work / "bare"
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("out", ".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(bare / run.HERE.name / "run.py"), "--workload", "ref-train",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0, proc
    assert '"metrics"' not in proc.stdout, proc.stdout


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert sorted(TOY) == sorted(w["name"] for w in bench["workloads"])
    work = run.HERE / ".work" / "smoke"
    shutil.rmtree(work, ignore_errors=True)
    try:
        for name, sizes in TOY.items():
            wl = shrink(W.WORKLOADS[name], **sizes)
            record = run.run_workload(wl, seed=2, seconds=0.0, trace=True)
            assert not record["failures"], record["failures"]
            check_schema(bench, run.result_line(bench, record), trace=1)
            check_schema(bench, run.result_line(bench, dict(record, trace=0)), trace=0)
            check_checks(wl, work / name)
            print(f"ok {name}: {record['attempted']} checks, "
                  f"run_s {record['end_to_end']['run_s'][0]:.3f}")
        check_refuses_without_sources(work)
        print("ok refuses to run without the sources")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
