"""In-memory span recorder that wraps the public functions of gzsl_align.

Installing a :class:`Tracer` replaces every public function of the layer
modules, wherever the package holds a reference to it, with a wrapper
that records a span: its name, start, end and the span that was open when
it began. Spans stay in memory until the run ends. Uninstalling restores
the original functions, so an untraced run pays nothing.
"""

from __future__ import annotations

import inspect
import os
import sys
import time
from contextlib import contextmanager

LAYERS = (
    "training",
    "losses",
    "optimizers",
    "networks",
    "metrics",
    "data",
    "checkpoints",
    "synthetic",
)


class Tracer:
    """Records one span per call into a wrapped function.

    ``towers`` maps an MLP's ``layer_dims`` to a tower name, so the spans
    of ``mlp_forward`` and ``mlp_backward`` say which net ran.
    """

    def __init__(self, towers: dict[tuple[int, ...], str]):
        self.towers = towers
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self.bytes: dict[str, int] = {}
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Record a span around a block of the benchmark's own code."""
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent))
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            name, start, _, parent = self.spans[idx]
            self.spans[idx] = (name, start, time.perf_counter(), parent)

    def _label(self, qualname: str, args, kwargs) -> str:
        fn = qualname.rsplit(".", 1)[1]
        if fn in ("mlp_forward", "mlp_backward"):
            dims = args[0].spec.layer_dims
            return f"{qualname}.{self.towers.get(dims, 'other')}"
        if fn == "total_loss":
            grads = kwargs.get("compute_grads", args[5] if len(args) > 5 else True)
            return f"{qualname}.{'step' if grads else 'eval'}"
        return qualname

    def _wrap(self, qualname: str, fn):
        is_ckpt = qualname in ("checkpoints.save_checkpoint", "checkpoints.load_checkpoint")

        def wrapper(*args, **kwargs):
            with self.span(self._label(qualname, args, kwargs)):
                result = fn(*args, **kwargs)
            if is_ckpt:
                self.bytes[qualname] = self.bytes.get(qualname, 0) + os.path.getsize(args[0])
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Patch the layer functions for the duration of the block."""
        package = "gzsl_align"
        originals = {}
        for layer in LAYERS:
            mod = sys.modules[f"{package}.{layer}"]
            for name, fn in inspect.getmembers(mod, inspect.isfunction):
                if fn.__module__ == mod.__name__ and not name.startswith("_"):
                    originals[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        patched = []
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in originals and originals[id(value)][0] is value:
                    setattr(mod, attr, originals[id(value)][1])
                    patched.append((mod, attr, value))
        try:
            yield self
        finally:
            for mod, attr, value in patched:
                setattr(mod, attr, value)

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total and self seconds, and call durations.

        Self time is a span's duration minus the time its direct child
        spans cover; calls run on one thread, so children never overlap.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for (name, start, end, _), covered in zip(self.spans, child_time):
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []})
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - covered
            agg["durations"].append(end - start)
        return out

    def dump(self) -> dict:
        """Spans in a compact columnar form, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {
            "names": names,
            "name": [index[s[0]] for s in self.spans],
            "start_us": [round((s[1] - t0) * 1e6, 1) for s in self.spans],
            "end_us": [round((s[2] - t0) * 1e6, 1) for s in self.spans],
            "parent": [s[3] for s in self.spans],
        }


def percentile_or_none(samples: list[float], q: float) -> float | None:
    """The q-quantile, or None unless at least ten samples lie beyond it."""
    n = len(samples)
    if n == 0:
        return None
    ordered = sorted(samples)
    rank = min(n - 1, int(q * n))
    if n - 1 - rank < 10:
        return None
    return ordered[rank]
