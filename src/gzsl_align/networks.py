"""Trainable feedforward networks with exact analytic gradients.

Three nets make up the model: an optional feature encoder, a visual
mapping net, and a semantic mapping net. Both mapping nets project into
a shared latent space where cosine similarity scores class relevance.
Each hidden ReLU runs in place on its layer's output. A forward pass
records its tape, the list of layer inputs (unless told not to); a
backward pass reads the tape for exact parameter and input gradients.

:class:`ModelSpec` is the one description of the model's shape: the
nets' layer widths, their order in ``flat`` and the rules that make them
fit. ``ModelParams(flat, spec)`` keeps every parameter in one float64
vector, ``flat``, whose layer weights and biases are views. A gradient
store is a second :class:`ModelParams` of the same spec, which
:func:`mlp_backward` writes through its views.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .exceptions import DegenerateVectorError
from .records import JsonRecord


def _int_widths(dims, where: str) -> tuple[int, ...]:
    """``dims`` as Python ints; a float, a bool or another non-integer raises, naming ``where``."""
    for i, d in enumerate(dims):
        if isinstance(d, bool) or not isinstance(d, numbers.Integral):
            raise ValueError(f"{where}[{i}] must be int, got {d!r}")
    return tuple(int(d) for d in dims)


@dataclass(frozen=True)
class MlpSpec:
    """Layer widths of a feedforward net: ``(in, h1, ..., out)``.

    ReLU is applied after every affine layer except the last, so a
    single-layer spec is a pure affine map.
    """

    layer_dims: tuple[int, ...]

    def __post_init__(self):
        dims = _int_widths(self.layer_dims, "MlpSpec.layer_dims")
        object.__setattr__(self, "layer_dims", dims)
        if len(dims) < 2:
            raise ValueError(f"need at least [in, out] layer dims, got {dims}")
        if any(d <= 0 for d in dims):
            raise ValueError(f"layer widths must be positive, got {dims}")

    @property
    def n_params(self) -> int:
        """Count of weight and bias values over all layers."""
        return sum(i * o + o for i, o in zip(self.layer_dims[:-1], self.layer_dims[1:]))


@dataclass
class MlpParams:
    """Weights and biases of one net; ``weights[k]`` has shape (in_k, out_k)."""

    spec: MlpSpec
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def arrays(self) -> list[np.ndarray]:
        """Parameter arrays in declared order: W1, b1, W2, b2, ..."""
        out: list[np.ndarray] = []
        for w, b in zip(self.weights, self.biases):
            out.extend((w, b))
        return out


def mlp_forward(
    params: MlpParams, x: np.ndarray, tape: bool = True
) -> tuple[np.ndarray, list[np.ndarray] | None]:
    """Evaluate the net on a batch of row vectors.

    Returns the (N, out) output and the tape that :func:`mlp_backward`
    reads: the input of every layer, ``x`` first (None with ``tape`` off).
    Each ReLU overwrites its own layer's output; the input is never written.
    """
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != params.spec.layer_dims[0]:
        raise ValueError(f"input shape {a.shape} is not (N, {params.spec.layer_dims[0]}) rows")
    n = len(params.weights)
    inputs = [None] * n if tape else None  # filled layer by layer when taped
    for k, (w, b) in enumerate(zip(params.weights, params.biases)):
        if tape:
            inputs[k] = a
        a = a @ w
        a += b
        if k < n - 1:
            np.maximum(a, 0.0, out=a)
    return a, inputs


def mlp_backward(
    params: MlpParams,
    tape: list[np.ndarray],
    grad_out: np.ndarray,
    grads: MlpParams,
    input_grad: bool = True,
) -> np.ndarray | None:
    """Backpropagate ``grad_out`` through a recorded forward pass.

    Writes the parameter gradients into ``grads``, a net of the same spec
    (typically views into a gradient store), over whatever it held, and
    returns the gradient with respect to the input, or None with
    ``input_grad`` off, which skips its product. A hidden unit passes
    gradient where the next layer's input is positive, which is where its
    pre-activation is, so the ReLU subgradient at 0 is taken as 0.
    """
    g = np.asarray(grad_out, dtype=np.float64)
    n = len(params.weights)
    out_shape = (tape[0].shape[0], params.spec.layer_dims[-1])
    if g.shape != out_shape:
        raise ValueError(f"grad_out shape {g.shape} != output shape {out_shape}")
    for k in reversed(range(n)):
        dz = g if k == n - 1 else g * (tape[k + 1] > 0.0)
        np.matmul(tape[k].T, dz, out=grads.weights[k])
        np.add.reduce(dz, axis=0, out=grads.biases[k])
        if k == 0 and not input_grad:
            return None
        g = dz @ params.weights[k].T
    return g


def row_norms(m: np.ndarray, what: str = "vector") -> np.ndarray:
    """Euclidean norms of matrix rows, raising on any zero-norm row.

    ``sqrt(add.reduce(m * m))`` is ``np.linalg.norm``'s own formula for a
    real array along one axis, without its dispatch overhead.
    """
    norms = np.sqrt(np.add.reduce(m * m, axis=-1))
    if (norms == 0.0).any():
        idx = int(np.argwhere(norms == 0.0)[0][0])
        raise DegenerateVectorError(f"{what} {idx} has zero norm")
    return norms


def usable_row_norms(m: np.ndarray, what: str = "row") -> np.ndarray:
    """Row norms of ``m``; DegenerateVectorError on a zero, NaN, inf or overflowing one."""
    with np.errstate(over="ignore"):  # an overflowing norm is reported by row below
        norms = row_norms(m, what)
    bad = ~np.isfinite(norms)
    if bad.any():
        raise DegenerateVectorError(f"{what} {int(np.argmax(bad))} has a non-finite norm")
    return norms


def pairwise_cosine(a: np.ndarray, b: np.ndarray, what: str = "row") -> np.ndarray:
    """Cosine similarities between all rows of ``a`` and all rows of ``b``.

    When ``b is a``, the rows are normalized once and numpy computes
    ``u @ u.T`` as one symmetric update, so the result is exactly symmetric.
    Raises as :func:`usable_row_norms` does on an unusable row.
    """

    def unit_rows(x):
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        return x / usable_row_norms(x, what)[:, None]

    u = unit_rows(a)
    cos = u @ (u if b is a else unit_rows(b)).T
    return np.clip(cos, -1.0, 1.0, out=cos)


def _layer_views(flat: np.ndarray, offset: int, spec: MlpSpec) -> tuple[MlpParams, int]:
    """One net whose W and b are views into ``flat`` from ``offset`` on."""
    weights, biases = [], []
    for d_in, d_out in zip(spec.layer_dims[:-1], spec.layer_dims[1:]):
        weights.append(flat[offset : offset + d_in * d_out].reshape(d_in, d_out))
        offset += d_in * d_out
        biases.append(flat[offset : offset + d_out])
        offset += d_out
    return MlpParams(spec, weights, biases), offset


_NET_NAMES = ("encoder", "visual_map", "semantic_map")  # the nets' order in ``flat``


@dataclass(frozen=True)
class ModelSpec(JsonRecord):
    """The model's shape: each net's layer widths, as run configs and checkpoint headers store them.

    ``encoder`` is None when absent; precomputed features then feed the
    visual mapping net directly (frozen-feature operation). Both mapping
    nets share the latent output width, and an encoder's output width is
    the visual net's input width.
    """

    visual_map: tuple[int, ...]
    semantic_map: tuple[int, ...]
    encoder: tuple[int, ...] | None = None

    def __post_init__(self):
        for f in fields(self):
            dims = getattr(self, f.name)
            if dims is not None:
                object.__setattr__(self, f.name, _int_widths(dims, f"ModelSpec.{f.name}"))
        try:
            self.nets  # MlpSpec checks each net's widths
        except ValueError as exc:
            raise ValueError(f"ModelSpec: {exc}") from None
        if self.visual_map[-1] != self.semantic_map[-1]:
            raise ValueError(
                "ModelSpec: visual and semantic mapping nets must share the latent width: "
                f"{self.visual_map[-1]} != {self.semantic_map[-1]}"
            )
        if self.encoder is not None and self.encoder[-1] != self.visual_map[0]:
            raise ValueError(
                "ModelSpec: encoder output width must match visual mapping input: "
                f"{self.encoder[-1]} != {self.visual_map[0]}"
            )

    @functools.cached_property
    def nets(self) -> tuple[tuple[str, MlpSpec], ...]:
        """``(name, spec)`` of each net in ``flat`` order: encoder (if any), visual, semantic."""
        nets = ((name, getattr(self, name)) for name in _NET_NAMES)
        return tuple((name, MlpSpec(dims)) for name, dims in nets if dims is not None)

    @functools.cached_property
    def n_params(self) -> int:
        return sum(spec.n_params for _, spec in self.nets)

    @property
    def feature_dim(self) -> int:
        return (self.encoder or self.visual_map)[0]

    @property
    def semantic_dim(self) -> int:
        return self.semantic_map[0]


class ModelParams:
    """Parameters of the full model, stored in one contiguous float64 vector.

    ``flat`` holds the nets of ``spec`` in ``spec.nets`` order, each layer
    W before b. ``encoder`` (None when absent), ``visual_map`` and
    ``semantic_map`` are :class:`MlpParams` whose ``weights[k]`` and
    ``biases[k]`` are views into ``flat``, so a write through either shows
    in both. The constructor keeps ``flat`` itself and copies nothing.
    """

    def __init__(self, flat: np.ndarray, spec: ModelSpec):
        if flat.dtype != np.float64 or flat.shape != (spec.n_params,):
            raise ValueError(
                f"flat store is {flat.dtype} {flat.shape}, specs need float64 ({spec.n_params},)"
            )
        self.flat = flat
        self.spec = spec
        self.encoder = None
        offset = 0
        for name, net_spec in spec.nets:
            net, offset = _layer_views(flat, offset, net_spec)
            setattr(self, name, net)

    def __reduce__(self):
        # pickle the one vector; the views are rebuilt on load
        return (ModelParams, (self.flat, self.spec))

    def validate(self) -> None:
        if not np.isfinite(self.flat).all():
            raise ValueError("model contains non-finite parameters")

    def nets(self) -> list[tuple[str, MlpParams]]:
        return [(name, getattr(self, name)) for name, _ in self.spec.nets]

    def arrays(self) -> list[np.ndarray]:
        """All parameter arrays: encoder (if any), then visual, then semantic."""
        out: list[np.ndarray] = []
        for _, net in self.nets():
            out.extend(net.arrays())
        return out

    def array_names(self) -> list[str]:
        return [
            f"{label}.layer{k}.{kind}" for label, net in self.nets()
            for k in range(len(net.weights)) for kind in ("weight", "bias")
        ]

    def array_name(self, index: int) -> str:
        """Name of the array that holds ``flat[index]``, as :meth:`array_names` gives it."""
        ends = np.cumsum([a.size for a in self.arrays()])
        return self.array_names()[int(np.searchsorted(ends, index, side="right"))]

    def copy(self) -> "ModelParams":
        return ModelParams(self.flat.copy(), self.spec)

    def zeros_like(self) -> "ModelParams":
        """A zeroed model of the same layout, e.g. a gradient store."""
        return ModelParams(np.zeros_like(self.flat), self.spec)


def init_model_params(spec: ModelSpec, seed: int) -> ModelParams:
    """Initialize all nets from one seed, each on an independent stream.

    Each weight is drawn uniformly in +/- 1/sqrt(fan_in) straight into its
    view of ``flat``, layer by layer; biases start at zero.
    """
    params = ModelParams(np.zeros(spec.n_params), spec)
    streams = dict(zip(_NET_NAMES, np.random.SeedSequence(seed).spawn(3)))
    for name, net in params.nets():
        rng = np.random.default_rng(streams[name])
        for w in net.weights:
            bound = 1.0 / math.sqrt(w.shape[0])
            w[...] = rng.uniform(-bound, bound, size=w.shape)
    return params
