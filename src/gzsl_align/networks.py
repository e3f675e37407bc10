"""Trainable feedforward networks with exact analytic gradients.

Three nets make up the model: an optional feature encoder, a visual
mapping net, and a semantic mapping net. Both mapping nets project into
a shared latent space where cosine similarity scores class relevance.
Forward passes record a tape of layer inputs and pre-activations (unless
told not to); backward passes replay the tape for exact parameter and
input gradients.

:class:`ModelParams` keeps every parameter of the model in one float64
vector, ``flat``; each layer's weight and bias are views into it. A
gradient store is a second :class:`ModelParams` of the same layout, which
:func:`mlp_backward` writes through its views.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateVectorError
from .records import JsonRecord


@dataclass(frozen=True)
class MlpSpec:
    """Layer widths of a feedforward net: ``(in, h1, ..., out)``.

    ReLU is applied after every affine layer except the last, so a
    single-layer spec is a pure affine map.
    """

    layer_dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.layer_dims)
        object.__setattr__(self, "layer_dims", dims)
        if len(dims) < 2:
            raise ValueError(f"need at least [in, out] layer dims, got {dims}")
        if any(d <= 0 for d in dims):
            raise ValueError(f"layer widths must be positive, got {dims}")

    @property
    def in_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def out_dim(self) -> int:
        return self.layer_dims[-1]

    @property
    def n_layers(self) -> int:
        return len(self.layer_dims) - 1

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


@dataclass
class MlpTape:
    """Cached forward state: per-layer inputs and pre-activations."""

    inputs: list[np.ndarray]
    preacts: list[np.ndarray]


def mlp_forward(
    params: MlpParams, x: np.ndarray, tape: bool = True
) -> tuple[np.ndarray, MlpTape | None]:
    """Evaluate the net on a batch of row vectors.

    Returns the (N, out) output and the tape needed by :func:`mlp_backward`.
    With ``tape`` off, no tape is kept (None is returned in its place) and
    each ReLU overwrites its own pre-activation; the input is never written.
    """
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != params.spec.layer_dims[0]:
        raise ValueError(f"input shape {a.shape} is not (N, {params.spec.layer_dims[0]}) rows")
    n = len(params.weights)
    inputs, preacts = [None] * n, [None] * n  # filled layer by layer when taped
    for k, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = a @ w
        z += b
        if tape:
            inputs[k] = a
            preacts[k] = z
        a = z if k == n - 1 else np.maximum(z, 0.0, out=None if tape else z)
    return a, MlpTape(inputs, preacts) if tape else None


def mlp_backward(
    params: MlpParams,
    tape: MlpTape,
    grad_out: np.ndarray,
    grads: MlpParams,
    input_grad: bool = True,
) -> np.ndarray | None:
    """Backpropagate ``grad_out`` through a recorded forward pass.

    Writes the parameter gradients into ``grads``, a net of the same spec
    (typically views into a gradient store), over whatever it held, and
    returns the gradient with respect to the input, or None with
    ``input_grad`` off, which skips its product. The ReLU subgradient at 0
    is taken as 0.
    """
    g = np.asarray(grad_out, dtype=np.float64)
    n = len(params.weights)
    if g.shape != tape.preacts[-1].shape:
        raise ValueError(f"grad_out shape {g.shape} != output shape {tape.preacts[-1].shape}")
    for k in reversed(range(n)):
        dz = g if k == n - 1 else g * (tape.preacts[k] > 0.0)
        np.matmul(tape.inputs[k].T, dz, out=grads.weights[k])
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


class ModelParams:
    """Parameters of the full model, stored in one contiguous float64 vector.

    ``flat`` holds the encoder (if any), then the visual mapping net, then
    the semantic mapping net, each layer W before b. Every ``weights[k]``
    and ``biases[k]`` of the three nets is a view into ``flat``, so a
    write through either shows in both. The constructor keeps ``flat``
    itself and copies nothing.

    ``encoder_spec`` is optional; when absent, precomputed features feed
    the visual mapping net directly (frozen-feature operation). Both
    mapping nets share the latent output width.
    """

    def __init__(
        self,
        flat: np.ndarray,
        visual_spec: MlpSpec,
        semantic_spec: MlpSpec,
        encoder_spec: MlpSpec | None = None,
    ):
        specs = [spec for spec in (encoder_spec, visual_spec, semantic_spec) if spec is not None]
        need = sum(spec.n_params for spec in specs)
        if flat.dtype != np.float64 or flat.shape != (need,):
            raise ValueError(
                f"flat store is {flat.dtype} {flat.shape}, specs need float64 ({need},)"
            )
        self.flat = flat
        self.encoder = None
        offset = 0
        if encoder_spec is not None:
            self.encoder, offset = _layer_views(flat, offset, encoder_spec)
        self.visual_map, offset = _layer_views(flat, offset, visual_spec)
        self.semantic_map, offset = _layer_views(flat, offset, semantic_spec)

    def __reduce__(self):
        # pickle the one vector; the views are rebuilt on load
        return (ModelParams, (self.flat, *self._specs()))

    def _specs(self) -> tuple[MlpSpec, MlpSpec, MlpSpec | None]:
        return (
            self.visual_map.spec,
            self.semantic_map.spec,
            self.encoder.spec if self.encoder else None,
        )

    def validate(self) -> None:
        if not np.isfinite(self.flat).all():
            raise ValueError("model contains non-finite parameters")
        if self.visual_map.spec.out_dim != self.semantic_map.spec.out_dim:
            raise ValueError(
                "visual and semantic mapping nets must share the latent width: "
                f"{self.visual_map.spec.out_dim} != {self.semantic_map.spec.out_dim}"
            )
        if self.encoder is not None and self.encoder.spec.out_dim != self.visual_map.spec.in_dim:
            raise ValueError(
                "encoder output width must match visual mapping input: "
                f"{self.encoder.spec.out_dim} != {self.visual_map.spec.in_dim}"
            )

    @property
    def feature_dim(self) -> int:
        return self.encoder.spec.in_dim if self.encoder else self.visual_map.spec.in_dim

    @property
    def semantic_dim(self) -> int:
        return self.semantic_map.spec.in_dim

    def nets(self) -> list[tuple[str, MlpParams]]:
        out = []
        if self.encoder is not None:
            out.append(("encoder", self.encoder))
        out.append(("visual_map", self.visual_map))
        out.append(("semantic_map", self.semantic_map))
        return out

    def arrays(self) -> list[np.ndarray]:
        """All parameter arrays: encoder (if any), then visual, then semantic."""
        out: list[np.ndarray] = []
        for _, net in self.nets():
            out.extend(net.arrays())
        return out

    def array_names(self) -> list[str]:
        names = []
        for label, net in self.nets():
            for k in range(net.spec.n_layers):
                names.append(f"{label}.layer{k}.weight")
                names.append(f"{label}.layer{k}.bias")
        return names

    def array_name(self, index: int) -> str:
        """Name of the array that holds ``flat[index]``, as :meth:`array_names` gives it."""
        ends = np.cumsum([a.size for a in self.arrays()])
        return self.array_names()[int(np.searchsorted(ends, index, side="right"))]

    def copy(self) -> "ModelParams":
        return ModelParams(self.flat.copy(), *self._specs())

    def zeros_like(self) -> "ModelParams":
        """A zeroed model of the same layout, e.g. a gradient store."""
        return ModelParams(np.zeros_like(self.flat), *self._specs())


@dataclass(frozen=True)
class ModelSpec(JsonRecord):
    """Each net's layer widths, as run configs and checkpoint headers store them.

    ``encoder`` is None when absent; :class:`MlpSpec` checks each net's widths.
    """

    visual_map: tuple[int, ...]
    semantic_map: tuple[int, ...]
    encoder: tuple[int, ...] | None = None

    def __post_init__(self):
        try:
            self.mlp_specs()
        except ValueError as exc:
            raise ValueError(f"ModelSpec: {exc}") from None

    @classmethod
    def of(cls, params: ModelParams) -> "ModelSpec":
        return cls(**{name: net.spec.layer_dims for name, net in params.nets()})

    def mlp_specs(self) -> tuple[MlpSpec, MlpSpec, MlpSpec | None]:
        """The (visual, semantic, encoder) specs, in :class:`ModelParams`' argument order."""
        nets = (self.visual_map, self.semantic_map, self.encoder)
        return tuple(None if dims is None else MlpSpec(dims) for dims in nets)


def init_model_params(
    visual_spec: MlpSpec,
    semantic_spec: MlpSpec,
    encoder_spec: MlpSpec | None,
    seed: int,
) -> ModelParams:
    """Initialize all nets from one seed, each on an independent stream.

    Each weight is drawn uniformly in +/- 1/sqrt(fan_in) straight into its
    view of ``flat``, layer by layer; biases start at zero.
    """
    specs = (visual_spec, semantic_spec, encoder_spec)
    params = ModelParams(np.zeros(sum(s.n_params for s in specs if s is not None)), *specs)
    streams = np.random.SeedSequence(seed).spawn(3)  # encoder, visual, semantic
    for seq, net in zip(streams, (params.encoder, params.visual_map, params.semantic_map)):
        if net is None:
            continue
        rng = np.random.default_rng(seq)
        for w in net.weights:
            bound = 1.0 / math.sqrt(w.shape[0])
            w[...] = rng.uniform(-bound, bound, size=w.shape)
    params.validate()
    return params
