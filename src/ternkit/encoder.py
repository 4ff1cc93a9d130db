"""Residual-MLP embedding encoder with switchable linear-layer precision.

Every linear layer runs in one of two modes:

* ``full``: the forward pass applies the stored float32 weight directly.
* ``ternary``: each forward pass recomputes the threshold from the live
  weight, partitions it to trits, and applies gamma * trits. The backward
  pass is straight-through: the partition's Jacobian is treated as the
  identity and gamma as a constant, so the weight gradient is gamma times
  the gradient that arrives at the effective-weight slot. Bias gradients
  are always exact.

gamma deliberately receives no gradient; it is re-derived from the weights
at every step and frozen only at export time.

The architecture is an input projection, ``num_blocks`` residual blocks
(layer_norm -> linear -> gelu -> linear -> residual add), and an output
projection. Both encoders emit raw outputs: training runs its loss on them,
and retrieval L2-normalizes them itself (``ann.normalize_rows``). ``infer``
is the one walk over the architecture: each ``forward`` runs it caching
nothing, and ``EncoderModel.train_forward`` with a tape that ``backward``
walks in reverse. An ``EncoderModel``'s parameters are views of one buffer
from construction, so updating the buffer in place updates the model.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import tensor
from .packed import PackedTernaryMatrix, packed_gemm
from .rng import Rng
from .ternary import DEFAULT_BETA, compute_threshold, ternarize, ternary_dense

MODE_FULL = "full_precision"
MODE_TERNARY = "ternary"


def require_ints(config, *names: str) -> None:
    """Raise ValueError unless each named field is an integer (numpy integers
    included); floats and bools are rejected, never truncated."""
    for name in names:
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def require_reals(config, *names: str) -> None:
    """Raise ValueError unless each named field is a finite real number
    (integers included); bools, strings, NaN and infinities are rejected."""
    for name in names:
        value = getattr(config, name)
        if (isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating))
                or not math.isfinite(value)):
            raise ValueError(f"{name} must be a finite number, got {value!r}")


@dataclass
class EncoderConfig:
    input_dim: int
    hidden_dim: int
    output_dim: int
    num_blocks: int
    seed: int = 0

    def __post_init__(self):
        require_ints(self, "input_dim", "hidden_dim", "output_dim", "num_blocks", "seed")
        for field in ("input_dim", "hidden_dim", "output_dim", "num_blocks"):
            if getattr(self, field) < 1:
                raise ValueError(f"{field} must be >= 1, got {getattr(self, field)}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "EncoderConfig":
        return cls(**{k: d[k] for k in ("input_dim", "hidden_dim", "output_dim",
                                        "num_blocks", "seed")})


def part_shapes(config: EncoderConfig) -> list[tuple[str, dict[str, tuple[int, ...]]]]:
    """The architecture in its one canonical order: (part name, {parameter: shape}).

    A linear part carries ``weight`` (out, in) and ``bias``; the part
    ``blocks.{i}`` is the layer norm of residual block i. Parameter names are
    ``{part}.{parameter}``. Parameters, gradients and both checkpoint
    layouts all follow this order.
    """
    h = config.hidden_dim

    def linear(out_dim, in_dim):
        return {"weight": (out_dim, in_dim), "bias": (out_dim,)}

    parts = [("input_proj", linear(h, config.input_dim))]
    for i in range(config.num_blocks):
        parts += [(f"blocks.{i}", {"ln_gain": (h,), "ln_shift": (h,)}),
                  (f"blocks.{i}.fc1", linear(h, h)),
                  (f"blocks.{i}.fc2", linear(h, h))]
    parts.append(("output_proj", linear(config.output_dim, h)))
    return parts


def _parameter_shapes(config: EncoderConfig) -> list[tuple[str, tuple[int, ...]]]:
    """(parameter name, shape) for every parameter, in part_shapes order."""
    return [(f"{name}.{attr}", shape)
            for name, shapes in part_shapes(config) for attr, shape in shapes.items()]


def infer(config: EncoderConfig, x, apply, layers, norms, tape=None) -> np.ndarray:
    """The forward walk: ``apply(layer, rows)`` runs each of ``layers`` in
    part_shapes order, ``norms`` holds each block's (gain, shift). Given a
    ``tape`` list, each block appends what ``EncoderModel.backward`` reads:
    its layer norm's (normed, inv_std) and its GELU derivative."""
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[1] != config.input_dim:
        raise ValueError(f"input must be (n, {config.input_dim}), got {x.shape}")
    layer = iter(layers)
    h = apply(next(layer), x)
    for gain, shift in norms:
        if tape is None:
            z, _ = tensor.gelu(apply(next(layer), tensor.layer_norm(h, gain, shift)))
        else:
            u, ln_cache = tensor.layer_norm_with_cache(h, gain, shift)
            a = apply(next(layer), u)
            z, cdf = tensor.gelu(a)
            # the float32 derivative is taped in place of a, so erf runs once per step
            tape.extend((*ln_cache, tensor.gelu_grad(a, cdf)))
        h = h + apply(next(layer), z)
    return apply(next(layer), h)


class LinearLayer:
    """y = x @ W_eff.T + b where W_eff is W or gamma * f(W | gamma)."""

    def __init__(self, weight: np.ndarray, bias: np.ndarray,
                 mode: str = MODE_FULL, beta: float = DEFAULT_BETA):
        if mode not in (MODE_FULL, MODE_TERNARY):
            raise ValueError(f"unknown mode {mode!r}")
        self._weight = np.ascontiguousarray(weight, dtype=weight.dtype)
        self._bias = np.ascontiguousarray(bias, dtype=bias.dtype)
        if self.weight.ndim != 2 or self.bias.shape != (self.weight.shape[0],):
            raise ValueError("weight must be (out, in) and bias (out,)")
        self.mode = mode
        self.beta = float(beta)
        self.grad_weight: np.ndarray | None = None
        self.grad_bias: np.ndarray | None = None
        self._cache = None

    # read-only, so the layer cannot be detached from the array it was built
    # over (a model's buffer); write in place with `layer.weight[:] = w`
    @property
    def weight(self) -> np.ndarray:
        return self._weight

    @property
    def bias(self) -> np.ndarray:
        return self._bias

    def effective_weight(self) -> tuple[np.ndarray, float | None]:
        """Weight the forward pass applies, plus gamma in ternary mode."""
        if self.mode == MODE_FULL:
            return self.weight, None
        return ternary_dense(self.weight, self.beta)  # gamma rounded to float32

    def apply(self, x: np.ndarray) -> np.ndarray:
        """The layer's output, caching nothing (inference); forward caches."""
        return tensor.matmul(x, self.effective_weight()[0].T) + self.bias

    def forward(self, x: np.ndarray) -> np.ndarray:
        w_eff, gamma = self.effective_weight()
        self._cache = (x, w_eff, gamma)
        return tensor.matmul(x, w_eff.T) + self.bias

    def backward(self, dy: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        x, w_eff, gamma = self._cache
        dw_eff = tensor.matmul(dy.T, x)
        if self.mode == MODE_TERNARY:
            # straight-through: identity Jacobian for the partition, gamma constant
            self.grad_weight = (np.float64(gamma) * dw_eff).astype(dw_eff.dtype)
        else:
            self.grad_weight = dw_eff
        self.grad_bias = dy.sum(axis=0, dtype=np.float64).astype(dy.dtype)
        return tensor.matmul(dy, w_eff)


class EncoderModel:
    """The trainable encoder: each parameter is a view of the 1-D buffer ``flat``
    in part_shapes order, each linear part a ``LinearLayer`` in ``mode``."""

    def __init__(self, config: EncoderConfig, flat: np.ndarray,
                 mode: str = MODE_FULL, beta: float = DEFAULT_BETA):
        shapes = _parameter_shapes(config)
        ends = np.cumsum([math.prod(shape) for _, shape in shapes])
        if flat.shape != (ends[-1],):
            raise ValueError(f"flat must have shape ({ends[-1]},), got {flat.shape}")
        self.config = config
        self._flat = flat
        self._params = {name: view.reshape(shape)
                        for (name, shape), view in zip(shapes, np.split(flat, ends[:-1]))}
        p = self._params
        self._layers = {name: LinearLayer(p[f"{name}.weight"], p[f"{name}.bias"], mode, beta)
                        for name, part in part_shapes(config) if "weight" in part}
        self._norms = [(p[f"blocks.{i}.ln_gain"], p[f"blocks.{i}.ln_shift"])
                       for i in range(config.num_blocks)]
        self.input_proj = self._layers["input_proj"]
        self._tape = None

    @classmethod
    def from_arrays(cls, config: EncoderConfig, arrays: dict[str, np.ndarray],
                    mode: str = MODE_FULL, beta: float = DEFAULT_BETA) -> "EncoderModel":
        """Build a model over a buffer holding copies of a name -> array mapping
        keyed like parameters(). Raises ValueError for a missing name, a shape
        other than its part_shapes shape, or arrays of more than one dtype."""
        shapes = _parameter_shapes(config)
        for name, shape in shapes:
            got = np.shape(arrays[name]) if name in arrays else "missing"
            if got != shape:
                raise ValueError(f"parameter {name}: expected shape {shape}, got {got}")
        if len({np.asarray(arrays[name]).dtype for name, _ in shapes}) != 1:
            raise ValueError("parameters of mixed dtypes cannot share one buffer")
        return cls(config, np.concatenate([arrays[name] for name, _ in shapes], axis=None),
                   mode, beta)

    @classmethod
    def init(cls, config: EncoderConfig) -> "EncoderModel":
        """Seeded Gaussian init, std 1/sqrt(fan_in); biases zero, gains one."""
        rng = Rng(config.seed)
        sizes = [math.prod(shape) for _, shape in _parameter_shapes(config)]
        model = cls(config, np.zeros(sum(sizes), dtype=tensor.FLOAT))
        for name, arr in model.parameters().items():
            if name.endswith(".weight"):
                arr[:] = tensor.gaussian_fill(rng, *arr.shape, sigma=arr.shape[1] ** -0.5)
            elif name.endswith(".ln_gain"):
                arr[:] = 1.0
        return model

    def linear_layers(self) -> list[tuple[str, LinearLayer]]:
        return list(self._layers.items())

    def parameters(self) -> dict[str, np.ndarray]:
        """Ordered name -> view of the buffer (optimizers update in place)."""
        return dict(self._params)

    def flat_parameters(self) -> np.ndarray:
        """The one contiguous buffer every parameter is a view of."""
        return self._flat

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Inference: ``infer`` over each linear layer's cache-free apply."""
        return infer(self.config, x, LinearLayer.apply, self._layers.values(), self._norms)

    def train_forward(self, x: np.ndarray) -> np.ndarray:
        """Training: ``infer`` over each layer's caching forward, with a tape."""
        self._tape = []  # the last batch's tape goes before this one fills
        return infer(self.config, x, LinearLayer.forward, self._layers.values(), self._norms,
                     self._tape)

    def backward(self, d_out: np.ndarray) -> dict[str, np.ndarray]:
        """Each parameter's gradient, keyed like parameters(), from train_forward's
        layers and tape walked in reverse; the output layer raises before any."""
        layers = list(self._layers.values())
        grads = dict.fromkeys(self._params)
        dh = layers[-1].backward(d_out)
        for i in reversed(range(self.config.num_blocks)):
            normed, inv_std, dgelu = self._tape[3 * i:3 * i + 3]
            gain, shift = self._norms[i]
            du = layers[2 * i + 1].backward(layers[2 * i + 2].backward(dh) * dgelu)
            du64 = du.astype(np.float64)
            grads[f"blocks.{i}.ln_gain"] = (du64 * normed).sum(axis=0).astype(gain.dtype)
            grads[f"blocks.{i}.ln_shift"] = du64.sum(axis=0).astype(shift.dtype)
            dnormed = du64 * gain.astype(np.float64)
            mean_dn = dnormed.mean(axis=1, keepdims=True)
            mean_dn_n = (dnormed * normed).mean(axis=1, keepdims=True)
            dh = dh + (inv_std * (dnormed - mean_dn - normed * mean_dn_n)).astype(dh.dtype)
        layers[0].backward(dh)
        for name, layer in self._layers.items():
            grads[f"{name}.weight"], grads[f"{name}.bias"] = layer.grad_weight, layer.grad_bias
        return grads

    def clone(self) -> "EncoderModel":
        """A model over a copy of the buffer, each layer keeping its mode and beta."""
        twin = EncoderModel(self.config, self._flat.copy())
        for mine, theirs in zip(self._layers.values(), twin._layers.values()):
            theirs.mode, theirs.beta = mine.mode, mine.beta
        return twin


def replace_linears(model: EncoderModel, mode: str, beta: float = DEFAULT_BETA) -> EncoderModel:
    """Switch every linear layer's mode in place; weights are untouched."""
    if mode not in (MODE_FULL, MODE_TERNARY):
        raise ValueError(f"unknown mode {mode!r}")
    for _, layer in model.linear_layers():
        layer.mode = mode
        layer.beta = float(beta)
    return model


def export_packed(model: EncoderModel) -> list[PackedTernaryMatrix]:
    """Freeze gamma per linear layer and pack the trits, biases included."""
    for name, layer in model.linear_layers():
        if layer.mode != MODE_TERNARY:
            raise ValueError(f"layer {name} is not in ternary mode")
    return [ternarize(layer.weight, compute_threshold(layer.weight, layer.beta), layer.bias)
            for _, layer in model.linear_layers()]


class PackedEncoder:
    """Frozen inference-only encoder running every linear via the bit-plane kernel."""

    def __init__(self, config: EncoderConfig, packed_layers: list[PackedTernaryMatrix],
                 ln_params: list[tuple[np.ndarray, np.ndarray]]):
        if len(packed_layers) != 2 * config.num_blocks + 2:
            raise ValueError("wrong number of packed layers for the architecture")
        if len(ln_params) != config.num_blocks:
            raise ValueError("wrong number of layer-norm parameter pairs")
        self.config = config
        self.packed_layers = packed_layers
        self.ln_params = ln_params

    @classmethod
    def from_model(cls, model: EncoderModel) -> "PackedEncoder":
        ln = [(gain.copy(), shift.copy()) for gain, shift in model._norms]
        return cls(model.config, export_packed(model), ln)

    def forward(self, x: np.ndarray) -> np.ndarray:
        # packed_gemm is looked up per call, so a rebound module attribute sees every call
        return infer(self.config, x, lambda p, v: packed_gemm(p, v.T).T,
                     self.packed_layers, self.ln_params)


def model_digest(model: EncoderModel) -> str:
    """SHA-256 over parameter names and raw bytes; detects any weight drift."""
    h = hashlib.sha256()
    for name, arr in model.parameters().items():
        h.update(name.encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def architecture_parity(a: EncoderModel, b: EncoderModel) -> bool:
    """True when both models expose identical parameter names and shapes."""
    pa, pb = a.parameters(), b.parameters()
    return list(pa) == list(pb) and all(pa[k].shape == pb[k].shape for k in pa)

