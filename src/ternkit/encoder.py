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
and retrieval L2-normalizes them itself (``ann.normalize_rows``). Both
encoders' ``forward`` is ``infer``, one walk that caches nothing; training
runs ``EncoderModel.train_forward``, which caches what ``backward`` needs.
"""

from __future__ import annotations

import copy
import hashlib
from dataclasses import asdict, dataclass

import numpy as np

from . import tensor
from .packed import PackedTernaryMatrix, pack, packed_gemm
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


def infer(config: EncoderConfig, x, apply, layers, norms) -> np.ndarray:
    """The inference pass, caching nothing: ``apply(layer, rows)`` runs each of
    ``layers`` in part_shapes order, ``norms`` holds each block's (gain, shift)."""
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[1] != config.input_dim:
        raise ValueError(f"input must be (n, {config.input_dim}), got {x.shape}")
    layer = iter(layers)
    h = apply(next(layer), x)
    for gain, shift in norms:
        z, _ = tensor.gelu(apply(next(layer), tensor.layer_norm(h, gain, shift)))
        h = h + apply(next(layer), z)
    return apply(next(layer), h)


class LinearLayer:
    """y = x @ W_eff.T + b where W_eff is W or gamma * f(W | gamma)."""

    def __init__(self, weight: np.ndarray, bias: np.ndarray,
                 mode: str = MODE_FULL, beta: float = DEFAULT_BETA):
        if mode not in (MODE_FULL, MODE_TERNARY):
            raise ValueError(f"unknown mode {mode!r}")
        self.weight = np.ascontiguousarray(weight, dtype=weight.dtype)
        self.bias = np.ascontiguousarray(bias, dtype=bias.dtype)
        if self.weight.ndim != 2 or self.bias.shape != (self.weight.shape[0],):
            raise ValueError("weight must be (out, in) and bias (out,)")
        self.mode = mode
        self.beta = float(beta)
        self.grad_weight: np.ndarray | None = None
        self.grad_bias: np.ndarray | None = None
        self._cache = None

    def effective_weight(self) -> tuple[np.ndarray, float | None]:
        """Weight the forward pass applies, plus gamma in ternary mode."""
        if self.mode == MODE_FULL:
            return self.weight, None
        return ternary_dense(self.weight, self.beta)  # gamma rounded to float32

    def ternary_export(self) -> PackedTernaryMatrix:
        gamma = compute_threshold(self.weight, self.beta)
        return pack(ternarize(self.weight, gamma), self.bias)

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


class ResidualBlock:
    """layer_norm -> fc1 -> gelu -> fc2 -> residual add."""

    def __init__(self, ln_gain, ln_shift, fc1: LinearLayer, fc2: LinearLayer):
        self.ln_gain = ln_gain
        self.ln_shift = ln_shift
        self.fc1 = fc1
        self.fc2 = fc2
        self.grad_ln_gain = None
        self.grad_ln_shift = None
        self._cache = None

    def forward(self, h: np.ndarray) -> np.ndarray:
        u, ln_cache = tensor.layer_norm_with_cache(h, self.ln_gain, self.ln_shift)
        a1 = self.fc1.forward(u)
        z, cdf = tensor.gelu(a1)
        # the float32 derivative takes a1's place in the cache, so erf runs
        # once per step and the cache grows by nothing
        self._cache = (*ln_cache, tensor.gelu_grad(a1, cdf))
        return h + self.fc2.forward(z)

    def backward(self, dh_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        normed, inv_std, dgelu = self._cache
        dz = self.fc2.backward(dh_out)
        du = self.fc1.backward(dz * dgelu)

        du64 = du.astype(np.float64)
        self.grad_ln_gain = (du64 * normed).sum(axis=0).astype(self.ln_gain.dtype)
        self.grad_ln_shift = du64.sum(axis=0).astype(self.ln_shift.dtype)
        dnormed = du64 * self.ln_gain.astype(np.float64)
        mean_dn = dnormed.mean(axis=1, keepdims=True)
        mean_dn_n = (dnormed * normed).mean(axis=1, keepdims=True)
        dh_ln = (inv_std * (dnormed - mean_dn - normed * mean_dn_n)).astype(dh_out.dtype)
        return dh_out + dh_ln


class EncoderModel:
    def __init__(self, config: EncoderConfig, input_proj: LinearLayer,
                 blocks: list[ResidualBlock], output_proj: LinearLayer):
        if len(blocks) != config.num_blocks:
            raise ValueError(f"expected {config.num_blocks} blocks, got {len(blocks)}")
        self.config = config
        self.input_proj = input_proj
        self.blocks = blocks
        self.output_proj = output_proj
        # the same order as part_shapes
        parts = [input_proj, *(p for blk in blocks for p in (blk, blk.fc1, blk.fc2)),
                 output_proj]
        spec = part_shapes(config)
        self._parts = [(name, part) for (name, _), part in zip(spec, parts)]
        # (parameter name, owner, attribute, gradient attribute), resolved once
        # here because gradients() runs on every training batch
        self._slots = [(f"{name}.{attr}", part, attr, "grad_" + attr)
                       for (name, shapes), part in zip(spec, parts) for attr in shapes]

    @classmethod
    def from_arrays(cls, config: EncoderConfig, arrays: dict[str, np.ndarray],
                    mode: str = MODE_FULL, beta: float = DEFAULT_BETA) -> "EncoderModel":
        """Build a model from a name -> array mapping keyed like parameters()."""
        parts = iter([[arrays[f"{name}.{attr}"] for attr in shapes]
                      for name, shapes in part_shapes(config)])

        def linear():
            return LinearLayer(*next(parts), mode=mode, beta=beta)

        input_proj = linear()
        blocks = [ResidualBlock(*next(parts), linear(), linear())
                  for _ in range(config.num_blocks)]
        return cls(config, input_proj, blocks, linear())

    @classmethod
    def init(cls, config: EncoderConfig) -> "EncoderModel":
        """Seeded Gaussian init, std 1/sqrt(fan_in); biases zero, gains one."""
        rng = Rng(config.seed)
        arrays = {}
        for name, shapes in part_shapes(config):
            for attr, shape in shapes.items():
                if attr == "weight":
                    arr = tensor.gaussian_fill(rng, *shape, sigma=shape[1] ** -0.5)
                elif attr == "ln_gain":
                    arr = np.ones(shape, dtype=tensor.FLOAT)
                else:
                    arr = np.zeros(shape, dtype=tensor.FLOAT)
                arrays[f"{name}.{attr}"] = arr
        return cls.from_arrays(config, arrays)

    # -- structure walkers -------------------------------------------------

    def linear_layers(self) -> list[tuple[str, LinearLayer]]:
        return [(name, part) for name, part in self._parts if isinstance(part, LinearLayer)]

    def parameters(self) -> dict[str, np.ndarray]:
        """Ordered name -> live array mapping (optimizers update in place)."""
        return {key: getattr(part, attr) for key, part, attr, _ in self._slots}

    def flat_parameters(self) -> np.ndarray:
        """Move every parameter into one contiguous buffer; returns the buffer.

        Each parameter attribute is rebound to a view of the buffer, in
        parameters() order, so an in-place update of the buffer is an update
        of the model. Values are copied, never shared with the old arrays.
        """
        arrays = list(self.parameters().values())
        if len({a.dtype for a in arrays}) != 1:
            raise ValueError("parameters of mixed dtypes cannot share one buffer")
        flat = np.concatenate(arrays, axis=None)
        offset = 0
        for (_, part, attr, _), arr in zip(self._slots, arrays):
            setattr(part, attr, flat[offset:offset + arr.size].reshape(arr.shape))
            offset += arr.size
        return flat

    def gradients(self) -> dict[str, np.ndarray]:
        grads = {key: getattr(part, grad) for key, part, _, grad in self._slots}
        if any(g is None for g in grads.values()):
            raise RuntimeError("gradients requested before a backward pass")
        return grads

    # -- compute -----------------------------------------------------------

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Inference: ``infer`` over each linear layer's cache-free apply."""
        return infer(self.config, x, LinearLayer.apply,
                     [layer for _, layer in self.linear_layers()],
                     [(blk.ln_gain, blk.ln_shift) for blk in self.blocks])

    def train_forward(self, x: np.ndarray) -> np.ndarray:
        """Training: every layer and block caches what backward needs."""
        h = self.input_proj.forward(x)
        for blk in self.blocks:
            h = blk.forward(h)
        return self.output_proj.forward(h)

    def backward(self, d_out: np.ndarray) -> dict[str, np.ndarray]:
        dh = self.output_proj.backward(d_out)
        for blk in reversed(self.blocks):
            dh = blk.backward(dh)
        self.input_proj.backward(dh)
        return self.gradients()

    def clone(self) -> "EncoderModel":
        return copy.deepcopy(self)


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
    return [layer.ternary_export() for _, layer in model.linear_layers()]


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
        ln = [(blk.ln_gain.copy(), blk.ln_shift.copy()) for blk in model.blocks]
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

