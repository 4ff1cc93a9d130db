"""Dense numeric foundation.

A matrix here is a 2-D, C-contiguous ``float32`` numpy array with positive
dimensions. Every operation validates shapes, accumulates in float64 and
rounds once back to the input precision. BLAS picks a product's float64
summation order, so float32 products can differ between BLAS builds.

gelu, gelu_grad and layer_norm work in place on float64 buffers of their own,
never on their inputs. Each step rounds where the fresh-array form of the same
formula rounds, and each row reduction runs over a buffer with the input's
memory layout, so it sums in the same order: both forms give the same bytes.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf

from .rng import Rng

FLOAT = np.float32
LAYER_NORM_EPS = 1e-5

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def as_matrix(x, name: str = "matrix") -> np.ndarray:
    """Validate x as a finite 2-D float32 matrix with positive dims."""
    a = np.asarray(x, dtype=FLOAT)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {a.shape}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"{name} must have positive dimensions, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return np.ascontiguousarray(a)


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product with float64 accumulation, rounded once to the inputs'
    common dtype. BLAS picks the order of each float64 sum, so an entry can
    differ by one float32 step between BLAS builds.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"matmul needs 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    out_dtype = np.result_type(a.dtype, b.dtype)
    prod = np.matmul(a.astype(np.float64, copy=False), b.astype(np.float64, copy=False))
    return prod.astype(out_dtype)


def gaussian_fill(rng: Rng, rows: int, cols: int, sigma: float) -> np.ndarray:
    """rows x cols matrix of i.i.d. N(0, sigma^2) float32 samples."""
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if rows < 1 or cols < 1:
        raise ValueError(f"dimensions must be positive, got {rows}x{cols}")
    return rng.normals(rows * cols, sigma=sigma).reshape(rows, cols).astype(FLOAT)


def gelu(x: np.ndarray):
    """Exact GELU x * Phi(x), plus the float64 Phi(x) that gelu_grad takes.

    x * Phi(x) rounds the same exact product as 0.5 * x * (1 + erf(x / sqrt 2)).
    """
    x = np.asarray(x)
    x64 = x.astype(np.float64)
    cdf = x64 * _INV_SQRT2
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    x64 *= cdf
    return x64.astype(x.dtype), cdf


def gelu_grad(x: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """d/dx of gelu: Phi(x) + x * phi(x), with Phi(x) from gelu."""
    x = np.asarray(x)
    x64 = x.astype(np.float64)
    pdf = x64 * -0.5
    pdf *= x64
    np.exp(pdf, out=pdf)
    pdf *= _INV_SQRT_2PI
    x64 *= pdf
    x64 += cdf
    return x64.astype(x.dtype)


def layer_norm(x: np.ndarray, gain: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Normalize each row to zero mean / unit variance, then apply gain + shift.

    A constant row has zero variance; LAYER_NORM_EPS keeps the division
    finite and the normalized row comes out all-zero.
    """
    return _layer_norm(x, gain, shift)[0]


def layer_norm_with_cache(x: np.ndarray, gain: np.ndarray, shift: np.ndarray):
    """layer_norm plus the (normed, inv_std) cache the backward pass needs: the
    float64 normalized rows and each row's float64 1 / sqrt(var + eps)."""
    y, normed, inv_std = _layer_norm(x, gain, shift)
    return y, (normed, inv_std)


def _layer_norm(x: np.ndarray, gain: np.ndarray, shift: np.ndarray):
    """The one layer-norm computation behind both public functions:
    (y, normed, inv_std)."""
    x = np.asarray(x)
    if x.ndim != 2:
        raise ValueError(f"layer_norm expects a 2-D batch, got shape {x.shape}")
    if gain.shape != (x.shape[1],) or shift.shape != (x.shape[1],):
        raise ValueError("gain/shift must match the row width")
    n = x.shape[1]
    normed = x.astype(np.float64)
    normed -= np.add.reduce(normed, axis=1, keepdims=True) / n
    y = normed * normed
    var = np.add.reduce(y, axis=1, keepdims=True) / n
    inv_std = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    normed *= inv_std
    np.multiply(normed, gain.astype(np.float64), out=y)
    y += shift.astype(np.float64)
    return y.astype(x.dtype), normed, inv_std
