"""Bit-plane representation of ternary matrices and the ±1 sparse kernel.

A packed matrix stores two per-row bitmasks: the plus plane marks +1 trits,
the minus plane marks -1 trits. Bit j of a row byte-string is bit ``j % 8``
(least significant first) of byte ``j // 8``; each row is padded to a whole
byte with zero bits. The planes are disjoint by construction and 0.25 bits
per weight each, realizing the ~1.58-bit storage bound with a dead-code-free
layout (unlike 2-bit integer codes, there is no fourth state to waste).

On first use a matrix builds one compute operand from its planes: a CSR
matrix holding +1 at every plus bit and -1 at every minus bit. The inner loop
multiplies only by ±1, which is exact, and gamma and bias touch each output
once. Accumulation is in float64 and the result rounds to float32.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from .tensor import FLOAT
from .ternary import TernaryMatrix

# On-disk record overhead: magic(4) + version(2) + rows(4) + cols(4) + bias flag(1).
PACKED_RECORD_HEADER_BYTES = 15


class PlaneIntegrityError(ValueError):
    """Planes overlap or carry dirty padding bits."""


def row_bytes(cols: int) -> int:
    return (cols + 7) // 8


def _check_planes(cols: int, plus_plane: np.ndarray, minus_plane: np.ndarray) -> None:
    """Raise PlaneIntegrityError if the planes overlap or set padding bits."""
    if np.any(plus_plane & minus_plane):
        raise PlaneIntegrityError("plus and minus planes overlap")
    if cols % 8:
        pad_mask = np.uint8((0xFF << (cols % 8)) & 0xFF)
        if np.any(plus_plane[:, -1] & pad_mask) or np.any(minus_plane[:, -1] & pad_mask):
            raise PlaneIntegrityError("padding bits beyond cols are set")


class PackedTernaryMatrix:
    """Immutable two-plane ternary matrix with scale and optional bias."""

    def __init__(self, rows: int, cols: int, plus_plane: np.ndarray,
                 minus_plane: np.ndarray, gamma: float, bias: np.ndarray | None = None):
        if rows < 1 or cols < 1:
            raise ValueError(f"dimensions must be positive, got {rows}x{cols}")
        nbytes = row_bytes(cols)
        plus_plane = np.ascontiguousarray(plus_plane, dtype=np.uint8)
        minus_plane = np.ascontiguousarray(minus_plane, dtype=np.uint8)
        if plus_plane.shape != (rows, nbytes) or minus_plane.shape != (rows, nbytes):
            raise ValueError(
                f"plane shape must be ({rows}, {nbytes}), got {plus_plane.shape} and {minus_plane.shape}")
        _check_planes(cols, plus_plane, minus_plane)
        if gamma < 0 or not np.isfinite(gamma):
            raise ValueError(f"gamma must be finite and non-negative, got {gamma}")
        if bias is not None:
            bias = np.ascontiguousarray(bias, dtype=FLOAT)
            if bias.shape != (rows,):
                raise ValueError(f"bias length {bias.shape} != rows {rows}")
        self.rows = rows
        self.cols = cols
        self.plus_plane = plus_plane
        self.minus_plane = minus_plane
        self.gamma = float(np.float32(gamma))
        self.bias = bias
        self._csr: sparse.csr_matrix | None = None

    def csr(self) -> sparse.csr_matrix:
        """The trits as a float64 CSR matrix of ±1 entries, built once on first use."""
        if self._csr is None:
            self._csr = sparse.csr_matrix(_plane_trits(self), dtype=np.float64)
        return self._csr


def _plane_trits(p: PackedTernaryMatrix) -> np.ndarray:
    """int8 trits read off the planes: plus bits minus minus bits."""
    plus, minus = (np.unpackbits(plane, axis=1, count=p.cols, bitorder="little").view(np.int8)
                   for plane in (p.plus_plane, p.minus_plane))
    return plus - minus


def pack(t: TernaryMatrix, bias: np.ndarray | None = None) -> PackedTernaryMatrix:
    """Pack a trit matrix into two LSB-first bit-planes. Lossless."""
    plus = np.packbits(t.trits == 1, axis=1, bitorder="little")
    minus = np.packbits(t.trits == -1, axis=1, bitorder="little")
    return PackedTernaryMatrix(t.rows, t.cols, plus, minus, t.gamma, bias)


def _apply(p: PackedTernaryMatrix, x: np.ndarray) -> np.ndarray:
    """gamma * (trits @ x) + bias in float64, rounded to float32; bias broadcasts per column."""
    y = np.float64(p.gamma) * (p.csr() @ np.ascontiguousarray(x, dtype=np.float64))
    if p.bias is not None:
        y += p.bias.astype(np.float64).reshape((p.rows,) + (1,) * (x.ndim - 1))
    return y.astype(FLOAT)


def packed_gemv(p: PackedTernaryMatrix, x: np.ndarray) -> np.ndarray:
    """y_i = gamma * (sum of x over plus bits - sum over minus bits) + bias_i."""
    x = np.asarray(x, dtype=FLOAT)
    if x.ndim != 1 or x.shape[0] != p.cols:
        raise ValueError(f"input length {x.shape} does not match cols {p.cols}")
    return _apply(p, x)


def packed_gemm(p: PackedTernaryMatrix, x: np.ndarray) -> np.ndarray:
    """Column-wise packed_gemv: (rows x cols) @ (cols x m), bias broadcast per column."""
    x = np.asarray(x, dtype=FLOAT)
    if x.ndim != 2 or x.shape[0] != p.cols:
        raise ValueError(f"input shape {x.shape} does not match cols {p.cols}")
    return _apply(p, x)


def storage_bytes(p: PackedTernaryMatrix) -> int:
    """Exact on-disk size of the packed layer record."""
    planes = 2 * p.rows * row_bytes(p.cols)
    bias = 4 * p.rows if p.bias is not None else 0
    return PACKED_RECORD_HEADER_BYTES + 4 + planes + bias
