"""Bit-plane representation of ternary matrices and the ternary kernel.

A packed matrix stores two per-row bitmasks: the plus plane marks +1 trits,
the minus plane marks -1 trits. Bit j of a row byte-string is bit ``j % 8``
(least significant first) of byte ``j // 8``; each row is padded to a whole
byte with zero bits. The planes are disjoint by construction and 0.25 bits
per weight each, realizing the ~1.58-bit storage bound with a dead-code-free
layout (unlike 2-bit integer codes, there is no fourth state to waste).

On first use a matrix builds one float64 compute operand from its planes,
holding +1 at every plus bit and -1 at every minus bit. Its trit density picks
the form: a dense matrix (8 B per weight, one BLAS GEMM) when at least a
quarter of the trits are nonzero, a CSR matrix (about 12 B per nonzero)
otherwise. Neither is stored on disk. Every product is by -1, 0 or +1, so each
product is exact; the sum accumulates in float64 and rounds to float32, and
gamma and bias touch each output once. The two forms can differ only in
summation order. scipy fixes the CSR's order; BLAS picks the dense form's, so
a dense layer's float32 output can differ between BLAS builds where float64
sums taken in different orders round differently. The kernel goldens hold
only where they agree.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .tensor import FLOAT
from .ternary import TernaryMatrix

if TYPE_CHECKING:
    from scipy import sparse

# On-disk record overhead: magic(4) + version(2) + rows(4) + cols(4) + bias flag(1).
PACKED_RECORD_HEADER_BYTES = 15

# Nonzero share at and above which the operand is dense. Where dense starts to
# win depends on batch and working set (one thread, 2 MB L2): through the ten
# layers of a 64/256/64, 4-block encoder, batch 1 crosses between 20% and 25%
# nonzero and batch 512 between 10% and 15%; on one 4096x4096 layer, batch 1
# crosses between 40% and 55% and batch 512 between 5% and 10%. 0.25 is that
# encoder's batch-1 crossover. Beta 2 (~11-21% nonzero) and the TWN threshold
# beta 0.75 (~43-55%) both sit clear of it.
_DENSE_MIN_FILL = 0.25


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
        self._operand: np.ndarray | sparse.csr_matrix | None = None

    def operand(self) -> np.ndarray | sparse.csr_matrix:
        """The trits as a float64 matrix of ±1/0 entries, built once on first use:
        dense when at least a quarter of them are nonzero, CSR otherwise."""
        if self._operand is None:
            trits = _plane_trits(self)
            if np.count_nonzero(trits) >= _DENSE_MIN_FILL * self.rows * self.cols:
                self._operand = trits.astype(np.float64)
            else:
                # imported here: a model whose layers are all dense never loads scipy.sparse
                from scipy import sparse
                self._operand = sparse.csr_matrix(trits, dtype=np.float64)
        return self._operand


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
    y = np.float64(p.gamma) * (p.operand() @ np.ascontiguousarray(x, dtype=np.float64))
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
