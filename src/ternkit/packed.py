"""Bit-plane representation of ternary matrices and the add-only kernel.

A packed matrix stores two per-row bitmasks: the plus plane marks +1 trits,
the minus plane marks -1 trits. Bit j of a row byte-string is bit ``j % 8``
(least significant first) of byte ``j // 8``; each row is padded to a whole
byte with zero bits. The planes are disjoint by construction and 0.25 bits
per weight each, realizing the ~1.58-bit storage bound with a dead-code-free
layout (unlike 2-bit integer codes, there is no fourth state to waste).

The matrix-vector kernel is multiplication-free: each output element is a
masked sum of inputs over the plus plane minus a masked sum over the minus
plane, followed by one scale by gamma and one bias add. Accumulation is in
float64 and the result rounds to float32.
"""

from __future__ import annotations

import numpy as np

from .tensor import FLOAT
from .ternary import TernaryMatrix

# On-disk record overhead: magic(4) + version(2) + rows(4) + cols(4) + bias flag(1).
PACKED_RECORD_HEADER_BYTES = 15

# Cap on the float64 scratch the batched kernel may allocate (in elements).
_SCRATCH_ELEMS = 2_000_000


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
        self._masks: tuple[np.ndarray, np.ndarray] | None = None
        self._gather: tuple[_PlaneGather, _PlaneGather] | None = None

    def masks(self) -> tuple[np.ndarray, np.ndarray]:
        """Boolean (rows, cols) masks for the two planes, cached after first use."""
        if self._masks is None:
            plus = np.unpackbits(self.plus_plane, axis=1, count=self.cols,
                                 bitorder="little").astype(bool)
            minus = np.unpackbits(self.minus_plane, axis=1, count=self.cols,
                                  bitorder="little").astype(bool)
            self._masks = (plus, minus)
        return self._masks

    def gather_plan(self) -> tuple["_PlaneGather", "_PlaneGather"]:
        """Per-plane gather/segment structure for the add-only kernel, cached."""
        if self._gather is None:
            plus, minus = self.masks()
            self._gather = (_PlaneGather(plus), _PlaneGather(minus))
        return self._gather


def pack(t: TernaryMatrix, bias: np.ndarray | None = None) -> PackedTernaryMatrix:
    """Pack a trit matrix into two LSB-first bit-planes. Lossless."""
    plus = np.packbits(t.trits == 1, axis=1, bitorder="little")
    minus = np.packbits(t.trits == -1, axis=1, bitorder="little")
    return PackedTernaryMatrix(t.rows, t.cols, plus, minus, t.gamma, bias)


def unpack(p: PackedTernaryMatrix) -> TernaryMatrix:
    """Exact inverse of pack; re-validates plane integrity."""
    _check_planes(p.cols, p.plus_plane, p.minus_plane)
    plus, minus = p.masks()
    trits = plus.astype(np.int8) - minus.astype(np.int8)
    return TernaryMatrix(p.rows, p.cols, trits, p.gamma)


class _PlaneGather:
    """Row-segmented view of one plane's set bits.

    cols holds the column index of every set bit in row-major order;
    offsets[i] is where row i's run starts. Row sums are then a gather of
    the input followed by one segmented add per row — no multiplications.
    """

    def __init__(self, mask: np.ndarray):
        rows_nz, cols_nz = np.nonzero(mask)
        self.cols = cols_nz
        counts = np.bincount(rows_nz, minlength=mask.shape[0])
        self.counts = counts
        self.offsets = np.concatenate(([0], np.cumsum(counts[:-1])))
        self.empty = counts == 0
        self.nnz = int(cols_nz.size)

    def row_sums(self, x: np.ndarray) -> np.ndarray:
        """Per-row sum of x over this plane's set bits, accumulated in float64."""
        if self.nnz == 0:
            shape = (self.counts.size,) + x.shape[1:]
            return np.zeros(shape, dtype=np.float64)
        gathered = x[self.cols].astype(np.float64)
        # a zero pad element keeps every offset (including nnz, from trailing
        # empty rows) a valid reduceat index without touching real segments;
        # reduceat turns empty segments into singletons, zeroed afterwards
        pad = np.zeros((1,) + gathered.shape[1:], dtype=np.float64)
        sums = np.add.reduceat(np.concatenate([gathered, pad], axis=0),
                               self.offsets, axis=0)
        sums[self.empty] = 0.0
        return sums


def packed_gemv(p: PackedTernaryMatrix, x: np.ndarray) -> np.ndarray:
    """y_i = gamma * (sum of x over plus bits - sum over minus bits) + bias_i.

    The inner accumulation is a gather plus segmented adds/subtracts only;
    gamma and bias touch each output element exactly once.
    """
    x = np.asarray(x, dtype=FLOAT)
    if x.ndim != 1 or x.shape[0] != p.cols:
        raise ValueError(f"input length {x.shape} does not match cols {p.cols}")
    plus, minus = p.gather_plan()
    acc = plus.row_sums(x) - minus.row_sums(x)
    y = np.float64(p.gamma) * acc
    if p.bias is not None:
        y = y + p.bias.astype(np.float64)
    return y.astype(FLOAT)


def packed_gemm(p: PackedTernaryMatrix, x: np.ndarray) -> np.ndarray:
    """Column-wise packed_gemv: (rows x cols) @ (cols x m), bias broadcast per column."""
    x = np.asarray(x, dtype=FLOAT)
    if x.ndim != 2 or x.shape[0] != p.cols:
        raise ValueError(f"input shape {x.shape} does not match cols {p.cols}")
    m = x.shape[1]
    plus, minus = p.gather_plan()
    out = np.empty((p.rows, m), dtype=np.float64)
    widest = max(plus.nnz, minus.nnz, 1)
    blk = max(1, _SCRATCH_ELEMS // widest)
    for j0 in range(0, m, blk):
        xb = x[:, j0:j0 + blk]
        out[:, j0:j0 + blk] = np.float64(p.gamma) * (plus.row_sums(xb) - minus.row_sums(xb))
    if p.bias is not None:
        out = out + p.bias.astype(np.float64)[:, None]
    return out.astype(FLOAT)


def storage_bytes(p: PackedTernaryMatrix) -> int:
    """Exact on-disk size of the packed layer record."""
    planes = 2 * p.rows * row_bytes(p.cols)
    bias = 4 * p.rows if p.bias is not None else 0
    return PACKED_RECORD_HEADER_BYTES + 4 + planes + bias
