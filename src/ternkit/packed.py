"""Bit-plane representation of ternary matrices and the ternary kernel.

This is ternkit's only stored form of a ternarized layer: ``ternary.ternarize``
writes the planes directly, and no int8 trit matrix is kept beside them.
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

``packed_gemm`` is the one product: it takes a (cols, m) input, so a single
vector is one column. A CSR product calls scipy's private
``_sparsetools.csr_matvec`` (one column) or ``csr_matvecs`` (more), the
kernels that ``csr_matrix @ x`` dispatches to, without that dispatch's
per-call checks. Both add each row's terms into a zeroed float64 output in
stored-index order, so every sum keeps the order it has through ``@``. Gamma
then scales the float64 output in place and the float64 bias column, built
with the matrix, is added in place.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .tensor import FLOAT

if TYPE_CHECKING:
    from scipy import sparse

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


def _float32_gamma(gamma: float) -> float:
    """gamma rounded to float32; ValueError unless that is finite and non-negative."""
    with np.errstate(over="ignore"):  # past float32's range gamma rounds to inf
        gamma = float(np.float32(gamma))
    if gamma < 0 or not np.isfinite(gamma):
        raise ValueError(f"gamma must be finite and non-negative in float32, got {gamma}")
    return gamma


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
        gamma = _float32_gamma(gamma)
        nbytes = row_bytes(cols)
        plus_plane = np.ascontiguousarray(plus_plane, dtype=np.uint8)
        minus_plane = np.ascontiguousarray(minus_plane, dtype=np.uint8)
        if plus_plane.shape != (rows, nbytes) or minus_plane.shape != (rows, nbytes):
            raise ValueError(
                f"plane shape must be ({rows}, {nbytes}), got {plus_plane.shape} and {minus_plane.shape}")
        _check_planes(cols, plus_plane, minus_plane)
        if bias is not None:
            bias = np.ascontiguousarray(bias, dtype=FLOAT)
            if bias.shape != (rows,):
                raise ValueError(f"bias length {bias.shape} != rows {rows}")
        self.rows = rows
        self.cols = cols
        self.plus_plane = plus_plane
        self.minus_plane = minus_plane
        self.gamma = gamma
        self.bias = bias
        self._operand: np.ndarray | sparse.csr_matrix | None = None
        with np.errstate(invalid="ignore"):  # a signaling-NaN bias widens to a quiet NaN
            self._bias64 = None if bias is None else bias.astype(np.float64).reshape(rows, 1)

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


def packed_gemm(p: PackedTernaryMatrix, x: np.ndarray) -> np.ndarray:
    """gamma * (trits @ x) + bias for x of shape (cols, m), summed in float64 and
    rounded to float32; the bias is added to every column."""
    x = np.asarray(x, dtype=FLOAT)
    if x.ndim != 2 or x.shape[0] != p.cols:
        raise ValueError(f"input shape {x.shape} does not match cols {p.cols}")
    op = p.operand()
    x64 = np.ascontiguousarray(x, dtype=np.float64)
    if isinstance(op, np.ndarray):
        y = op @ x64
    else:
        from scipy.sparse import _sparsetools  # loaded with the CSR operand
        y = np.zeros((p.rows, x.shape[1]))
        if x.shape[1] == 1:  # csr_matvecs takes ~3x as long on one column (256x256, 11% fill)
            _sparsetools.csr_matvec(p.rows, p.cols, op.indptr, op.indices, op.data,
                                    x64.ravel(), y.ravel())
        else:
            _sparsetools.csr_matvecs(p.rows, p.cols, x.shape[1], op.indptr, op.indices,
                                     op.data, x64.ravel(), y.ravel())
    y *= p.gamma
    if p._bias64 is not None:
        y += p._bias64
    return y.astype(FLOAT)
