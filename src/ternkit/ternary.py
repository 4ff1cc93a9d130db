"""Ternarization of dense weight matrices.

The threshold is a beta-scaled mean absolute weight,

    gamma = (beta / (m*n)) * sum_ij |W_ij|

summed in float64. The partition compares the float32 weights with g,
gamma rounded to float32 (``ternarize`` rounds it whatever its type;
``ternary_dense``'s Python float rounds by NumPy's NEP 50 rule): each
entry maps to +1 above g, -1 below -g, and 0 on the closed band [-g, g].
Boundary entries with |W| == g land on 0, so ties are deterministic, and
an entry equal to g is 0 even where g exceeds the float64 gamma. g is also
the scale the forward pass applies to the trit matrix.

``ternarize`` writes the partition straight into the two bit planes of a
``packed.PackedTernaryMatrix``; there is no separate int8 trit type. The
float32 effective weight gamma * trits comes from ``ternary_dense``.

beta controls the width of the zero band and therefore the sparsity; the
TWN baseline corresponds to beta = 0.75 under a Gaussian weight
assumption. Default beta is 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .packed import PackedTernaryMatrix, _float32_gamma
from .tensor import FLOAT, as_matrix

DEFAULT_BETA = 2.0


def compute_threshold(w: np.ndarray, beta: float) -> float:
    """gamma = (beta / (rows*cols)) * sum |W|, accumulated in float64."""
    return _threshold(as_matrix(w, "weights"), beta)


def _threshold(w: np.ndarray, beta: float) -> float:
    if not 0 < beta < math.inf:  # nan fails every comparison
        raise ValueError(f"beta must be finite and positive, got {beta}")
    total = np.abs(w, dtype=np.float64).sum()
    return float(beta) * float(total) / w.size


def ternary_dense(w: np.ndarray, beta: float) -> tuple[np.ndarray, float]:
    """gamma * f(W | gamma) as float32, and gamma rounded to float32, in one pass.

    The same trits as ``ternarize(w, compute_threshold(w, beta))``'s planes,
    times the same float32 gamma, without a separate finiteness scan: a
    non-finite weight makes the float64 sum, and so gamma, non-finite
    (finite float32 magnitudes cannot overflow it), and raises ValueError.
    So does a gamma past float32's range, as in ``ternarize``.
    """
    w = np.asarray(w, dtype=FLOAT)
    gamma = _threshold(w, beta)
    if not math.isfinite(gamma):
        raise ValueError("weights contains non-finite entries")
    g = _float32_gamma(gamma)
    dense = (w > gamma).astype(FLOAT)  # the trits as float32, then times gamma
    dense -= w < -gamma
    dense *= FLOAT(g)
    return dense, g


def ternarize(w: np.ndarray, gamma: float, bias: np.ndarray | None = None) -> PackedTernaryMatrix:
    """Partition W at the closed band [-g, g] into bit planes, where g is
    gamma rounded to float32 (the stored scale).

    Entries strictly above g set a plus bit, strictly below -g a minus bit,
    everything else (including exact boundary hits) neither.
    A gamma that is negative, or not finite in float32, raises ValueError.
    """
    w = as_matrix(w, "weights")
    g = FLOAT(_float32_gamma(gamma))  # float32 whatever gamma's type, as ternary_dense
    plus = np.packbits(w > g, axis=1, bitorder="little")
    minus = np.packbits(w < -g, axis=1, bitorder="little")
    return PackedTernaryMatrix(w.shape[0], w.shape[1], plus, minus, gamma, bias)


def sparsity(p: PackedTernaryMatrix) -> float:
    """Fraction of zero trits."""
    size = p.rows * p.cols
    nonzero = sum(int(np.bitwise_count(plane).sum()) for plane in (p.plus_plane, p.minus_plane))
    return float(size - nonzero) / size


@dataclass(frozen=True)
class SweepRow:
    beta: float
    gamma: float
    sparsity: float


def beta_sweep(w: np.ndarray, betas: list[float]) -> list[SweepRow]:
    """Threshold and sparsity for each beta, sorted by beta ascending."""
    if not betas:
        raise ValueError("betas must be non-empty")
    w = as_matrix(w, "weights")
    rows = []
    for beta in sorted(betas):
        gamma = compute_threshold(w, beta)
        rows.append(SweepRow(float(beta), gamma, sparsity(ternarize(w, gamma))))
    return rows
