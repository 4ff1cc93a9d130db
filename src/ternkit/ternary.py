"""Ternarization of dense weight matrices.

The threshold is a beta-scaled mean absolute weight,

    gamma = (beta / (m*n)) * sum_ij |W_ij|

and the partition maps each entry to +1 above gamma, -1 below -gamma, and 0
on the closed band [-gamma, gamma]. Boundary entries with |W| == gamma land
on 0, so ties are deterministic. gamma doubles as the scale the forward
pass applies to the trit matrix.

beta controls the width of the zero band and therefore the sparsity; the
TWN baseline corresponds to beta = 0.75 under a Gaussian weight
assumption. Default beta is 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import FLOAT, as_matrix

DEFAULT_BETA = 2.0


@dataclass(eq=False)
class TernaryMatrix:
    """Trit matrix in {-1, 0, +1} plus its scale gamma.

    gamma is 0 only for the degenerate cases (all-zero source, or an
    explicit zero threshold); otherwise it is positive.
    """

    rows: int
    cols: int
    trits: np.ndarray
    gamma: float

    def __post_init__(self):
        self.trits = np.ascontiguousarray(self.trits, dtype=np.int8)
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"dimensions must be positive, got {self.rows}x{self.cols}")
        if self.trits.shape != (self.rows, self.cols):
            raise ValueError(f"trits shape {self.trits.shape} != ({self.rows}, {self.cols})")
        if self.gamma < 0 or not np.isfinite(self.gamma):
            raise ValueError(f"gamma must be finite and non-negative, got {self.gamma}")
        bad = (self.trits < -1) | (self.trits > 1)
        if bad.any():
            raise ValueError("trits must lie in {-1, 0, +1}")
        self.gamma = float(np.float32(self.gamma))

    def dense(self) -> np.ndarray:
        """Effective weight gamma * trits as float32."""
        return (np.float32(self.gamma) * self.trits.astype(FLOAT)).astype(FLOAT)


def compute_threshold(w: np.ndarray, beta: float) -> float:
    """gamma = (beta / (rows*cols)) * sum |W|, accumulated in float64."""
    return _threshold(as_matrix(w, "weights"), beta)


def _threshold(w: np.ndarray, beta: float) -> float:
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    total = np.abs(w, dtype=np.float64).sum()
    return float(beta) * float(total) / w.size


def ternary_dense(w: np.ndarray, beta: float) -> tuple[np.ndarray, float]:
    """gamma * f(W | gamma) as float32, and gamma rounded to float32, in one pass.

    Equal to ``ternarize(w, compute_threshold(w, beta)).dense()`` and its
    gamma, without the int8 trit matrix or a separate finiteness scan: a
    non-finite weight makes the float64 sum, and so gamma, non-finite
    (finite float32 magnitudes cannot overflow it), and raises ValueError.
    """
    w = np.asarray(w, dtype=FLOAT)
    gamma = _threshold(w, beta)
    if not math.isfinite(gamma):
        raise ValueError("weights contains non-finite entries")
    g = FLOAT(gamma)
    dense = (w > gamma).astype(FLOAT)  # the trits as float32, then times gamma,
    dense -= w < -gamma                # which is TernaryMatrix.dense()'s product
    dense *= g
    return dense, float(g)


def ternarize(w: np.ndarray, gamma: float) -> TernaryMatrix:
    """Partition W at the closed band [-gamma, gamma].

    Entries strictly above gamma map to +1, strictly below -gamma to -1,
    everything else (including exact boundary hits) to 0.
    """
    w = as_matrix(w, "weights")
    if gamma < 0:
        raise ValueError(f"gamma must be non-negative, got {gamma}")
    trits = np.where(w > gamma, 1, np.where(w < -gamma, -1, 0)).astype(np.int8)
    return TernaryMatrix(w.shape[0], w.shape[1], trits, gamma)


def sparsity(t: TernaryMatrix) -> float:
    """Fraction of zero trits."""
    return float(np.count_nonzero(t.trits == 0)) / t.trits.size


@dataclass(frozen=True)
class SweepRow:
    beta: float
    gamma: float
    sparsity: float


def beta_sweep(w: np.ndarray, betas: list[float]) -> list[SweepRow]:
    """Threshold and sparsity for each beta, sorted by beta ascending."""
    if not betas:
        raise ValueError("betas must be non-empty")
    if any(b <= 0 for b in betas):
        raise ValueError("all betas must be positive")
    w = as_matrix(w, "weights")
    rows = []
    for beta in sorted(betas):
        gamma = compute_threshold(w, beta)
        rows.append(SweepRow(float(beta), gamma, sparsity(ternarize(w, gamma))))
    return rows
