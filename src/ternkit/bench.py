"""Latency and storage measurement for the dense vs packed GEMV kernels.

Timings are wall-clock and reported, never asserted: a scalar desk build
cannot promise kernel-library ratios. Storage numbers are arithmetic and
exact. Each run re-checks the packed kernel against the dense effective
weight once, so a reported time always belongs to a correct kernel.
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict, dataclass

import numpy as np

from .packed import packed_gemm
from .rng import Rng
from .storage import storage_bytes
from .tensor import FLOAT, gaussian_fill
from .ternary import DEFAULT_BETA, compute_threshold, ternarize, ternary_dense

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class BenchReport:
    operation: str
    rows: int
    cols: int
    repetitions: int
    total_ns: int
    per_call_ns: float
    storage_bytes: int
    environment: str


def _environment_note() -> str:
    pinned = {v: os.environ[v] for v in _THREAD_VARS if v in os.environ}
    if pinned:
        return "thread env: " + ", ".join(f"{k}={v}" for k, v in pinned.items())
    return "thread env unset; BLAS may use multiple threads for the dense kernel"


def _time_loop(fn, reps: int) -> int:
    fn()  # warm-up
    start = time.perf_counter_ns()
    for _ in range(reps):
        fn()
    return time.perf_counter_ns() - start


def bench_gemv(rows: int, cols: int, reps: int, seed: int = 0) -> dict:
    """Time dense f32 GEMV against the packed kernel on one matrix at the default beta."""
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    if rows < 1 or cols < 1:
        raise ValueError(f"dimensions must be positive, got {rows}x{cols}")
    rng = Rng(seed)
    w = gaussian_fill(rng, rows, cols, 1.0)
    x = rng.normals(cols).astype(FLOAT)
    p = ternarize(w, compute_threshold(w, DEFAULT_BETA))
    env = _environment_note()

    column = x[:, None]
    dense_ns = _time_loop(lambda: w @ x, reps)
    packed_ns = _time_loop(lambda: packed_gemm(p, column), reps)

    # correctness re-check against the dense effective weight, once per run
    expected = ternary_dense(w, DEFAULT_BETA)[0].astype(np.float64) @ x.astype(np.float64)
    got = packed_gemm(p, column)[:, 0].astype(np.float64)
    denom = 1.0 + np.abs(expected).max()
    check = float(np.abs(got - expected).max() / denom)

    dense_bytes = 4 * rows * cols
    reports = [
        BenchReport("dense_gemv_f32", rows, cols, reps, dense_ns,
                    dense_ns / reps, dense_bytes, env),
        BenchReport("packed_ternary_gemv", rows, cols, reps, packed_ns,
                    packed_ns / reps, storage_bytes(p), env),
    ]
    return {
        "reports": [asdict(r) for r in reports],
        "latency_ratio_packed_over_dense": packed_ns / dense_ns,
        "storage_ratio_packed_over_dense": storage_bytes(p) / dense_bytes,
        "kernel_check_max_rel_err": check,
        "operand": "dense" if isinstance(p.operand(), np.ndarray) else "csr",
    }
