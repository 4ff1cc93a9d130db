"""Allocation budgets of the set-up and index-build paths.

Each test measures the tracemalloc peak of one call, over what was already
allocated before it. The bounds sit between the peaks of the blocked code
and those of the whole-input transients it replaced (in parentheses, on the
same shapes): a return to a scratch array that grows with the input fails
them.
"""

import tracemalloc

import numpy as np

from ternkit.ann import HnswParams, LshParams, VectorStore, hnsw_build, lsh_build, normalize_rows
from ternkit.distill import TaskSpec, make_synthetic_task
from ternkit.encoder import EncoderConfig
from ternkit.rng import Rng

MB = 1e6


def traced_peak(fn) -> tuple[object, int]:
    """fn()'s result and the peak bytes it held above what was allocated before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def _store() -> VectorStore:
    """5000 unit rows in 100 clusters, like the benchmark's embeddings."""
    rng = Rng(5)
    centers = rng.normals(100 * 64).reshape(100, 64)
    rows = centers[np.arange(5000) % 100] + 0.25 * rng.normals(5000 * 64).reshape(5000, 64)
    return VectorStore(normalize_rows(rows))


def test_normals_peak_within_twice_output():
    out, peak = traced_peak(lambda: Rng(0).normals(640_000))  # (5.0x)
    assert peak <= 2 * out.nbytes


def test_synthetic_task_peak_at_benchmark_shape():
    config = EncoderConfig(64, 64, 64, 4, seed=11)
    task, peak = traced_peak(lambda: make_synthetic_task(config, TaskSpec(100, 10_000, seed=101)))
    assert task.inputs.shape == (10_000, 64)
    assert peak <= 10 * MB  # (25.8 MB)


def test_lsh_build_peak():
    store = _store()
    _, peak = traced_peak(lambda: lsh_build(store, LshParams(nbits=256, seed=3)))
    assert peak <= 3 * MB  # (13.0 MB)


def test_hnsw_build_peak():
    """ef_construction = M still gives every insert its M links, in a
    fraction of the default build's time."""
    store = _store()
    _, peak = traced_peak(lambda: hnsw_build(store, HnswParams(M=16, ef_construction=16, seed=3)))
    assert peak <= 12 * MB  # (18.6 MB)
