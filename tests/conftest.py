import contextlib
import os
import threading

import numpy as np
import pytest
from hypothesis import settings

from ternkit.encoder import DEFAULT_BETA, MODE_FULL, EncoderConfig, EncoderModel
from ternkit.packed import _plane_trits
from ternkit.rng import Rng

settings.register_profile("ternkit", deadline=None, derandomize=True)
settings.load_profile("ternkit")


@pytest.fixture
def rng():
    return Rng(1234)


@contextlib.contextmanager
def piped(raw: bytes):
    """A path that reads raw through a pipe, so it cannot seek, as a shell's
    `cat file | ternkit ... /dev/stdin` does."""
    r, w = os.pipe()

    def feed():
        view = memoryview(raw)
        with contextlib.suppress(BrokenPipeError):
            while view:
                view = view[os.write(w, view):]
        os.close(w)

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        yield f"/dev/fd/{r}"
    finally:
        os.close(r)  # a reader that stopped early unblocks the writer
        writer.join()


def random_matrix(rng: Rng, rows: int, cols: int, sigma: float = 1.0) -> np.ndarray:
    return rng.normals(rows * cols, sigma=sigma).reshape(rows, cols).astype(np.float32)


def init_model(config: EncoderConfig, dtype, mode: str = MODE_FULL,
               beta: float = DEFAULT_BETA) -> EncoderModel:
    """EncoderModel.init's seeded parameters cast to dtype, built through
    EncoderModel.from_arrays with every linear layer in `mode`."""
    arrays = EncoderModel.init(config).parameters()
    return EncoderModel.from_arrays(config, {k: v.astype(dtype) for k, v in arrays.items()},
                                    mode, beta)


def plane_dense(p) -> np.ndarray:
    """Effective weight gamma * trits as float32, the trits read off p's planes."""
    return (np.float32(p.gamma) * _plane_trits(p).astype(np.float32)).astype(np.float32)


def max_rel_err(got: np.ndarray, want: np.ndarray) -> float:
    """Infinity-norm error relative to 1 + the oracle's own infinity norm."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    return float(np.abs(got - want).max() / (1.0 + np.abs(want).max()))


def lsh_codes(index) -> np.ndarray:
    """(n, ceil(nbits / 8)) uint8: each row's sign bits, LSB-first, read off
    the (words, n) uint64 codes the LSH index holds."""
    return index._words.T.copy().view(np.uint8)[:, :(index.params.nbits + 7) // 8].copy()


def lsh_hyperplanes(index) -> np.ndarray:
    """(nbits, dim) float32 planes of an LSH index; exact, as they were drawn
    as float32."""
    return index._planes64.T.astype(np.float32)


def hnsw_level_bounds_ok(index) -> bool:
    """Every link stays within both endpoints' level range, no self loops;
    lists above layer 0 hold at most M ids and never the sentinel n."""
    n, neighbors = len(index.levels), index.neighbors
    for i, layers in enumerate(neighbors):
        if len(layers) != index.levels[i] + 1:
            return False
        for lc, ids in enumerate(layers):
            if n in ids or (lc >= 1 and len(ids) > index.params.M):
                return False
            for v in ids:
                if v == i or index.levels[v] < lc:
                    return False
    return True


def hnsw_layer0_connected(index) -> bool:
    """Every node is reachable from the entry point along layer-0 links."""
    neighbors = index.neighbors
    n = len(neighbors)
    if n <= 1:
        return True
    seen = {index.entry}
    stack = [index.entry]
    while stack:
        node = stack.pop()
        for nb in neighbors[node][0]:
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return len(seen) == n
