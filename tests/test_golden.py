"""Golden guard: checkpoint bytes, sidecars, model digests and packed kernel
outputs are pinned.

The weights and inputs come from ``Rng.uniforms_open``, whose draws are
bit-portable (normal variates are only stable per platform), so these hashes
hold on any platform. A change to either checkpoint writer, the sidecar
layout, the parameter walk or the rounding of the packed kernel shows up here
as a hash mismatch.
"""

import hashlib

import numpy as np

from ternkit import storage
from ternkit.encoder import (EncoderConfig, EncoderModel, MODE_TERNARY, model_digest,
                             replace_linears)
from ternkit.packed import pack, packed_gemm, packed_gemv
from ternkit.rng import Rng
from ternkit.ternary import TernaryMatrix, compute_threshold, ternarize

MODEL_DIGEST = "a8bc7743964bc105574af02fc2c6a2aece1185a49f179d2ac88d8ee5ceb85e80"
DENSE = ("a7df6211fa6f524a07d224046ffe28a9b89b77c2a86fbeac8565f733735e6195",
         "8f1e55bc17b8d1a742bc010436ed379c1b0abdea6e6e634d6061e28f9b0252dc")
TERNARY = ("1d7c7bd835dcf6202147409bb06cdadbce9059b8b5d7ad4bf06d1575c39644fa",
           "318c834bd397c516e5183bc719f409caa4757b0612889fda7629739fba42facc")


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def golden_model() -> EncoderModel:
    model = EncoderModel.init(EncoderConfig(9, 12, 7, 2, seed=0))
    rng = Rng(2024)
    for arr in model.parameters().values():
        arr[...] = (2.0 * rng.uniforms_open(arr.size) - 1.0).reshape(arr.shape)
    return model


def test_golden_checkpoint_bytes(tmp_path):
    model = golden_model()
    assert model_digest(model) == MODEL_DIGEST
    dense = tmp_path / "m.ckpt"
    storage.save_checkpoint(dense, model)
    assert (_sha256(dense), _sha256(tmp_path / "m.ckpt.json")) == DENSE
    replace_linears(model, MODE_TERNARY, 2.0)
    ternary = tmp_path / "m.tckpt"
    storage.save_ternary_checkpoint(ternary, model)
    assert (_sha256(ternary), _sha256(tmp_path / "m.tckpt.json")) == TERNARY
    assert model_digest(model) == MODEL_DIGEST


# -- packed kernel -------------------------------------------------------------

KERNEL = {
    "64x64-beta2.0": "aa2c3977863a1c536d89b019a4d004346790cd87732702097db9135c07ca0143",
    "64x64-beta0.75": "d7ba4f5fe196b74cab787a989ead739c022720e0044f4dd178c6de82e568a556",
    "256x64-beta2.0": "e5b3e88d35cd843524fca3c13f52aa6d7b5d694fba20c3666d92a88d4771dace",
    "256x64-beta0.75": "422df8ad485ad41a729700d4eec578073bb776546348bf479dd0ef1367e906d4",
    "64x256-beta2.0": "fce0b3a14a63a535c36c2c2c67f5aa97323c40292fb914e5c047ad5724ac1323",
    "64x256-beta0.75": "770dec1da99d87c4c6d4cf1af9860e46496c661fa4884a3199d352ae5ce2016c",
    "all-zero": "2265010b91df6616caa8215e8202b7c571d63d7be396621f3fadffd03b76b165",
    "empty-rows": "2832a97b64c7715647fbe2ea1c4aa24b259f78f99ab8f4db786f31e9fddc53a0",
    "ragged-cols": "f75e05a4c2659f563df5cd951db37f168d501694ef45e95eb4b272b8fc75debc",
}


def _uniform(rng: Rng, *shape) -> np.ndarray:
    """Bit-portable float32 draws in (-1, 1]."""
    n = int(np.prod(shape))
    return (2.0 * rng.uniforms_open(n) - 1.0).reshape(shape).astype(np.float32)


def _cubic_layer(rows: int, cols: int, beta: float, seed: int) -> TernaryMatrix:
    # cubing spreads the uniforms so beta 2 leaves ~20% of the trits nonzero
    w = (_uniform(Rng(seed), rows, cols).astype(np.float64) ** 3).astype(np.float32)
    return ternarize(w, compute_threshold(w, beta))


def _kernel_layers() -> dict[str, TernaryMatrix]:
    layers = {}
    for i, (rows, cols) in enumerate(((64, 64), (256, 64), (64, 256))):
        for beta in (2.0, 0.75):
            layers[f"{rows}x{cols}-beta{beta}"] = _cubic_layer(rows, cols, beta, 100 + i)
    layers["all-zero"] = TernaryMatrix(16, 24, np.zeros((16, 24), np.int8), 0.5)
    t = _cubic_layer(40, 32, 0.75, 200)
    t.trits[::3] = 0
    t.trits[-4:] = 0  # trailing empty rows too
    layers["empty-rows"] = t
    layers["ragged-cols"] = _cubic_layer(37, 29, 0.75, 300)
    return layers


def _kernel_digest(t: TernaryMatrix, seed: int) -> str:
    rng = Rng(seed)
    x = _uniform(rng, t.cols, 512)
    xt = _uniform(rng, 512, t.cols)
    bias = _uniform(rng, t.rows)
    h = hashlib.sha256()
    for b in (None, bias):
        p = pack(t, bias=b)
        for out in (packed_gemv(p, x[:, 0]), packed_gemm(p, x[:, :1]),
                    packed_gemm(p, x), packed_gemm(p, xt.T)):
            h.update(out.astype("<f4").tobytes())
    return h.hexdigest()


def test_golden_kernel_outputs():
    got = {name: _kernel_digest(t, 7) for name, t in _kernel_layers().items()}
    assert got == KERNEL
