"""Golden guard: checkpoint bytes, sidecars and model digests are pinned.

The weights come from ``Rng.uniforms_open``, whose draws are bit-portable
(normal variates are only stable per platform), so these hashes hold on any
platform. A change to either checkpoint writer, the sidecar layout or the
parameter walk shows up here as a hash mismatch.
"""

import hashlib

from ternkit import storage
from ternkit.encoder import (EncoderConfig, EncoderModel, MODE_TERNARY, model_digest,
                             replace_linears)
from ternkit.rng import Rng

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
