import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ternkit.packed
from conftest import init_model, max_rel_err, plane_dense, random_matrix
from ternkit.distill import mse_loss
from ternkit.encoder import (EncoderConfig, EncoderModel, LinearLayer,
                             MODE_FULL, MODE_TERNARY, PackedEncoder,
                             architecture_parity, export_packed, model_digest,
                             replace_linears)
from ternkit.rng import Rng
from ternkit.ternary import compute_threshold, ternarize


def small_config(seed=3):
    return EncoderConfig(input_dim=8, hidden_dim=8, output_dim=8, num_blocks=2, seed=seed)


def finite_difference_grads(model, x, target, h=1e-3):
    fd = {}
    for name, p in model.parameters().items():
        g = np.zeros_like(p)
        flat, gflat = p.reshape(-1), g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp, _ = mse_loss(model.forward(x), target)
            flat[i] = orig - h
            lm, _ = mse_loss(model.forward(x), target)
            flat[i] = orig
            gflat[i] = (lp - lm) / (2 * h)
        fd[name] = g
    return fd


def test_zero_weight_model_gives_zero_embeddings():
    config = EncoderConfig(4, 4, 4, 1, seed=0)
    model = EncoderModel.init(config)
    for _, layer in model.linear_layers():
        layer.weight[:] = 0.0
        layer.bias[:] = 0.0
    x = random_matrix(Rng(1), 5, 4)
    assert np.abs(model.forward(x)).max() == 0.0


def test_single_ternary_layer_hand_forward():
    layer = LinearLayer(np.array([[3, -1], [2, 0]], np.float32),
                        np.zeros(2, np.float32), mode=MODE_TERNARY, beta=1.0)
    out = layer.forward(np.array([[1.0, 1.0]], np.float32))
    assert np.allclose(out, [[1.5, 1.5]])


def test_ste_gradient_exact_hand_case():
    layer = LinearLayer(np.array([[3, -1], [2, 0]], np.float32),
                        np.zeros(2, np.float32), mode=MODE_TERNARY, beta=1.0)
    x = np.array([[1.0, 1.0]], np.float32)
    y = layer.forward(x)
    dx = layer.backward(np.ones_like(y))
    # loss = sum(y), y = gamma * trits @ x with gamma = 1.5
    assert np.array_equal(layer.grad_weight,
                          np.float32(1.5) * np.ones((2, 2), np.float32))
    assert np.array_equal(layer.grad_bias, np.ones(2, np.float32))
    assert np.array_equal(dx, np.array([[3.0, 0.0]], np.float32))


def test_forward_deterministic_per_seed():
    x = random_matrix(Rng(8), 6, 8)
    a = EncoderModel.init(small_config()).forward(x)
    b = EncoderModel.init(small_config()).forward(x)
    assert np.array_equal(a, b)


def test_forward_rejects_bad_shapes():
    model = EncoderModel.init(small_config())
    with pytest.raises(ValueError):
        model.forward(np.zeros((3, 5), np.float32))
    with pytest.raises(ValueError):
        model.forward(np.zeros(8, np.float32))


def test_backward_before_forward_errors():
    model = EncoderModel.init(small_config())
    with pytest.raises(RuntimeError):
        model.backward(np.zeros((2, 8), np.float32))


def test_inference_forward_caches_nothing():
    model = replace_linears(EncoderModel.init(small_config()), MODE_TERNARY, 2.0)
    out = model.forward(random_matrix(Rng(5), 4, 8))
    parts = [*(layer for _, layer in model.linear_layers()), *model.blocks]
    assert len(parts) == 3 * model.config.num_blocks + 2
    assert all(p._cache is None for p in parts)
    with pytest.raises(RuntimeError):
        model.backward(np.zeros_like(out))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("mode", [MODE_FULL, MODE_TERNARY])
def test_forward_equals_train_forward_bitwise(mode, dtype):
    model = init_model(small_config(), dtype, mode, 2.0)
    x = random_matrix(Rng(7), 6, 8).astype(dtype)
    got, want = model.forward(x), model.train_forward(x)
    assert got.dtype == want.dtype == dtype
    assert got.tobytes() == want.tobytes()


def test_zero_upstream_gradient_gives_zero_grads():
    model = EncoderModel.init(small_config())
    x = random_matrix(Rng(5), 4, 8)
    out = model.train_forward(x)
    grads = model.backward(np.zeros_like(out))
    assert all(np.abs(g).max() == 0.0 for g in grads.values())


def test_full_precision_gradients_match_finite_differences():
    model = init_model(small_config(), np.float64)
    rng = Rng(21)
    x = rng.normals(4 * 8).reshape(4, 8)
    target = rng.normals(4 * 8).reshape(4, 8)
    loss, dpred = mse_loss(model.train_forward(x), target)
    analytic = model.backward(dpred)
    fd = finite_difference_grads(model, x, target, h=1e-3)
    for name in analytic:
        scale = max(np.abs(analytic[name]).max(), np.abs(fd[name]).max(), 1e-8)
        rel = np.abs(analytic[name] - fd[name]).max() / scale
        assert rel <= 1e-3, f"{name}: rel err {rel}"


def test_architecture_parity_and_clone():
    teacher = EncoderModel.init(small_config())
    student = replace_linears(teacher.clone(), MODE_TERNARY, 2.0)
    assert architecture_parity(teacher, student)
    pa, pb = teacher.parameters(), student.parameters()
    for k in pa:
        assert pa[k].shape == pb[k].shape
        assert np.array_equal(pa[k], pb[k])  # weight inheritance


def test_replace_linears_round_trip_restores_outputs():
    model = EncoderModel.init(small_config())
    x = random_matrix(Rng(3), 5, 8)
    before = model.forward(x)
    replace_linears(model, MODE_TERNARY, 2.0)
    replace_linears(model, MODE_FULL)
    assert np.array_equal(model.forward(x), before)


def test_replace_linears_propagates_beta():
    model = EncoderModel.init(small_config())
    replace_linears(model, MODE_TERNARY, 3.5)
    assert all(layer.beta == 3.5 and layer.mode == MODE_TERNARY
               for _, layer in model.linear_layers())


def test_ptq_consistency_is_exact():
    teacher = EncoderModel.init(small_config(seed=17))
    student = replace_linears(teacher.clone(), MODE_TERNARY, 2.0)
    manual = teacher.clone()
    for _, layer in manual.linear_layers():
        gamma = compute_threshold(layer.weight, 2.0)
        layer.weight = plane_dense(ternarize(layer.weight, gamma))
    x = random_matrix(Rng(4), 7, 8)
    assert np.array_equal(student.forward(x), manual.forward(x))


def test_export_requires_ternary_mode():
    model = EncoderModel.init(small_config())
    with pytest.raises(ValueError):
        export_packed(model)


def test_export_zero_weight_layer():
    model = EncoderModel.init(EncoderConfig(4, 4, 4, 1, seed=0))
    for _, layer in model.linear_layers():
        layer.weight[:] = 0.0
    replace_linears(model, MODE_TERNARY, 2.0)
    for p in export_packed(model):
        assert p.gamma == 0.0
        assert not p.plus_plane.any() and not p.minus_plane.any()


def test_packed_encoder_matches_dense_ternary_path():
    config = EncoderConfig(12, 16, 10, 2, seed=31)
    model = replace_linears(EncoderModel.init(config), MODE_TERNARY, 2.0)
    packed = PackedEncoder.from_model(model)
    x = random_matrix(Rng(6), 20, 12)
    assert max_rel_err(packed.forward(x), model.forward(x)) <= 1e-4


def test_packed_encoder_with_mixed_operands_matches_ste_forward():
    # beta 0.75 leaves ~55% of Gaussian trits nonzero (dense operand), beta 2 ~11% (CSR)
    model = replace_linears(EncoderModel.init(EncoderConfig(12, 16, 10, 2, seed=31)),
                            MODE_TERNARY, 2.0)
    for i, (_, layer) in enumerate(model.linear_layers()):
        layer.beta = 0.75 if i % 2 else 2.0
    packed = PackedEncoder.from_model(model)
    kinds = [isinstance(p.operand(), np.ndarray) for p in packed.packed_layers]
    assert kinds == [bool(i % 2) for i in range(len(kinds))]
    for rows in (1, 20):
        x = random_matrix(Rng(6), rows, 12)
        assert max_rel_err(packed.forward(x), model.forward(x)) <= 1e-5


def test_model_digest_tracks_weight_changes():
    model = EncoderModel.init(small_config())
    d1 = model_digest(model)
    assert d1 == model_digest(model)
    model.input_proj.weight[0, 0] += 1.0
    assert model_digest(model) != d1


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_ternary_forward_rejects_non_finite_weight(bad):
    layer = LinearLayer(random_matrix(Rng(8), 5, 4), np.zeros(5, np.float32),
                        mode=MODE_TERNARY)
    layer.weight[3, 1] = bad
    with pytest.raises(ValueError):
        layer.forward(np.ones((2, 4), np.float32))


@pytest.mark.parametrize("min_fill, dense", [(0.0, True), (2.0, False)])
def test_row_embedded_alone_equals_its_row_in_a_batch(monkeypatch, min_fill, dense):
    """Embeddings are batch-invariant: a row embedded alone gives the same
    bytes as its row in a batch of 7 and in a batch of 512, for the
    full-precision and STE forwards and for PackedEncoder with every packed
    operand dense (fill 0) or CSR (fill 2, never reached)."""
    monkeypatch.setattr(ternkit.packed, "_DENSE_MIN_FILL", min_fill)
    config = EncoderConfig(input_dim=64, hidden_dim=256, output_dim=64, num_blocks=2, seed=4)
    full = EncoderModel.init(config)
    ste = replace_linears(full.clone(), MODE_TERNARY, 2.0)
    packed = PackedEncoder.from_model(ste)
    assert all(isinstance(p.operand(), np.ndarray) is dense for p in packed.packed_layers)
    x = Rng(6).normals(512 * 64).reshape(512, 64).astype(np.float32)
    for model in (full, ste, packed):
        batches = {7: model.forward(x[:7]), 512: model.forward(x)}
        for i in (0, 3, 6, 200, 511):
            alone = model.forward(x[i:i + 1])
            for size, out in batches.items():
                if i < size:
                    assert alone.tobytes() == out[i:i + 1].tobytes(), (type(model), i, size)


# a fresh interpreter, so modules other tests imported do not count
SPARSE_PROBE = """
import sys
import numpy as np
from ternkit.encoder import EncoderConfig, EncoderModel, MODE_TERNARY, PackedEncoder, replace_linears
model = replace_linears(EncoderModel.init(EncoderConfig(32, 32, 32, 2, seed=5)), MODE_TERNARY, {beta})
packed = PackedEncoder.from_model(model)
packed.forward(np.ones((3, 32), np.float32))
print(sorted({{isinstance(p.operand(), np.ndarray) for p in packed.packed_layers}}),
      "scipy.sparse" in sys.modules)
"""


@pytest.mark.parametrize("beta, dense, loaded", [(0.75, True, False), (2.0, False, True)])
def test_scipy_sparse_loads_only_for_a_csr_layer(beta, dense, loaded):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", SPARSE_PROBE.format(beta=beta)], env=env,
                         capture_output=True, text=True, check=True).stdout.split()
    assert out == [f"[{dense}]", str(loaded)]
