import math

import numpy as np
import pytest
from scipy.special import erf

from conftest import random_matrix
from ternkit import tensor
from ternkit.rng import Rng
from ternkit.tensor import as_matrix, gaussian_fill, gelu, gelu_grad, layer_norm, matmul


def naive_matmul(a, b):
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.float64)
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            acc = 0.0
            for k in range(a.shape[1]):
                acc += float(a[i, k]) * float(b[k, j])
            out[i, j] = acc
    return out


def test_matmul_identity_case():
    m = np.array([[1, 2], [3, 4]], dtype=np.float32)
    assert np.array_equal(matmul(np.eye(2, dtype=np.float32), m), m)


def test_matmul_projector_case():
    p = np.array([[1, 0], [0, 0]], dtype=np.float32)
    x = np.array([[5], [7]], dtype=np.float32)
    assert np.array_equal(matmul(p, x), np.array([[5], [0]], dtype=np.float32))


def test_matmul_identity_exact_on_random():
    rng = Rng(10)
    a = random_matrix(rng, 17, 17)
    assert np.array_equal(matmul(a, np.eye(17, dtype=np.float32)), a)


def test_matmul_against_naive_oracle():
    rng = Rng(77)
    for _ in range(100):
        a = random_matrix(rng, 7, 5)
        b = random_matrix(rng, 5, 3)
        got = matmul(a, b).astype(np.float64)
        want = naive_matmul(a, b)
        assert np.abs(got - want).max() <= 1e-6 * (1.0 + np.abs(want).max())


def test_matmul_against_naive_oracle_larger():
    rng = Rng(78)
    a = random_matrix(rng, 64, 64)
    b = random_matrix(rng, 64, 64)
    got = matmul(a, b).astype(np.float64)
    want = naive_matmul(a, b)
    assert np.abs(got - want).max() <= 1e-6 * (1.0 + np.abs(want).max())


def test_matmul_shape_mismatch():
    with pytest.raises(ValueError):
        matmul(np.zeros((2, 3), np.float32), np.zeros((2, 3), np.float32))


def test_matmul_result_is_float32():
    out = matmul(np.ones((2, 2), np.float32), np.ones((2, 2), np.float32))
    assert out.dtype == np.float32


def test_gaussian_fill_moments():
    m = gaussian_fill(Rng(42), 1000, 1000, 1.0)
    assert m.dtype == np.float32
    assert abs(float(m.mean())) < 0.01
    assert 0.99 < float(m.std()) < 1.01


def test_gaussian_fill_deterministic():
    a = gaussian_fill(Rng(42), 40, 25, 0.5)
    b = gaussian_fill(Rng(42), 40, 25, 0.5)
    assert np.array_equal(a, b)


def test_gaussian_fill_rejects_bad_sigma():
    with pytest.raises(ValueError):
        gaussian_fill(Rng(1), 2, 2, 0.0)
    with pytest.raises(ValueError):
        gaussian_fill(Rng(1), 2, 2, -1.0)


def test_gelu_at_zero_and_signs():
    assert gelu(np.array([0.0], np.float32))[0][0] == 0.0
    x = np.array([-3.0, -0.5, 0.5, 3.0], np.float32)
    y, _ = gelu(x)
    assert y[3] == pytest.approx(3.0, abs=1e-2)
    assert abs(y[0]) < 0.01


def test_gelu_grad_matches_finite_difference():
    x = np.linspace(-3, 3, 41)
    h = 1e-6
    fd = (gelu(x + h)[0] - gelu(x - h)[0]) / (2 * h)
    assert np.abs(gelu_grad(x, gelu(x)[1]) - fd).max() < 1e-6


def test_layer_norm_constant_row_zeroes_out():
    x = np.full((3, 8), 2.5, dtype=np.float32)
    gain = np.ones(8, np.float32)
    shift = np.zeros(8, np.float32)
    assert np.abs(layer_norm(x, gain, shift)).max() == 0.0


def test_layer_norm_statistics():
    rng = Rng(3)
    x = random_matrix(rng, 6, 32, sigma=2.0)
    y = layer_norm(x, np.ones(32, np.float32), np.zeros(32, np.float32))
    assert np.abs(y.mean(axis=1)).max() < 1e-5
    assert np.abs(y.std(axis=1) - 1.0).max() < 1e-2


def test_layer_norm_gain_shift():
    x = np.array([[1.0, 2.0, 3.0, 4.0]], np.float32)
    gain = np.full(4, 2.0, np.float32)
    shift = np.full(4, 1.0, np.float32)
    plain = layer_norm(x, np.ones(4, np.float32), np.zeros(4, np.float32))
    assert np.allclose(layer_norm(x, gain, shift), 2.0 * plain + 1.0, atol=1e-6)


def test_layer_norm_does_not_call_layer_norm_with_cache(monkeypatch):
    """Both public functions share one core, so an inference layer norm is
    one call (one `tensor.layer_norm` span in a traced run), with the same bits."""
    x = random_matrix(Rng(5), 7, 16, sigma=3.0)
    gain = random_matrix(Rng(6), 1, 16).reshape(-1)
    shift = random_matrix(Rng(7), 1, 16).reshape(-1)
    want = tensor.layer_norm_with_cache(x, gain, shift)[0]

    def boom(*args):
        raise AssertionError("layer_norm went through layer_norm_with_cache")

    monkeypatch.setattr(tensor, "layer_norm_with_cache", boom)
    assert tensor.layer_norm(x, gain, shift).tobytes() == want.tobytes()


def test_as_matrix_validation():
    with pytest.raises(ValueError):
        as_matrix(np.zeros(3, np.float32))
    with pytest.raises(ValueError):
        as_matrix(np.zeros((0, 3), np.float32))
    with pytest.raises(ValueError):
        as_matrix(np.array([[np.nan]], np.float32))


def test_gelu_bytes_match_erf_reference():
    x = np.concatenate([random_matrix(Rng(6), 64, 64).ravel() * 4,
                        np.array([0.0, -0.0, 1e-30, -1e-30, 40.0, -40.0, 3e38, -3e38])])
    x = x.astype(np.float32)
    x64 = x.astype(np.float64)
    want = (0.5 * x64 * (1.0 + erf(x64 * (1.0 / math.sqrt(2.0))))).astype(np.float32)
    y, _ = gelu(x)
    assert y.dtype == np.float32 and y.tobytes() == want.tobytes()
