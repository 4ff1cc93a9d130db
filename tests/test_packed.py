import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import max_rel_err, random_matrix
from ternkit.packed import PackedTernaryMatrix, PlaneIntegrityError, _plane_trits, packed_gemm
from ternkit.rng import Rng
from ternkit.storage import storage_bytes
from ternkit.ternary import compute_threshold, ternarize, ternary_dense


def trit_matrices(max_side=20):
    return st.integers(1, max_side).flatmap(
        lambda r: st.integers(1, max_side).flatmap(
            lambda c: arrays(np.int8, (r, c), elements=st.sampled_from([-1, 0, 1]))))


def make_ternary(trits, gamma=1.0, bias=None):
    """Packed matrix holding `trits`: each +-1 scaled to +-2*gamma lies outside
    the band [-gamma, gamma] and each 0 inside it."""
    trits = np.asarray(trits, dtype=np.float32)
    return ternarize(2 * gamma * trits, gamma, bias)


def test_pack_hand_encoding():
    p = make_ternary([[1, 0], [-1, 1]])
    assert p.plus_plane.ravel().tolist() == [0x01, 0x02]
    assert p.minus_plane.ravel().tolist() == [0x00, 0x01]


def test_pack_all_zero():
    p = make_ternary(np.zeros((3, 10), np.int8))
    assert not p.plus_plane.any() and not p.minus_plane.any()


def test_single_plus_at_origin():
    trits = np.zeros((2, 9), np.int8)
    trits[0, 0] = 1
    p = make_ternary(trits)
    assert p.plus_plane[0, 0] == 0x01
    assert p.plus_plane.sum() == 1


def test_pack_bias_length_mismatch():
    with pytest.raises(ValueError):
        make_ternary([[1, 0]], bias=np.zeros(3, np.float32))


@given(trit_matrices())
@settings(max_examples=150, deadline=None)
def test_pack_unpack_round_trip(trits):
    p = make_ternary(trits, gamma=0.5)
    assert np.array_equal(_plane_trits(p), trits)
    assert p.gamma == 0.5


def test_round_trip_1000_ragged_cols():
    rng = Rng(55)
    for _ in range(1000):
        rows = 1 + int(rng.integers(12, 1)[0])
        cols = 1 + int(rng.integers(30, 1)[0])
        if cols % 8 == 0:
            cols += 1  # keep the padding path exercised
        w = random_matrix(rng, rows, cols)
        gamma = compute_threshold(w, 1.0)
        p = ternarize(w, gamma)
        assert np.array_equal(_plane_trits(p), np.sign(w) * (np.abs(w) > gamma))
        assert p.gamma == float(np.float32(gamma))


def test_overlapping_planes_rejected():
    with pytest.raises(PlaneIntegrityError):
        PackedTernaryMatrix(1, 3, np.array([[0b101]], np.uint8),
                            np.array([[0b001]], np.uint8), 1.0)


def test_dirty_padding_rejected():
    # cols=3 leaves bits 3..7 as padding
    with pytest.raises(PlaneIntegrityError):
        PackedTernaryMatrix(1, 3, np.array([[0b1000]], np.uint8),
                            np.array([[0]], np.uint8), 1.0)


def test_gemv_identity_scaled():
    p = make_ternary(np.eye(2, dtype=np.int8), gamma=1.5)
    out = packed_gemm(p, np.array([[2.0], [4.0]], np.float32))
    assert np.allclose(out, [[3.0], [6.0]])


def test_gemv_zero_trits_gives_bias():
    bias = np.array([1.0, -2.0, 3.0], np.float32)
    p = make_ternary(np.zeros((3, 4), np.int8), bias=bias)
    assert np.array_equal(packed_gemm(p, np.ones((4, 1), np.float32)), bias[:, None])
    p2 = make_ternary(np.zeros((3, 4), np.int8))
    assert np.array_equal(packed_gemm(p2, np.ones((4, 1), np.float32)),
                          np.zeros((3, 1), np.float32))


def test_gemv_length_mismatch():
    p = make_ternary([[1, 0]])
    with pytest.raises(ValueError):
        packed_gemm(p, np.ones((3, 1), np.float32))
    with pytest.raises(ValueError):  # a vector is passed as one column
        packed_gemm(p, np.ones(2, np.float32))


def test_gemv_matches_dense_oracle():
    rng = Rng(500)
    for i in range(500):
        rows = 1 + int(rng.integers(24, 1)[0])
        cols = 1 + int(rng.integers(40, 1)[0])
        w = random_matrix(rng, rows, cols)
        beta = [0.75, 1.0, 2.0][i % 3]
        bias = rng.normals(rows).astype(np.float32) if i % 2 else None
        p = ternarize(w, compute_threshold(w, beta), bias)
        x = rng.normals(cols).astype(np.float32)
        want = ternary_dense(w, beta)[0].astype(np.float64) @ x.astype(np.float64)
        if bias is not None:
            want = want + bias
        assert max_rel_err(packed_gemm(p, x[:, None])[:, 0], want) <= 1e-5


def test_gemm_matches_dense_oracle():
    rng = Rng(10)
    for _ in range(20):
        w = random_matrix(rng, 9, 13)
        p = ternarize(w, compute_threshold(w, 1.0))
        x = random_matrix(rng, 13, 7)
        want = ternary_dense(w, 1.0)[0].astype(np.float64) @ x.astype(np.float64)
        assert max_rel_err(packed_gemm(p, x), want) <= 1e-5


@pytest.mark.parametrize("with_bias", [False, True])
@pytest.mark.parametrize("beta, dense", [(2.0, False), (0.75, True)])
def test_products_bytes_equal_operand_product(beta, dense, with_bias):
    """packed_gemm rounds the same float64 sums as a plain product with the
    operand, for either operand, any batch and any layout."""
    rng = Rng(41)
    w = random_matrix(rng, 48, 40)
    bias = rng.normals(48).astype(np.float32) if with_bias else None
    p = ternarize(w, compute_threshold(w, beta), bias)
    assert isinstance(p.operand(), np.ndarray) == dense  # beta 2 keeps ~11% of trits

    def reference(x):
        y = np.float64(p.gamma) * (p.operand() @ np.ascontiguousarray(x, dtype=np.float64))
        if bias is not None:
            y = y + bias.astype(np.float64)[:, None]
        return y.astype(np.float32)

    x = random_matrix(rng, 40, 512)
    x[:4, 0] = [0.0, -0.0, 1e-40, -3e30]
    for batch in (1, 2, 512):
        c = np.ascontiguousarray(x[:, :batch])
        for xb in (c, np.asfortranarray(c)):
            got = packed_gemm(p, xb)
            assert got.dtype == np.float32 and got.tobytes() == reference(xb).tobytes()


def test_gemm_zero_input_broadcasts_bias():
    bias = np.array([5.0, -1.0], np.float32)
    p = make_ternary([[1, -1, 0], [0, 1, 1]], bias=bias)
    out = packed_gemm(p, np.zeros((3, 4), np.float32))
    assert np.array_equal(out, np.repeat(bias[:, None], 4, axis=1))


def test_gemm_shape_mismatch():
    p = make_ternary([[1, 0]])
    with pytest.raises(ValueError):
        packed_gemm(p, np.zeros((3, 2), np.float32))


def test_storage_bytes_256():
    p = make_ternary(np.zeros((256, 256), np.int8))
    assert storage_bytes(p) == 2 * 256 * 32 + 19
    dense_bytes = 4 * 256 * 256
    assert (2 * 256 * 32 + 4) / dense_bytes == pytest.approx(0.0625, abs=1e-3)


def test_storage_bytes_1x1():
    p = make_ternary([[1]])
    assert storage_bytes(p) == 2 + 19


def test_storage_bytes_with_bias():
    p = make_ternary(np.zeros((8, 8), np.int8), bias=np.zeros(8, np.float32))
    assert storage_bytes(p) == 2 * 8 * 1 + 4 * 8 + 19


def test_storage_ratio_bound_for_square_sizes():
    for side in (256, 384, 512, 1024):
        ratio = storage_bytes(make_ternary(np.zeros((side, side), np.int8))) / (4 * side * side)
        assert ratio <= 0.07
