import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import max_rel_err, random_matrix
from ternkit.packed import (PACKED_RECORD_HEADER_BYTES, PackedTernaryMatrix,
                            PlaneIntegrityError, _plane_trits, pack, packed_gemm,
                            packed_gemv, storage_bytes)
from ternkit.rng import Rng
from ternkit.ternary import TernaryMatrix, compute_threshold, ternarize


def trit_matrices(max_side=20):
    return st.integers(1, max_side).flatmap(
        lambda r: st.integers(1, max_side).flatmap(
            lambda c: arrays(np.int8, (r, c), elements=st.sampled_from([-1, 0, 1]))))


def make_ternary(trits, gamma=1.0):
    trits = np.asarray(trits, dtype=np.int8)
    return TernaryMatrix(trits.shape[0], trits.shape[1], trits, gamma)


def test_pack_hand_encoding():
    p = pack(make_ternary([[1, 0], [-1, 1]]))
    assert p.plus_plane.ravel().tolist() == [0x01, 0x02]
    assert p.minus_plane.ravel().tolist() == [0x00, 0x01]


def test_pack_all_zero():
    p = pack(make_ternary(np.zeros((3, 10), np.int8)))
    assert not p.plus_plane.any() and not p.minus_plane.any()


def test_single_plus_at_origin():
    trits = np.zeros((2, 9), np.int8)
    trits[0, 0] = 1
    p = pack(make_ternary(trits))
    assert p.plus_plane[0, 0] == 0x01
    assert p.plus_plane.sum() == 1


def test_pack_bias_length_mismatch():
    with pytest.raises(ValueError):
        pack(make_ternary([[1, 0]]), bias=np.zeros(3, np.float32))


@given(trit_matrices())
@settings(max_examples=150, deadline=None)
def test_pack_unpack_round_trip(trits):
    t = make_ternary(trits, gamma=0.5)
    p = pack(t)
    assert np.array_equal(_plane_trits(p), t.trits)
    assert p.gamma == t.gamma


def test_round_trip_1000_ragged_cols():
    rng = Rng(55)
    for _ in range(1000):
        rows = 1 + int(rng.integers(12, 1)[0])
        cols = 1 + int(rng.integers(30, 1)[0])
        if cols % 8 == 0:
            cols += 1  # keep the padding path exercised
        w = random_matrix(rng, rows, cols)
        t = ternarize(w, compute_threshold(w, 1.0))
        p = pack(t)
        assert np.array_equal(_plane_trits(p), t.trits)
        assert p.gamma == t.gamma


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
    p = pack(make_ternary(np.eye(2, dtype=np.int8), gamma=1.5))
    out = packed_gemv(p, np.array([2.0, 4.0], np.float32))
    assert np.allclose(out, [3.0, 6.0])


def test_gemv_zero_trits_gives_bias():
    bias = np.array([1.0, -2.0, 3.0], np.float32)
    p = pack(make_ternary(np.zeros((3, 4), np.int8)), bias=bias)
    assert np.array_equal(packed_gemv(p, np.ones(4, np.float32)), bias)
    p2 = pack(make_ternary(np.zeros((3, 4), np.int8)))
    assert np.array_equal(packed_gemv(p2, np.ones(4, np.float32)), np.zeros(3, np.float32))


def test_gemv_length_mismatch():
    p = pack(make_ternary([[1, 0]]))
    with pytest.raises(ValueError):
        packed_gemv(p, np.ones(3, np.float32))


def test_gemv_matches_dense_oracle():
    rng = Rng(500)
    for i in range(500):
        rows = 1 + int(rng.integers(24, 1)[0])
        cols = 1 + int(rng.integers(40, 1)[0])
        w = random_matrix(rng, rows, cols)
        t = ternarize(w, compute_threshold(w, [0.75, 1.0, 2.0][i % 3]))
        bias = rng.normals(rows).astype(np.float32) if i % 2 else None
        p = pack(t, bias=bias)
        x = rng.normals(cols).astype(np.float32)
        want = t.dense().astype(np.float64) @ x.astype(np.float64)
        if bias is not None:
            want = want + bias
        assert max_rel_err(packed_gemv(p, x), want) <= 1e-5


def test_gemm_single_column_reduces_to_gemv():
    rng = Rng(9)
    w = random_matrix(rng, 6, 11)
    t = ternarize(w, compute_threshold(w, 2.0))
    p = pack(t, bias=rng.normals(6).astype(np.float32))
    x = rng.normals(11).astype(np.float32)
    assert np.array_equal(packed_gemm(p, x[:, None])[:, 0], packed_gemv(p, x))


def test_gemm_matches_dense_oracle():
    rng = Rng(10)
    for _ in range(20):
        w = random_matrix(rng, 9, 13)
        t = ternarize(w, compute_threshold(w, 1.0))
        p = pack(t)
        x = random_matrix(rng, 13, 7)
        want = t.dense().astype(np.float64) @ x.astype(np.float64)
        assert max_rel_err(packed_gemm(p, x), want) <= 1e-5


def test_gemm_zero_input_broadcasts_bias():
    bias = np.array([5.0, -1.0], np.float32)
    p = pack(make_ternary([[1, -1, 0], [0, 1, 1]]), bias=bias)
    out = packed_gemm(p, np.zeros((3, 4), np.float32))
    assert np.array_equal(out, np.repeat(bias[:, None], 4, axis=1))


def test_gemm_shape_mismatch():
    p = pack(make_ternary([[1, 0]]))
    with pytest.raises(ValueError):
        packed_gemm(p, np.zeros((3, 2), np.float32))


def test_storage_bytes_256():
    t = make_ternary(np.zeros((256, 256), np.int8))
    p = pack(t)
    assert storage_bytes(p) == 2 * 256 * 32 + 4 + PACKED_RECORD_HEADER_BYTES
    dense_bytes = 4 * 256 * 256
    assert (2 * 256 * 32 + 4) / dense_bytes == pytest.approx(0.0625, abs=1e-3)


def test_storage_bytes_1x1():
    p = pack(make_ternary([[1]]))
    assert storage_bytes(p) == 2 + 4 + PACKED_RECORD_HEADER_BYTES


def test_storage_bytes_with_bias():
    p = pack(make_ternary(np.zeros((8, 8), np.int8)), bias=np.zeros(8, np.float32))
    assert storage_bytes(p) == 2 * 8 * 1 + 4 + 4 * 8 + PACKED_RECORD_HEADER_BYTES


def test_storage_ratio_bound_for_square_sizes():
    for side in (256, 384, 512, 1024):
        t = make_ternary(np.zeros((side, side), np.int8))
        ratio = storage_bytes(pack(t)) / (4 * side * side)
        assert ratio <= 0.07
