import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import plane_dense, random_matrix
from ternkit.packed import _plane_trits
from ternkit.rng import Rng
from ternkit.ternary import beta_sweep, compute_threshold, sparsity, ternarize, ternary_dense

finite_f32 = st.floats(min_value=-100, max_value=100, width=32,
                       allow_nan=False, allow_infinity=False)


def weight_matrices(max_side=12):
    return st.integers(1, max_side).flatmap(
        lambda r: st.integers(1, max_side).flatmap(
            lambda c: arrays(np.float32, (r, c), elements=finite_f32)))


def gaussian_sparsity(beta: float) -> float:
    """Analytic zero fraction for N(0,1) weights: 2*Phi(beta*sqrt(2/pi)) - 1."""
    gamma = beta * math.sqrt(2.0 / math.pi)
    return math.erf(gamma / math.sqrt(2.0))


def test_threshold_hand_case():
    w = np.array([[3, -1], [2, 0]], dtype=np.float32)
    assert compute_threshold(w, 1.0) == pytest.approx(1.5)


def test_threshold_all_zero():
    assert compute_threshold(np.zeros((4, 4), np.float32), 7.0) == 0.0


def test_threshold_ones_beta_two():
    assert compute_threshold(np.ones((2, 2), np.float32), 2.0) == pytest.approx(2.0)


def test_threshold_rejects_bad_beta():
    with pytest.raises(ValueError):
        compute_threshold(np.ones((2, 2), np.float32), 0.0)


def test_ternarize_hand_case():
    w = np.array([[3, -1], [2, 0]], dtype=np.float32)
    t = ternarize(w, 1.5)
    assert _plane_trits(t).tolist() == [[1, 0], [1, 0]]
    assert t.gamma == pytest.approx(1.5)


def test_ternarize_zero_threshold_is_sign():
    w = np.array([[0.5, -0.25, 0.0]], dtype=np.float32)
    t = ternarize(w, 0.0)
    assert _plane_trits(t).tolist() == [[1, -1, 0]]


def test_ternarize_band_absorbs_everything():
    w = np.array([[0.5, -0.5], [0.1, 0.0]], dtype=np.float32)
    t = ternarize(w, 0.5)
    # boundary |w| == gamma lands in the zero band
    assert not _plane_trits(t).any()


def test_ternarize_rejects_negative_gamma():
    with pytest.raises(ValueError):
        ternarize(np.ones((1, 1), np.float32), -0.1)


def test_all_zero_matrix_pipeline():
    w = np.zeros((3, 5), np.float32)
    gamma = compute_threshold(w, 2.0)
    t = ternarize(w, gamma)
    assert gamma == 0.0 and not _plane_trits(t).any()


def test_sparsity_count():
    t = ternarize(np.array([[1, 0], [1, 0]], np.float32), 0.5)
    assert sparsity(t) == 0.5


@given(weight_matrices(), st.floats(0.1, 5.0), st.floats(0.01, 100.0))
@settings(max_examples=100, deadline=None)
def test_scale_equivariance_of_trits(w, beta, c):
    g1 = compute_threshold(w, beta)
    scaled = (w.astype(np.float64) * c).astype(np.float32)
    g2 = compute_threshold(scaled, beta)
    assert g2 == pytest.approx(c * g1, rel=1e-5, abs=1e-12)
    assert np.array_equal(_plane_trits(ternarize(w, g1)), _plane_trits(ternarize(scaled, g2)))


@given(weight_matrices(), st.floats(0.1, 5.0))
@settings(max_examples=100, deadline=None)
def test_sign_symmetry(w, beta):
    t_pos = ternarize(w, compute_threshold(w, beta))
    t_neg = ternarize(-w, compute_threshold(-w, beta))
    assert np.array_equal(_plane_trits(t_neg), -_plane_trits(t_pos))


@given(weight_matrices(), st.floats(0.1, 3.0), st.floats(0.0, 3.0))
@settings(max_examples=100, deadline=None)
def test_sparsity_nondecreasing_in_beta(w, beta, extra):
    lo = sparsity(ternarize(w, compute_threshold(w, beta)))
    hi = sparsity(ternarize(w, compute_threshold(w, beta + extra)))
    assert hi >= lo


def test_eq_oracle_equivalence_on_random_matrices():
    rng = Rng(2024)
    betas = [0.5, 0.75, 1.0, 2.0, 3.0]
    for i in range(200):
        rows = 1 + int(rng.integers(16, 1)[0])
        cols = 1 + int(rng.integers(16, 1)[0])
        w = random_matrix(rng, rows, cols)
        beta = betas[i % len(betas)]
        gamma = compute_threshold(w, beta)
        got = _plane_trits(ternarize(w, gamma))
        want = np.sign(w) * (np.abs(w) > gamma)
        assert np.array_equal(got, want.astype(np.int8))


def test_gaussian_sparsity_against_analytic_oracle():
    w = random_matrix(Rng(99), 500, 400)
    for beta in (0.75, 1.0, 2.0, 3.0):
        measured = sparsity(ternarize(w, compute_threshold(w, beta)))
        assert measured == pytest.approx(gaussian_sparsity(beta), abs=0.01)


def test_beta_sweep_sorted_and_monotone():
    w = random_matrix(Rng(7), 200, 200)
    rows = beta_sweep(w, [3.0, 1.0, 2.0])
    assert [r.beta for r in rows] == [1.0, 2.0, 3.0]
    assert rows[0].sparsity < rows[1].sparsity < rows[2].sparsity


def test_beta_sweep_single_matches_composition():
    w = random_matrix(Rng(8), 30, 30)
    (row,) = beta_sweep(w, [1.5])
    gamma = compute_threshold(w, 1.5)
    assert row.gamma == gamma
    assert row.sparsity == sparsity(ternarize(w, gamma))


def test_beta_sweep_rejects_bad_input():
    w = np.ones((2, 2), np.float32)
    with pytest.raises(ValueError):
        beta_sweep(w, [])
    with pytest.raises(ValueError):
        beta_sweep(w, [1.0, -2.0])


@given(weight_matrices(), st.floats(0.1, 5.0))
@settings(max_examples=200, deadline=None)
def test_ternary_dense_equals_partition_then_scale(w, beta):
    t = ternarize(w, compute_threshold(w, beta))
    dense, gamma = ternary_dense(w, beta)
    assert dense.dtype == np.float32 and dense.tobytes() == plane_dense(t).tobytes()
    assert gamma == t.gamma


def test_ternary_dense_boundary_ties_and_non_finite():
    w = np.array([[1.0, -1.0], [1.0, -1.0]], np.float32)  # beta 1: every |w| == gamma
    dense, gamma = ternary_dense(w, 1.0)
    assert gamma == 1.0 and not dense.any()
    with pytest.raises(ValueError, match="float32"):  # gamma 1e300 overflows float32
        ternary_dense(w, 1e300)
    for bad in (np.inf, -np.inf, np.nan):
        w[0, 1] = bad
        with pytest.raises(ValueError):
            ternary_dense(w, 1.0)


def test_band_edge_is_gamma_rounded_to_float32():
    """A float32 weight compares with gamma in float32 (NEP 50), so the edge
    of the zero band is float32(gamma), the stored scale. An entry moved onto
    that edge (each move shifts gamma, so until it stays put) lies above the
    float64 gamma, yet both partitions put it in the band."""
    w = random_matrix(Rng(0), 4, 8)
    for _ in range(50):
        edge = np.float32(compute_threshold(w, 2.0))
        if w[0, 0] == edge:
            break
        w[0, 0] = edge
    gamma = compute_threshold(w, 2.0)
    assert w[0, 0] == np.float32(gamma) and float(w[0, 0]) > gamma  # so W > gamma in float64
    assert _plane_trits(ternarize(w, gamma))[0, 0] == 0
    dense, scale = ternary_dense(w, 2.0)
    assert dense[0, 0] == 0.0 and scale == float(w[0, 0])
