import hashlib
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import hnsw_layer0_connected, hnsw_level_bounds_ok, lsh_codes, lsh_hyperplanes
from ternkit import ann
from ternkit.ann import (HnswParams, IvfParams, LshParams, VectorStore,
                         default_params, evaluate_retrieval, flat_search,
                         hnsw_build, hnsw_search, ivf_build, ivf_search,
                         lsh_build, lsh_search, recall_vs_exact)
from ternkit.rng import Rng


def naive_topk(vectors, query, k):
    scored = []
    for i in range(vectors.shape[0]):
        d = 0.0
        for j in range(vectors.shape[1]):
            diff = float(vectors[i, j]) - float(query[j])
            d += diff * diff
        scored.append((d, i))
    scored.sort()
    return np.array([i for _, i in scored[:k]])


def gaussian_store(rng, n, dim):
    return VectorStore(rng.normals(n * dim).reshape(n, dim).astype(np.float32))


def clustered_store(rng, n, dim, k):
    protos = rng.normals(k * dim).reshape(k, dim)
    labels = np.arange(n) % k
    pts = protos[labels] + 0.3 * rng.normals(n * dim).reshape(n, dim)
    return VectorStore(pts.astype(np.float32)), labels


# -- flat ----------------------------------------------------------------------

def test_flat_hand_case():
    store = VectorStore(np.array([[0, 0], [1, 0], [3, 0]], np.float32))
    assert flat_search(store, np.array([0.9, 0.0], np.float32), 2).tolist() == [1, 0]


def test_flat_exact_match_ranks_first():
    rng = Rng(1)
    store = gaussian_store(rng, 40, 6)
    assert flat_search(store, store.vectors[17], 1)[0] == 17


def test_flat_k_equals_n_returns_all_sorted():
    rng = Rng(2)
    store = gaussian_store(rng, 25, 4)
    q = rng.normals(4).astype(np.float32)
    got = flat_search(store, q, 25)
    assert sorted(got.tolist()) == list(range(25))
    d = ((store.vectors.astype(np.float64) - q.astype(np.float64)) ** 2).sum(1)
    assert np.all(np.diff(d[got]) >= 0)


def test_flat_matches_naive_oracle():
    rng = Rng(3)
    store = gaussian_store(rng, 60, 8)
    for _ in range(25):
        q = rng.normals(8).astype(np.float32)
        assert np.array_equal(flat_search(store, q, 11), naive_topk(store.vectors, q, 11))


def test_flat_ties_break_by_smaller_id():
    base = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]], np.float32)
    store = VectorStore(base)
    got = flat_search(store, np.array([1.0, 0.0], np.float32), 4)
    assert got.tolist() == [0, 2, 1, 3]


@given(st.lists(st.sampled_from([0.0, 1.0, 1.5, 2.0, 3.0, np.inf, np.nan]),
                min_size=1, max_size=40),
       st.integers(1, 40), st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_rank_partial_selection_equals_full_sort(values, k, rnd):
    dists = np.array(values)
    ids = np.arange(dists.size) * 3
    rnd.shuffle(ids)  # ids out of order, so ties must really be broken by id
    want = ids[np.lexsort((ids, dists))][:k]
    assert np.array_equal(ann._rank(ids, dists, k), want)
    # and with the partition pre-selection, which short inputs skip otherwise
    with mock.patch.object(ann, "_SORT_ALL_UP_TO", 0):
        assert np.array_equal(ann._rank(ids, dists, k), want)


@st.composite
def adversarial_store(draw):
    """Float32 rows of one of three kinds: a small integer grid (exact ties),
    random rows at scales from 1e-20 to 1e20, or a cloud of rows a few ulps
    around one row (distances far below the rounding error of the GEMV
    screen). Then some rows become duplicates of another row, 1 ulp from
    another row, or zero."""
    n, d = draw(st.integers(1, 24)), draw(st.integers(1, 12))
    rng = Rng(draw(st.integers(0, 2**32 - 1)))
    u = rng.uniforms_open(n * d).reshape(n, d)
    kind = draw(st.sampled_from(["grid", "scaled", "cloud"]))
    if kind == "grid":
        vecs = np.floor(7.0 * u) - 3.0
    elif kind == "scaled":
        exps = np.array(draw(st.lists(st.integers(-20, 20), min_size=n, max_size=n)))
        vecs = (2.0 * u - 1.0) * 10.0 ** exps[:, None]
    else:
        center = ((2.0 * u[0] - 1.0) * 10.0 ** draw(st.integers(-20, 20))).astype(np.float32)
        vecs = center + np.floor(5.0 * u - 2.0) * np.spacing(center)
    vecs = vecs.astype(np.float32)
    for i in range(n):
        j, op = draw(st.integers(0, n - 1)), draw(st.sampled_from(["keep", "dup", "ulp", "zero"]))
        if op == "dup":
            vecs[i] = vecs[j]
        elif op == "ulp":
            vecs[i] = np.nextafter(vecs[j], np.float32(np.inf))
        elif op == "zero":
            vecs[i] = 0.0
    return vecs


@st.composite
def adversarial_case(draw):
    vecs = draw(adversarial_store())
    n, d = vecs.shape
    j = draw(st.integers(0, n - 1))
    kind = draw(st.sampled_from(["zero", "row", "ulp", "scaled"]))
    if kind == "zero":
        q = np.zeros(d, np.float32)
    elif kind == "row":
        q = vecs[j].copy()
    elif kind == "ulp":
        q = np.nextafter(vecs[j], np.float32(-np.inf))
    else:
        q = vecs[j] * np.float32(draw(st.sampled_from([1e-20, 1e-3, 0.5, 7.0, 1e20])))
    return vecs, q, draw(st.integers(1, n))


def reference_top_k(vecs, q, k):
    """The unscreened ranking: every distance by the reference formula."""
    return ann._rank(np.arange(len(vecs)), ann._sq_dists(vecs, q), k)


def brute_force_assign(vecs, centroids):
    """Every point-centroid distance, then argmin (ties to the lowest cell)."""
    v64 = vecs.astype(np.float64)
    return np.argmin(((v64[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2), axis=1)


@given(adversarial_case(), st.integers(1, 4))
@settings(max_examples=400, deadline=None)
def test_screened_search_equals_unscreened_reference(case, nlist):
    vecs, q, k = case
    store = VectorStore(vecs)
    want = reference_top_k(vecs, q, k)
    assert np.array_equal(flat_search(store, q, k), want)
    nlist = min(nlist, len(vecs))
    index = ivf_build(store, IvfParams(nlist=nlist, nprobe=nlist, seed=1))
    assert np.array_equal(ivf_search(index, q, k), want)


@given(adversarial_store(), st.integers(-1, 23), st.sampled_from([np.inf, -np.inf, np.nan]))
@settings(max_examples=100, deadline=None)
def test_non_finite_query_or_row_gives_reference(vecs, row, bad):
    q = vecs[0].copy()
    if row < 0:
        q[0] = bad
    else:
        vecs[row % len(vecs), 0] = bad
    store = VectorStore(vecs)
    with np.errstate(invalid="ignore"):
        for k in {1, len(vecs) // 2 + 1, len(vecs)}:
            assert np.array_equal(flat_search(store, q, k), reference_top_k(vecs, q, k))
        centroids = vecs[:3].astype(np.float64)
        assert np.array_equal(ann._assign(store, centroids), brute_force_assign(vecs, centroids))
    if row < 0:
        index = ivf_build(store, IvfParams(nlist=1, nprobe=1))
        assert np.array_equal(ivf_search(index, q, len(vecs)), reference_top_k(vecs, q, len(vecs)))


@given(adversarial_store(), st.lists(st.integers(0, 10_000), min_size=1, max_size=6),
       st.booleans())
@settings(max_examples=300, deadline=None)
def test_screened_assign_equals_brute_force_argmin(vecs, picks, mirror):
    v64 = vecs.astype(np.float64)
    centroids = v64[[p % len(vecs) for p in picks]]
    if mirror:
        # reflect every centroid through a stored point: equidistant from it
        centroids = np.concatenate([centroids, 2.0 * v64[picks[0] % len(vecs)] - centroids])
    assert np.array_equal(ann._assign(VectorStore(vecs), centroids),
                          brute_force_assign(vecs, centroids))


def _screen_edge_store(scale):
    """64-dim rows at `scale`, on a coarse grid so that some distances tie,
    and a query among them."""
    u = Rng(24).uniforms_open(300 * 64).reshape(300, 64)
    vecs = (scale * (1.0 + np.floor(8.0 * u) / 8.0)).astype(np.float32)
    return vecs, (vecs[5] + vecs[9]) / np.float32(2.0)


@pytest.mark.parametrize("scale, screened", [(1e19, False), (1e-22, True)])
def test_screen_edges_give_reference(monkeypatch, scale, screened):
    """Rows near 1e19 would overflow the float32 GEMV, so the gate must rank
    every row exactly; rows near 1e-22 make every float32 product subnormal,
    so the screen runs on underflowed dots and its slack must keep the true
    top k."""
    vecs, q = _screen_edge_store(scale)
    store = VectorStore(vecs)
    with np.errstate(over="ignore"):
        assert bool(np.isinf(store.vectors @ q).any()) is not screened
    q_norm = np.sqrt(q.astype(np.float64) @ q.astype(np.float64))
    assert (ann._screen_slack(store.max_norm, q_norm, store.dim) is not None) is screened
    index = ivf_build(store, IvfParams(nlist=4, nprobe=4, seed=2))
    ranked = []
    sq_dists = ann._sq_dists

    def counting(v, w):
        ranked.append(len(v))
        return sq_dists(v, w)

    monkeypatch.setattr(ann, "_sq_dists", counting)
    for k in (1, 10, 299):
        want = reference_top_k(vecs, q, k)
        ranked.clear()
        assert np.array_equal(flat_search(store, q, k), want)
        if not screened:
            assert ranked == [len(vecs)]
        assert np.array_equal(ivf_search(index, q, k), want)
    centroids = vecs[[0, 7, 7, 150]].astype(np.float64)
    centroids[2] *= 1.0 + 1e-9
    centroids[3] *= 0.5
    assert np.array_equal(ann._assign(store, centroids), brute_force_assign(vecs, centroids))


def test_screen_keeps_only_a_handful(monkeypatch):
    """On a normalized clustered store the screen must really screen: a
    fall-through to ranking every row would pass every correctness test."""
    store, _ = clustered_store(Rng(25), 3000, 32, 30)
    store = VectorStore(ann.normalize_rows(store.vectors))
    ranked = []
    sq_dists = ann._sq_dists

    def counting(v, w):
        ranked.append(len(v))
        return sq_dists(v, w)

    monkeypatch.setattr(ann, "_sq_dists", counting)
    for qi in range(0, 3000, 60):
        q = store.vectors[qi] + np.float32(0.01)
        assert len(flat_search(store, q, 10)) == 10
    assert len(ranked) == 50 and max(ranked) <= 15


def test_assign_screen_decides_almost_every_point(monkeypatch):
    """On a normalized clustered store with nlist ~ sqrt(n), a point keeps
    more than one cell after the screen only near a cell boundary, so the
    exact re-rank sees at most 1% of the points: a fall-through to ranking
    every point exactly would pass every correctness test."""
    store, _ = clustered_store(Rng(26), 3000, 32, 30)
    store = VectorStore(ann.normalize_rows(store.vectors))
    centroids, _ = ann._kmeans(store, 55, 4)
    ranked = []
    sq_dists = ann._sq_dists

    def counting(v, w):
        ranked.append(len(v))
        return sq_dists(v, w)

    monkeypatch.setattr(ann, "_sq_dists", counting)
    assign = ann._assign(store, centroids)
    assert sum(ranked) <= len(store) // 100
    assert np.array_equal(assign, brute_force_assign(store.vectors, centroids))


@given(st.integers(0, 2**32 - 1), st.integers(0, 6))
@settings(max_examples=20, deadline=None)
def test_multi_block_assign_with_ties_equals_brute_force(seed, offset):
    """Dim 512 and 64 centroids give blocks of 61 points. Copies of one point
    sit in every block, and the centroids are mirrored through it, so each
    copy ties between a centroid and its mirror: the re-ranked points fall
    at different offsets of several blocks."""
    rng = Rng(seed)
    n, dim = 200, 512
    vecs = (np.floor(7.0 * rng.uniforms_open(n * dim).reshape(n, dim)) - 3.0).astype(np.float32)
    vecs[offset::7] = vecs[offset]
    v64 = vecs.astype(np.float64)
    picks = rng.permutation(n)[:32]
    centroids = np.concatenate([v64[picks], 2.0 * v64[offset] - v64[picks]])
    assert 2_000_000 // (len(centroids) * dim) == 61
    ranked = []
    sq_dists = ann._sq_dists

    def counting(v, w):
        ranked.append(len(v))
        return sq_dists(v, w)

    with mock.patch.object(ann, "_sq_dists", counting):
        got = ann._assign(VectorStore(vecs), centroids)
    assert len(ranked) == 4  # every block re-ranks its copies
    # row-wise, so chunks of 50 give the same argmin with a bounded (rows, cells, dim) array
    want = np.concatenate([brute_force_assign(vecs[i:i + 50], centroids)
                           for i in range(0, n, 50)])
    assert np.array_equal(got, want)


def test_search_validation():
    """All four searches reject a query of the wrong dim or shape, k = 0 and
    k > len(store)."""
    store = gaussian_store(Rng(4), 10, 3)
    indexes = {"flat": store}
    for kind in ("ivf", "lsh", "hnsw"):
        indexes[kind] = getattr(ann, f"{kind}_build")(store, default_params(kind, 10, 3))
    for kind, index in indexes.items():
        search = getattr(ann, f"{kind}_search")
        assert len(search(index, np.zeros(3, np.float32), 10)) == 10
        for dim, k in ((2, 3), (3, 0), (3, 11)):
            with pytest.raises(ValueError):
                search(index, np.zeros(dim, np.float32), k)
        with pytest.raises(ValueError):  # size equals dim, shape does not
            search(index, np.zeros((3, 1), np.float32), 3)


# -- IVF -----------------------------------------------------------------------

def test_ivf_exhaustive_probing_equals_flat_exactly():
    rng = Rng(5)
    store = gaussian_store(rng, 300, 12)
    index = ivf_build(store, IvfParams(nlist=18, nprobe=18, seed=6))
    for _ in range(40):
        q = rng.normals(12).astype(np.float32)
        assert np.array_equal(ivf_search(index, q, 13), flat_search(store, q, 13))


def test_ivf_exhaustive_equals_flat_with_duplicate_ties():
    vecs = np.tile(np.arange(12, dtype=np.float32).reshape(4, 3), (3, 1))
    store = VectorStore(vecs)
    index = ivf_build(store, IvfParams(nlist=3, nprobe=3, seed=1))
    q = vecs[2] + 0.01
    assert np.array_equal(ivf_search(index, q, 12), flat_search(store, q, 12))


def test_ivf_single_list_equals_flat():
    rng = Rng(7)
    store = gaussian_store(rng, 64, 5)
    index = ivf_build(store, IvfParams(nlist=1, nprobe=1, seed=2))
    for _ in range(10):
        q = rng.normals(5).astype(np.float32)
        assert np.array_equal(ivf_search(index, q, 9), flat_search(store, q, 9))


def test_ivf_partial_probe_recall_on_clusters():
    rng = Rng(8)
    store, _ = clustered_store(rng, 5000, 16, 50)
    index = ivf_build(store, IvfParams(nlist=64, nprobe=8, seed=9))
    recalls = []
    for qi in range(100):
        q = store.vectors[qi * 37 % len(store)]
        recalls.append(recall_vs_exact(ivf_search(index, q, 10),
                                       flat_search(store, q, 10), 10))
    assert np.mean(recalls) >= 0.7


def test_ivf_params_validation():
    with pytest.raises(ValueError):
        IvfParams(nlist=4, nprobe=5)
    with pytest.raises(ValueError):
        IvfParams(nlist=0, nprobe=0)
    store = gaussian_store(Rng(9), 10, 3)
    with pytest.raises(ValueError):
        ivf_build(store, IvfParams(nlist=11, nprobe=1))


def test_ivf_lists_partition_all_ids():
    rng = Rng(10)
    store = gaussian_store(rng, 120, 6)
    index = ivf_build(store, IvfParams(nlist=10, nprobe=2, seed=3))
    all_ids = np.concatenate(index.lists)
    assert sorted(all_ids.tolist()) == list(range(120))


def reference_ivf(vecs, nlist, seed):
    """The full Lloyd schedule with no stop: ten iterations of brute-force
    assignment, the bincount update and the farthest-point re-seed, then one
    more assignment for the lists."""
    v64 = vecs.astype(np.float64)
    centroids = v64[np.sort(Rng(seed).permutation(len(vecs))[:nlist])]
    for _ in range(10):
        assign = brute_force_assign(vecs, centroids)
        counts = np.bincount(assign, minlength=nlist)
        sums = np.stack([np.bincount(assign, weights=col, minlength=nlist) for col in v64.T],
                        axis=1)
        nonempty = counts > 0
        centroids[nonempty] = sums[nonempty] / counts[nonempty, None]
        for cell in np.flatnonzero(~nonempty):
            far = int(np.argmax(((v64 - centroids[assign]) ** 2).sum(axis=1)))
            centroids[cell] = v64[far]
            assign[far] = cell
    assign = brute_force_assign(vecs, centroids)
    return centroids, [np.flatnonzero(assign == c) for c in range(nlist)]


def assert_ivf_equals_reference(vecs, nlist, seed):
    store = VectorStore(vecs)
    want_centroids, want_lists = reference_ivf(vecs, nlist, seed)
    centroids, _ = ann._kmeans(store, nlist, seed)
    assert centroids.tobytes() == want_centroids.tobytes()
    index = ivf_build(store, IvfParams(nlist=nlist, nprobe=1, seed=seed))
    assert index.centroids.tobytes() == want_centroids.astype(np.float32).tobytes()
    assert [ids.tolist() for ids in index.lists] == [ids.tolist() for ids in want_lists]


@given(adversarial_store(), st.integers(1, 24), st.integers(0, 100), st.booleans())
@settings(max_examples=300, deadline=None)
def test_kmeans_stop_equals_full_schedule(vecs, nlist, seed, nan_row):
    """Stopping at a bitwise fixed point gives the centroids and lists of
    all ten iterations, with duplicate rows, cells that empty and re-seed
    (nlist up to n) and NaN."""
    if nan_row:
        vecs[seed % len(vecs), 0] = np.nan
    with np.errstate(invalid="ignore"):
        assert_ivf_equals_reference(vecs, min(nlist, len(vecs)), seed)


@pytest.mark.parametrize("clustered, calls", [(True, range(2, 11)), (False, [11])])
def test_kmeans_stops_at_fixed_point_within_cap(monkeypatch, clustered, calls):
    """A clustered store reaches its fixed point before the cap, so the build
    runs `_assign` fewer than 11 times; a Gaussian store has not converged
    by the tenth iteration, so it runs all ten and one final assignment."""
    if clustered:
        store, _ = clustered_store(Rng(8), 1000, 16, 20)
    else:
        store = gaussian_store(Rng(9), 500, 8)
    made = []
    assign = ann._assign

    def counting(s, c):
        made.append(1)
        return assign(s, c)

    monkeypatch.setattr(ann, "_assign", counting)
    ivf_build(store, IvfParams(nlist=20, nprobe=1, seed=1))
    assert len(made) in calls
    monkeypatch.undo()
    assert_ivf_equals_reference(store.vectors, 20, 1)


# -- LSH -----------------------------------------------------------------------

def test_lsh_self_query_ranks_self_first():
    rng = Rng(11)
    store = gaussian_store(rng, 50, 16)
    index = lsh_build(store, LshParams(nbits=64, seed=4))
    assert lsh_search(index, store.vectors[23], 5)[0] == 23


def test_lsh_single_bit_two_distance_levels():
    rng = Rng(12)
    store = gaussian_store(rng, 30, 8)
    index = lsh_build(store, LshParams(nbits=1, seed=5))
    q = rng.normals(8).astype(np.float32)
    codes = lsh_codes(index)
    qcode = codes[lsh_search(index, q, 1)[0]]
    hamming = np.bitwise_count(codes ^ qcode).sum(axis=1)
    assert set(np.unique(hamming)) <= {0, 1}


def test_lsh_more_bits_do_not_hurt_recall():
    rng = Rng(13)
    means = {}
    for nbits in (16, 256):
        vals = []
        for seed in range(5):
            store, _ = clustered_store(Rng(100 + seed), 800, 32, 20)
            index = lsh_build(store, LshParams(nbits=nbits, seed=seed))
            for qi in range(0, 800, 40):
                q = store.vectors[qi]
                vals.append(recall_vs_exact(lsh_search(index, q, 10),
                                            flat_search(store, q, 10), 10))
        means[nbits] = np.mean(vals)
    assert means[256] >= means[16]


def test_lsh_deterministic_per_seed():
    rng = Rng(14)
    store = gaussian_store(rng, 40, 8)
    a = lsh_build(store, LshParams(nbits=32, seed=7))
    b = lsh_build(store, LshParams(nbits=32, seed=7))
    assert np.array_equal(lsh_codes(a), lsh_codes(b))
    assert np.array_equal(lsh_hyperplanes(a), lsh_hyperplanes(b))


@given(adversarial_case(), st.one_of(st.integers(1, 130), st.sampled_from([8, 63, 64, 65, 128])),
       st.integers(0, 100))
@settings(max_examples=200, deadline=None)
def test_lsh_word_layout_equals_bytewise_hamming(case, nbits, seed):
    """Codes held as zero-padded 64-bit words rank exactly as the byte-wise
    Hamming distance over `codes` does, for bit counts that fill no whole
    byte or word as well as ones that do."""
    vecs, q, k = case
    index = lsh_build(VectorStore(vecs), LshParams(nbits=nbits, seed=seed))
    codes = lsh_codes(index)
    assert codes.shape == (len(vecs), (nbits + 7) // 8) and codes.dtype == np.uint8
    qbits = q[None, :].astype(np.float64) @ lsh_hyperplanes(index).T.astype(np.float64) >= 0.0
    qcode = np.packbits(qbits, axis=1, bitorder="little")
    hamming = np.bitwise_count(codes ^ qcode).sum(axis=1)
    assert np.array_equal(lsh_search(index, q, k), ann._rank(np.arange(len(vecs)), hamming, k))


def test_lsh_codes_in_row_blocks_equal_one_projection():
    """Rows coded a block at a time get the bits one projection of the whole
    store gives, across block edges and a partial last block."""
    rng = Rng(23)
    n = 2 * ann._LSH_ROWS + 3
    vecs = np.floor(2.0 * rng.normals(n * 12).reshape(n, 12)).astype(np.float32)  # exact zeros
    index = lsh_build(VectorStore(vecs), LshParams(nbits=70, seed=2))
    bits = vecs.astype(np.float64) @ lsh_hyperplanes(index).T.astype(np.float64) >= 0.0
    assert np.array_equal(lsh_codes(index), np.packbits(bits, axis=1, bitorder="little"))


# -- HNSW ----------------------------------------------------------------------

def finalize_reference(adj0: np.ndarray, deg0: np.ndarray, entry: int, vecs: np.ndarray):
    """Layer 0 finalized with Python sets: symmetrize, then join each
    component cut off from the entry, lowest unreached id first, to that
    id's nearest reached node. Rows sorted, padded with the sentinel n."""
    n = len(deg0)
    rows = [adj0[u, :deg0[u]].tolist() for u in range(n)]
    adj = [set(row) for row in rows]
    for u, row in enumerate(rows):
        for v in row:
            adj[v].add(u)

    def component(start):
        seen, stack = {start}, [start]
        while stack:
            for nb in adj[stack.pop()]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        return seen

    reached = component(entry)
    for u in range(n):
        if u not in reached:
            ids = np.array(sorted(reached))
            v = int(ann._rank(ids, ann._sq_dists(vecs[ids], vecs[u]), 1)[0])
            adj[u].add(v)
            adj[v].add(u)
            reached |= component(u)
    packed = np.full((n + 1, max(map(len, adj))), n, dtype=np.int32)
    for u, links in enumerate(adj):
        packed[u, :len(links)] = sorted(links)
    return packed


@given(st.integers(2, 5), st.integers(5, 40), st.integers(1, 4), st.booleans(),
       st.booleans(), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_hnsw_finalize_equals_set_reference(groups, size, dim, interleave, nan_row, data_seed):
    """The array finalize packs the same layer 0 as the set-based one, on
    far-apart groups of grid points (ties, duplicates, many repairs), with
    a NaN row or without."""
    n = groups * size
    group = np.arange(n) % groups if interleave else np.arange(n) // size
    u = Rng(data_seed).uniforms_open(n * dim).reshape(n, dim)
    vecs = (np.floor(3.0 * u) + 100.0 * group[:, None]).astype(np.float32)
    if nan_row:
        vecs[n // 2, 0] = np.nan
    store = VectorStore(vecs)
    index = ann.HnswIndex(store, HnswParams(M=2, ef_construction=1, seed=0),
                          [int(i % 7 == 3) for i in range(n)])
    with np.errstate(invalid="ignore"):
        for i in range(n):
            index._insert(i)
        adj0, deg0 = index._adj[0].copy(), index._deg[0].copy()
        index._finalize_layer0()
        want = finalize_reference(adj0, deg0, index.entry, store.vectors)
    assert np.array_equal(index._adj[0], want)
    assert np.array_equal(index._deg[0], (want[:n] != n).sum(axis=1))


@st.composite
def hnsw_inserted(draw):
    """An adversarial store with a NaN or ±inf entry in one row or in the
    query (or in neither), and an HnswIndex over it with drawn levels up to 3
    and every node inserted; layer 0 is not finalized yet. Returns the index
    and two float64 queries: the drawn one and the store's last row."""
    vecs = draw(adversarial_store())
    n, d = vecs.shape
    q = vecs[draw(st.integers(0, n - 1))].copy()
    bad = draw(st.sampled_from([np.inf, -np.inf, np.nan, None]))
    if bad is not None:
        row, col = draw(st.integers(-1, n - 1)), draw(st.integers(0, d - 1))
        (q if row < 0 else vecs[row])[col] = bad
    levels = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    params = HnswParams(M=draw(st.integers(2, 4)), ef_construction=draw(st.sampled_from([1, 2, 3])),
                        seed=0)
    index = ann.HnswIndex(VectorStore(vecs), params, levels)
    with np.errstate(invalid="ignore"):
        for i in range(n):
            index._insert(i)
    return index, [q.astype(np.float64), vecs[-1].astype(np.float64)]


def layer_nodes(index, layer):
    return [u for u, level in enumerate(index.levels) if level >= layer]


def hnsw_layer_states(index):
    """Every (layer, nodes on it) of the inserted index, then layer 0 again
    after `_finalize_layer0`."""
    for layer in range(max(index.levels) + 1):
        yield layer, layer_nodes(index, layer)
    index._finalize_layer0()
    yield 0, layer_nodes(index, 0)


@given(hnsw_inserted())
@settings(max_examples=150, deadline=None)
def test_hnsw_greedy_equals_beam_of_one(case):
    """From every node of every layer, the greedy descent ends where a beam
    of one does, NaN and infinite distances included, on layer 0 both as the
    inserts leave it and finalized."""
    index, queries = case
    with np.errstate(invalid="ignore"):
        for layer, nodes in hnsw_layer_states(index):
            for e in nodes:
                for q in queries:
                    want = int(index._beam(q, np.array([e]), 1, layer)[0])
                    assert index._greedy(q, e, layer) == want


def beam_reference(index, q64, entries, ef, layer):
    """The frontier beam in its first form: every round runs until the
    frontier is empty, the int32 ids are indexed as they are, and the beam
    is sorted once more at the end."""
    adj, vecs = index._adj[layer], index.store.vectors
    seen = np.zeros(len(vecs) + 1, dtype=np.intp)
    seen[-1] = -1
    seen[entries] = -1
    ids, dists, front = entries, ann._sq_dists(vecs[entries], q64), entries
    while front.size:
        fresh = adj[front].ravel()
        fresh = fresh[seen[fresh] == 0]
        if front.size > 1:
            slots = np.arange(1, fresh.size + 1)
            seen[fresh] = slots
            fresh = fresh[seen[fresh] == slots]
        else:
            seen[fresh] = 1
        ids = np.concatenate((ids, fresh))
        dists = np.concatenate((dists, ann._sq_dists(vecs[fresh], q64)))
        front = fresh
        if ids.size > ef:
            keep = ann._order(ids, dists, ef)
            front = ids[keep[keep >= ids.size - fresh.size]]
            ids, dists = ids[keep], dists[keep]
    return ids[ann._order(ids, dists, ef)]


@given(hnsw_inserted())
@settings(max_examples=40, deadline=None)
def test_hnsw_beam_equals_reference_beam(case):
    """`_beam` returns the reference beam's ids for ef 2, 3 and n, from each
    single node and from pairs and the whole layer in descending id order,
    on every layer and on the finalized layer 0."""
    index, queries = case
    n = len(index.levels)
    with np.errstate(invalid="ignore"):
        for layer, nodes in hnsw_layer_states(index):
            down = np.array(nodes[::-1], dtype=np.int32)
            starts = [down[j:j + 1] for j in range(down.size)]
            starts += [down[j:j + 2] for j in range(down.size - 1)] + [down]
            for ef in sorted({2, 3, n}):
                for entries in starts:
                    for q in queries:
                        assert np.array_equal(index._beam(q, entries, ef, layer),
                                              beam_reference(index, q, entries, ef, layer))


def test_hnsw_single_point():
    store = VectorStore(np.array([[1.0, 2.0]], np.float32))
    index = hnsw_build(store, HnswParams(M=2, seed=0))
    assert hnsw_search(index, np.array([9.0, 9.0], np.float32), 1).tolist() == [0]


def test_hnsw_exhaustive_beam_equals_flat():
    rng = Rng(15)
    store = gaussian_store(rng, 100, 8)
    index = hnsw_build(store, HnswParams(M=4, ef_construction=50,
                                         ef_search=100, seed=1))
    for _ in range(25):
        q = rng.normals(8).astype(np.float32)
        assert np.array_equal(hnsw_search(index, q, 10), flat_search(store, q, 10))


def test_hnsw_recall_benchmark():
    rng = Rng(16)
    store = gaussian_store(rng, 600, 16)
    index = hnsw_build(store, HnswParams(M=8, ef_construction=100,
                                         ef_search=64, seed=2))
    recalls = [recall_vs_exact(hnsw_search(index, store.vectors[qi], 10),
                               flat_search(store, store.vectors[qi], 10), 10)
               for qi in range(0, 600, 6)]
    assert np.mean(recalls) >= 0.9


def test_hnsw_graph_integrity():
    rng = Rng(17)
    store = gaussian_store(rng, 400, 8)
    index = hnsw_build(store, HnswParams(M=6, ef_construction=60,
                                         ef_search=32, seed=3))
    assert hnsw_level_bounds_ok(index)
    assert hnsw_layer0_connected(index)


def test_hnsw_deterministic_per_seed():
    rng = Rng(18)
    store = gaussian_store(rng, 150, 6)
    q = rng.normals(6).astype(np.float32)
    a = hnsw_build(store, HnswParams(M=5, ef_construction=40, ef_search=30, seed=9))
    b = hnsw_build(store, HnswParams(M=5, ef_construction=40, ef_search=30, seed=9))
    assert a.levels == b.levels and a.neighbors == b.neighbors
    assert np.array_equal(hnsw_search(a, q, 7), hnsw_search(b, q, 7))


@given(st.integers(2, 4), st.integers(20, 60), st.integers(1, 4), st.booleans(),
       st.integers(0, 2**32 - 1), st.integers(0, 100))
@settings(max_examples=60, deadline=None)
def test_hnsw_repair_connects_far_groups(groups, size, dim, interleave, data_seed, seed):
    """Groups 100 apart, built with a beam of one: inserts cut groups off from
    the entry point and the layer-0 repair must join them again. Rows lie on
    a small integer grid, so the store has duplicates and tied distances."""
    n = groups * size
    group = np.arange(n) % groups if interleave else np.arange(n) // size
    u = Rng(data_seed).uniforms_open(n * dim).reshape(n, dim)
    store = VectorStore((np.floor(3.0 * u) + 100.0 * group[:, None]).astype(np.float32))
    index = hnsw_build(store, HnswParams(M=2, ef_construction=1, ef_search=n, seed=seed))
    assert hnsw_layer0_connected(index)
    assert hnsw_level_bounds_ok(index)
    for q in (store.vectors[0], store.vectors[-1], np.full(dim, 50.0, np.float32)):
        assert np.array_equal(hnsw_search(index, q, n), flat_search(store, q, n))


@given(adversarial_store(), st.integers(-1, 23), st.sampled_from([np.inf, -np.inf, np.nan]),
       st.integers(2, 4), st.integers(0, 100))
@settings(max_examples=100, deadline=None)
def test_hnsw_exhaustive_beam_with_non_finite_gives_reference(vecs, row, bad, m, seed):
    """With ef_search >= n the beam reaches every node of the connected
    layer 0, so even NaN and infinite distances rank as the reference does."""
    q = vecs[0].copy()
    if row < 0:
        q[0] = bad
    else:
        vecs[row % len(vecs), 0] = bad
    n = len(vecs)
    with np.errstate(invalid="ignore"):
        index = hnsw_build(VectorStore(vecs), HnswParams(M=m, ef_construction=2, ef_search=n,
                                                         seed=seed))
        assert hnsw_level_bounds_ok(index) and hnsw_layer0_connected(index)
        for k in {1, n // 2 + 1, n}:
            assert np.array_equal(hnsw_search(index, q, k), reference_top_k(vecs, q, k))


def test_hnsw_search_is_reentrant(monkeypatch):
    """A whole search run inside each distance call of another search leaves
    the outer one's beams intact: both return what fresh calls return, and
    the index's arrays are unchanged."""
    rng = Rng(20)
    store = gaussian_store(rng, 300, 8)
    index = hnsw_build(store, HnswParams(M=4, ef_construction=40, ef_search=30, seed=4))
    qa, qb = rng.normals(8).astype(np.float32), rng.normals(8).astype(np.float32)
    want_a, want_b = hnsw_search(index, qa, 10), hnsw_search(index, qb, 10)
    state = [a.tobytes() for a in (*index._adj, *index._deg)]
    sq_dists, inner, busy = ann._sq_dists, [], False

    def interleaving(vectors, query):
        nonlocal busy
        if not busy:
            busy = True
            inner.append(hnsw_search(index, qb, 10))
            busy = False
        return sq_dists(vectors, query)

    monkeypatch.setattr(ann, "_sq_dists", interleaving)
    got_a = hnsw_search(index, qa, 10)
    assert len(inner) > 3
    assert np.array_equal(got_a, want_a)
    assert all(np.array_equal(got_b, want_b) for got_b in inner)
    assert [a.tobytes() for a in (*index._adj, *index._deg)] == state


def test_hnsw_rejects_ef_below_k():
    store = gaussian_store(Rng(19), 30, 4)
    index = hnsw_build(store, HnswParams(M=4, ef_search=5, seed=0))
    with pytest.raises(ValueError):
        hnsw_search(index, np.zeros(4, np.float32), 10)


def test_hnsw_params_validation():
    with pytest.raises(ValueError):
        HnswParams(M=1)
    with pytest.raises(ValueError):
        HnswParams(ef_construction=0)


@pytest.mark.parametrize("cls, kwargs", [
    (IvfParams, {"nlist": 2.5, "nprobe": 1}), (IvfParams, {"nlist": 4, "nprobe": 2.0}),
    (IvfParams, {"nlist": 4, "nprobe": 2, "seed": 1.5}), (IvfParams, {"nlist": True, "nprobe": 1}),
    (LshParams, {"nbits": 8.5}), (LshParams, {"nbits": 8, "seed": 0.5}),
    (HnswParams, {"M": 4.5}), (HnswParams, {"ef_construction": 10.0}),
    (HnswParams, {"ef_search": True}), (HnswParams, {"seed": "1"}),
], ids=lambda v: v.__name__ if isinstance(v, type) else "-".join(f"{k}={v[k]!r}" for k in v))
def test_index_params_reject_non_integers(cls, kwargs):
    """Floats, bools and strings fail when the params are made, not late in the build."""
    with pytest.raises(ValueError, match="must be an integer"):
        cls(**kwargs)


# -- metrics --------------------------------------------------------------------

def test_precision_recall_hand_case():
    # unit vectors at these angles; label 0 has three members, more than k = 1, 2
    angles = np.radians([0.0, 12.0, 20.0, 33.0, 100.0])
    pts = np.stack([np.cos(angles), np.sin(angles)], axis=1).astype(np.float32)
    labels = np.array([0, 1, 0, 0, 1])
    # neighbors by angle, self dropped, and the relevant ids of each query:
    #   q0: 1 2 3 4  {2, 3}    q1: 2 0 3 4  {4}    q2: 1 3 0 4  {0, 3}
    #   q3: 2 1 0 4  {0, 2}    q4: 3 2 1 0  {1}
    # hits at k = 1, 2, 3:  q0 0 1 2,  q1 0 0 0,  q2 0 1 2,  q3 1 1 2,  q4 0 0 1
    out = evaluate_retrieval(pts, labels, "flat", [1, 2, 3])
    # precision@k = hits / k
    assert out["precision_at_k"] == pytest.approx(
        {"1": 1 / 5, "2": (1 + 1 + 1) / 2 / 5, "3": (2 + 2 + 2 + 1) / 3 / 5})
    # recall@k = hits / min(|relevant|, k): q3's one hit at k = 1 counts 1, not 1/2
    assert out["recall_at_k"] == pytest.approx(
        {"1": 1 / 5, "2": (1 / 2 + 1 / 2 + 1 / 2) / 5, "3": (1 + 1 + 1 + 1) / 5})


def test_metrics_no_overlap():
    # every label is a singleton: no query has a relevant id, and recall's
    # divisor min(|relevant|, k) is 0, which scores 0 rather than raising
    pts = Rng(23).normals(6 * 3).reshape(6, 3).astype(np.float32)
    out = evaluate_retrieval(pts, np.arange(6), "flat", [1, 3])
    assert out["precision_at_k"] == {"1": 0.0, "3": 0.0}
    assert out["recall_at_k"] == {"1": 0.0, "3": 0.0}


def test_metrics_reject_bad_k():
    for k in (0, -1):
        with pytest.raises(ValueError):
            recall_vs_exact([1, 2], [1, 2], k)


# -- harness --------------------------------------------------------------------

def test_default_params_shapes():
    p = default_params("ivf", 100, 8)
    assert p.nlist == 10 and p.nprobe == 8
    assert default_params("lsh", 100, 8).nbits == 32
    assert default_params("lsh", 100, 200).nbits == 512
    assert default_params("hnsw", 100, 8).M == 16
    assert default_params("flat", 100, 8) is None
    with pytest.raises(ValueError):
        default_params("bogus", 100, 8)


def test_evaluate_retrieval_perfect_clusters():
    # three tight clusters: every neighbor list is pure
    rng = Rng(20)
    protos = 10.0 * rng.normals(3 * 8).reshape(3, 8)
    labels = np.arange(60) % 3
    pts = (protos[labels] + 0.01 * rng.normals(60 * 8).reshape(60, 8)).astype(np.float32)
    out = evaluate_retrieval(pts, labels, "flat", [1, 5])
    assert out["precision_at_k"]["1"] == 1.0
    assert out["recall_at_k"]["5"] == 1.0


def test_evaluate_retrieval_rejects_oversized_k():
    rng = Rng(21)
    pts = rng.normals(10 * 4).reshape(10, 4).astype(np.float32)
    with pytest.raises(ValueError):
        evaluate_retrieval(pts, np.zeros(10, np.int64), "flat", [10])
    # labels must be integers: NaN floats are rejected, not looked up
    labels = np.zeros(10)
    labels[3] = np.nan
    with pytest.raises(ValueError, match="labels"):
        evaluate_retrieval(pts, labels, "flat", [5])


EVALUATE_RETRIEVAL_SHA256 = "0b0d8ae2b0d627b8ac8b27e128c5430600fbb339569f253d2945f2745b7a6322"


def test_golden_evaluate_retrieval_all_kinds():
    """The scores of every index kind, pinned to the last float. The corpus
    is drawn from bit-portable uniforms; the LSH hyperplanes are normals, so
    the hash holds per platform, as in `test_golden.py`."""
    rng = Rng(23)
    # ten overlapping clusters, four of three points and eight singletons,
    # so the capped recall and the empty relevant set are both exercised
    labels = np.concatenate((np.arange(580) % 10, 10 + np.arange(12) // 3, 14 + np.arange(8)))
    protos = 4.0 * rng.uniforms_open(22 * 8).reshape(22, 8) - 2.0
    pts = protos[labels] + 2.5 * (rng.uniforms_open(600 * 8).reshape(600, 8) - 0.5)
    pts = pts.astype(np.float32)
    outs = {kind: evaluate_retrieval(pts, labels, kind, [1, 5, 10]) for kind in ann.INDEX_KINDS}
    digest = hashlib.sha256(json.dumps(outs, sort_keys=True).encode()).hexdigest()
    assert digest == EVALUATE_RETRIEVAL_SHA256


def test_normalize_rows_unit_rows_and_zero_rows():
    x = np.array([[3.0, 4.0], [0.0, 0.0]], np.float32)
    y = ann.normalize_rows(x)
    assert y.dtype == np.float32
    assert np.array_equal(y, np.array([[0.6, 0.8], [0.0, 0.0]], np.float32))
