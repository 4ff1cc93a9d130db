"""Nearest-neighbor indexes and retrieval metrics.

Four index families over a fixed vector store, each with one build and one
search function (`{kind}_build`, `{kind}_search`; flat search needs no build
and searches the store itself): exact brute-force L2, an inverted-file index
over seeded k-means cells, random-hyperplane LSH ranked by Hamming distance,
and a hierarchical navigable-small-world graph. The store holds each vector
once, as float32; all distances are squared L2 in float64, widened from it
exactly, and ties always break toward the smaller id.

Exact top-k (flat search, the scan of IVF's probed cells, and IVF's
nearest-centroid assignment) runs in two steps. A screen takes approximate
distances ||v||^2 - 2 v.q from one float32 GEMV (a GEMM for assignment)
over the float32 rows and the float64 squared norms the store caches at
construction, takes the k-th smallest with one partition, and keeps every id
within twice one scalar slack of it. The slack is a rigorous bound on the
rounding error, computed once per query (once per call for assignment) from
the store's largest row norm, the query's norm and the dimension. The
survivors are re-ranked with the row-wise reference formula `_sq_dists`,
which gives each row the same value whichever rows it is computed with. So
the ids, their order and the tie order equal those of the unscreened
computation bit for bit, and exhaustively-probed IVF reproduces brute force,
tie order included. Non-finite stores and queries, and magnitudes the float32
products could overflow, skip the screen.

LSH writes its sign codes straight into a (words, n) array of 64-bit words
and counts the Hamming distance of a query to every code with one XOR and
one popcount per word.

HNSW inserts and queries walk each layer with one frontier-batched beam, in
the manner of DiskANN's beam search (Subramanya et al., NeurIPS 2019) but
within one query. Each round expands every beam member not yet expanded at
once: one gather of their rows from the layer's padded int32 adjacency
array, one `_sq_dists` call for the ids no round has seen, and a trim back
to the ef nearest by (distance, id). The walk ends when every member has
been expanded. A beam of one is the greedy descent of the upper layers.

Embeddings are L2-normalized before indexing in the evaluation harness, so
L2 ranking coincides with cosine ranking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .encoder import require_ints
from .rng import Rng
from .tensor import FLOAT

INDEX_KINDS = ("flat", "ivf", "lsh", "hnsw")
_KMEANS_ITERS = 10  # Lloyd iterations of an IVF build


@dataclass(eq=False)
class VectorStore:
    """Vectors with implicit stable ids 0..N-1.

    The rows are held once, as float32. Their float64 squared norms and the
    largest norm (NaN or inf when a row is not finite) are computed once
    here, so `vectors` must not change afterwards."""

    vectors: np.ndarray
    sq_norms: np.ndarray = field(init=False, repr=False)
    max_norm: float = field(init=False, repr=False)

    def __post_init__(self):
        self.vectors = np.ascontiguousarray(self.vectors, dtype=FLOAT)
        if self.vectors.ndim != 2 or self.vectors.shape[0] < 1 or self.vectors.shape[1] < 1:
            raise ValueError(f"vectors must be a non-empty 2-D array, got {self.vectors.shape}")
        v64 = self.vectors.astype(np.float64)
        self.sq_norms = np.einsum("ij,ij->i", v64, v64)
        self.max_norm = float(np.sqrt(self.sq_norms.max()))

    def __len__(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def _sq_dists(vectors: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Squared L2 distances over the last axis, widened to float64 in the
    subtraction. Row-wise, so subsets (and stacks of rows) reproduce exactly."""
    diff = np.subtract(vectors, query, dtype=np.float64)
    diff *= diff
    return np.add.reduce(diff, axis=-1)


# The screen's bound. It ranks items x (store rows for a search, centroids
# for `_assign`) against one fixed vector y (the query; the point). Each x
# and y is float32, except that centroids are float64 and the GEMM takes
# them rounded to float32. Let u = 2^-53, e = 2^-24, t = 2^-126 (the least
# normal float32), gamma_n = n u / (1 - n u) and gamma32_n the same with e,
# M >= ||x|| for every x, W >= ||y||, P = M W, S = (M + W)^2, and
# E = ||x||^2 - 2 x.y exact, so that D = E + ||y||^2 = ||x - y||^2 <= S.
# Float64 underflow loses at most 2^-1074 per operation, far below the t
# terms, so only float32 underflow counts.
# - `_sq_dists` gives R: each of the d terms carries (1+delta)^3 from the
#   subtraction and the square, and summing d nonnegative terms in any order
#   adds gamma_{d-1}, so |R - D| <= gamma_{d+2} D <= gamma_{d+2} S.
# - The screen gives A = fl(N - 2g) from N = fl(||x||^2) in float64, off by
#   at most gamma_d S, and g = fl32(x.y), the float32 dot product.
#   - In any summation order, with or without FMA, each of the at most 2d
#     float32 operations is (exact)(1 + delta) + eta with |delta| <= e and
#     |eta| <= t, flush-to-zero included. So g is off by at most
#     gamma32_d sum_j |x_j y_j| <= gamma32_d P from rounding, and by at most
#     2 * 2d t from underflow, as later additions grow each eta by at most
#     (1 + e)^d <= 2 for d < 2^22.
#   - Rounding a centroid to float32 moves each entry by at most e |x_j| + t,
#     so x.y by at most e P + t sqrt(d) W, and the rounding bound above by
#     at most gamma32_d (e P + t sqrt(d) W); inputs read as zero under
#     denormals-are-zero move x.y by less than t sqrt(d) (M + W).
#   - Together |g - x.y| <= G = 2 (d+1) e P + t (4d + 3 sqrt(d) (M + W)),
#     as gamma32_d (1 + e) + e <= gamma32_{d+1} <= 2 (d+1) e and
#     gamma32_d <= 1 for d < 2^22. 2g is exact, and the
#     subtraction adds u |N - 2g| <= 2u S, so |A - E| <= (d+2) u S + 2G.
# - Let a be the k-th smallest A and s = (2d+4) u S + 2G >= |A - E| + |R - D|.
#   The k ids with A <= a have R <= A + ||y||^2 + s <= a + ||y||^2 + s, so the
#   k-th smallest R is at most that. Any id with R at most the k-th smallest
#   R (ties included) then has A <= R - ||y||^2 + s <= a + 2s: the screen
#   keeps every id the unscreened ranking could place in the top k.
# - `_screen_slack` returns slack = 2s, and the screen keeps the ids with
#   A <= fl(a + 2 slack) = fl(a + 4s). The spare 2s covers the rounding of
#   that sum (u |a + 4s|, with |a| <= S) and of M, W, S and the slack
#   themselves, each a few u relative.
# Overflow: every product and partial sum of the float32 dot is at most 2P,
# and 2g at most 4P, so the gate requires M, W and P at most 2^120 (which
# also keeps the rounded centroids finite); NaN and inf fail it too. Past
# the gate, every id is ranked exactly.
_U64 = 2.0 ** -53
_U32 = 2.0 ** -24
_TINY32 = 2.0 ** -126
_SCREEN_MAX = 2.0 ** 120


def _screen_slack(norm_x: float, norm_y: float, dim: int) -> float | None:
    """The screen's slack (2s above) for items of norm at most `norm_x`
    against vectors of norm at most `norm_y`; None when the gate fails."""
    p = norm_x * norm_y
    if not (norm_x <= _SCREEN_MAX and norm_y <= _SCREEN_MAX and p <= _SCREEN_MAX
            and dim < 2 ** 22):
        return None
    norms = norm_x + norm_y
    g = 2.0 * (dim + 1) * _U32 * p + _TINY32 * (4.0 * dim + 3.0 * math.sqrt(dim) * norms)
    return 2.0 * ((2.0 * dim + 4.0) * _U64 * norms * norms + 2.0 * g)


def _exact_top_k(store: VectorStore, query: np.ndarray, k: int,
                 ids: np.ndarray | None = None) -> np.ndarray:
    """Top k of `ids` (default: every id) by (`_sq_dists`, id).

    The screen keeps every id that can reach the top k or tie at the k-th
    place, and the re-rank computes exactly what the unscreened ranking
    would, so the result is the same, ties included."""
    n = len(store) if ids is None else len(ids)
    q64 = query.astype(np.float64)
    slack = _screen_slack(store.max_norm, math.sqrt(q64 @ q64), store.dim) if n > k else None
    if slack is not None:
        if ids is None:
            approx = store.sq_norms - 2.0 * (store.vectors @ query)
        else:
            approx = store.sq_norms[ids] - 2.0 * (store.vectors[ids] @ query)
        keep = np.flatnonzero(approx <= np.partition(approx, k - 1)[k - 1] + 2.0 * slack)
        # for the whole store the positions are the ids
        ids = keep if ids is None else ids[keep]
    elif ids is None:
        ids = np.arange(n)
    return _rank(ids, _sq_dists(store.vectors[ids], q64), k)


def _check_query(query: np.ndarray, store: VectorStore, k: int) -> np.ndarray:
    """The query as a float32 vector of shape (dim,); k must be in
    [1, len(store)]."""
    query = np.asarray(query, dtype=FLOAT)
    if query.shape != (store.dim,):
        raise ValueError(f"query shape {query.shape} != ({store.dim},)")
    if not 1 <= k <= len(store):
        raise ValueError(f"k must be in [1, {len(store)}], got {k}")
    return query


# up to this many entries one lexsort of them all is faster than the
# partition pre-selection (the HNSW beams and IVF's centroid ranking)
_SORT_ALL_UP_TO = 256


def _order(ids: np.ndarray, dists: np.ndarray, k: int) -> np.ndarray:
    """Positions of the k smallest (distance, id) pairs, in ascending order."""
    if dists.size > max(k, _SORT_ALL_UP_TO):
        # only ids at or below the k-th distance can make the top k, ties included;
        # a NaN k-th distance keeps fewer than k, so those fall back to the full sort
        keep = np.flatnonzero(dists <= np.partition(dists, k - 1)[k - 1])
        if keep.size >= k:
            return keep[np.lexsort((ids[keep], dists[keep]))[:k]]
    return np.lexsort((ids, dists))[:k]


def _rank(ids: np.ndarray, dists: np.ndarray, k: int) -> np.ndarray:
    """ids sorted by (distance, id) ascending, truncated to k."""
    return ids[_order(ids, dists, k)]


# -- flat ---------------------------------------------------------------------

def flat_search(store: VectorStore, query: np.ndarray, k: int) -> np.ndarray:
    """Exact top-k by ascending L2 distance, ties broken by smaller id."""
    query = _check_query(query, store, k)
    return _exact_top_k(store, query, k)


# -- IVF-Flat -----------------------------------------------------------------

@dataclass
class IvfParams:
    nlist: int
    nprobe: int
    seed: int = 0

    def __post_init__(self):
        require_ints(self, "nlist", "nprobe", "seed")
        if self.nlist < 1:
            raise ValueError(f"nlist must be >= 1, got {self.nlist}")
        if not 1 <= self.nprobe <= self.nlist:
            raise ValueError(f"nprobe must be in [1, nlist={self.nlist}], got {self.nprobe}")


class IvfIndex:
    def __init__(self, store: VectorStore, params: IvfParams,
                 centroids: np.ndarray, lists: list[np.ndarray]):
        self.store = store
        self.params = params
        self.centroids = centroids
        self.lists = lists


def _kmeans(store: VectorStore, nlist: int, seed: int) -> np.ndarray:
    """Seeded Lloyd iterations; empty cells re-seed to the farthest point."""
    rng = Rng(seed)
    rows = store.vectors
    cols = rows.T.astype(np.float64, order="C")  # so bincount need not copy each column
    centroids = rows[np.sort(rng.permutation(len(rows))[:nlist])].astype(np.float64)
    for _ in range(_KMEANS_ITERS):
        assign = _assign(store, centroids)
        counts = np.bincount(assign, minlength=nlist)
        # bincount adds each column's weights in id order, as np.add.at would
        sums = np.stack([np.bincount(assign, weights=col, minlength=nlist) for col in cols],
                        axis=1)
        nonempty = counts > 0
        centroids[nonempty] = sums[nonempty] / counts[nonempty, None]
        for cell in np.flatnonzero(~nonempty):
            # steal the point farthest from its own centroid
            far = int(np.argmax(_sq_dists(rows, centroids[assign])))
            centroids[cell] = rows[far]
            assign[far] = cell
    return centroids


def _assign(store: VectorStore, centroids: np.ndarray) -> np.ndarray:
    """Nearest-centroid assignment, ties to the lowest cell id.

    The screen of `_exact_top_k` with k = 1, one float32 GEMM per block of
    points against the centroids rounded to float32, and one slack for the
    whole call; only the surviving (point, cell) pairs get exact distances."""
    n, nlist = len(store), len(centroids)
    c_sq_norms = np.einsum("ij,ij->i", centroids, centroids)
    slack = _screen_slack(float(np.sqrt(c_sq_norms.max())), store.max_norm, store.dim)
    if slack is not None:
        c32 = centroids.astype(FLOAT)
    assign = np.empty(n, dtype=np.int64)
    step = max(1, 2_000_000 // (nlist * store.dim))
    for start in range(0, n, step):
        if slack is not None:
            approx = c_sq_norms - 2.0 * (store.vectors[start:start + step] @ c32.T)
            keep = approx <= approx.min(axis=1, keepdims=True) + 2.0 * slack
        else:
            keep = np.ones((min(step, n - start), nlist), dtype=bool)
        point, cell = np.nonzero(keep)
        d = np.full(keep.shape, np.inf)
        d[point, cell] = _sq_dists(store.vectors[start + point], centroids[cell])
        assign[start:start + step] = np.argmin(d, axis=1)
    return assign


def ivf_build(store: VectorStore, params: IvfParams) -> IvfIndex:
    if params.nlist > len(store):
        raise ValueError(f"nlist {params.nlist} exceeds store size {len(store)}")
    centroids = _kmeans(store, params.nlist, params.seed)
    assign = _assign(store, centroids)
    lists = [np.flatnonzero(assign == c) for c in range(params.nlist)]
    return IvfIndex(store, params, centroids.astype(FLOAT), lists)


def ivf_search(index: IvfIndex, query: np.ndarray, k: int) -> np.ndarray:
    """Scan the nprobe nearest cells exactly; top-k of their union.

    May return fewer than k ids when the probed cells hold fewer points;
    probing every cell always yields exactly the brute-force ranking.
    """
    query = _check_query(query, index.store, k)
    cd = _sq_dists(index.centroids, query)
    probe = _rank(np.arange(len(index.centroids)), cd, index.params.nprobe)
    cand = np.concatenate([index.lists[c] for c in probe])
    return _exact_top_k(index.store, query, k, cand)


# -- LSH ----------------------------------------------------------------------

@dataclass
class LshParams:
    nbits: int
    seed: int = 0

    def __post_init__(self):
        require_ints(self, "nbits", "seed")
        if self.nbits < 1:
            raise ValueError(f"nbits must be >= 1, got {self.nbits}")


class LshIndex:
    """Sign codes of the store under `hyperplanes`. The codes are held once,
    as a (words, n) uint64 array: each row's bits LSB-first, zero-padded to a
    whole number of words, so the pad bits XOR to 0. `codes` gives the packed
    bytes back. `planes64`, the float64 transposed planes the build coded
    the store with, codes the queries too; it is the only copy of them."""

    def __init__(self, store: VectorStore, params: LshParams, planes64: np.ndarray,
                 words: np.ndarray):
        self.store = store
        self.params = params
        self._planes64 = planes64
        self._words = words

    @property
    def hyperplanes(self) -> np.ndarray:
        """(nbits, dim) float32 planes; exact, as they were drawn as float32."""
        return self._planes64.T.astype(FLOAT)

    @property
    def codes(self) -> np.ndarray:
        """(n, ceil(nbits / 8)) uint8: each row's sign bits, LSB-first."""
        return self._words.T.copy().view(np.uint8)[:, :(self.params.nbits + 7) // 8].copy()


_LSH_ROWS = 256  # rows projected per block by `_lsh_words`


def _lsh_words(vectors: np.ndarray, planes64: np.ndarray) -> np.ndarray:
    """Sign bits of the projections onto the columns of `planes64`
    (dot >= 0 -> 1), packed LSB-first into each row's zero-padded uint64
    words, as a (words, n) array; a block of `_LSH_ROWS` rows at a time."""
    nbits = planes64.shape[1]
    words = np.empty(((nbits + 63) // 64, len(vectors)), dtype=np.uint64)
    for start in range(0, len(vectors), _LSH_ROWS):
        rows = vectors[start:start + _LSH_ROWS].astype(np.float64)
        bits = np.zeros((len(rows), 64 * len(words)), dtype=bool)  # the pad bits stay 0
        np.greater_equal(rows @ planes64, 0.0, out=bits[:, :nbits])
        packed = np.packbits(bits, axis=1, bitorder="little")
        words[:, start:start + len(rows)] = packed.view(np.uint64).T
    return words


def lsh_build(store: VectorStore, params: LshParams) -> LshIndex:
    rng = Rng(params.seed)
    planes = rng.normals(params.nbits * store.dim).reshape(params.nbits, store.dim)
    planes64 = planes.astype(FLOAT).T.astype(np.float64)
    return LshIndex(store, params, planes64, _lsh_words(store.vectors, planes64))


def lsh_search(index: LshIndex, query: np.ndarray, k: int) -> np.ndarray:
    """Rank by Hamming distance between sign codes, ties by smaller id."""
    query = _check_query(query, index.store, k)
    qwords = _lsh_words(query[None, :], index._planes64)
    # exact for nbits < 2**32, and cheaper to accumulate than the default uint64
    hamming = np.bitwise_count(index._words ^ qwords).sum(axis=0, dtype=np.uint32)
    return _rank(np.arange(len(index.store)), hamming, k)


# -- HNSW ---------------------------------------------------------------------

@dataclass
class HnswParams:
    M: int = 16
    ef_construction: int = 200
    ef_search: int = 128
    seed: int = 0

    def __post_init__(self):
        require_ints(self, "M", "ef_construction", "ef_search", "seed")
        if self.M < 2:
            raise ValueError(f"M must be >= 2, got {self.M}")
        if self.ef_construction < 1 or self.ef_search < 1:
            raise ValueError("ef_construction and ef_search must be >= 1")


class HnswIndex:
    """Hierarchical NSW graph: geometric levels with multiplier 1/ln(M),
    greedy descent on upper layers, a beam of ef on layer 0, and simple
    nearest-neighbor selection when linking (layer 0 keeps up to 2M links,
    upper layers up to M).

    Each layer's adjacency is one int32 array of shape (n + 1, width): row u
    holds u's links first, then the sentinel n, and row n is all sentinel.
    `_deg` counts each row's links. Inserts and searches share `_beam`,
    which expands its whole frontier (the beam members not yet expanded)
    per round: one gather of their rows, one distance call for the ids not
    seen before, then a trim to the ef nearest by (distance, id).

    After the last insert the build finalizes layer 0 on arrays. One sort
    of the edge keys u * n + v and v * n + u, repeats dropped, symmetrizes
    the adjacency (degree-cap eviction during inserts can strand one-way
    edges), and frontier walks over the padded rows find the components.
    Each component cut off from the entry point is reconnected, lowest id
    first, through that id's nearest reached node. Those repair edges may
    exceed the degree cap, so layer 0 is re-packed at its largest degree,
    each row sorted. They guarantee the base layer is connected, so an
    exhaustive beam reaches every node."""

    def __init__(self, store: VectorStore, params: HnswParams, levels: list[int]):
        self.store = store
        self.params = params
        self.levels = levels
        n = len(store)
        widths = [2 * params.M] + [params.M] * max(levels)
        self._adj = [np.full((n + 1, w), n, dtype=np.int32) for w in widths]
        self._deg = [np.zeros(n, dtype=np.int64) for _ in widths]
        self.entry = -1
        self.max_level = -1

    @property
    def neighbors(self) -> list[list[list[int]]]:
        """neighbors[u][layer]: u's links on each of its layers, as Python ints."""
        return [[self._adj[lc][u, :self._deg[lc][u]].tolist() for lc in range(level + 1)]
                for u, level in enumerate(self.levels)]

    def _beam(self, q64: np.ndarray, entries: np.ndarray, ef: int, layer: int) -> np.ndarray:
        """The ef ids nearest q64 found on `layer` from `entries`, by
        (distance, id). Each round gathers the rows of every beam member not
        yet expanded, keeps the ids no round has seen yet, each once, and
        trims the beam with them back to ef; the members that came in this
        round are the next round's frontier."""
        adj, vecs = self._adj[layer], self.store.vectors
        # per call, so searches stay reentrant; 0 marks an id not seen yet,
        # and one array both drops seen ids and dedupes the rest
        seen = np.zeros(len(vecs) + 1, dtype=np.intp)
        seen[-1] = -1
        seen[entries] = -1
        ids, dists, front = entries, _sq_dists(vecs[entries], q64), entries
        while front.size:
            fresh = adj[front].ravel()
            fresh = fresh[seen[fresh] == 0]
            if front.size > 1:
                # rows can share ids: each keeps only the slot that stamped it last
                slots = np.arange(1, fresh.size + 1)
                seen[fresh] = slots
                fresh = fresh[seen[fresh] == slots]
            else:
                seen[fresh] = 1
            ids = np.concatenate((ids, fresh))
            dists = np.concatenate((dists, _sq_dists(vecs[fresh], q64)))
            front = fresh
            if ids.size > ef:
                keep = _order(ids, dists, ef)
                front = ids[keep[keep >= ids.size - fresh.size]]
                ids, dists = ids[keep], dists[keep]
        return ids[_order(ids, dists, ef)]

    def _insert(self, i: int) -> None:
        level = self.levels[i]
        if self.entry < 0:
            self.entry, self.max_level = i, level
            return
        vecs = self.store.vectors
        q = vecs[i].astype(np.float64)
        m = self.params.M
        ep = np.array([self.entry], dtype=np.int32)
        for lc in range(self.max_level, -1, -1):
            ep = self._beam(q, ep, self.params.ef_construction if lc <= level else 1, lc)
            if lc > level:
                continue
            adj, deg = self._adj[lc], self._deg[lc]
            links = ep[:m]
            adj[i, :links.size] = links
            deg[i] = links.size
            full = deg[links] == adj.shape[1]
            room = links[~full]
            adj[room, deg[room]] = i
            deg[room] += 1
            if full.any():
                # a full node keeps the nearest `width` of its links and i, by (distance, id)
                full = links[full]
                cand = np.column_stack((adj[full], np.full(full.size, i, dtype=np.int32)))
                d = _sq_dists(vecs[cand], vecs[full][:, None])
                adj[full] = np.take_along_axis(cand, np.lexsort((cand, d))[:, :-1], axis=1)
        if level > self.max_level:
            self.entry, self.max_level = i, level

    def _finalize_layer0(self) -> None:
        n = len(self.levels)
        if n <= 1:
            return
        rows = self._adj[0][:n]
        src = np.repeat(np.arange(n), self._deg[0])
        dst = rows[rows != n].astype(np.int64)
        # each edge in both directions, once, as sorted keys u * n + v; by a
        # sort and a neighbor compare, since numpy 2.4's np.unique hashes
        # before it sorts and takes about 40x as long on these keys
        keys = np.concatenate((src * n + dst, dst * n + src))
        del src, dst
        keys.sort()
        keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
        graph, deg = _pack_keys(keys, n)
        reached = np.zeros(n + 1, dtype=bool)
        reached[n] = True  # the sentinel
        _reach(graph, reached, self.entry)
        repairs = []
        while not reached.all():
            # the lowest unreached id joins its nearest reached node, and its
            # whole component is reached with it
            u = int(np.argmin(reached))
            ids = np.flatnonzero(reached[:n])
            v = int(_rank(ids, _sq_dists(self.store.vectors[ids], self.store.vectors[u]), 1)[0])
            repairs += [u * n + v, v * n + u]
            _reach(graph, reached, u)
        if repairs:
            graph, deg = _pack_keys(np.sort(np.concatenate((keys, repairs))), n)
        self._adj[0], self._deg[0] = graph, deg


def _pack_keys(keys: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted edge keys u * n + v as a padded adjacency (row u holds u's
    links in ascending order, then the sentinel n; row n is all sentinel)
    and its degrees."""
    u = keys // n
    deg = np.bincount(u, minlength=n)
    slot = np.arange(keys.size)
    slot -= (np.cumsum(deg) - deg)[u]
    packed = np.full((n + 1, deg.max()), n, dtype=np.int32)
    packed[u, slot] = keys % n
    return packed, deg


def _reach(adj: np.ndarray, reached: np.ndarray, start: int) -> None:
    """Mark every node joined to `start` on the padded adjacency `adj` in
    `reached`, one frontier of rows per round; the nodes already marked stop
    the walk, the sentinel among them."""
    reached[start] = True
    front = np.array([start])
    while front.size:
        nbrs = adj[front].ravel()
        front = np.unique(nbrs[~reached[nbrs]])
        reached[front] = True


def hnsw_build(store: VectorStore, params: HnswParams) -> HnswIndex:
    rng = Rng(params.seed)
    ml = 1.0 / math.log(params.M)
    levels = np.floor(-np.log(rng.uniforms_open(len(store))) * ml).astype(int)
    index = HnswIndex(store, params, levels.tolist())
    for i in range(len(store)):
        index._insert(i)
    index._finalize_layer0()
    return index


def hnsw_search(index: HnswIndex, query: np.ndarray, k: int) -> np.ndarray:
    """Greedy descent (a beam of one) to layer 0, then a beam of ef_search."""
    query = _check_query(query, index.store, k)
    ef = index.params.ef_search
    if ef < k:
        raise ValueError(f"ef_search {ef} must be >= k {k}")
    q = query.astype(np.float64)
    ep = np.array([index.entry], dtype=np.int32)
    for lc in range(index.max_level, -1, -1):
        ep = index._beam(q, ep, ef if lc == 0 else 1, lc)
    return ep[:k].astype(np.int64)


# -- metrics ------------------------------------------------------------------

def recall_vs_exact(approx_ids, exact_ids, k: int) -> float:
    """Overlap between an approximate top-k and the exact top-k, over k."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return len(set(list(approx_ids)[:k]) & set(list(exact_ids)[:k])) / k


# -- defaults and harness -------------------------------------------------------

def default_params(kind: str, n: int, dim: int, seed: int = 0):
    """Documented per-index defaults: nlist ~ sqrt(N), nprobe 8,
    nbits = 4*dim capped at 512, M 16, ef_construction 200, ef_search 128."""
    if kind == "flat":
        return None
    if kind == "ivf":
        nlist = max(1, min(n, round(math.sqrt(n))))
        return IvfParams(nlist=nlist, nprobe=min(8, nlist), seed=seed)
    if kind == "lsh":
        return LshParams(nbits=min(4 * dim, 512), seed=seed)
    if kind == "hnsw":
        return HnswParams(seed=seed)
    raise ValueError(f"unknown index kind {kind!r}")


def normalize_rows(x: np.ndarray) -> np.ndarray:
    """L2-normalize rows in float64, rounded once to float32; zero rows stay zero."""
    x64 = np.asarray(x, dtype=np.float64)
    norms = np.sqrt((x64 * x64).sum(axis=1, keepdims=True))
    return (x64 / np.where(norms > 0.0, norms, 1.0)).astype(FLOAT)


def evaluate_retrieval(embeddings: np.ndarray, labels: np.ndarray, kind: str,
                       ks: list[int], seed: int = 0) -> dict:
    """Self-retrieval benchmark over a labeled corpus, indexed with `default_params`.

    Every embedded vector queries the whole corpus; its own id is dropped
    from the result list and the relevant set is every other vector with
    the same label. Precision@k is the strict fraction of relevant hits in
    the top k. Recall@k is normalized by min(|relevant|, k) — the capped
    form — so a top-k made entirely of the right cluster scores 1.0 even
    when the cluster holds more than k members.
    """
    embeddings = normalize_rows(embeddings)
    labels = np.asarray(labels)
    if labels.ndim != 1 or not np.issubdtype(labels.dtype, np.integer):
        raise ValueError(f"labels must be a 1-D integer array, got {labels.dtype}{labels.shape}")
    if embeddings.shape[0] != labels.shape[0]:
        raise ValueError("labels must match embeddings rows")
    n = embeddings.shape[0]
    ks = sorted(set(int(k) for k in ks))
    if any(k < 1 for k in ks):
        raise ValueError("all k must be >= 1")
    if max(ks) >= n:
        raise ValueError(f"max k {max(ks)} must be below corpus size {n}")
    params = default_params(kind, n, embeddings.shape[1], seed)
    store = VectorStore(embeddings)
    # by name at call time, so a rebound `{kind}_search` is the one called
    build, search = {"flat": (lambda store, _: store, flat_search), "ivf": (ivf_build, ivf_search),
                     "lsh": (lsh_build, lsh_search), "hnsw": (hnsw_build, hnsw_search)}[kind]
    index = build(store, params)
    kmax = max(ks)
    _, label_ids, label_counts = np.unique(labels, return_inverse=True, return_counts=True)
    precision, recall = dict.fromkeys(ks, 0.0), dict.fromkeys(ks, 0.0)
    for i in range(n):
        got = search(index, store.vectors[i], kmax + 1)
        hit = labels[got[got != i][:kmax]] == labels[i]
        relevant = int(label_counts[label_ids[i]]) - 1
        for k in ks:
            hits = int(np.count_nonzero(hit[:k]))
            precision[k] += hits / k
            denom = min(relevant, k)
            recall[k] += hits / denom if denom else 0.0
    return {
        "index": kind,
        "num_vectors": n,
        "num_queries": n,
        "precision_at_k": {str(k): precision[k] / n for k in ks},
        "recall_at_k": {str(k): recall[k] / n for k in ks},
    }
