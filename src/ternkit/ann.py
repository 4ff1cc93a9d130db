"""Nearest-neighbor indexes and retrieval metrics.

Four index families over a fixed vector store: exact brute-force L2, an
inverted-file index over seeded k-means cells, random-hyperplane LSH ranked
by Hamming distance, and a hierarchical navigable-small-world graph. All
distances are squared L2 in float64, and ties always break toward the smaller
id.

Exact top-k (flat search, the scan of IVF's probed cells, and IVF's
nearest-centroid assignment) runs in two steps. A screen takes approximate
distances ||v||^2 - 2 v.q + ||q||^2 from one GEMV (a GEMM for assignment)
against the float64 rows and squared norms the store caches at construction,
widens each by a rigorous bound on its rounding error, and keeps every id
whose lower end is at or below the k-th smallest upper end. The survivors are
re-ranked with the row-wise reference formula `_sq_dists`, which gives each
row the same value whichever rows it is computed with. So the ids, their order
and the tie order equal those of the unscreened computation bit for bit, and
exhaustively-probed IVF reproduces brute force, tie order included.
Non-finite stores and queries skip the screen.

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

from .rng import Rng
from .tensor import FLOAT

INDEX_KINDS = ("flat", "ivf", "lsh", "hnsw")


@dataclass(eq=False)
class VectorStore:
    """Vectors with implicit stable ids 0..N-1.

    The float64 rows, their squared norms and whether every entry is finite
    are computed once here, so `vectors` must not change afterwards."""

    vectors: np.ndarray
    vectors64: np.ndarray = field(init=False, repr=False)
    sq_norms: np.ndarray = field(init=False, repr=False)
    finite: bool = field(init=False, repr=False)

    def __post_init__(self):
        self.vectors = np.ascontiguousarray(self.vectors, dtype=FLOAT)
        if self.vectors.ndim != 2 or self.vectors.shape[0] < 1 or self.vectors.shape[1] < 1:
            raise ValueError(f"vectors must be a non-empty 2-D array, got {self.vectors.shape}")
        self.vectors64 = self.vectors.astype(np.float64)
        self.sq_norms = np.einsum("ij,ij->i", self.vectors64, self.vectors64)
        self.finite = bool(np.isfinite(self.vectors).all())

    def __len__(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def _sq_dists(vectors: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Squared L2 distances over the last axis, float64. Row-wise, so subsets
    (and stacks of rows) reproduce exactly."""
    diff = np.asarray(vectors, dtype=np.float64) - np.asarray(query, dtype=np.float64)
    diff *= diff
    return np.add.reduce(diff, axis=-1)


# The screen's bound. Take u = 2^-53, gamma_n = n*u / (1 - n*u), the model
# fl(x op y) = (x op y)(1 + delta) with |delta| <= u, D = ||v - q||^2 exact and
# S = (||v|| + ||q||)^2 >= D.
# - `_sq_dists` gives R: each of the d terms carries (1+delta)^3 from the
#   subtraction and the square, and summing d nonnegative terms in any order
#   adds gamma_{d-1}, so |R - D| <= gamma_{d+2} * D.
# - The screen gives A = fl(fl(N - 2g) + nq) from N = fl(||v||^2),
#   g = fl(v.q) and nq = fl(||q||^2). Each is a d-term dot product, off by at
#   most gamma_d * sum_j |x_j y_j| in any summation order, with or without FMA,
#   and sum_j |v_j q_j| <= ||v|| ||q||; 2g is exact. The pieces are thus off by
#   gamma_d * S together, and each of the two additions adds u times a
#   magnitude of at most (1 + gamma_d) * S, so |A - D| <= gamma_{d+2} * S.
# Hence |R - A| <= 2 gamma_{d+2} S, which is below 2.0001 (d+2) u S for any d
# an array can have. The slack 4 (d+2) u S is twice that; the spare half
# covers the rounding of S, of the slack and of A -/+ slack, each a few u * S.
# Products that underflow lose at most 2^-1075 each, and there are at most
# 5d of them; _TINY covers that. Rows and queries are float32 values (or,
# for centroids, their means), so nothing overflows.
_UNIT_ROUNDOFF = 2.0 ** -53
_TINY = 2.0 ** -1000


def _sq_dist_bounds(sq_norms, dots, q_sq_norms, dim: int):
    """(lo, hi) with lo <= `_sq_dists` <= hi for every pair, from squared
    norms and dot products; broadcasts, so it serves a GEMV or a GEMM."""
    approx = sq_norms - 2.0 * dots + q_sq_norms
    slack = 4.0 * (dim + 2) * _UNIT_ROUNDOFF * (np.sqrt(sq_norms) + np.sqrt(q_sq_norms)) ** 2
    slack += _TINY
    return approx - slack, approx + slack


def _exact_top_k(store: VectorStore, query: np.ndarray, k: int,
                 ids: np.ndarray | None = None) -> np.ndarray:
    """Top k of `ids` (default: every id) by (`_sq_dists`, id).

    The screen keeps every id that can reach the top k or tie at the k-th
    place, and the re-rank computes exactly what the unscreened ranking
    would, so the result is the same, ties included."""
    rows, sq_norms = store.vectors64, store.sq_norms
    if ids is None:
        ids = np.arange(len(store))
    else:
        rows, sq_norms = rows[ids], sq_norms[ids]
    if len(ids) > k and store.finite and np.isfinite(query).all():
        q = query.astype(np.float64)
        lo, hi = _sq_dist_bounds(sq_norms, rows @ q, q @ q, store.dim)
        keep = lo <= np.partition(hi, k - 1)[k - 1]
        ids, rows = ids[keep], rows[keep]
    return _rank(ids, _sq_dists(rows, query), k)


def _check_query(query: np.ndarray, store: VectorStore, k: int | None = None) -> np.ndarray:
    """The query as a float32 vector of the store's dim; k, when given, must
    be in [1, len(store)]."""
    query = np.asarray(query, dtype=FLOAT).reshape(-1)
    if query.shape[0] != store.dim:
        raise ValueError(f"query dim {query.shape[0]} != store dim {store.dim}")
    if k is not None and not 1 <= k <= len(store):
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
    kmeans_iters: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.nlist < 1:
            raise ValueError(f"nlist must be >= 1, got {self.nlist}")
        if not 1 <= self.nprobe <= self.nlist:
            raise ValueError(f"nprobe must be in [1, nlist={self.nlist}], got {self.nprobe}")
        if self.kmeans_iters < 1:
            raise ValueError(f"kmeans_iters must be >= 1, got {self.kmeans_iters}")


class IvfIndex:
    def __init__(self, store: VectorStore, params: IvfParams,
                 centroids: np.ndarray, lists: list[np.ndarray]):
        self.store = store
        self.params = params
        self.centroids = centroids
        self.lists = lists

    def search(self, query: np.ndarray, k: int) -> np.ndarray:
        return ivf_search(self, query, k)


def _kmeans(store: VectorStore, nlist: int, iters: int, seed: int) -> np.ndarray:
    """Seeded Lloyd iterations; empty cells re-seed to the farthest point."""
    rng = Rng(seed)
    rows = store.vectors64
    centroids = rows[np.sort(rng.permutation(len(rows))[:nlist])]
    for _ in range(iters):
        assign = _assign(store, centroids)
        counts = np.bincount(assign, minlength=nlist)
        sums = np.zeros_like(centroids)
        np.add.at(sums, assign, rows)
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

    The screen of `_exact_top_k` with k = 1, one GEMM per block of points;
    only the surviving (point, cell) pairs get exact distances. Centroids
    are rows or means of rows, so they are finite when the store is."""
    n, nlist = len(store), len(centroids)
    c_sq_norms = np.einsum("ij,ij->i", centroids, centroids)
    assign = np.empty(n, dtype=np.int64)
    step = max(1, 2_000_000 // (nlist * store.dim))
    for start in range(0, n, step):
        rows = store.vectors64[start:start + step]
        if store.finite:
            lo, hi = _sq_dist_bounds(store.sq_norms[start:start + step, None],
                                     rows @ centroids.T, c_sq_norms, store.dim)
            keep = lo <= hi.min(axis=1, keepdims=True)
        else:
            keep = np.ones((len(rows), nlist), dtype=bool)
        point, cell = np.nonzero(keep)
        d = np.full(keep.shape, np.inf)
        d[point, cell] = _sq_dists(rows[point], centroids[cell])
        assign[start:start + step] = np.argmin(d, axis=1)
    return assign


def ivf_build(store: VectorStore, params: IvfParams) -> IvfIndex:
    if params.nlist > len(store):
        raise ValueError(f"nlist {params.nlist} exceeds store size {len(store)}")
    centroids = _kmeans(store, params.nlist, params.kmeans_iters, params.seed)
    assign = _assign(store, centroids)
    lists = [np.flatnonzero(assign == c) for c in range(params.nlist)]
    return IvfIndex(store, params, centroids.astype(FLOAT), lists)


def ivf_search(index: IvfIndex, query: np.ndarray, k: int) -> np.ndarray:
    """Scan the nprobe nearest cells exactly; top-k of their union.

    May return fewer than k ids when the probed cells hold fewer points;
    probing every cell always yields exactly the brute-force ranking.
    """
    query = _check_query(query, index.store)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    cd = _sq_dists(index.centroids, query)
    probe = _rank(np.arange(len(index.centroids)), cd, index.params.nprobe)
    cand = np.concatenate([index.lists[c] for c in probe]) if len(probe) else np.empty(0, int)
    if cand.size == 0:
        return cand
    return _exact_top_k(index.store, query, k, cand)


# -- LSH ----------------------------------------------------------------------

@dataclass
class LshParams:
    nbits: int
    seed: int = 0

    def __post_init__(self):
        if self.nbits < 1:
            raise ValueError(f"nbits must be >= 1, got {self.nbits}")


class LshIndex:
    def __init__(self, store: VectorStore, params: LshParams,
                 hyperplanes: np.ndarray, codes: np.ndarray):
        self.store = store
        self.params = params
        self.hyperplanes = hyperplanes
        self.codes = codes

    def search(self, query: np.ndarray, k: int) -> np.ndarray:
        return lsh_search(self, query, k)


def _lsh_code(vectors: np.ndarray, hyperplanes: np.ndarray) -> np.ndarray:
    """Sign bits of the projections (dot >= 0 -> 1), packed LSB-first per row."""
    bits = vectors.astype(np.float64) @ hyperplanes.T.astype(np.float64) >= 0.0
    return np.packbits(bits, axis=1, bitorder="little")


def lsh_build(store: VectorStore, params: LshParams) -> LshIndex:
    rng = Rng(params.seed)
    planes = rng.normals(params.nbits * store.dim).reshape(params.nbits, store.dim)
    planes = planes.astype(FLOAT)
    codes = _lsh_code(store.vectors, planes)
    return LshIndex(store, params, planes, codes)


def lsh_search(index: LshIndex, query: np.ndarray, k: int) -> np.ndarray:
    """Rank by Hamming distance between sign codes, ties by smaller id."""
    query = _check_query(query, index.store, k)
    qcode = _lsh_code(query[None, :], index.hyperplanes)
    hamming = np.bitwise_count(index.codes ^ qcode).sum(axis=1)
    return _rank(np.arange(len(index.store)), hamming.astype(np.float64), k)


# -- HNSW ---------------------------------------------------------------------

@dataclass
class HnswParams:
    M: int = 16
    ef_construction: int = 200
    ef_search: int = 128
    seed: int = 0

    def __post_init__(self):
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

    After the last insert the build finalizes layer 0: the adjacency is
    symmetrized (degree-cap eviction during inserts can strand one-way
    edges) and any component cut off from the entry point is reconnected
    through its nearest reachable node. Those repair edges may exceed the
    degree cap, so layer 0 is re-packed at its largest degree, each row
    sorted. They guarantee the base layer is connected, so an exhaustive
    beam reaches every node."""

    def __init__(self, store: VectorStore, params: HnswParams, levels: list[int]):
        self.store = store
        self.params = params
        self._vecs = store.vectors64
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
        adj, vecs = self._adj[layer], self._vecs
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
        q = self._vecs[i]
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
                d = _sq_dists(self._vecs[cand], self._vecs[full][:, None])
                adj[full] = np.take_along_axis(cand, np.lexsort((cand, d))[:, :-1], axis=1)
        if level > self.max_level:
            self.entry, self.max_level = i, level

    def _finalize_layer0(self) -> None:
        n = len(self.levels)
        if n <= 1:
            return
        rows = [row[:d].tolist() for row, d in zip(self._adj[0], self._deg[0])]
        adj = [set(row) for row in rows]
        for u, row in enumerate(rows):
            for v in row:
                adj[v].add(u)
        reached = self._component(adj, self.entry)
        # the lowest unreached id joins its nearest reached node, and its
        # whole component is reached with it
        for u in range(n):
            if u not in reached:
                ids = np.fromiter(reached, dtype=np.int64)
                v = int(_rank(ids, _sq_dists(self._vecs[ids], self._vecs[u]), 1)[0])
                adj[u].add(v)
                adj[v].add(u)
                reached |= self._component(adj, u)
        deg = np.array([len(links) for links in adj], dtype=np.int64)
        packed = np.full((n + 1, deg.max()), n, dtype=np.int32)
        for u, links in enumerate(adj):
            packed[u, :deg[u]] = sorted(links)
        self._adj[0], self._deg[0] = packed, deg

    @staticmethod
    def _component(adj: list[set], start: int) -> set:
        seen = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            for nb in adj[node]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        return seen

    def search(self, query: np.ndarray, k: int) -> np.ndarray:
        return hnsw_search(self, query, k)


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


class _FlatIndex:
    def __init__(self, store: VectorStore):
        self.store = store

    def search(self, query, k):
        return flat_search(self.store, query, k)


def build_index(kind: str, store: VectorStore, params=None, seed: int = 0):
    """Uniform constructor over the four index kinds."""
    if params is None:
        params = default_params(kind, len(store), store.dim, seed)
    if kind == "flat":
        return _FlatIndex(store)
    if kind == "ivf":
        return ivf_build(store, params)
    if kind == "lsh":
        return lsh_build(store, params)
    if kind == "hnsw":
        return hnsw_build(store, params)
    raise ValueError(f"unknown index kind {kind!r}")


def normalize_rows(x: np.ndarray) -> np.ndarray:
    """L2-normalize rows in float64, rounded once to float32; zero rows stay zero."""
    x64 = np.asarray(x, dtype=np.float64)
    norms = np.sqrt((x64 * x64).sum(axis=1, keepdims=True))
    return (x64 / np.where(norms > 0.0, norms, 1.0)).astype(FLOAT)


def evaluate_retrieval(embeddings: np.ndarray, labels: np.ndarray, kind: str,
                       ks: list[int], params=None, seed: int = 0) -> dict:
    """Self-retrieval benchmark over a labeled corpus.

    Every embedded vector queries the whole corpus; its own id is dropped
    from the result list and the relevant set is every other vector with
    the same label. Precision@k is the strict fraction of relevant hits in
    the top k. Recall@k is normalized by min(|relevant|, k) — the capped
    form — so a top-k made entirely of the right cluster scores 1.0 even
    when the cluster holds more than k members.
    """
    embeddings = normalize_rows(embeddings)
    labels = np.asarray(labels)
    if embeddings.shape[0] != labels.shape[0]:
        raise ValueError("labels must match embeddings rows")
    n = embeddings.shape[0]
    ks = sorted(set(int(k) for k in ks))
    if any(k < 1 for k in ks):
        raise ValueError("all k must be >= 1")
    if max(ks) >= n:
        raise ValueError(f"max k {max(ks)} must be below corpus size {n}")
    store = VectorStore(embeddings)
    index = build_index(kind, store, params=params, seed=seed)
    kmax = max(ks)
    by_label: dict = {}
    for i, lab in enumerate(labels.tolist()):
        by_label.setdefault(lab, set()).add(i)
    precision = {k: 0.0 for k in ks}
    recall = {k: 0.0 for k in ks}
    for i in range(n):
        got = [r for r in index.search(store.vectors[i], kmax + 1) if r != i][:kmax]
        relevant = by_label[labels[i]] - {i}
        for k in ks:
            top = got[:k]
            hits = sum(1 for r in top if r in relevant)
            precision[k] += hits / k
            denom = min(len(relevant), k)
            recall[k] += hits / denom if denom else 0.0
    return {
        "index": kind,
        "num_vectors": n,
        "num_queries": n,
        "precision_at_k": {str(k): precision[k] / n for k in ks},
        "recall_at_k": {str(k): recall[k] / n for k in ks},
    }
