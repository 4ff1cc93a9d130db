"""Golden guard: checkpoint bytes, sidecars, model digests, packed kernel
outputs, encoder forward outputs, distillation trajectories and the indexes
and top-k results of every retrieval path are pinned.

The weights and inputs come from ``Rng.uniforms_open``, whose draws are
bit-portable (normal variates are only stable per platform), so these hashes
hold on any platform; the exceptions are the LSH hyperplanes, which
``lsh_build`` draws as normals, and the encoder forward outputs, the
distillation trajectories and the dense packed operand's products, which
hold wherever BLAS and libm float64 results round to the same float32
values. A change to either checkpoint writer, the sidecar layout, the
parameter walk, the rounding of the packed kernel or of a forward pass, the
arithmetic of a training step, or the ids and tie order an index returns
shows up here as a hash mismatch.
"""

import hashlib
import json

import numpy as np
import pytest
from scipy import sparse

from conftest import hnsw_layer0_connected
from ternkit import packed, storage
from ternkit.ann import (HnswParams, IvfParams, LshParams, VectorStore, flat_search,
                         hnsw_build, hnsw_search, ivf_build, ivf_search, lsh_build,
                         lsh_search)
from ternkit.distill import TrainConfig, _train, distill
from ternkit.encoder import (EncoderConfig, EncoderModel, MODE_TERNARY, PackedEncoder,
                             model_digest, replace_linears)
from ternkit.packed import PackedTernaryMatrix, packed_gemm
from ternkit.rng import Rng
from ternkit.ternary import compute_threshold, ternarize

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


def _cubic_weights(rows: int, cols: int, seed: int) -> np.ndarray:
    # cubing spreads the uniforms so beta 2 leaves ~20% of the trits nonzero
    return (_uniform(Rng(seed), rows, cols).astype(np.float64) ** 3).astype(np.float32)


def _cubic_layer(rows: int, cols: int, beta: float, seed: int) -> PackedTernaryMatrix:
    w = _cubic_weights(rows, cols, seed)
    return ternarize(w, compute_threshold(w, beta))


def _kernel_layers() -> dict[str, PackedTernaryMatrix]:
    layers = {}
    for i, (rows, cols) in enumerate(((64, 64), (256, 64), (64, 256))):
        for beta in (2.0, 0.75):
            layers[f"{rows}x{cols}-beta{beta}"] = _cubic_layer(rows, cols, beta, 100 + i)
    layers["all-zero"] = ternarize(np.zeros((16, 24), np.float32), 0.5)
    w = _cubic_weights(40, 32, 200)
    gamma = compute_threshold(w, 0.75)  # from the full weights, before the rows are zeroed
    w[::3] = 0
    w[-4:] = 0  # trailing empty rows too
    layers["empty-rows"] = ternarize(w, gamma)
    layers["ragged-cols"] = _cubic_layer(37, 29, 0.75, 300)
    return layers


def _kernel_digest(t: PackedTernaryMatrix, seed: int) -> str:
    rng = Rng(seed)
    x = _uniform(rng, t.cols, 512)
    xt = _uniform(rng, 512, t.cols)
    bias = _uniform(rng, t.rows)
    h = hashlib.sha256()
    for b in (None, bias):
        p = PackedTernaryMatrix(t.rows, t.cols, t.plus_plane, t.minus_plane, t.gamma, b)
        for out in (packed_gemm(p, x[:, :1])[:, 0], packed_gemm(p, x[:, :1]),
                    packed_gemm(p, x), packed_gemm(p, xt.T)):
            h.update(out.astype("<f4").tobytes())
    return h.hexdigest()


def test_golden_kernel_outputs():
    got = {name: _kernel_digest(t, 7) for name, t in _kernel_layers().items()}
    assert got == KERNEL


@pytest.mark.parametrize("min_fill, kind", [(0.0, np.ndarray), (2.0, sparse.csr_matrix)])
def test_golden_kernel_outputs_per_operand(monkeypatch, min_fill, kind):
    # fill 0 makes every operand dense, fill 2 (never reached) every one CSR
    monkeypatch.setattr(packed, "_DENSE_MIN_FILL", min_fill)
    layers = _kernel_layers()
    assert all(type(t.operand()) is kind for t in layers.values())
    assert {name: _kernel_digest(t, 7) for name, t in layers.items()} == KERNEL


def test_operand_rule_by_density():
    dense = {"64x64-beta0.75", "256x64-beta0.75", "64x256-beta0.75", "empty-rows",
             "ragged-cols"}
    for name, t in _kernel_layers().items():
        op = t.operand()
        assert type(op) is (np.ndarray if name in dense else sparse.csr_matrix), name


# -- retrieval -------------------------------------------------------------------

RETRIEVAL = {
    "ivf.centroids": "01a964d45fa296850d7d36c3540c400028ae6a6b0271c078c1ca23588fd593a4",
    "ivf.lists": "88515be345319d3624216955ea39b12bcc101bd151d9e4c48bbe13a7e1ec7ecd",
    "hnsw.levels": "fed70018244b44bc83a7b6865cb48ef7e76777d12f7fd4857663e9fb7b55df50",
    "hnsw.neighbors": "aa49c579c5e66905fb99c4d0c5511c05aceeadc0ecc9389331fbf08720aaa938",
    "lsh.codes": "43f4694abdf462b1b1bf0e804f67a59f270b99bcfa9d0fc6db7b4f7c41191aef",
    "flat.top10": "2692b4fe775be87c4006c80a9afc9f9d19c0a4f9c326cd5fec35f0823cf7e66a",
    "ivf.top10": "1c12f42a8c7ec328269533f01586951f0317549defff04ec0c0cd54a5466b177",
    "lsh.top10": "28dde69bd9fbdd61604efb0c8f8f93cccf4afbc2a7dc27246a2064df029886d7",
    "hnsw.top10": "15d733e8b3e8fbd9556697e8a5733a5324e88ccf4130916192eefd85b9f6b95b",
}


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def test_golden_retrieval():
    rng = Rng(4242)
    vecs = _uniform(rng, 500, 16)
    vecs[100:110] = vecs[:10]  # duplicate rows, so ties decide the order
    store = VectorStore(vecs)
    queries = np.concatenate([_uniform(rng, 24, 16), vecs[[0, 5, 100, 499]]])
    ivf = ivf_build(store, IvfParams(nlist=20, nprobe=4, seed=3))
    lsh = lsh_build(store, LshParams(nbits=48, seed=4))
    hnsw = hnsw_build(store, HnswParams(M=6, ef_construction=40, ef_search=24, seed=5))
    top = {"flat": lambda q: flat_search(store, q, 10), "ivf": lambda q: ivf_search(ivf, q, 10),
           "lsh": lambda q: lsh_search(lsh, q, 10), "hnsw": lambda q: hnsw_search(hnsw, q, 10)}
    got = {
        "ivf.centroids": _digest(ivf.centroids.astype("<f4")),
        "ivf.lists": _digest(*(ids.astype("<i8") for ids in ivf.lists)),
        "hnsw.levels": _digest(np.array(hnsw.levels, "<i8")),
        "hnsw.neighbors": hashlib.sha256(json.dumps(hnsw.neighbors).encode()).hexdigest(),
        "lsh.codes": _digest(lsh.codes),
        **{f"{kind}.top10": _digest(*(np.asarray(search(q), "<i8") for q in queries))
           for kind, search in top.items()},
    }
    assert got == RETRIEVAL


HNSW_REPAIR = {
    "levels": "f51952ca23d2ddd6ba4dd368d0c27f04ba919ddc7b4d8e1b55079694030fe143",
    "neighbors": "742bec4331c925a0b67dd5a9665587101c655118e3628683dafe3d09dec5ddbc",
    "top4": "6e3173f66697d28fc345e8f97bb5994c5eaf023aabc4f9d9a87a001427bb03b5",
}


def test_golden_hnsw_repair():
    """Two clusters 100 apart with M=2 and a beam of one: inserts leave parts
    of layer 0 cut off from the entry point, and the build reconnects each
    through its nearest reached node (8 repairs on this store)."""
    rng = Rng(9)
    near = rng.uniforms_open(200 * 8).reshape(200, 8).astype(np.float32)
    far = (rng.uniforms_open(200 * 8).reshape(200, 8) + 100).astype(np.float32)
    store = VectorStore(np.concatenate([near, far]))
    index = hnsw_build(store, HnswParams(M=2, ef_construction=1, ef_search=4, seed=1))
    queries = store.vectors[[0, 57, 199, 200, 399]]
    got = {
        "levels": _digest(np.array(index.levels, "<i8")),
        "neighbors": hashlib.sha256(json.dumps(index.neighbors).encode()).hexdigest(),
        "top4": _digest(*(np.asarray(hnsw_search(index, q, 4), "<i8") for q in queries)),
    }
    assert got == HNSW_REPAIR
    assert hnsw_layer0_connected(index)


HNSW_REPAIR_CHAIN = {
    "levels": "d60aca2e2bbb4f5250cf9fcca44101d0fd71fc0b84ada37d7d9bf5ee7d99b435",
    "neighbors": "1f3c2fad16518bd7ab81b0f519e94b83542d6b49be538df39462d0725e3e5eee",
    "top8": "e044d278e6a89af016bebe1025441b7e4cfc201bc28972a99f94fb613d80c133",
}


def test_golden_hnsw_repair_order():
    """Ten groups about 1000 apart, interleaved by id, with M=2 and a beam
    of one: seven components are cut off from the entry point. Each repair
    joins the lowest unreached id to its nearest reached node, and most
    reach a component an earlier repair brought in, so the graph depends
    on the order of the repairs."""
    rng = Rng(31)
    groups, size, dim = 10, 30, 8
    n = groups * size
    centers = 1000.0 * rng.uniforms_open(groups * dim).reshape(groups, dim)
    group = np.arange(n) % groups
    vecs = centers[group] + rng.uniforms_open(n * dim).reshape(n, dim)
    store = VectorStore(vecs.astype(np.float32))
    index = hnsw_build(store, HnswParams(M=2, ef_construction=1, ef_search=8, seed=1))
    # (lowest unreached id, its nearest reached node), in repair order; each
    # repair after the second joins a component an earlier one brought in:
    # 5 that of 0, 6 that of 5, 32 and 58 that of 1, and 57 that of 6
    for u, v in [(0, 238), (1, 241), (5, 80), (6, 125), (32, 22), (57, 7), (58, 48)]:
        assert v in index.neighbors[u][0] and u in index.neighbors[v][0]
    queries = store.vectors[[0, 5, 57, n - 1]]
    got = {
        "levels": _digest(np.array(index.levels, "<i8")),
        "neighbors": hashlib.sha256(json.dumps(index.neighbors).encode()).hexdigest(),
        "top8": _digest(*(np.asarray(hnsw_search(index, q, 8), "<i8") for q in queries)),
    }
    assert got == HNSW_REPAIR_CHAIN
    assert hnsw_layer0_connected(index)


def test_golden_hnsw_single_node():
    """One node: no links, and layer 0 keeps its 2M-wide all-sentinel rows."""
    store = VectorStore(np.array([[0.5, -2.0, 7.0]], np.float32))
    index = hnsw_build(store, HnswParams(M=3, seed=4))
    assert (index.levels, index.neighbors, index.entry, index.max_level) == ([0], [[[]]], 0, 0)
    assert [a.tolist() for a in index._adj] == [[[1] * 6, [1] * 6]]
    assert [d.tolist() for d in index._deg] == [[0]]
    assert hnsw_search(index, np.zeros(3, np.float32), 1).tolist() == [0]


# -- distillation ----------------------------------------------------------------

DISTILL = {
    "distill-beta2.0": (
        [104.62434198997714, 103.38418193028505, 103.51008247089526],
        "a5abdcd816d006a4be272b467a43ed41d4ab57a1c72a727965f828450110edf5",
        "2e0ab2d2a31cf07b6884806758d179ba86dc460cee242574ce0abe5997d252bd"),
    "distill-beta0.75": (
        [77.80750423182657, 74.57078532269006, 71.40126048520914],
        "3610391211321c7a1a35ec8c3d8255674a3fc5e4cdbdf2dc6105d0362cb2b3c3",
        "f343230ffe506e8ab4fbeec28175114d1eca8d2647a322abafe761aff45bb3b8"),
    "teacher-fit": (
        [51.58761071414542, 14.821450586518116, 7.043176457004558],
        "a7cc15a52315da0b4d3cdb646399796d408d20980e165388db88248c835a949e",
        "ab60607e0c44635d88f3b80def8fddf3573ab0d705fef39718e8cdf2f9c47b4f"),
}


def _log_digest(batch_log) -> str:
    rows = [(r.epoch, r.batch, r.loss, r.lr) for r in batch_log]
    return _digest(np.array(rows, "<f8"))


def test_golden_distill():
    """Epoch losses, batch log and trained weights of distill at both betas and
    of one full-precision fit to fixed targets (the teacher's path).

    150 rows in batches of 32 end each epoch on a partial batch, and three
    epochs cross one step of the learning-rate schedule.
    """
    rng = Rng(77)
    data = _uniform(rng, 150, 9)
    targets = _uniform(rng, 150, 7)
    teacher = golden_model()
    got = {}
    for beta in (2.0, 0.75):
        student = replace_linears(teacher.clone(), MODE_TERNARY, beta)
        result = distill(teacher, student, data, TrainConfig(beta=beta, epochs=3,
                                                             batch_size=32, seed=5))
        got[f"distill-beta{beta}"] = (result.epoch_losses, _log_digest(result.batch_log),
                                      model_digest(student))
    fit = golden_model()
    log, epoch_losses = _train(fit, data, targets,
                               TrainConfig(epochs=3, lr_initial=1e-2, lr_factor=1.0,
                                           batch_size=32, seed=3))
    got["teacher-fit"] = (epoch_losses, _log_digest(log), model_digest(fit))
    assert got == DISTILL
    assert model_digest(teacher) == MODEL_DIGEST


# -- encoder forward -------------------------------------------------------------

FORWARD = {
    "full-b1": "2e5a2fad7a8c183fb00b64d4bf86b3efae1e8f987a6709022ae5238b97324ac6",
    "full-b23": "6bb1eb21f1bf03e096fc30903f94c6940e25b3c6ea4015257083ce3c5d35b2e7",
    "ste-beta2.0-b1": "b6ae6a6ce1fa682c4a7f60523b3f0999aa6c513e39fa5d79bffca39e5f0c6d61",
    "ste-beta2.0-b23": "06e93b151746edd2b03154f0cbea7f99aa9a445e978634af0625ae46f8d42ad7",
    "ste-beta0.75-b1": "26e61c69a3d354870a327f5376c7b87a1105aaa3aae5c16d2a9b264aabedbfe1",
    "ste-beta0.75-b23": "137aa90e9f22a3c18a244ac7a0e2e4218a13cf926cb6540500307cc151ec42da",
    "packed-beta2.0-b1": "b6ae6a6ce1fa682c4a7f60523b3f0999aa6c513e39fa5d79bffca39e5f0c6d61",
    "packed-beta2.0-b23": "06e93b151746edd2b03154f0cbea7f99aa9a445e978634af0625ae46f8d42ad7",
    "packed-beta0.75-b1": "43d6d0e8fff4d62adf2b4c87abcb4b720cd9d7b5d44d6edc899eda14c1d12899",
    "packed-beta0.75-b23": "0e78eb788da017461692cce589bc417b604590456e134da5e8ad54fd4131ee82",
}


def test_golden_forward_outputs():
    """Output bytes of the full-precision, STE and packed forward passes of
    golden_model() at batch 1 and at a 23-row batch."""
    x = _uniform(Rng(55), 23, 9)
    models = {"full": golden_model()}
    for beta in (2.0, 0.75):
        ste = replace_linears(golden_model(), MODE_TERNARY, beta)
        models[f"ste-beta{beta}"] = ste
        models[f"packed-beta{beta}"] = PackedEncoder.from_model(ste)
    got = {f"{name}-b{len(rows)}": _digest(model.forward(rows).astype("<f4"))
           for name, model in models.items() for rows in (x[:1], x)}
    assert got == FORWARD
