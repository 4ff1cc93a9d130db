"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines inline. The heavyweight synthetic benchmark (teacher training
plus distillation) is built once per session and shared by the criteria
that use it.
"""

import io
import json
import math
import time
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from conftest import hnsw_layer0_connected, init_model, max_rel_err, random_matrix
from test_encoder import finite_difference_grads
from ternkit import storage
from ternkit.ann import (HnswParams, IvfParams, VectorStore, evaluate_retrieval,
                         flat_search, hnsw_build, hnsw_search, ivf_build,
                         ivf_search, recall_vs_exact)
from ternkit.cli import main as cli_main
from ternkit.distill import (TaskSpec, TrainConfig, distill, holdout_split,
                             make_synthetic_teacher, mse_loss,
                             teacher_student_mse)
from ternkit.encoder import (EncoderConfig, EncoderModel, LinearLayer,
                             MODE_TERNARY, replace_linears)
from ternkit.packed import pack, packed_gemv, storage_bytes
from ternkit.rng import Rng
from ternkit.ternary import compute_threshold, sparsity, ternarize


def check(criterion: int, passed: bool, detail: str, elapsed: float,
          limit: float | None = None) -> None:
    within = limit is None or elapsed < limit
    status = "PASS" if (passed and within) else "FAIL"
    budget = f" (limit {limit:.0f}s)" if limit is not None else ""
    line = f"[criterion {criterion:>2}] {status} in {elapsed:.1f}s{budget}: {detail}"
    print(line)
    assert passed, line
    assert within, line


def run_cli(*args):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(list(args))
    records = [json.loads(line) for line in out.getvalue().splitlines() if line.strip()]
    return code, records


# -- shared desk-scale benchmark -------------------------------------------------

@pytest.fixture(scope="session")
def desk():
    """Seeded synthetic task (100 clusters, 10k vectors, dim 64, 4 blocks),
    its trained teacher, the PTQ-only student, and the distilled student."""
    config = EncoderConfig(input_dim=64, hidden_dim=64, output_dim=64,
                           num_blocks=4, seed=11)
    spec = TaskSpec(num_clusters=100, num_points=10000, noise=0.25, seed=101,
                    teacher_epochs=10)
    teacher, task = make_synthetic_teacher(config, spec)
    train, held = holdout_split(task.inputs, seed=202, fraction=0.1)

    start = time.perf_counter()
    ptq = replace_linears(teacher.clone(), MODE_TERNARY, 2.0)
    ptq_mse = teacher_student_mse(teacher, ptq, held)
    student = replace_linears(teacher.clone(), MODE_TERNARY, 2.0)
    distill(teacher, student, train, TrainConfig(beta=2.0, epochs=5, seed=303))
    student_mse = teacher_student_mse(teacher, student, held)
    distill_seconds = time.perf_counter() - start

    return {
        "teacher": teacher, "student": student, "task": task,
        "heldout": held, "ptq_mse": ptq_mse, "student_mse": student_mse,
        "distill_seconds": distill_seconds,
    }


# -- criteria ---------------------------------------------------------------------

def test_criterion_01_partition_oracle_equivalence():
    start = time.perf_counter()
    rng = Rng(9001)
    betas = [0.5, 0.75, 1.0, 2.0, 3.0]
    exact = True
    for i in range(1000):
        rows = 1 + int(rng.integers(128, 1)[0])
        cols = 1 + int(rng.integers(96, 1)[0])
        w = random_matrix(rng, rows, cols)
        gamma = compute_threshold(w, betas[i % 5])
        got = ternarize(w, gamma).trits
        want = (np.sign(w) * (np.abs(w) > gamma)).astype(np.int8)
        exact &= np.array_equal(got, want)
    # literal three-branch evaluation on a subsample, element by element
    for i in range(30):
        w = random_matrix(rng, 5, 7)
        gamma = compute_threshold(w, betas[i % 5])
        trits = ternarize(w, gamma).trits
        for r in range(5):
            for c in range(7):
                v = float(w[r, c])
                branch = 1 if v > gamma else (-1 if v < -gamma else 0)
                exact &= trits[r, c] == branch
    check(1, exact, "partition matches three-branch oracle on 1030 matrices, exact",
          time.perf_counter() - start, limit=10)


def test_criterion_02_packed_kernel_equivalence():
    start = time.perf_counter()
    rng = Rng(9002)
    worst = 0.0
    for i in range(500):
        rows = 1 + int(rng.integers(48, 1)[0])
        cols = 1 + int(rng.integers(80, 1)[0])
        w = random_matrix(rng, rows, cols)
        t = ternarize(w, compute_threshold(w, [0.75, 1.0, 2.0, 3.0][i % 4]))
        bias = rng.normals(rows).astype(np.float32) if i % 3 == 0 else None
        x = rng.normals(cols).astype(np.float32)
        want = t.dense().astype(np.float64) @ x.astype(np.float64)
        if bias is not None:
            want = want + bias
        worst = max(worst, max_rel_err(packed_gemv(pack(t, bias=bias), x), want))
    check(2, worst <= 1e-5, f"packed_gemv vs dense oracle, 500 cases, worst rel {worst:.2e}",
          time.perf_counter() - start, limit=10)


def test_criterion_03_gaussian_sparsity_oracle():
    start = time.perf_counter()
    w = random_matrix(Rng(9003), 1000, 1000)  # 1e6 N(0,1) samples
    expected_table = {0.75: 0.4505, 1.0: 0.5749, 2.0: 0.8895, 3.0: 0.9832}
    measured = {}
    ok = True
    for beta in (0.75, 1.0, 2.0, 3.0):
        s = sparsity(ternarize(w, compute_threshold(w, beta)))
        analytic = math.erf(beta * math.sqrt(2.0 / math.pi) / math.sqrt(2.0))
        measured[beta] = s
        ok &= abs(s - analytic) <= 0.005
        ok &= abs(analytic - expected_table[beta]) <= 1e-3
    vals = [measured[b] for b in (0.75, 1.0, 2.0, 3.0)]
    ok &= all(a < b for a, b in zip(vals, vals[1:]))  # monotone in beta
    detail = ", ".join(f"beta={b}: {measured[b]:.4f}" for b in (0.75, 1.0, 2.0, 3.0))
    check(3, ok, f"sparsity vs analytic CDF oracle within 0.005 ({detail})",
          time.perf_counter() - start, limit=30)


def test_criterion_04_gradient_correctness():
    start = time.perf_counter()
    model = init_model(EncoderConfig(8, 8, 8, 2, seed=9004), np.float64)
    rng = Rng(9014)
    x = rng.normals(4 * 8).reshape(4, 8)
    target = rng.normals(4 * 8).reshape(4, 8)
    _, dpred = mse_loss(model.train_forward(x), target)
    analytic = model.backward(dpred)
    fd = finite_difference_grads(model, x, target, h=1e-3)
    worst = 0.0
    for name in analytic:
        scale = max(np.abs(analytic[name]).max(), np.abs(fd[name]).max(), 1e-8)
        worst = max(worst, float(np.abs(analytic[name] - fd[name]).max() / scale))
    grads_ok = worst <= 1e-3

    layer = LinearLayer(np.array([[3, -1], [2, 0]], np.float32),
                        np.zeros(2, np.float32), mode=MODE_TERNARY, beta=1.0)
    y = layer.forward(np.array([[1.0, 1.0]], np.float32))
    layer.backward(np.ones_like(y))
    ste_ok = np.array_equal(layer.grad_weight,
                            np.float32(1.5) * np.ones((2, 2), np.float32))
    check(4, grads_ok and ste_ok,
          f"finite-difference worst rel {worst:.2e} <= 1e-3; straight-through grad exact",
          time.perf_counter() - start, limit=60)


def test_criterion_05_distillation_gain(desk):
    ratio = desk["student_mse"] / desk["ptq_mse"]
    check(5, ratio <= 0.5,
          f"held-out MSE {desk['student_mse']:.5f} vs PTQ {desk['ptq_mse']:.5f} "
          f"(ratio {ratio:.3f} <= 0.5)",
          desk["distill_seconds"], limit=300)


def test_criterion_06_retrieval_parity(desk):
    start = time.perf_counter()
    corpus = desk["task"].inputs[:5000]
    labels = desk["task"].labels[:5000]
    emb_teacher = desk["teacher"].forward(corpus)
    emb_student = desk["student"].forward(corpus)
    ratios = {}
    teacher_flat = None
    ok = True
    for kind in ("flat", "ivf", "lsh", "hnsw"):
        rt = evaluate_retrieval(emb_teacher, labels, kind, [10], seed=7)
        rs = evaluate_retrieval(emb_student, labels, kind, [10], seed=7)
        t10, s10 = rt["recall_at_k"]["10"], rs["recall_at_k"]["10"]
        ratios[kind] = s10 / t10
        ok &= ratios[kind] >= 0.9
        if kind == "flat":
            teacher_flat = t10
    ok &= teacher_flat >= 0.8  # teacher quality floor on the synthetic task
    detail = ", ".join(f"{k}: {v:.3f}" for k, v in ratios.items())
    check(6, ok, f"student/teacher recall@10 ratios ({detail}); "
                 f"teacher flat recall@10 {teacher_flat:.3f} >= 0.8",
          time.perf_counter() - start, limit=300)


def test_criterion_07_index_correctness():
    start = time.perf_counter()
    rng = Rng(9007)

    # IVF with exhaustive probing equals flat, tie order included
    vecs = rng.normals(400 * 12).reshape(400, 12).astype(np.float32)
    vecs[50] = vecs[10]  # engineered duplicate to exercise tie order
    store = VectorStore(vecs)
    ivf = ivf_build(store, IvfParams(nlist=16, nprobe=16, seed=1))
    ivf_ok = all(
        np.array_equal(ivf_search(ivf, q, 25), flat_search(store, q, 25))
        for q in (rng.normals(30 * 12).reshape(30, 12).astype(np.float32)))
    ivf_ok &= np.array_equal(ivf_search(ivf, vecs[10], 25),
                             flat_search(store, vecs[10], 25))

    # flat equals a naive per-element oracle
    small = rng.normals(60 * 8).reshape(60, 8).astype(np.float32)
    sstore = VectorStore(small)
    flat_ok = True
    for q in rng.normals(20 * 8).reshape(20, 8).astype(np.float32):
        scored = sorted((sum((float(small[i, j]) - float(q[j])) ** 2
                             for j in range(8)), i) for i in range(60))
        want = np.array([i for _, i in scored[:9]])
        flat_ok &= np.array_equal(flat_search(sstore, q, 9), want)

    # HNSW recall on the stated benchmark
    vecs = rng.normals(2000 * 32).reshape(2000, 32).astype(np.float32)
    store = VectorStore(vecs)
    hnsw = hnsw_build(store, HnswParams(M=16, ef_construction=200,
                                        ef_search=128, seed=5))
    connected = hnsw_layer0_connected(hnsw)
    recalls = [recall_vs_exact(hnsw_search(hnsw, q, 10), flat_search(store, q, 10), 10)
               for q in rng.normals(200 * 32).reshape(200, 32).astype(np.float32)]
    hnsw_recall = float(np.mean(recalls))
    check(7, ivf_ok and flat_ok and connected and hnsw_recall >= 0.9,
          f"IVF exhaustive exact: {ivf_ok}; flat vs naive exact: {flat_ok}; "
          f"HNSW recall@10 {hnsw_recall:.3f} >= 0.9 (layer 0 connected: {connected})",
          time.perf_counter() - start, limit=120)


def test_criterion_08_storage_ratios(tmp_path):
    start = time.perf_counter()
    model = EncoderModel.init(EncoderConfig(256, 256, 256, 2, seed=9008))
    fp = tmp_path / "fp.ckpt"
    storage.save_checkpoint(fp, model)
    replace_linears(model, MODE_TERNARY, 2.0)
    tn = tmp_path / "tn.ckpt"
    storage.save_ternary_checkpoint(tn, model)
    ckpt_ratio = storage.checkpoint_total_bytes(tn) / storage.checkpoint_total_bytes(fp)

    plane_ratios = []
    for side in (256, 512):
        w = random_matrix(Rng(side), side, side)
        p = pack(ternarize(w, compute_threshold(w, 2.0)))
        plane_ratios.append(storage_bytes(p) / (4 * side * side))
    ok = ckpt_ratio <= 0.10 and all(r <= 0.07 for r in plane_ratios)
    check(8, ok, f"checkpoint ratio {ckpt_ratio:.4f} <= 0.10; per-layer ratios "
                 + ", ".join(f"{r:.4f}" for r in plane_ratios) + " <= 0.07",
          time.perf_counter() - start, limit=10)


def test_criterion_09_latency_report():
    start = time.perf_counter()
    lines = []
    ok = True
    for side, reps in ((1024, 5), (4096, 2)):
        code, records = run_cli("bench-gemv", "--rows", str(side), "--cols", str(side),
                                "--reps", str(reps), "--seed", "9009")
        ok &= code == 0
        summary = next(r for r in records if r["op"] == "bench_gemv_summary")
        reports = {r["operation"]: r for r in records if r["op"] == "bench_gemv"}
        ok &= summary["kernel_check_max_rel_err"] <= 1e-5
        ok &= summary.get("operand") in ("csr", "dense")
        ok &= all(r["total_ns"] > 0 for r in reports.values())
        # plane bytes over dense f32 bytes: 1/16 plus constants
        ok &= abs(summary["storage_ratio_packed_over_dense"] - 0.0625) < 1e-3
        dense_ms = reports["dense_gemv_f32"]["per_call_ns"] / 1e6
        packed_ms = reports["packed_ternary_gemv"]["per_call_ns"] / 1e6
        lines.append(f"{side}x{side}: dense {dense_ms:.2f}ms, packed {packed_ms:.2f}ms, "
                     f"ratio {summary['latency_ratio_packed_over_dense']:.2f}")
    check(9, ok, "timings reported, kernel re-verified against dense oracle — "
          + "; ".join(lines), time.perf_counter() - start)


def test_criterion_10_command_determinism(tmp_path):
    start = time.perf_counter()
    task_cfg = tmp_path / "task.json"
    task_cfg.write_text(json.dumps({
        "encoder": {"input_dim": 16, "hidden_dim": 16, "output_dim": 16,
                    "num_blocks": 2, "seed": 5},
        "task": {"num_clusters": 5, "num_points": 400, "noise": 0.25,
                 "seed": 6, "teacher_epochs": 4},
    }))
    teacher, data, labels = (tmp_path / n for n in ("t.ckpt", "d.vec", "l.tern"))
    code, _ = run_cli("make-task", "--config", str(task_cfg), "--out-teacher",
                      str(teacher), "--out-data", str(data), "--out-labels", str(labels))
    ok = code == 0

    train_cfg = tmp_path / "train.json"
    train_cfg.write_text(json.dumps({"beta": 2.0, "epochs": 2, "lr_initial": 1e-3,
                                     "lr_step_epochs": 2, "lr_factor": 0.5,
                                     "batch_size": 64, "seed": 3}))
    student = tmp_path / "s.ckpt"
    weights = tmp_path / "w.tern"
    storage.save_tensor(weights, random_matrix(Rng(4), 64, 64))
    packed_out = tmp_path / "w.tpkd"

    def one_round():
        outputs = {}
        code, records = run_cli("distill", "--config", str(train_cfg), "--data",
                                str(data), "--teacher", str(teacher), "--out", str(student))
        outputs["distill"] = (code, json.dumps(records), student.read_bytes(),
                              (tmp_path / "s.ckpt.json").read_bytes())
        for kind in ("flat", "ivf", "lsh", "hnsw"):
            code, records = run_cli("eval-retrieval", "--model", str(student),
                                    "--dataset", str(data), "--labels", str(labels),
                                    "--index", kind, "--k", "1,10")
            (rec,) = records
            rec.pop("embed_seconds")  # the only wall-clock field
            outputs[f"eval-{kind}"] = (code, json.dumps(rec, sort_keys=True))
        code, records = run_cli("ternarize", "--weights", str(weights),
                                "--out", str(packed_out))
        outputs["ternarize"] = (code, json.dumps(records), packed_out.read_bytes())
        code, records = run_cli("sparsity-sweep", "--weights", str(weights),
                                "--betas", "0.75,2,3")
        outputs["sweep"] = (code, json.dumps(records))
        return outputs

    first, second = one_round(), one_round()
    same = {k: first[k] == second[k] for k in first}
    ok &= all(same.values())
    ok &= all(v[0] == 0 for v in first.values())
    diffs = [k for k, v in same.items() if not v]
    check(10, ok, "two same-seed runs byte-identical for distill, eval-retrieval "
                  f"(x4 indexes), ternarize, sparsity-sweep{'; DIFFS: ' + ', '.join(diffs) if diffs else ''}",
          time.perf_counter() - start)
