"""One benchmark run of the ternkit pipeline, in its own process.

``run.py`` starts this file with BLAS pinned to one thread and ``src`` on
the import path. It reads the thread variables before numpy is imported,
runs set-up and the three stages (distill, embed, retrieve) for one
workload and seed, checks every output it produced, and prints one JSON
record as the last line of stdout. See README.md for the metrics.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
THREADS_BEFORE_NUMPY = {v: os.environ.get(v) for v in THREAD_VARS}

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import uuid  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from ternkit import ann, encoder, storage  # noqa: E402
from ternkit.distill import (TaskSpec, TrainConfig, distill, holdout_split,  # noqa: E402
                             make_synthetic_teacher, teacher_student_mse)
from ternkit.encoder import (EncoderConfig, EncoderModel, MODE_TERNARY,  # noqa: E402
                             PackedEncoder, model_digest, replace_linears)
from ternkit.packed import row_bytes  # noqa: E402

import spans  # noqa: E402

# workload name -> ternarization threshold beta
WORKLOADS = {"beta2": 2.0, "twn": 0.75}

DESK_DIMS = (64, 64, 64, 4)       # input, hidden, output, blocks: the desk task
EMBED_DIMS = (64, 256, 64, 4)     # wide enough that the kernel, not call overhead, dominates
NUM_CLUSTERS, NUM_POINTS, HOLDOUT, NOISE, TEACHER_EPOCHS = 100, 10_000, 0.1, 0.25, 10
DISTILL_EPOCHS = 3                # the step schedule halves the rate after epoch 2
DISTILL_SLICE = 1000              # rows per timed distillation: 48 batches, about 0.25 s
BATCH = 512                       # the CLI's embedding batch
BULK_ROWS = 1536                  # three batches, each embedded at least once
CORPUS_ROWS = 5000
K = 10
REQUESTS_PER_BURST = 50           # single-row requests per timed burst
QUERIES_PER_SLICE = 50            # queries per index per timed slice
MIN_REQUESTS = 1000               # at least 10 lie beyond the p99 of the recorded latencies
MAX_MSE_RATIO = 0.5               # acceptance criterion 5
REL_TOL = 1e-5                    # acceptance criterion 2
SETUP_REPEATS = 3
INDEX_KINDS = ("flat", "ivf", "lsh", "hnsw")


@dataclass(frozen=True)
class Seeds:
    model: int
    task: int
    split: int
    train: int
    embed: int
    index: int

    @classmethod
    def of(cls, seed: int) -> "Seeds":
        # seed 0 reproduces the acceptance suite's desk fixture (11/101/202/303)
        base = 1000 * seed
        return cls(base + 11, base + 101, base + 202, base + 303, base + 404, base + 505)


@dataclass
class Checks:
    """Output checks; a failed check counts the operations it covers as failed."""
    attempted: dict[str, int] = field(default_factory=dict)
    failed: dict[str, int] = field(default_factory=dict)
    messages: list[str] = field(default_factory=list)

    def ops(self, stage: str, n: int) -> None:
        self.attempted[stage] = self.attempted.get(stage, 0) + n

    def check(self, stage: str, ok: bool, covers: int, message: str) -> None:
        if not ok:
            self.failed[stage] = self.failed.get(stage, 0) + covers
            self.messages.append(f"{stage}: {message}")
            print(f"CHECK FAILED {stage}: {message}", file=sys.stderr)


def max_rel_err(got: np.ndarray, want: np.ndarray) -> float:
    """Infinity-norm error relative to 1 + the reference's infinity norm."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    return float(np.abs(got - want).max() / (1.0 + np.abs(want).max()))


def embed_rows(model, rows: np.ndarray) -> np.ndarray:
    return np.concatenate([model.forward(rows[i:i + BATCH])
                           for i in range(0, rows.shape[0], BATCH)])


def sha256(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


@dataclass
class Inputs:
    teacher: EncoderModel
    train: np.ndarray
    held: np.ndarray
    corpus: np.ndarray
    queries: np.ndarray
    embed_model: EncoderModel
    embed_packed: PackedEncoder
    checkpoint_bytes: int
    digests: dict


def setup(seeds: Seeds, beta: float, scratch: Path, checks: Checks) -> Inputs:
    """Everything before the timed phase.

    distill and retrieve: the desk task and its fitted teacher; retrieve
    also exports the teacher's PTQ student packed and embeds the corpus and
    queries with it. embed: a seeded wide model, ternarized, exported,
    written with save_ternary_checkpoint and read back with load_checkpoint
    (the path ``ternkit eval-retrieval`` takes).
    """
    config = EncoderConfig(*DESK_DIMS, seed=seeds.model)
    spec = TaskSpec(NUM_CLUSTERS, NUM_POINTS, noise=NOISE, seed=seeds.task,
                    teacher_epochs=TEACHER_EPOCHS)
    teacher, task = make_synthetic_teacher(config, spec)
    train, held = holdout_split(task.inputs, seed=seeds.split, fraction=HOLDOUT)

    ptq = PackedEncoder.from_model(replace_linears(teacher.clone(), MODE_TERNARY, beta))
    corpus = ann.normalize_rows(embed_rows(ptq, train[:CORPUS_ROWS]))
    queries = ann.normalize_rows(embed_rows(ptq, held))

    model = replace_linears(EncoderModel.init(EncoderConfig(*EMBED_DIMS, seed=seeds.embed)),
                            MODE_TERNARY, beta)
    exported = encoder.export_packed(model)
    path = scratch / f"checkpoint-{os.getpid()}.bin"
    sidecar = Path(f"{path}.json")
    try:
        storage.save_ternary_checkpoint(path, model)
        packed = storage.load_checkpoint(path)
        # the first forward builds each layer's cached kernel plan; a user pays
        # that once per load, so it belongs to set-up, not to the first batch
        packed.forward(train[:1])
        nbytes = storage.checkpoint_total_bytes(path)
        file_digest = hashlib.sha256(path.read_bytes()).hexdigest()
    finally:
        path.unlink(missing_ok=True)
        sidecar.unlink(missing_ok=True)

    same = isinstance(packed, PackedEncoder) and all(
        np.array_equal(a.plus_plane, b.plus_plane) and np.array_equal(a.minus_plane, b.minus_plane)
        and a.gamma == b.gamma and np.array_equal(a.bias, b.bias)
        for a, b in zip(exported, packed.packed_layers))
    checks.ops("setup", 1)
    checks.check("setup", same, 1, "loaded checkpoint differs from the exported layers")
    digests = {"teacher": model_digest(teacher), "corpus": sha256(corpus, queries),
               "checkpoint": file_digest}
    return Inputs(teacher, train, held, corpus, queries, model, packed, nbytes, digests)


class DistillStage:
    """The desk distillation once, for its MSE ratio; then timed distillations
    with the same TrainConfig on slices of the training rows.

    A timed distillation takes about 0.25 s, short enough to be spread over
    the whole run between the other stages' samples. Its cost per row is the
    desk run's: the same batches, layers and schedule, only fewer of them.
    """

    def __init__(self, inp: Inputs, seeds: Seeds, beta: float, tracer, checks: Checks):
        self.inp, self.beta, self.tracer, self.checks = inp, beta, tracer, checks
        self.ptq_mse = teacher_student_mse(
            inp.teacher, replace_linears(inp.teacher.clone(), MODE_TERNARY, beta), inp.held)
        self.cfg = TrainConfig(beta=beta, epochs=DISTILL_EPOCHS, seed=seeds.train)
        self.slices = [inp.train[i:i + DISTILL_SLICE]
                       for i in range(0, inp.train.shape[0] - DISTILL_SLICE + 1, DISTILL_SLICE)]
        self.desk_s = 0.0
        self.ratio = float("nan")
        self.seconds: list[float] = []
        self.losses: dict[int, list[float]] = {}
        self.changed = 0

    def _student(self) -> EncoderModel:
        student = replace_linears(self.inp.teacher.clone(), MODE_TERNARY, self.beta)
        if self.tracer is not None:
            self.tracer.name_layers(student.linear_layers())
        return student

    def desk(self) -> None:
        student = self._student()
        with spans.maybe_span(self.tracer, "distill.run"):
            t0 = time.perf_counter()
            distill(self.inp.teacher, student, self.inp.train, self.cfg)
            self.desk_s = time.perf_counter() - t0
        self.ratio = teacher_student_mse(self.inp.teacher, student, self.inp.held) / self.ptq_mse

    def step(self) -> None:
        i = len(self.seconds) % len(self.slices)
        student = self._student()
        with spans.maybe_span(self.tracer, "distill.slice"):
            t0 = time.perf_counter()
            result = distill(self.inp.teacher, student, self.slices[i], self.cfg)
            self.seconds.append(time.perf_counter() - t0)
        if i in self.losses:
            self.changed += result.epoch_losses != self.losses[i]
        else:
            self.losses[i] = result.epoch_losses

    def finish(self) -> dict:
        epochs = self.cfg.epochs * (1 + len(self.seconds))
        self.checks.ops("distill", epochs)
        self.checks.check("distill", self.changed == 0, self.changed * self.cfg.epochs,
                          f"{self.changed} repeated distillations gave different losses")
        self.checks.check("distill", self.ratio <= MAX_MSE_RATIO, self.cfg.epochs,
                          f"held-out MSE ratio {self.ratio} exceeds {MAX_MSE_RATIO}")
        rows = self.cfg.epochs * DISTILL_SLICE * len(self.seconds)
        return {"rows_per_s": rows / sum(self.seconds), "mse_ratio": self.ratio,
                "samples": {"desk_s": self.desk_s, "slice_s": self.seconds}}


class EmbedStage:
    """Bulk batches of 512, and single-row requests from one closed-loop caller."""

    def __init__(self, inp: Inputs, checks: Checks):
        self.inp, self.checks = inp, checks
        self.rows = inp.train[:BULK_ROWS]
        self.batches = [self.rows[i:i + BATCH] for i in range(0, BULK_ROWS, BATCH)]
        self.bulk_s: list[float] = []
        self.first_pass: list[np.ndarray] = []
        self.latencies: list[float] = []
        self.singles: list[np.ndarray] = []

    def bulk(self) -> None:
        batch = self.batches[len(self.bulk_s) % len(self.batches)]
        t0 = time.perf_counter()
        out = self.inp.embed_packed.forward(batch)
        self.bulk_s.append(time.perf_counter() - t0)
        if len(self.first_pass) < len(self.batches):
            self.first_pass.append(out)

    def requests(self) -> None:
        model = self.inp.embed_packed
        for _ in range(REQUESTS_PER_BURST):
            i = len(self.latencies) % BULK_ROWS
            t0 = time.perf_counter()
            out = model.forward(self.rows[i:i + 1])
            self.latencies.append(time.perf_counter() - t0)
            if len(self.singles) < BULK_ROWS:
                self.singles.append(out)

    def finish(self) -> dict:
        # reference: the same rows through the STE-dense forward pass
        t0 = time.perf_counter()
        ref = [self.inp.embed_model.forward(b) for b in self.batches]
        ste_rows_per_s = BULK_ROWS / (time.perf_counter() - t0)
        checks = self.checks
        checks.ops("embed", len(self.bulk_s) + len(self.latencies))
        bad = sum(max_rel_err(got, want) > REL_TOL for got, want in zip(self.first_pass, ref))
        checks.check("embed", bad == 0, bad, f"{bad} batches differ from the STE-dense forward")
        ref_rows = np.concatenate(ref)
        bad = sum(max_rel_err(got, ref_rows[i:i + 1]) > REL_TOL
                  for i, got in enumerate(self.singles))
        checks.check("embed", bad == 0, bad, f"{bad} requests differ from the STE-dense forward")
        lat_ms = np.asarray(self.latencies) * 1e3
        return {"rows_per_s": BATCH * len(self.bulk_s) / sum(self.bulk_s),
                "query_p50_ms": float(np.percentile(lat_ms, 50)),
                "query_p90_ms": float(np.percentile(lat_ms, 90)),
                "ste_rows_per_s": ste_rows_per_s,
                "samples": {"batch_s": self.bulk_s, "request_ms": [round(x, 4) for x in lat_ms.tolist()]}}


def brute_force_top_k(corpus64: np.ndarray, q: np.ndarray, k: int) -> np.ndarray:
    """GEMM distances pick 5k candidates; exact squared L2 re-ranks them, ties by id."""
    q64 = q.astype(np.float64)
    approx = (corpus64 * corpus64).sum(axis=1) - 2.0 * (corpus64 @ q64)
    cand = np.argpartition(approx, 5 * k)[:5 * k]
    exact = ((corpus64[cand] - q64) ** 2).sum(axis=1)
    return cand[np.lexsort((cand, exact))][:k]


class RetrieveStage:
    """LSH and HNSW are built once, IVF once per timed build; queries go
    through every index a slice at a time."""

    def __init__(self, inp: Inputs, seeds: Seeds, checks: Checks):
        self.inp, self.checks = inp, checks
        self.store = ann.VectorStore(inp.corpus)
        n, dim = self.store.vectors.shape
        self.params = {kind: ann.default_params(kind, n, dim, seed=seeds.index)
                       for kind in INDEX_KINDS[1:]}
        self.built: dict = {}
        self.build_s: dict[str, list[float]] = {kind: [] for kind in INDEX_KINDS[1:]}
        self.ivf_digests: set[str] = set()
        self.build()
        for kind in ("lsh", "hnsw"):
            self._build(kind)
        store, built = self.store, self.built
        # looked up at call time, so a traced run reaches the wrapped functions
        self.search_fn = {"flat": lambda q: ann.flat_search(store, q, K),
                          "ivf": lambda q: ann.ivf_search(built["ivf"], q, K),
                          "lsh": lambda q: ann.lsh_search(built["lsh"], q, K),
                          "hnsw": lambda q: ann.hnsw_search(built["hnsw"], q, K)}
        self.first: dict[str, dict[int, np.ndarray]] = {kind: {} for kind in INDEX_KINDS}
        self.search_s: dict[str, list[float]] = {kind: [] for kind in INDEX_KINDS}
        self.changed = {kind: 0 for kind in INDEX_KINDS}
        self.slices = 0

    def _build(self, kind: str) -> None:
        t0 = time.perf_counter()
        self.built[kind] = getattr(ann, f"{kind}_build")(self.store, self.params[kind])
        self.build_s[kind].append(time.perf_counter() - t0)

    def build(self) -> None:
        self._build("ivf")
        ivf = self.built["ivf"]
        self.ivf_digests.add(sha256(ivf.centroids, *ivf.lists))

    def search(self) -> None:
        """The next slice of queries through every index."""
        nq = len(self.inp.queries)
        ids = [(self.slices * QUERIES_PER_SLICE + j) % nq for j in range(QUERIES_PER_SLICE)]
        self.slices += 1
        for kind in INDEX_KINDS:
            search, first = self.search_fn[kind], self.first[kind]
            t0 = time.perf_counter()
            got = [search(self.inp.queries[i]) for i in ids]
            self.search_s[kind].append(time.perf_counter() - t0)
            for i, result in zip(ids, got):
                if i in first:
                    self.changed[kind] += not np.array_equal(result, first[i])
                else:
                    first[i] = result

    def finish(self) -> dict:
        inp, checks, first = self.inp, self.checks, self.first
        nq = len(inp.queries)
        builds = sum(len(v) for v in self.build_s.values())
        checks.ops("retrieve", builds + sum(len(v) for v in self.search_s.values()) * QUERIES_PER_SLICE)
        checks.check("retrieve", len(self.ivf_digests) == 1, len(self.build_s["ivf"]),
                     "repeated IVF builds gave different indexes")
        for kind, count in self.changed.items():
            checks.check("retrieve", count == 0, count,
                         f"{kind}: {count} repeated queries returned different ids")
        corpus64 = inp.corpus.astype(np.float64)
        sample = range(0, nq, 20)
        bad = sum(not np.array_equal(first["flat"][i],
                                     brute_force_top_k(corpus64, inp.queries[i], K))
                  for i in sample)
        checks.check("retrieve", bad == 0, bad,
                     f"flat_search differs from brute force on {bad} queries")

        recall = {kind: float(np.mean([ann.recall_vs_exact(first[kind][i], first["flat"][i], K)
                                       for i in range(nq)]))
                  for kind in INDEX_KINDS[1:]}
        ivf = self.built["ivf"]
        candidates = []
        for q in inp.queries.astype(np.float64):
            cd = ((ivf.centroids.astype(np.float64) - q) ** 2).sum(axis=1)
            probe = np.lexsort((np.arange(len(cd)), cd))[:ivf.params.nprobe]
            candidates.append(sum(len(ivf.lists[c]) for c in probe))
        return {"build_s": {k: sum(v) / len(v) for k, v in self.build_s.items()},
                "qps": {k: QUERIES_PER_SLICE * len(v) / sum(v) for k, v in self.search_s.items()},
                "recall": recall, "ivf_candidates_per_query": float(np.mean(candidates)),
                "hnsw_layer0_edges": sum(len(nb[0]) for nb in self.built["hnsw"].neighbors) // 2,
                "samples": {"build_s": self.build_s, "slice_s": self.search_s}}


@dataclass
class Pass:
    """Results of set-up plus the three stages."""
    inputs: Inputs
    setup_s: list[float]
    stage_s: dict[str, float]
    distill: dict
    embed: dict
    retrieve: dict


def run_pass(workload: str, seed: int, seconds: float, scratch: Path, checks: Checks,
             setup_repeats: int, tracer=None) -> Pass:
    """Set-up, the once-only work, then timed samples until `seconds` have run.

    The timed phase draws its samples one at a time, always from the kind
    furthest below its share of the phase (the table `kinds`). Samples are
    short (a distillation slice, a bulk batch, a burst of requests, a slice
    of queries, an IVF build), so every metric is spread over the whole
    phase, and a slow spell of the shared machine weighs on every metric
    alike. The set-up repeats fall inside the phase, at equal intervals.
    The phase also runs until each kind has its minimum samples, which is
    all a run with seconds == 0 does.
    """
    beta, seeds = WORKLOADS[workload], Seeds.of(seed)
    stage_s: dict[str, float] = {}

    def staged(name, fn, *args):
        t0 = time.perf_counter()
        with spans.maybe_span(tracer, name):
            out = fn(*args)
        stage_s[name] = stage_s.get(name, 0.0) + time.perf_counter() - t0
        return out

    def timed_setup():
        t0 = time.perf_counter()
        inputs = setup(seeds, beta, scratch, checks)
        setup_s.append(time.perf_counter() - t0)
        return inputs

    setup_s: list[float] = []
    inputs = staged("setup", timed_setup)
    if tracer is not None:
        tracer.name_layers((name, p) for (name, _), p in
                           zip(inputs.embed_model.linear_layers(), inputs.embed_packed.packed_layers))
    d = staged("distill", DistillStage, inputs, seeds, beta, tracer, checks)
    e = EmbedStage(inputs, checks)
    r = staged("retrieve", RetrieveStage, inputs, seeds, checks)
    staged("distill", d.desk)

    # kind: (stage, work, share of the timed phase, minimum samples)
    kinds = {"distill": ("distill", d.step, 0.15, 3),
             "bulk": ("embed", e.bulk, 0.30, len(e.batches)),
             "requests": ("embed", e.requests, 0.20, -(-MIN_REQUESTS // REQUESTS_PER_BURST)),
             "search": ("retrieve", r.search, 0.20, -(-len(inputs.queries) // QUERIES_PER_SLICE)),
             "ivf": ("retrieve", r.build, 0.15, 1)}
    spent = dict.fromkeys(kinds, 0.0)
    count = dict.fromkeys(kinds, 0)
    elapsed = 0.0
    while True:
        short = [k for k in kinds if count[k] < kinds[k][3]]
        if elapsed >= seconds and not short:
            break
        kind = min(short if elapsed >= seconds else kinds, key=lambda k: spent[k] / kinds[k][2])
        t0 = time.perf_counter()
        staged(kinds[kind][0], kinds[kind][1])
        dt = time.perf_counter() - t0
        spent[kind] += dt
        count[kind] += 1
        elapsed += dt
        while len(setup_s) < setup_repeats and elapsed >= seconds * len(setup_s) / setup_repeats:
            again = staged("setup", timed_setup)
            checks.check("setup", again.digests == inputs.digests, 1,
                         "repeated set-up with one seed built different inputs")
    return Pass(inputs, setup_s, stage_s, staged("distill", d.finish), staged("embed", e.finish),
                staged("retrieve", r.finish))


def end_to_end(p: Pass) -> dict[str, float]:
    m = {"setup_s": statistics.median(p.setup_s),
         "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
         "distill.rows_per_s": p.distill["rows_per_s"],
         "distill.mse_ratio": p.distill["mse_ratio"],
         "embed.rows_per_s": p.embed["rows_per_s"],
         "embed.query_p50_ms": p.embed["query_p50_ms"],
         "embed.query_p90_ms": p.embed["query_p90_ms"]}
    m["retrieve.ivf.build_s"] = p.retrieve["build_s"]["ivf"]
    for kind in INDEX_KINDS:
        m[f"retrieve.{kind}.qps"] = p.retrieve["qps"][kind]
    for kind in INDEX_KINDS[1:]:
        m[f"retrieve.{kind}.recall_vs_exact"] = p.retrieve["recall"][kind]
    return m


def layer_nnz(inp: Inputs) -> dict[str, int]:
    """Nonzero trits (set bits over both planes) of each embed-model layer."""
    return {name: int(np.unpackbits(p.plus_plane).sum() + np.unpackbits(p.minus_plane).sum())
            for (name, _), p in zip(inp.embed_model.linear_layers(), inp.embed_packed.packed_layers)}


def per_layer(tracer: spans.Tracer, p: Pass, base: Pass) -> dict[str, float]:
    """Per-layer metrics from the traced pass; `.calls` count, `.s` self time.

    `.calls` and `.s` sum over the whole traced pass, set-up included.
    Per-layer `_s` and `_ms` values are inclusive durations.
    """
    by_name: dict[str, list[spans.Span]] = {}
    for s in tracer.spans():
        by_name.setdefault(s.name, []).append(s)

    def calls(name):
        return len(by_name.get(name, []))

    def self_s(name):
        return sum(s.self_ns for s in by_name.get(name, [])) / 1e9

    def durs_ms(name, **tags):
        return [s.dur_ns / 1e6 for s in by_name.get(name, [])
                if all(s.tags.get(k) == v for k, v in tags.items())]

    m: dict[str, float] = {}
    for name in ("tensor.matmul", "ternary.compute_threshold", "ternary.ternarize",
                 "packed.gemm", "distill.adam_step"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.s"] = self_s(name)
    for name in ("tensor.gelu", "tensor.gelu_grad", "tensor.layer_norm", "rng.normals",
                 "rng.permutation", "encoder.ste_forward", "encoder.teacher_forward",
                 "encoder.backward", "encoder.packed_forward", "encoder.export",
                 "distill.mse_loss", "storage.save_ternary_checkpoint",
                 "storage.load_checkpoint"):
        m[f"{name}.s"] = self_s(name)

    nnz = layer_nnz(p.inputs)
    for (name, _), layer in zip(p.inputs.embed_model.linear_layers(),
                                p.inputs.embed_packed.packed_layers):
        m[f"packed.{name}.b512_ms"] = statistics.median(durs_ms("packed.gemm", layer=name, batch=BATCH))
        m[f"packed.{name}.b1_ms"] = statistics.median(durs_ms("packed.gemm", layer=name, batch=1))
        m[f"packed.{name}.nnz"] = nnz[name]
        m[f"packed.{name}.adds_per_row"] = nnz[name] / layer.rows
        m[f"packed.{name}.bytes_per_call"] = (2 * layer.rows * row_bytes(layer.cols)
                                              + 4 * (layer.cols + layer.rows) * BATCH)
        m[f"encoder.{name}.ste_forward_s"] = sum(durs_ms("encoder.layer_forward", layer=name)) / 1e3
        m[f"encoder.{name}.backward_s"] = sum(durs_ms("encoder.layer_backward", layer=name)) / 1e3
    m["encoder.ste_rows_per_s"] = p.embed["ste_rows_per_s"]

    epochs = []
    for run in by_name["distill.run"]:
        starts = [s.start_ns for s in by_name["rng.permutation"]
                  if run.start_ns <= s.start_ns <= run.end_ns] + [run.end_ns]
        epochs += [(b - a) / 1e9 for a, b in zip(starts, starts[1:])]
    m["distill.epoch_s"] = statistics.median(epochs)
    m["distill.batches"] = sum(s.stage == "distill" for s in by_name["distill.adam_step"])

    for kind in INDEX_KINDS:
        lat = durs_ms(f"ann.{kind}.search")
        if kind != "flat":
            m[f"ann.{kind}.build_s"] = statistics.median(durs_ms(f"ann.{kind}.build")) / 1e3
        m[f"ann.{kind}.search_p50_ms"] = float(np.percentile(lat, 50))
        m[f"ann.{kind}.search_p99_ms"] = float(np.percentile(lat, 99))
    m["ann.ivf.candidates_per_query"] = p.retrieve["ivf_candidates_per_query"]
    m["ann.hnsw.layer0_edges"] = p.retrieve["hnsw_layer0_edges"]
    m["storage.checkpoint_bytes"] = p.inputs.checkpoint_bytes
    for stage_name, seconds in p.stage_s.items():
        m[f"trace.overhead.{stage_name}"] = seconds / base.stage_s[stage_name]
    return m


def deterministic(p: Pass, layer_metrics: dict | None) -> dict:
    """Values that must repeat exactly for one workload and seed."""
    values = {"distill.mse_ratio": p.distill["mse_ratio"],
              "ann.ivf.candidates_per_query": p.retrieve["ivf_candidates_per_query"],
              "ann.hnsw.layer0_edges": p.retrieve["hnsw_layer0_edges"],
              **{f"retrieve.{k}.recall_vs_exact": v for k, v in p.retrieve["recall"].items()},
              **{f"digest.{k}": v for k, v in p.inputs.digests.items()}}
    values.update({f"packed.{name}.nnz": n for name, n in layer_nnz(p.inputs).items()})
    if layer_metrics is not None:
        values.update({k: v for k, v in layer_metrics.items() if k.endswith(".calls")})
    return values


def compare_with_earlier_runs(path: Path, values: dict, checks: Checks) -> None:
    """Check values against those recorded by earlier runs of this seed, then merge."""
    earlier = json.loads(path.read_text()) if path.exists() else {}
    differ = sorted(k for k in values.keys() & earlier.keys() if values[k] != earlier[k])
    checks.ops("determinism", len(values))
    checks.check("determinism", not differ, len(differ),
                 f"differ from an earlier run with this seed: {differ}")
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps({**earlier, **values}, indent=1, sort_keys=True))
    os.replace(tmp, path)


def environment() -> dict:
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):  # numpy before 1.26 has no dict mode
        pass
    return {"numpy": np.__version__, "scipy": scipy.__version__, "blas": blas,
            "threads_before_numpy": THREADS_BEFORE_NUMPY, "cpu_count": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "platform": platform.platform()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="length of the timed phase; 0 runs only the minimum samples")
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    checks = Checks()
    run_id = uuid.uuid4().hex
    stem = f"{args.workload}-seed{args.seed}"

    if args.trace:
        # the same fixed work twice: untraced for the base, then traced
        base = run_pass(args.workload, args.seed, 0.0, args.out, checks, 1)
        tracer = spans.Tracer(run_id)
        saved = spans.patch_ternkit(tracer)
        try:
            p = run_pass(args.workload, args.seed, 0.0, args.out, checks, 1, tracer)
        finally:
            spans.unpatch(saved)
        metrics = per_layer(tracer, p, base)
        tracer.write_jsonl(args.out / f"trace-{stem}.jsonl.gz")
        values = deterministic(p, metrics)
        untraced = deterministic(base, None)
        differ = sorted(k for k in untraced if untraced[k] != values[k])
        checks.check("determinism", not differ, len(differ),
                     f"the traced pass computed different values: {differ}")
    else:
        p = run_pass(args.workload, args.seed, args.seconds, args.out, checks, SETUP_REPEATS)
        metrics = end_to_end(p)
        values = deterministic(p, None)
    compare_with_earlier_runs(args.out / f"deterministic-{stem}.json", values, checks)

    attempted = sum(checks.attempted.values())
    failed = sum(checks.failed.values())
    print(json.dumps({"run_id": run_id, "workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "environment": environment(),
                      "stage_s": p.stage_s,
                      "samples": {"setup_s": p.setup_s, "distill": p.distill["samples"],
                                  "embed": p.embed["samples"], "retrieve": p.retrieve["samples"]},
                      "operations": {s: {"attempted": n, "failed": checks.failed.get(s, 0)}
                                     for s, n in checks.attempted.items()},
                      "check_failures": checks.messages, "correct": failed == 0,
                      "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
