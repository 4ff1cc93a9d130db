#!/usr/bin/env python3
"""Memory high-water marks of the desk pipeline's set-up and build stages.

Each stage runs in a fresh child process: the teacher fit (the synthetic
task and its full-precision teacher), the PTQ embed (the teacher's ternary
student, packed, embedding the corpus), and the build of each index. A
child first loads what the stage needs from the files the previous stages
left in a temporary directory, then runs the stage under tracemalloc and
prints one JSON line:

    {"stage", "seconds", "maxrss_before_mb", "maxrss_mb", "traced_peak_mb"}

`maxrss_*` is the process's ru_maxrss (MiB) before and after the stage,
so imports and inputs are in both; `traced_peak_mb` is the peak of the
Python and numpy allocations the stage made (MB), over what was allocated
before it. Children pin BLAS to one thread, as the benchmark does.

    python scripts/stage_memory.py            # the benchmark's desk shapes
    python scripts/stage_memory.py --quick    # small shapes, a few seconds
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

from ternkit import ann, storage
from ternkit.distill import TaskSpec, make_synthetic_teacher
from ternkit.encoder import EncoderConfig, MODE_TERNARY, PackedEncoder, replace_linears

STAGES = ("teacher_fit", "ptq_embed", *(f"build.{kind}" for kind in ann.INDEX_KINDS[1:]))
BETA, BATCH, SEED = 2.0, 512, 11
PINNED = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


def shapes(quick: bool) -> tuple[EncoderConfig, TaskSpec, int]:
    """Encoder, task and corpus rows: the benchmark's desk task, or a small one."""
    if quick:
        return (EncoderConfig(32, 32, 32, 2, seed=SEED),
                TaskSpec(10, 600, seed=SEED + 90, teacher_epochs=2), 500)
    return (EncoderConfig(64, 64, 64, 4, seed=SEED),
            TaskSpec(100, 10_000, seed=SEED + 90, teacher_epochs=10), 5000)


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(stage: str, fn) -> tuple[dict, object]:
    """fn() under tracemalloc: the stage's record, and fn's result."""
    before = maxrss_mb()
    tracemalloc.start()
    start_bytes = tracemalloc.get_traced_memory()[0]
    t0 = time.perf_counter()
    result = fn()
    seconds = time.perf_counter() - t0
    peak = tracemalloc.get_traced_memory()[1] - start_bytes
    tracemalloc.stop()
    return {"stage": stage, "seconds": round(seconds, 3), "maxrss_before_mb": round(before, 1),
            "maxrss_mb": round(maxrss_mb(), 1), "traced_peak_mb": round(peak / 1e6, 2)}, result


def ptq_embed(teacher, inputs: np.ndarray) -> np.ndarray:
    """The teacher's PTQ student, packed, embeds the rows; L2-normalized."""
    ptq = PackedEncoder.from_model(replace_linears(teacher, MODE_TERNARY, BETA))
    return ann.normalize_rows(np.concatenate(
        [ptq.forward(inputs[i:i + BATCH]) for i in range(0, len(inputs), BATCH)]))


def run_stage(stage: str, workdir: Path, quick: bool) -> dict:
    """Load the stage's inputs, run it measured, save what the next stages need."""
    config, spec, corpus_rows = shapes(quick)
    teacher_path, inputs_path, corpus_path = (workdir / "teacher.ckpt", workdir / "inputs.npy",
                                              workdir / "corpus.npy")
    if stage == "teacher_fit":
        record, (teacher, task) = measure(stage, lambda: make_synthetic_teacher(config, spec))
        storage.save_checkpoint(teacher_path, teacher)
        np.save(inputs_path, task.inputs[:corpus_rows])
    elif stage == "ptq_embed":
        teacher, inputs = storage.load_checkpoint(teacher_path), np.load(inputs_path)
        record, corpus = measure(stage, lambda: ptq_embed(teacher, inputs))
        np.save(corpus_path, corpus)
    else:
        kind = stage.split(".", 1)[1]
        store = ann.VectorStore(np.load(corpus_path))
        params = ann.default_params(kind, len(store), store.dim, seed=SEED)
        build = getattr(ann, f"{kind}_build")
        record, _ = measure(stage, lambda: build(store, params))
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true", help="small shapes")
    ap.add_argument("--stage", choices=STAGES, help=argparse.SUPPRESS)
    ap.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.stage:
        print(json.dumps(run_stage(args.stage, args.workdir, args.quick)), flush=True)
        return 0
    env = {**os.environ, **PINNED}
    with tempfile.TemporaryDirectory() as workdir:
        for stage in STAGES:
            cmd = [sys.executable, __file__, "--stage", stage, "--workdir", workdir]
            child = subprocess.run(cmd + ["--quick"] * args.quick, env=env)
            if child.returncode != 0:
                print(f"stage_memory.py: stage {stage} exited with code {child.returncode}",
                      file=sys.stderr)
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
