#!/usr/bin/env python3
"""End-to-end retrieval experiment on the synthetic cluster benchmark.

Trains a full-precision teacher, derives a ternary student two ways (plain
post-training quantization and self-distillation), then reports
precision/recall under all four index families plus embedding times,
held-out MSE, and exported storage sizes.

    python scripts/run_retrieval_experiment.py            # desk scale (~2 min)
    python scripts/run_retrieval_experiment.py --quick    # small smoke run
"""

import argparse
import sys
import time

from ternkit.ann import INDEX_KINDS, evaluate_retrieval
from ternkit.distill import (TaskSpec, TrainConfig, distill, holdout_split,
                             make_synthetic_teacher, teacher_student_mse)
from ternkit.encoder import (EncoderConfig, MODE_TERNARY, export_packed,
                             replace_linears)
from ternkit.storage import storage_bytes


def embed(model, data):
    start = time.perf_counter()
    out = model.forward(data)
    return out, time.perf_counter() - start


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true", help="small fast configuration")
    ap.add_argument("--beta", type=float, default=2.0)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--ks", type=str, default="1,5,10")
    args = ap.parse_args(argv)

    if args.quick:
        config = EncoderConfig(32, 32, 32, 2, seed=args.seed)
        spec = TaskSpec(num_clusters=20, num_points=2000, noise=0.25,
                        seed=args.seed + 90, teacher_epochs=8)
        corpus_size, epochs = 1000, 3
    else:
        config = EncoderConfig(64, 64, 64, 4, seed=args.seed)
        spec = TaskSpec(num_clusters=100, num_points=10000, noise=0.25,
                        seed=args.seed + 90, teacher_epochs=10)
        corpus_size, epochs = 5000, 5
    ks = [int(k) for k in args.ks.split(",")]

    print(f"building teacher on {spec.num_points} vectors, "
          f"{spec.num_clusters} clusters ...", flush=True)
    teacher, task = make_synthetic_teacher(config, spec)
    train, held = holdout_split(task.inputs, seed=args.seed + 1)

    ptq = replace_linears(teacher.clone(), MODE_TERNARY, args.beta)
    ptq_mse = teacher_student_mse(teacher, ptq, held)

    print(f"distilling student (beta={args.beta}, {epochs} epochs) ...", flush=True)
    student = replace_linears(teacher.clone(), MODE_TERNARY, args.beta)
    distill(teacher, student, train, TrainConfig(beta=args.beta, epochs=epochs,
                                                 seed=args.seed + 2))
    student_mse = teacher_student_mse(teacher, student, held)

    dense_bytes = sum(4 * layer.weight.size for _, layer in teacher.linear_layers())
    packed_bytes = sum(storage_bytes(p) for p in export_packed(student))
    print(f"\nheld-out MSE vs teacher: ptq {ptq_mse:.5f}, "
          f"distilled {student_mse:.5f} ({student_mse / ptq_mse:.2f}x)")
    print(f"linear-layer storage: dense {dense_bytes} B, packed {packed_bytes} B "
          f"({packed_bytes / dense_bytes:.4f}x)\n")

    corpus = task.inputs[:corpus_size]
    labels = task.labels[:corpus_size]
    models = [("teacher-fp", teacher), ("ptq-ternary", ptq),
              ("distilled-ternary", student)]
    header = f"{'index':<6} {'model':<18} " + " ".join(
        f"{'p@' + str(k):>7}" for k in ks) + " " + " ".join(
        f"{'r@' + str(k):>7}" for k in ks) + f" {'embed(s)':>9}"
    print(header)
    print("-" * len(header))
    for kind in INDEX_KINDS:
        for name, model in models:
            vectors, seconds = embed(model, corpus)
            m = evaluate_retrieval(vectors, labels, kind, ks, seed=7)
            row = f"{kind:<6} {name:<18} " + " ".join(
                f"{m['precision_at_k'][str(k)]:>7.4f}" for k in ks) + " " + " ".join(
                f"{m['recall_at_k'][str(k)]:>7.4f}" for k in ks) + f" {seconds:>9.3f}"
            print(row, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
