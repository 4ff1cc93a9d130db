"""Command-line entry points.

Machine-readable output is JSON lines on stdout; human-oriented tables go
to stderr. Exit codes are a stable contract: 0 success, 1 internal error,
2 input/format error, 3 usage error. The TERNKIT_SEED environment variable
overrides every seed a command would otherwise take from flags or configs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import ann, storage
from .bench import bench_gemv
from .distill import (TaskSpec, TrainConfig, distill, holdout_split,
                      make_synthetic_teacher, teacher_student_mse)
from .encoder import (EncoderConfig, EncoderModel, MODE_TERNARY, PackedEncoder,
                      replace_linears)
from .storage import FormatError
from .ternary import beta_sweep, compute_threshold, sparsity, ternarize

SEED_ENV = "TERNKIT_SEED"


class _Parser(argparse.ArgumentParser):
    """argparse with the usage-error exit code pinned to 3."""

    def error(self, message):
        self.exit(3, f"{self.prog}: error: {message}\n")


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:  # nan fails every comparison
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {value}")
    return value


def _holdout_fraction(text: str) -> float:
    value = float(text)
    if not 0 <= value < 1:
        raise argparse.ArgumentTypeError(f"must be finite and in [0, 1), got {value}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_float_list(text: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e))
    if not values:
        raise argparse.ArgumentTypeError("list must be non-empty")
    if not all(0 < v < math.inf for v in values):
        raise argparse.ArgumentTypeError("all values must be finite and positive")
    return values


def _int_list(text: str) -> list[int]:
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e))
    if not values:
        raise argparse.ArgumentTypeError("list must be non-empty")
    return values


def _seed(default: int) -> int:
    return int(os.environ[SEED_ENV]) if SEED_ENV in os.environ else int(default)


def _emit(record: dict) -> None:
    print(json.dumps(record, sort_keys=True))


def _note(text: str) -> None:
    print(text, file=sys.stderr)


def _load_weight_matrix(path) -> np.ndarray:
    arr = storage.load_tensor(path)
    if arr.ndim != 2 or arr.dtype != np.float32:
        raise storage.IntegrityError("weights file must hold a rank-2 float32 tensor")
    return arr


# -- subcommands -----------------------------------------------------------------


def cmd_ternarize(args) -> int:
    w = _load_weight_matrix(args.weights)
    gamma = compute_threshold(w, args.beta)
    p = ternarize(w, gamma)
    storage.save_packed_layer(args.out, p)
    s = sparsity(p)
    _emit({"op": "ternarize", "rows": p.rows, "cols": p.cols, "beta": args.beta,
           "gamma": gamma, "sparsity": s, "out": str(args.out)})
    _note(f"ternarized {p.rows}x{p.cols}: beta={args.beta} gamma={gamma:.6g} "
          f"sparsity={s:.4f} -> {args.out}")
    return 0


def cmd_sparsity_sweep(args) -> int:
    w = _load_weight_matrix(args.weights)
    rows = beta_sweep(w, args.betas)
    for r in rows:
        _emit({"op": "sparsity_sweep", "beta": r.beta, "gamma": r.gamma,
               "sparsity": r.sparsity})
    _note(f"{'beta':>8}  {'gamma':>12}  {'sparsity':>8}")
    for r in rows:
        _note(f"{r.beta:>8.4g}  {r.gamma:>12.6g}  {r.sparsity:>8.4f}")
    return 0


def cmd_distill(args) -> int:
    with open(args.config, "r", encoding="utf-8") as f:
        raw = json.load(f)
    try:
        config = TrainConfig.from_dict(raw)
    except (TypeError, ValueError) as e:
        raise storage.ConfigError(f"invalid training config: {e}") from e
    config.seed = _seed(config.seed)

    teacher = storage.load_checkpoint(args.teacher)
    if not isinstance(teacher, EncoderModel):
        raise storage.ConfigError("teacher checkpoint must be a dense model")
    data = storage.load_vectors(args.data)

    if args.holdout > 0:
        train, held = holdout_split(data, seed=config.seed, fraction=args.holdout)
    else:
        train, held = data, None

    student = replace_linears(teacher.clone(), MODE_TERNARY, config.beta)
    ptq_mse = teacher_student_mse(teacher, student, held) if held is not None else None

    result = distill(teacher, student, train, config)
    storage.save_ternary_checkpoint(args.out, student)

    log_lines = [{"epoch": r.epoch, "batch": r.batch, "loss": r.loss, "lr": r.lr}
                 for r in result.batch_log]
    for line in log_lines:
        _emit(line)
    summary = {"op": "distill", "epochs": config.epochs,
               "epoch_losses": result.epoch_losses, "out": str(args.out)}
    if held is not None:
        summary["heldout_mse"] = teacher_student_mse(teacher, student, held)
        summary["ptq_baseline_mse"] = ptq_mse
    _emit(summary)
    if args.log:
        with open(args.log, "w", encoding="utf-8") as f:
            for line in log_lines:
                f.write(json.dumps(line, sort_keys=True) + "\n")
    _note(f"distilled {config.epochs} epochs; final epoch mean loss "
          f"{result.epoch_losses[-1]:.6g} -> {args.out}")
    return 0


def _embed(model, data: np.ndarray, batch: int = 512) -> np.ndarray:
    outs = [model.forward(data[i:i + batch]) for i in range(0, data.shape[0], batch)]
    return np.concatenate(outs, axis=0)


def cmd_eval_retrieval(args) -> int:
    model = storage.load_checkpoint(args.model)
    data = storage.load_vectors(args.dataset)
    labels_arr = storage.load_tensor(args.labels)
    if labels_arr.ndim != 1:
        raise storage.IntegrityError("labels file must hold a rank-1 tensor")
    if labels_arr.dtype.kind == "f" and not np.all(
            np.isfinite(labels_arr) & (np.trunc(labels_arr) == labels_arr)
            & (np.abs(labels_arr) < 2.0 ** 63)):
        raise storage.IntegrityError("labels must be finite integers within int64 range")
    labels = labels_arr.astype(np.int64)
    if labels.shape[0] != data.shape[0]:
        raise storage.IntegrityError("labels length must match dataset rows")

    start = time.perf_counter()
    embeddings = _embed(model, data)
    embed_seconds = time.perf_counter() - start

    seed = _seed(args.seed)
    metrics = ann.evaluate_retrieval(embeddings, labels, args.index, args.k, seed=seed)
    record = {"op": "eval_retrieval", "model": str(args.model),
              "kind": "packed" if isinstance(model, PackedEncoder) else "dense",
              "embed_seconds": embed_seconds, **metrics}
    _emit(record)
    _note(f"{args.index} over {metrics['num_vectors']} vectors "
          f"(embed {embed_seconds:.2f}s):")
    for k in sorted(metrics["precision_at_k"], key=int):
        _note(f"  k={k:>4}  precision={metrics['precision_at_k'][k]:.4f}"
              f"  recall={metrics['recall_at_k'][k]:.4f}")
    return 0


def cmd_bench_gemv(args) -> int:
    result = bench_gemv(args.rows, args.cols, args.reps, seed=_seed(args.seed))
    for report in result["reports"]:
        _emit({"op": "bench_gemv", **report})
    _emit({"op": "bench_gemv_summary",
           "latency_ratio_packed_over_dense": result["latency_ratio_packed_over_dense"],
           "storage_ratio_packed_over_dense": result["storage_ratio_packed_over_dense"],
           "kernel_check_max_rel_err": result["kernel_check_max_rel_err"],
           "operand": result["operand"]})
    for report in result["reports"]:
        _note(f"{report['operation']:>22}: {report['per_call_ns'] / 1e6:.3f} ms/call, "
              f"{report['storage_bytes']} bytes")
    _note(f"latency ratio {result['latency_ratio_packed_over_dense']:.3f}, "
          f"storage ratio {result['storage_ratio_packed_over_dense']:.4f}, "
          f"kernel check {result['kernel_check_max_rel_err']:.2e}, "
          f"{result['operand']} operand")
    return 0


def cmd_make_task(args) -> int:
    with open(args.config, "r", encoding="utf-8") as f:
        raw = json.load(f)
    try:
        # a missing encoder seed is 0, as in TaskSpec and TrainConfig; only
        # checkpoint sidecars, which the writer always fills, require it
        config = EncoderConfig.from_dict({"seed": 0, **raw["encoder"]})
        spec = TaskSpec(**raw["task"])
    except (KeyError, TypeError, ValueError) as e:
        raise storage.ConfigError(f"invalid task config: {e}") from e
    if SEED_ENV in os.environ:
        spec.seed = _seed(spec.seed)
        config.seed = spec.seed + 17
    teacher, task = make_synthetic_teacher(config, spec)
    storage.save_checkpoint(args.out_teacher, teacher)
    storage.save_vectors(args.out_data, task.inputs)
    storage.save_tensor(args.out_labels, task.labels.astype(np.float32))
    _emit({"op": "make_task", "clusters": spec.num_clusters, "points": spec.num_points,
           "teacher": str(args.out_teacher), "data": str(args.out_data),
           "labels": str(args.out_labels)})
    _note(f"wrote teacher {args.out_teacher}, {spec.num_points} vectors, "
          f"{spec.num_clusters} clusters")
    return 0


# -- parser ----------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="ternkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ternarize", help="quantize a saved weight matrix to a packed layer")
    p.add_argument("--weights", required=True)
    p.add_argument("--beta", type=_positive_float, default=2.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ternarize)

    p = sub.add_parser("sparsity-sweep", help="threshold and sparsity across beta values")
    p.add_argument("--weights", required=True)
    p.add_argument("--betas", type=_positive_float_list, required=True)
    p.set_defaults(func=cmd_sparsity_sweep)

    p = sub.add_parser("distill", help="fit a ternary student to a frozen teacher")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--teacher", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--log", default=None)
    p.add_argument("--holdout", type=_holdout_fraction, default=0.1)
    p.set_defaults(func=cmd_distill)

    p = sub.add_parser("eval-retrieval", help="precision/recall of a model's embeddings")
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--index", choices=list(ann.INDEX_KINDS), required=True)
    p.add_argument("--k", type=_int_list, default=[1, 5, 10])
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_eval_retrieval)

    p = sub.add_parser("bench-gemv", help="time dense vs packed GEMV on one shape")
    p.add_argument("--rows", type=_positive_int, required=True)
    p.add_argument("--cols", type=_positive_int, required=True)
    p.add_argument("--reps", type=_positive_int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_bench_gemv)

    p = sub.add_parser("make-task", help="generate the synthetic benchmark task")
    p.add_argument("--config", required=True)
    p.add_argument("--out-teacher", required=True)
    p.add_argument("--out-data", required=True)
    p.add_argument("--out-labels", required=True)
    p.set_defaults(func=cmd_make_task)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FormatError as e:
        _note(f"ternkit: {type(e).__name__}: {e}")
        return 2
    except (FileNotFoundError, IsADirectoryError, PermissionError) as e:
        _note(f"ternkit: file error: {e}")
        return 2
    except (ValueError, json.JSONDecodeError) as e:
        _note(f"ternkit: invalid input: {e}")
        return 2
    except Exception as e:  # anything else is an internal failure
        _note(f"ternkit: internal error: {type(e).__name__}: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
