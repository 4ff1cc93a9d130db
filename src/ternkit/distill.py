"""Self-distillation: train a ternary student against its frozen teacher.

The teacher is the original full-precision encoder; the student is a copy
whose linear layers run in ternary mode. Targets are the teacher's raw
outputs on unlabeled vectors, the loss is MSE, and the optimizer is Adam
with a step learning-rate schedule: lr(epoch) = lr_initial *
lr_factor ** floor(epoch / lr_step_epochs). All parameters train (norms and
biases included); only linear weights go through the straight-through path.

The teacher is frozen, so ``distill`` computes its targets once per call, in
batch-size chunks, not once per batch of every epoch. Every parameter of a
model is a view of its one buffer (``EncoderModel.flat_parameters``), so each
Adam step runs over the whole buffer. Neither changes a trajectory: losses,
batch logs and trained weights are the same, bit for bit.

Also provides the synthetic cluster-embedding task used as the desk-scale
benchmark: K Gaussian prototypes in input space, unit-norm code vectors in
output space, and a briefly fitted full-precision teacher whose embeddings
make nearest-neighbor retrieval meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor
from .encoder import EncoderConfig, EncoderModel, architecture_parity, require_ints, require_reals
from .rng import Rng


@dataclass
class TrainConfig:
    beta: float = 2.0
    epochs: int = 5
    lr_initial: float = 1e-3
    lr_step_epochs: int = 2
    lr_factor: float = 0.5
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    batch_size: int = 64
    seed: int = 0

    def __post_init__(self):
        require_ints(self, "epochs", "lr_step_epochs", "batch_size", "seed")
        require_reals(self, "beta", "lr_initial", "lr_factor", "adam_beta1", "adam_beta2",
                      "adam_eps")
        for name in ("beta", "lr_initial", "adam_eps"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("adam_beta1", "adam_beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise ValueError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.lr_step_epochs < 1:
            raise ValueError(f"lr_step_epochs must be >= 1, got {self.lr_step_epochs}")
        if not 0 < self.lr_factor <= 1:
            raise ValueError(f"lr_factor must be in (0, 1], got {self.lr_factor}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        return cls(**d)


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def initialize(cls, params: np.ndarray, beta1: float = 0.9,
                   beta2: float = 0.999, eps: float = 1e-8) -> "AdamState":
        return cls(m=np.zeros_like(params), v=np.zeros_like(params),
                   beta1=beta1, beta2=beta2, eps=eps)


def mse_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean over all elements of squared difference, and its gradient."""
    pred = np.asarray(pred)
    target = np.asarray(target)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    diff = pred.astype(np.float64) - target.astype(np.float64)
    loss = float((diff * diff).mean())
    grad = (2.0 / diff.size * diff).astype(pred.dtype)
    return loss, grad


def lr_at(config: TrainConfig, epoch: int) -> float:
    """Step schedule: lr_initial * lr_factor ** floor(epoch / lr_step_epochs)."""
    if epoch < 0:
        raise ValueError(f"epoch must be >= 0, got {epoch}")
    return config.lr_initial * config.lr_factor ** (epoch // config.lr_step_epochs)


def adam_step(state: AdamState, params: np.ndarray, grads: np.ndarray, lr: float) -> None:
    """One bias-corrected Adam update, in place on params and state."""
    if grads.shape != params.shape:
        raise ValueError(f"gradient shape {grads.shape} != parameter shape {params.shape}")
    state.t += 1
    c1 = 1.0 - state.beta1 ** state.t
    c2 = 1.0 - state.beta2 ** state.t
    state.m += (1.0 - state.beta1) * (grads - state.m)
    state.v += (1.0 - state.beta2) * (grads * grads - state.v)
    params -= lr * (state.m / c1) / (np.sqrt(state.v / c2) + state.eps)


@dataclass(frozen=True)
class LossRecord:
    epoch: int
    batch: int
    loss: float
    lr: float


@dataclass
class DistillResult:
    student: EncoderModel
    batch_log: list[LossRecord]
    epoch_losses: list[float]


def holdout_split(data: np.ndarray, seed: int, fraction: float = 0.1):
    """Seeded shuffle then split into (train, heldout); heldout gets the fraction."""
    n = data.shape[0]
    n_held = max(1, int(round(n * fraction)))
    if n_held >= n:
        raise ValueError("dataset too small to split")
    perm = Rng(seed).permutation(n)
    return data[perm[n_held:]], data[perm[:n_held]]


def distill(teacher: EncoderModel, student: EncoderModel, data: np.ndarray,
            config: TrainConfig) -> DistillResult:
    """Fit the student to the teacher's outputs over the given vectors.

    The teacher is frozen, so its outputs (the targets) are computed once,
    in batch-size chunks of the data. Every step of the forward pass treats
    rows independently, so a row's target equals what a forward pass over
    the shuffled batch gives it (the golden trajectories check this).
    Per batch: student forward -> prediction, MSE against the batch's
    targets, student backward, Adam step at the epoch's scheduled rate.
    Batch order reshuffles each epoch from the run seed, so the whole
    trajectory is reproducible.
    """
    data = tensor.as_matrix(data, "data")
    if not architecture_parity(teacher, student):
        raise ValueError("teacher and student architectures differ")
    if data.shape[1] != teacher.config.input_dim:
        raise ValueError(f"data width {data.shape[1]} != input_dim {teacher.config.input_dim}")
    step = config.batch_size
    targets = np.concatenate([teacher.forward(data[i:i + step])
                              for i in range(0, data.shape[0], step)])
    batch_log, epoch_losses = _train(student, data, targets, config)
    return DistillResult(student, batch_log, epoch_losses)


def _train(model: EncoderModel, data: np.ndarray, targets: np.ndarray,
           config: TrainConfig) -> tuple[list[LossRecord], list[float]]:
    """Fit model(data rows) to the same rows of targets by MSE and scheduled Adam.

    Adam updates the model's one parameter buffer (``flat_parameters``) in
    place, one set of whole-buffer operations per step; the per-element
    arithmetic is that of separate arrays. Returns the per-batch loss log
    and the mean loss of each epoch.
    """
    n = data.shape[0]
    rng = Rng(config.seed)
    params = model.flat_parameters()
    grads = np.empty_like(params)
    state = AdamState.initialize(params, config.adam_beta1, config.adam_beta2,
                                 config.adam_eps)
    batch_log: list[LossRecord] = []
    epoch_losses: list[float] = []
    for epoch in range(config.epochs):
        lr = lr_at(config, epoch)
        perm = rng.permutation(n)
        losses = []
        for b, start in enumerate(range(0, n, config.batch_size)):
            idx = perm[start:start + config.batch_size]
            loss, dpred = mse_loss(model.train_forward(data[idx]), targets[idx])
            if not math.isfinite(loss):
                raise FloatingPointError(f"non-finite loss at epoch {epoch} batch {b}")
            np.concatenate(list(model.backward(dpred).values()), axis=None,
                           out=grads)
            adam_step(state, params, grads, lr)
            batch_log.append(LossRecord(epoch, b, loss, lr))
            losses.append(loss)
        epoch_losses.append(float(np.mean(losses)))
    return batch_log, epoch_losses


def teacher_student_mse(teacher: EncoderModel, student, data: np.ndarray) -> float:
    """MSE between the two models' embeddings of the same vectors."""
    loss, _ = mse_loss(student.forward(data), teacher.forward(data))
    return loss


# -- synthetic benchmark task ------------------------------------------------

_NOISE_ROWS = 1024  # rows of task noise per draw; even


@dataclass
class TaskSpec:
    num_clusters: int
    num_points: int
    noise: float = 0.25
    seed: int = 0
    teacher_epochs: int = 10
    teacher_lr: float = 1e-3
    teacher_batch_size: int = 128

    def __post_init__(self):
        require_ints(self, "num_clusters", "num_points", "seed", "teacher_epochs",
                     "teacher_batch_size")
        require_reals(self, "noise", "teacher_lr")
        if self.num_clusters < 2:
            raise ValueError(f"need at least 2 clusters, got {self.num_clusters}")
        if self.num_points < self.num_clusters:
            raise ValueError("need at least one point per cluster")
        for name in ("noise", "teacher_lr"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")


@dataclass
class SyntheticTask:
    inputs: np.ndarray          # (N, input_dim) float32
    labels: np.ndarray          # (N,) int64 cluster ids
    codes: np.ndarray = field(repr=False, default=None)  # (K, output_dim) unit rows


def make_synthetic_task(config: EncoderConfig, spec: TaskSpec) -> SyntheticTask:
    """Clustered inputs plus per-cluster unit-norm target codes."""
    rng = Rng(spec.seed)
    k, n = spec.num_clusters, spec.num_points
    prototypes = rng.normals(k * config.input_dim).reshape(k, config.input_dim)
    codes = rng.normals(k * config.output_dim).reshape(k, config.output_dim)
    codes /= np.linalg.norm(codes, axis=1, keepdims=True)
    labels = np.arange(n, dtype=np.int64) % k
    inputs = np.empty((n, config.input_dim), dtype=tensor.FLOAT)
    # the noise comes a block of rows at a time, straight into `inputs`; an
    # even row count per block keeps every draw to whole Box-Muller pairs,
    # so the stream is that of one draw of all n rows
    for start in range(0, n, _NOISE_ROWS):
        rows = labels[start:start + _NOISE_ROWS]
        noise = rng.normals(rows.size * config.input_dim, sigma=spec.noise)
        inputs[start:start + rows.size] = prototypes[rows] + noise.reshape(rows.size, -1)
    return SyntheticTask(inputs, labels, codes.astype(tensor.FLOAT))


def make_synthetic_teacher(config: EncoderConfig,
                           spec: TaskSpec) -> tuple[EncoderModel, SyntheticTask]:
    """Build the cluster task and fit a full-precision teacher on it.

    The teacher regresses inputs onto their cluster codes, which pulls
    same-cluster embeddings together and makes retrieval over them
    meaningful. Returns the teacher and the task (inputs plus ground-truth
    cluster labels).
    """
    task = make_synthetic_task(config, spec)
    teacher = EncoderModel.init(config)
    targets = task.codes[task.labels]
    # lr_factor 1 holds the rate at teacher_lr for every epoch
    fit = TrainConfig(epochs=spec.teacher_epochs, lr_initial=spec.teacher_lr, lr_factor=1.0,
                      batch_size=spec.teacher_batch_size, seed=spec.seed + 1)
    _train(teacher, task.inputs, targets, fit)
    return teacher, task
