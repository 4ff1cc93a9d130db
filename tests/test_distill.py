import math

import numpy as np
import pytest

from conftest import random_matrix
from ternkit.ann import evaluate_retrieval
from ternkit.distill import (_NOISE_ROWS, AdamState, TaskSpec, TrainConfig, adam_step,
                             distill, holdout_split, lr_at, make_synthetic_task,
                             make_synthetic_teacher, mse_loss,
                             teacher_student_mse)
from ternkit.encoder import (EncoderConfig, EncoderModel, MODE_TERNARY,
                             model_digest, replace_linears)
from ternkit.rng import Rng


def test_mse_identical_inputs():
    x = random_matrix(Rng(1), 4, 5)
    loss, grad = mse_loss(x, x.copy())
    assert loss == 0.0 and np.abs(grad).max() == 0.0


def test_mse_hand_case():
    loss, grad = mse_loss(np.array([2.0], np.float32), np.array([0.0], np.float32))
    assert loss == 4.0
    assert np.array_equal(grad, np.array([4.0], np.float32))


def test_mse_gradient_matches_finite_differences():
    rng = Rng(2)
    pred = rng.normals(12).reshape(3, 4)
    target = rng.normals(12).reshape(3, 4)
    _, grad = mse_loss(pred, target)
    h = 1e-5
    for idx in np.ndindex(pred.shape):
        bumped = pred.copy()
        bumped[idx] += h
        lp, _ = mse_loss(bumped, target)
        bumped[idx] -= 2 * h
        lm, _ = mse_loss(bumped, target)
        fd = (lp - lm) / (2 * h)
        assert abs(grad[idx] - fd) <= 1e-4 * max(1.0, abs(fd))


def test_mse_shape_mismatch():
    with pytest.raises(ValueError):
        mse_loss(np.zeros((2, 2)), np.zeros((2, 3)))


def test_lr_schedule_halved_every_two_epochs():
    cfg = TrainConfig(lr_initial=1e-3, lr_step_epochs=2, lr_factor=0.5)
    assert [lr_at(cfg, e) for e in range(4)] == [1e-3, 1e-3, 5e-4, 5e-4]


def test_lr_schedule_text_embedding_triple():
    cfg = TrainConfig(lr_initial=2e-5, lr_step_epochs=1, lr_factor=0.2)
    assert lr_at(cfg, 1) == pytest.approx(4e-6)


def test_lr_epoch_zero_is_initial():
    for triple in [(1e-3, 2, 0.5), (2e-5, 1, 0.2), (0.1, 3, 0.9)]:
        cfg = TrainConfig(lr_initial=triple[0], lr_step_epochs=triple[1],
                          lr_factor=triple[2])
        assert lr_at(cfg, 0) == triple[0]
    with pytest.raises(ValueError):
        lr_at(cfg, -1)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(lr_initial=0.0)
    with pytest.raises(ValueError):
        TrainConfig(lr_factor=1.5)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)


def test_config_integer_fields_take_numpy_integers():
    assert TrainConfig(epochs=np.int64(2), batch_size=np.int32(8)).epochs == 2
    assert TaskSpec(num_clusters=np.int64(2), num_points=np.int64(4)).num_points == 4
    assert EncoderConfig.from_dict({"input_dim": np.int64(3), "hidden_dim": 4,
                                    "output_dim": 4, "num_blocks": 1, "seed": 0}).input_dim == 3


def test_adam_zero_gradients_leave_params_unchanged():
    params = np.array([1.0, -2.0], np.float32)
    state = AdamState.initialize(params)
    adam_step(state, params, np.zeros(2, np.float32), lr=0.1)
    assert np.array_equal(params, np.array([1.0, -2.0], np.float32))


def test_adam_hand_step():
    params = np.array([0.0], np.float32)
    state = AdamState.initialize(params)
    adam_step(state, params, np.array([1.0], np.float32), lr=0.1)
    # bias correction makes m_hat = v_hat = 1 at t=1, so the step is -lr
    assert params[0] == pytest.approx(-0.1, abs=1e-6)
    assert state.t == 1


def test_adam_deterministic_trajectories():
    def run():
        params = np.arange(6, dtype=np.float32).reshape(2, 3)
        state = AdamState.initialize(params)
        rng = Rng(33)
        for _ in range(25):
            g = rng.normals(6).reshape(2, 3).astype(np.float32)
            adam_step(state, params, g, lr=0.01)
        return params

    assert np.array_equal(run(), run())


def small_setup(seed=5):
    config = EncoderConfig(input_dim=12, hidden_dim=12, output_dim=12,
                           num_blocks=2, seed=seed)
    spec = TaskSpec(num_clusters=6, num_points=480, noise=0.25, seed=seed + 1,
                    teacher_epochs=6)
    return make_synthetic_teacher(config, spec)


def test_self_target_fixpoint():
    teacher, task = small_setup()
    student = teacher.clone()  # full-precision twin
    cfg = TrainConfig(epochs=1, batch_size=64, seed=0)
    digest = model_digest(student)
    result = distill(teacher, student, task.inputs, cfg)
    assert all(r.loss == 0.0 for r in result.batch_log)
    assert model_digest(student) == digest


def test_teacher_parameters_unchanged_by_distillation():
    teacher, task = small_setup()
    student = replace_linears(teacher.clone(), MODE_TERNARY, 2.0)
    digest = model_digest(teacher)
    distill(teacher, student, task.inputs, TrainConfig(epochs=2, seed=3))
    assert model_digest(teacher) == digest


def test_distillation_improves_heldout_mse():
    teacher, task = small_setup()
    train, held = holdout_split(task.inputs, seed=7)
    student = replace_linears(teacher.clone(), MODE_TERNARY, 2.0)
    before = teacher_student_mse(teacher, student, held)
    result = distill(teacher, student, train, TrainConfig(epochs=4, seed=9))
    after = teacher_student_mse(teacher, student, held)
    assert after < before
    assert all(math.isfinite(r.loss) for r in result.batch_log)


def test_loss_log_shapes():
    teacher, task = small_setup()
    student = replace_linears(teacher.clone(), MODE_TERNARY, 2.0)
    cfg = TrainConfig(epochs=3, batch_size=100, seed=1)
    result = distill(teacher, student, task.inputs, cfg)
    assert len(result.epoch_losses) == cfg.epochs
    batches_per_epoch = math.ceil(task.inputs.shape[0] / cfg.batch_size)
    assert len(result.batch_log) == cfg.epochs * batches_per_epoch
    assert all(r.lr == lr_at(cfg, r.epoch) for r in result.batch_log)


def test_distill_rejects_architecture_mismatch():
    teacher, task = small_setup()
    other = EncoderModel.init(EncoderConfig(12, 12, 12, 1, seed=0))
    with pytest.raises(ValueError):
        distill(teacher, other, task.inputs, TrainConfig(epochs=1))


def test_distill_rejects_empty_dataset():
    teacher, _ = small_setup()
    with pytest.raises(ValueError):
        distill(teacher, teacher.clone(), np.zeros((0, 12), np.float32),
                TrainConfig(epochs=1))


def test_distill_deterministic_per_seed():
    teacher, task = small_setup()
    outs = []
    for _ in range(2):
        student = replace_linears(teacher.clone(), MODE_TERNARY, 2.0)
        result = distill(teacher, student, task.inputs,
                         TrainConfig(epochs=2, seed=44))
        outs.append((model_digest(student), [r.loss for r in result.batch_log]))
    assert outs[0] == outs[1]


def test_holdout_split_sizes_and_determinism():
    data = random_matrix(Rng(3), 100, 4)
    train, held = holdout_split(data, seed=5, fraction=0.1)
    assert train.shape[0] == 90 and held.shape[0] == 10
    train2, held2 = holdout_split(data, seed=5, fraction=0.1)
    assert np.array_equal(train, train2) and np.array_equal(held, held2)


def test_synthetic_teacher_two_clusters_recall_near_one():
    config = EncoderConfig(input_dim=16, hidden_dim=16, output_dim=16,
                           num_blocks=1, seed=2)
    spec = TaskSpec(num_clusters=2, num_points=200, noise=0.2, seed=3,
                    teacher_epochs=5)
    teacher, task = make_synthetic_teacher(config, spec)
    metrics = evaluate_retrieval(teacher.forward(task.inputs), task.labels,
                                 "flat", [1])
    assert metrics["recall_at_k"]["1"] >= 0.99


def test_synthetic_teacher_deterministic():
    config = EncoderConfig(8, 8, 8, 1, seed=6)
    spec = TaskSpec(num_clusters=3, num_points=90, seed=7, teacher_epochs=2)
    t1, task1 = make_synthetic_teacher(config, spec)
    t2, task2 = make_synthetic_teacher(config, spec)
    assert model_digest(t1) == model_digest(t2)
    assert np.array_equal(task1.inputs, task2.inputs)
    assert np.array_equal(task1.labels, task2.labels)


def test_synthetic_task_noise_blocks_equal_one_draw():
    """Noise drawn a block of rows at a time equals one draw of all of it,
    with an odd input width and a partial last block."""
    config = EncoderConfig(7, 8, 5, 1, seed=1)
    n = 2 * _NOISE_ROWS + 5
    task = make_synthetic_task(config, TaskSpec(3, n, noise=0.7, seed=3))
    rng = Rng(3)
    prototypes = rng.normals(3 * 7).reshape(3, 7)
    rng.normals(3 * 5)  # the codes
    noise = rng.normals(n * 7, sigma=0.7).reshape(n, 7)
    assert np.array_equal(task.inputs, (prototypes[np.arange(n) % 3] + noise).astype(np.float32))


def test_task_spec_rejects_degenerate_clusters():
    with pytest.raises(ValueError):
        TaskSpec(num_clusters=1, num_points=10)
    with pytest.raises(ValueError):
        TaskSpec(num_clusters=4, num_points=2)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_distill_rejects_non_finite_student_weight(bad):
    teacher, task = small_setup()
    student = replace_linears(teacher.clone(), MODE_TERNARY, 2.0)
    student.parameters()["blocks.1.fc2.weight"][0, 5] = bad
    with pytest.raises(ValueError):
        distill(teacher, student, task.inputs, TrainConfig(epochs=1))


def test_distilling_a_clone_leaves_the_original_untouched():
    teacher, task = small_setup()
    student = replace_linears(teacher.clone(), MODE_TERNARY, 2.0)
    untrained = model_digest(student)
    distill(teacher, student, task.inputs, TrainConfig(epochs=1, seed=2))
    trained = model_digest(student)
    assert trained != untrained
    # parameters() hands back the arrays Adam updated: a model rebuilt from
    # copies of them computes what the trained student computes
    rebuilt = EncoderModel.from_arrays(
        student.config, {k: v.copy() for k, v in student.parameters().items()},
        MODE_TERNARY, 2.0)
    assert np.array_equal(rebuilt.forward(task.inputs), student.forward(task.inputs))
    assert len({id(v.base) for v in student.parameters().values()}) == 1

    twin = student.clone()
    distill(teacher, twin, task.inputs, TrainConfig(epochs=1, seed=3))
    assert model_digest(twin) != trained
    assert model_digest(student) == trained
