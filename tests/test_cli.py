import json
import math
import struct

import numpy as np
import pytest

from conftest import piped
from ternkit import storage
from ternkit.cli import main
from ternkit.encoder import MODE_TERNARY, replace_linears
from ternkit.rng import Rng
from ternkit.tensor import gaussian_fill


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    records = [json.loads(line) for line in captured.out.splitlines() if line.strip()]
    return code, records, captured.err


@pytest.fixture
def weights_file(tmp_path):
    path = tmp_path / "w.tern"
    storage.save_tensor(path, gaussian_fill(Rng(5), 256, 256, 1.0))
    return path


@pytest.fixture
def task_files(tmp_path, capsys):
    cfg = {
        "encoder": {"input_dim": 8, "hidden_dim": 8, "output_dim": 8,
                    "num_blocks": 1, "seed": 3},
        "task": {"num_clusters": 4, "num_points": 240, "noise": 0.25,
                 "seed": 9, "teacher_epochs": 4},
    }
    cfg_path = tmp_path / "task.json"
    cfg_path.write_text(json.dumps(cfg))
    teacher = tmp_path / "teacher.ckpt"
    data = tmp_path / "data.vec"
    labels = tmp_path / "labels.tern"
    code, _, _ = run_cli(capsys, "make-task", "--config", str(cfg_path),
                         "--out-teacher", str(teacher), "--out-data", str(data),
                         "--out-labels", str(labels))
    assert code == 0
    return teacher, data, labels


def train_config_file(tmp_path, **overrides):
    cfg = {"beta": 2.0, "epochs": 2, "lr_initial": 1e-3, "lr_step_epochs": 2,
           "lr_factor": 0.5, "batch_size": 32, "seed": 1}
    cfg.update(overrides)
    path = tmp_path / "train.json"
    path.write_text(json.dumps(cfg))
    return path


def test_ternarize_reports_gaussian_sparsity(capsys, tmp_path, weights_file):
    out = tmp_path / "w.tpkd"
    code, records, err = run_cli(capsys, "ternarize", "--weights", str(weights_file),
                                 "--out", str(out))
    assert code == 0
    (rec,) = records
    assert rec["beta"] == 2.0  # documented default
    assert rec["sparsity"] == pytest.approx(0.8895, abs=0.01)
    assert out.exists()
    loaded = storage.load_packed_layer(out)
    assert loaded.rows == 256 and loaded.cols == 256


def test_ternarize_bad_magic_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.tern"
    bad.write_bytes(b"garbage bytes")
    code, _, err = run_cli(capsys, "ternarize", "--weights", str(bad),
                           "--out", str(tmp_path / "x"))
    assert code == 2


def test_ternarize_forged_huge_tensor_exits_2(capsys, tmp_path):
    # 16-byte header declaring a 60000x60000 f32 payload (14.4 GB) with none present
    forged = tmp_path / "huge.tern"
    forged.write_bytes(b"TERN" + struct.pack("<HBB2I", 1, storage.DTYPE_F32, 2, 60000, 60000))
    code, _, err = run_cli(capsys, "ternarize", "--weights", str(forged),
                           "--out", str(tmp_path / "x"))
    assert code == 2
    assert "remain in the file" in err


def test_ternarize_retired_trit_plane_container_exits_2(capsys, tmp_path):
    # dtype code 1 once held bare trit planes (here 4x9: two 8-byte planes)
    retired = tmp_path / "planes.tern"
    retired.write_bytes(b"TERN" + struct.pack("<HBB2I", 1, 1, 2, 4, 9) + b"\x00" * 16)
    with pytest.raises(storage.FormatError, match="unknown dtype code 1"):
        storage.load_tensor(retired)
    code, _, err = run_cli(capsys, "ternarize", "--weights", str(retired),
                           "--out", str(tmp_path / "x"))
    assert code == 2
    assert "unknown dtype code 1" in err


def test_ternarize_missing_file_exits_2(capsys, tmp_path):
    code, _, _ = run_cli(capsys, "ternarize", "--weights", str(tmp_path / "nope"),
                         "--out", str(tmp_path / "x"))
    assert code == 2


@pytest.mark.parametrize("argv", [("ternarize", "--beta", "nan"), ("ternarize", "--beta", "inf"),
                                  ("ternarize", "--beta", "1e300"),  # gamma overflows float32
                                  ("sparsity-sweep", "--betas", "1,nan"),
                                  ("ternarize", "--beta=-inf"),  # "-inf" alone reads as a flag
                                  ("sparsity-sweep", "--betas", "1,inf")])
def test_non_finite_gamma_exits_2(capsys, tmp_path, weights_file, argv):
    """A finite beta whose gamma overflows float32 is an input error (2); a
    non-finite beta is a usage error (3), caught before the weights load."""
    command, *rest = argv
    out = tmp_path / "w.tpkd"
    extra = ["--out", str(out)] if command == "ternarize" else []
    finite = rest[-1] == "1e300"
    try:
        code, records, err = run_cli(capsys, command, "--weights", str(weights_file),
                                     *rest, *extra)
    except SystemExit as exc:
        code, records, err = exc.code, [], capsys.readouterr().err
    assert code == (2 if finite else 3) and not records and not out.exists()
    assert ("invalid input" if finite else "must be finite") in err


def test_sweep_increasing_sparsity(capsys, weights_file):
    code, records, err = run_cli(capsys, "sparsity-sweep", "--weights",
                                 str(weights_file), "--betas", "1,2,3")
    assert code == 0
    sparsities = [r["sparsity"] for r in records]
    assert sparsities == sorted(sparsities)
    assert sparsities[0] == pytest.approx(0.5749, abs=0.01)
    assert sparsities[1] == pytest.approx(0.8895, abs=0.01)
    assert sparsities[2] == pytest.approx(0.9832, abs=0.01)
    assert "beta" in err  # human table on stderr


def test_sweep_single_beta_single_row(capsys, weights_file):
    code, records, _ = run_cli(capsys, "sparsity-sweep", "--weights",
                               str(weights_file), "--betas", "2")
    assert code == 0 and len(records) == 1


def test_sweep_negative_beta_usage_error(capsys, weights_file):
    with pytest.raises(SystemExit) as exc:
        main(["sparsity-sweep", "--weights", str(weights_file), "--betas", "1,-2"])
    assert exc.value.code == 3


def test_bench_gemv_reports(capsys):
    code, records, _ = run_cli(capsys, "bench-gemv", "--rows", "64",
                               "--cols", "100", "--reps", "2")
    assert code == 0
    ops = {r["op"] for r in records}
    assert "bench_gemv_summary" in ops
    summary = next(r for r in records if r["op"] == "bench_gemv_summary")
    assert summary["kernel_check_max_rel_err"] <= 1e-5
    assert summary["operand"] == "csr"  # beta 2 leaves ~11% of Gaussian trits nonzero
    reports = [r for r in records if r["op"] == "bench_gemv"]
    assert {r["operation"] for r in reports} == {"dense_gemv_f32", "packed_ternary_gemv"}
    assert all(r["total_ns"] > 0 for r in reports)


def test_bench_gemv_zero_reps_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench-gemv", "--rows", "4", "--cols", "4", "--reps", "0"])
    assert exc.value.code == 3


def test_distill_runs_and_writes_checkpoint(capsys, tmp_path, task_files):
    teacher, data, labels = task_files
    cfg = train_config_file(tmp_path)
    out = tmp_path / "student.ckpt"
    log = tmp_path / "loss.jsonl"
    code, records, _ = run_cli(capsys, "distill", "--config", str(cfg),
                               "--data", str(data), "--teacher", str(teacher),
                               "--out", str(out), "--log", str(log))
    assert code == 0
    batch_records = [r for r in records if "batch" in r]
    assert batch_records and all(set(r) == {"epoch", "batch", "loss", "lr"}
                                 for r in batch_records)
    summary = records[-1]
    assert summary["op"] == "distill"
    assert len(summary["epoch_losses"]) == 2
    assert summary["ptq_baseline_mse"] > 0
    assert log.exists() and out.exists()
    from ternkit.encoder import PackedEncoder
    assert isinstance(storage.load_checkpoint(out), PackedEncoder)


@pytest.mark.parametrize("fraction", ["inf", "nan", "-0.5", "1.5"])
def test_distill_holdout_out_of_range_usage_error(tmp_path, fraction):
    with pytest.raises(SystemExit) as exc:
        main(["distill", "--config", str(tmp_path / "c.json"), "--data", str(tmp_path / "d"),
              "--teacher", str(tmp_path / "t"), "--out", str(tmp_path / "o"),
              "--holdout", fraction])
    assert exc.value.code == 3


def test_distill_epochs_zero_exits_2(capsys, tmp_path, task_files):
    teacher, data, _ = task_files
    cfg = train_config_file(tmp_path, epochs=0)
    code, _, err = run_cli(capsys, "distill", "--config", str(cfg),
                           "--data", str(data), "--teacher", str(teacher),
                           "--out", str(tmp_path / "s.ckpt"))
    assert code == 2
    assert "epochs" in err


def test_distill_gamma_overflow_exits_2(capsys, tmp_path, task_files):
    """A beta whose gamma overflows float32 would train on NaN weights."""
    teacher, data, _ = task_files
    out = tmp_path / "s.ckpt"
    code, records, err = run_cli(capsys, "distill", "--config",
                                 str(train_config_file(tmp_path, beta=1e300)),
                                 "--data", str(data), "--teacher", str(teacher),
                                 "--out", str(out))
    assert code == 2 and not records and not out.exists()
    assert "float32" in err


@pytest.mark.parametrize("command, section, field, value", [
    ("distill", None, "epochs", 2.5),
    ("distill", None, "batch_size", 16.5),
    ("distill", None, "seed", 1.5),
    ("distill", None, "lr_step_epochs", 1.5),
    ("distill", None, "epochs", True),
    ("make-task", "task", "num_points", 200.5),
    ("make-task", "task", "teacher_epochs", 1.5),
    ("make-task", "encoder", "input_dim", 8.7),
])
def test_non_integer_config_field_exits_2(capsys, tmp_path, task_files,
                                          command, section, field, value):
    teacher, data, labels = task_files
    if command == "distill":
        cfg = train_config_file(tmp_path, **{field: value})
        args = ["--data", str(data), "--teacher", str(teacher), "--out", str(tmp_path / "s")]
    else:
        raw = {"encoder": {"input_dim": 8, "hidden_dim": 8, "output_dim": 8, "num_blocks": 1,
                           "seed": 3},
               "task": {"num_clusters": 4, "num_points": 240, "teacher_epochs": 1}}
        raw[section][field] = value
        cfg = tmp_path / "task.json"
        cfg.write_text(json.dumps(raw))
        args = ["--out-teacher", str(teacher), "--out-data", str(data),
                "--out-labels", str(labels)]
    code, _, err = run_cli(capsys, command, "--config", str(cfg), *args)
    assert code == 2, err
    assert f"{field} must be an integer" in err


@pytest.mark.parametrize("command, field, value", [
    ("distill", "adam_beta2", "x"),
    ("distill", "adam_beta1", 5.0),
    ("distill", "adam_eps", -1.0),
    ("distill", "beta", math.nan),
    ("make-task", "noise", math.nan),
    ("make-task", "noise", math.inf),
    ("make-task", "teacher_lr", math.nan),
    ("make-task", "teacher_lr", "x"),
])
def test_bad_real_config_field_exits_2(capsys, tmp_path, task_files, command, field, value):
    """Float fields must be finite numbers in range; anything else is an
    input error that names the field."""
    teacher, data, labels = task_files
    if command == "distill":
        cfg = train_config_file(tmp_path, **{field: value})
        args = ["--data", str(data), "--teacher", str(teacher), "--out", str(tmp_path / "s")]
    else:
        raw = {"encoder": {"input_dim": 8, "hidden_dim": 8, "output_dim": 8, "num_blocks": 1},
               "task": {"num_clusters": 4, "num_points": 240, "teacher_epochs": 1, field: value}}
        cfg = tmp_path / "task.json"
        cfg.write_text(json.dumps(raw))
        args = ["--out-teacher", str(teacher), "--out-data", str(data),
                "--out-labels", str(labels)]
    code, _, err = run_cli(capsys, command, "--config", str(cfg), *args)
    assert code == 2, err
    assert f"{field} must be" in err


def test_distill_deterministic_reruns(capsys, tmp_path, task_files):
    teacher, data, _ = task_files
    cfg = train_config_file(tmp_path)
    outputs = []
    out = tmp_path / "student.ckpt"
    for _ in range(2):
        code, records, _ = run_cli(capsys, "distill", "--config", str(cfg),
                                   "--data", str(data), "--teacher", str(teacher),
                                   "--out", str(out))
        assert code == 0
        outputs.append((out.read_bytes(), json.dumps(records)))
    assert outputs[0] == outputs[1]


def test_eval_retrieval_json_fields(capsys, tmp_path, task_files):
    teacher, data, labels = task_files
    code, records, err = run_cli(capsys, "eval-retrieval", "--model", str(teacher),
                                 "--dataset", str(data), "--labels", str(labels),
                                 "--index", "flat", "--k", "1,5")
    assert code == 0
    (rec,) = records
    assert rec["index"] == "flat"
    assert set(rec["precision_at_k"]) == {"1", "5"}
    assert set(rec["recall_at_k"]) == {"1", "5"}
    assert rec["embed_seconds"] > 0
    assert "precision" in err


def test_eval_retrieval_deterministic_modulo_timing(capsys, tmp_path, task_files):
    teacher, data, labels = task_files
    outs = []
    for _ in range(2):
        code, records, _ = run_cli(capsys, "eval-retrieval", "--model", str(teacher),
                                   "--dataset", str(data), "--labels", str(labels),
                                   "--index", "hnsw", "--k", "1,10")
        assert code == 0
        (rec,) = records
        rec.pop("embed_seconds")
        outs.append(json.dumps(rec, sort_keys=True))
    assert outs[0] == outs[1]


def test_eval_retrieval_unknown_index_usage_error(tmp_path, task_files):
    teacher, data, labels = task_files
    with pytest.raises(SystemExit) as exc:
        main(["eval-retrieval", "--model", str(teacher), "--dataset", str(data),
              "--labels", str(labels), "--index", "bogus"])
    assert exc.value.code == 3


@pytest.mark.parametrize("k", ["0", "-1", "1,0"])
def test_eval_retrieval_k_below_one_usage_error(capsys, tmp_path, k):
    # rejected by the parser, before the (missing) model is read
    with pytest.raises(SystemExit) as exc:
        main(["eval-retrieval", "--model", str(tmp_path / "missing.npz"), "--dataset",
              str(tmp_path / "missing.npy"), "--labels", str(tmp_path / "missing.json"),
              "--index", "flat", "--k", k])
    assert exc.value.code == 3
    assert "argument --k" in capsys.readouterr().err


def test_eval_retrieval_k_beyond_corpus_exits_2(capsys, tmp_path, task_files):
    teacher, data, labels = task_files
    code, _, _ = run_cli(capsys, "eval-retrieval", "--model", str(teacher),
                         "--dataset", str(data), "--labels", str(labels),
                         "--index", "flat", "--k", "9999")
    assert code == 2


@pytest.mark.parametrize("bad", [np.nan, 2.5, np.inf], ids=["nan", "fraction", "inf"])
def test_eval_retrieval_rejects_labels_that_are_not_ids(capsys, tmp_path, task_files, bad):
    teacher, data, labels = task_files
    arr = storage.load_tensor(labels)
    arr[7] = bad
    forged = tmp_path / "forged-labels.tern"
    storage.save_tensor(forged, arr)
    code, _, err = run_cli(capsys, "eval-retrieval", "--model", str(teacher),
                           "--dataset", str(data), "--labels", str(forged),
                           "--index", "flat", "--k", "1")
    assert code == 2, err
    assert "labels" in err


SIDECAR_EDITS = {
    "no_sha256": lambda meta: meta.pop("sha256"),
    "renamed_entry": lambda meta: meta["entries"][0].update(name="renamed"),
    "no_config_seed": lambda meta: meta["config"].pop("seed"),
    "normalize_true": lambda meta: meta.update(normalize=True),
    "normalize_no": lambda meta: meta.update(normalize="no"),
    "unknown_keys": lambda meta: meta.update(beta="garbage", linear_mode="bogus", bogus_key=1),
    "config_extra_key": lambda meta: meta["config"].update(hidden_dims=999),
    "version_true": lambda meta: meta.update(version=True),
    "version_float": lambda meta: meta.update(version=1.0),
}
BAD_BETAS = {"string": "2", "nan": math.nan, "zero": 0, "negative": -1, "inf": math.inf}


# packed cases carry the bare edit name; dense ones, which also check beta, a prefix
@pytest.mark.parametrize("kind, edit", [
    *(pytest.param("packed", edit, id=name) for name, edit in SIDECAR_EDITS.items()),
    *(pytest.param("dense", edit, id=f"dense-{name}") for name, edit in SIDECAR_EDITS.items()),
    *(pytest.param("dense", lambda meta, v=value: meta.update(beta=v), id=f"dense-beta_{name}")
      for name, value in BAD_BETAS.items()),
])
def test_eval_retrieval_malformed_sidecar_exits_2(capsys, tmp_path, task_files, kind, edit):
    teacher, data, labels = task_files
    model = tmp_path / "model.ckpt"
    if kind == "packed":
        storage.save_ternary_checkpoint(
            model, replace_linears(storage.load_checkpoint(teacher), MODE_TERNARY))
    else:
        storage.save_checkpoint(model, storage.load_checkpoint(teacher))
    sidecar = tmp_path / "model.ckpt.json"
    meta = json.loads(sidecar.read_text())
    edit(meta)
    sidecar.write_text(json.dumps(meta))
    code, records, err = run_cli(capsys, "eval-retrieval", "--model", str(model),
                                 "--dataset", str(data), "--labels", str(labels),
                                 "--index", "flat", "--k", "1")
    assert code == 2 and not records, err


def test_eval_retrieval_piped_dataset_exits_2(capsys, tmp_path, task_files):
    """A dataset larger than one read buffer cannot be size-checked through a
    pipe, so it exits 2, as a dataset file that is malformed does."""
    teacher, data, labels = task_files
    # the task twice over: a 15 KiB payload, past one 8 KiB buffer
    doubled, doubled_labels = tmp_path / "doubled.vec", tmp_path / "doubled.tern"
    storage.save_vectors(doubled, np.concatenate([storage.load_vectors(data)] * 2))
    storage.save_tensor(doubled_labels, np.concatenate([storage.load_tensor(labels)] * 2))
    argv = ["eval-retrieval", "--model", str(teacher), "--labels", str(doubled_labels),
            "--index", "flat", "--k", "1"]
    code, records, err = run_cli(capsys, *argv, "--dataset", str(doubled))
    assert code == 0 and records, err
    with piped(doubled.read_bytes()) as pipe:
        code, records, err = run_cli(capsys, *argv, "--dataset", pipe)
    assert code == 2 and not records, err
    assert "not seekable" in err


def test_eval_retrieval_sidecar_not_utf8_exits_2(capsys, tmp_path, task_files):
    teacher, data, labels = task_files
    sidecar = tmp_path / "teacher.ckpt.json"
    sidecar.write_bytes(sidecar.read_bytes().replace(b'"format"', b'"\xffformat"'))
    code, records, err = run_cli(capsys, "eval-retrieval", "--model", str(teacher),
                                 "--dataset", str(data), "--labels", str(labels),
                                 "--index", "flat", "--k", "1")
    assert code == 2 and not records
    assert "ConfigError" in err


def test_make_task_missing_encoder_seed_is_zero(capsys, tmp_path):
    outputs = []
    for tag, seed in (("explicit", {"seed": 0}), ("missing", {})):
        cfg_path = tmp_path / f"task_{tag}.json"
        cfg_path.write_text(json.dumps({
            "encoder": {"input_dim": 6, "hidden_dim": 6, "output_dim": 6, "num_blocks": 1,
                        **seed},
            "task": {"num_clusters": 2, "num_points": 40, "seed": 9, "teacher_epochs": 1},
        }))
        teacher = tmp_path / f"t_{tag}.ckpt"
        code, _, err = run_cli(capsys, "make-task", "--config", str(cfg_path),
                               "--out-teacher", str(teacher),
                               "--out-data", str(tmp_path / f"d_{tag}.vec"),
                               "--out-labels", str(tmp_path / f"l_{tag}.tern"))
        assert code == 0, err
        outputs.append((teacher.read_bytes(), (tmp_path / f"t_{tag}.ckpt.json").read_text()))
    assert outputs[0] == outputs[1]


def test_make_task_unknown_encoder_key_exits_2(capsys, tmp_path):
    cfg_path = tmp_path / "task.json"
    cfg_path.write_text(json.dumps({  # "sed" is a typo for "seed", which once read as seed 0
        "encoder": {"input_dim": 6, "hidden_dim": 6, "output_dim": 6, "num_blocks": 1, "sed": 5},
        "task": {"num_clusters": 2, "num_points": 40, "seed": 9, "teacher_epochs": 1},
    }))
    outputs = [tmp_path / name for name in ("t.ckpt", "d.vec", "l.tern")]
    code, records, err = run_cli(capsys, "make-task", "--config", str(cfg_path),
                                 "--out-teacher", str(outputs[0]), "--out-data", str(outputs[1]),
                                 "--out-labels", str(outputs[2]))
    assert code == 2 and not records, err
    assert "sed" in err and "ConfigError" in err
    assert not any(path.exists() for path in outputs)


def test_seed_env_override_changes_task(capsys, tmp_path, monkeypatch):
    cfg = {
        "encoder": {"input_dim": 6, "hidden_dim": 6, "output_dim": 6,
                    "num_blocks": 1, "seed": 3},
        "task": {"num_clusters": 2, "num_points": 40, "seed": 9,
                 "teacher_epochs": 1},
    }
    cfg_path = tmp_path / "task.json"
    cfg_path.write_text(json.dumps(cfg))

    def build(tag):
        data = tmp_path / f"d_{tag}.vec"
        code, _, _ = run_cli(capsys, "make-task", "--config", str(cfg_path),
                             "--out-teacher", str(tmp_path / f"t_{tag}.ckpt"),
                             "--out-data", str(data),
                             "--out-labels", str(tmp_path / f"l_{tag}.tern"))
        assert code == 0
        return storage.load_vectors(data)

    base = build("base")
    monkeypatch.setenv("TERNKIT_SEED", "777")
    overridden = build("env")
    assert not np.array_equal(base, overridden)


def test_no_subcommand_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 3
