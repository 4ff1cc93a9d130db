import hashlib
import io
import json
import os
import re
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import piped, random_matrix
from ternkit import storage
from ternkit.encoder import (EncoderConfig, EncoderModel, MODE_FULL, MODE_TERNARY,
                             PackedEncoder, replace_linears)
from ternkit.packed import _plane_trits, packed_gemm
from ternkit.rng import Rng
from ternkit.storage import (BadMagicError, ConfigError, FormatError, IntegrityError,
                             TruncatedFileError, UnsupportedVersionError, storage_bytes)
from ternkit.ternary import compute_threshold, ternarize


def random_packed(rng, rows, cols, bias=False):
    w = random_matrix(rng, rows, cols)
    b = rng.normals(rows).astype(np.float32) if bias else None
    return ternarize(w, compute_threshold(w, 1.0), b)


# -- tensor container ------------------------------------------------------------

def test_tensor_round_trip_f32(tmp_path):
    arr = random_matrix(Rng(1), 7, 9)
    path = tmp_path / "a.tern"
    storage.save_tensor(path, arr)
    assert np.array_equal(storage.load_tensor(path), arr)


def test_tensor_round_trip_u8(tmp_path):
    arr = np.arange(24, dtype=np.uint8).reshape(2, 3, 4)
    path = tmp_path / "b.tern"
    storage.save_tensor(path, arr)
    back = storage.load_tensor(path)
    assert back.dtype == np.uint8 and np.array_equal(back, arr)


def test_tensor_rejects_degenerate_shapes(tmp_path):
    with pytest.raises(ValueError):
        storage.save_tensor(tmp_path / "x", np.float32(3.0))
    with pytest.raises(ValueError):
        storage.save_tensor(tmp_path / "x", np.zeros((0, 3), np.float32))


def test_tensor_bad_magic(tmp_path):
    path = tmp_path / "bad"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(BadMagicError):
        storage.load_tensor(path)


def test_tensor_bad_version(tmp_path):
    path = tmp_path / "bad"
    path.write_bytes(b"TERN" + b"\x63\x00" + b"\x00\x01" + b"\x01\x00\x00\x00" + b"\x00" * 4)
    with pytest.raises(UnsupportedVersionError):
        storage.load_tensor(path)


def test_tensor_truncation(tmp_path):
    arr = random_matrix(Rng(2), 4, 4)
    path = tmp_path / "c.tern"
    storage.save_tensor(path, arr)
    data = path.read_bytes()
    path.write_bytes(data[:-1])
    with pytest.raises(TruncatedFileError):
        storage.load_tensor(path)


def test_tensor_trailing_bytes(tmp_path):
    arr = random_matrix(Rng(3), 2, 2)
    path = tmp_path / "d.tern"
    storage.save_tensor(path, arr)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(IntegrityError):
        storage.load_tensor(path)


# -- packed layer record -----------------------------------------------------------

@given(st.integers(1, 12), st.integers(1, 30), st.booleans())
@settings(max_examples=60, deadline=None)
def test_packed_record_round_trip(rows, cols, bias):
    rng = Rng(rows * 100 + cols)
    p = random_packed(rng, rows, cols, bias=bias)
    buf = io.BytesIO()
    storage.write_packed_layer(buf, p)
    raw = buf.getvalue()
    assert len(raw) == storage_bytes(p)
    buf.seek(0)
    back = storage.read_packed_layer(buf)
    assert back.rows == p.rows and back.cols == p.cols
    assert np.array_equal(back.plus_plane, p.plus_plane)
    assert np.array_equal(back.minus_plane, p.minus_plane)
    assert back.gamma == p.gamma
    if bias:
        assert np.array_equal(back.bias, p.bias)
    else:
        assert back.bias is None
    # canonical bytes on re-save
    buf2 = io.BytesIO()
    storage.write_packed_layer(buf2, back)
    assert buf2.getvalue() == raw


def test_packed_record_corrupt_overlap_is_integrity_error(tmp_path):
    p = random_packed(Rng(6), 3, 9)
    path = tmp_path / "p.tpkd"
    storage.save_packed_layer(path, p)
    data = bytearray(path.read_bytes())
    # force the first byte of both planes to share a bit
    header = 19
    data[header] |= 0x01
    data[header + 3 * ((9 + 7) // 8)] |= 0x01
    path.write_bytes(bytes(data))
    with pytest.raises(IntegrityError):
        storage.load_packed_layer(path)


def test_packed_record_with_signaling_nan_bias_loads():
    # any f32 bias is valid; widening a signaling NaN must not warn (a warning is an error here)
    p = random_packed(Rng(8), 2, 3, bias=True)
    buf = io.BytesIO()
    storage.write_packed_layer(buf, p)
    raw = buf.getvalue()[:-4] + struct.pack("<I", 0x7FA00000)
    back = storage.read_packed_layer(io.BytesIO(raw))
    assert np.isnan(packed_gemm(back, np.ones((3, 1), np.float32))[1, 0])


def test_packed_record_truncation(tmp_path):
    p = random_packed(Rng(7), 2, 8, bias=True)
    path = tmp_path / "p.tpkd"
    storage.save_packed_layer(path, p)
    path.write_bytes(path.read_bytes()[:-2])
    with pytest.raises(TruncatedFileError):
        storage.load_packed_layer(path)


# -- vector dataset ----------------------------------------------------------------

def test_vectors_round_trip(tmp_path):
    vecs = random_matrix(Rng(8), 20, 5)
    path = tmp_path / "v.vec"
    storage.save_vectors(path, vecs)
    assert os.path.getsize(path) == 8 + 4 * 20 * 5
    assert np.array_equal(storage.load_vectors(path), vecs)


def test_vectors_reject_empty(tmp_path):
    with pytest.raises(ValueError):
        storage.save_vectors(tmp_path / "v", np.zeros((0, 4), np.float32))


def test_vectors_truncation(tmp_path):
    vecs = random_matrix(Rng(9), 4, 4)
    path = tmp_path / "v.vec"
    storage.save_vectors(path, vecs)
    path.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(TruncatedFileError):
        storage.load_vectors(path)


class _StrictStream(io.BytesIO):
    """A stream that fails any read asking for more bytes than it holds."""

    def read(self, n=-1):
        assert n <= len(self.getbuffer()) - self.tell(), f"read of {n} bytes past the end"
        return super().read(n)


HUGE = 60000  # a 60000x60000 f32 payload would be 14.4 GB


@pytest.mark.parametrize("raw, reader", [
    (b"TERN" + struct.pack("<HBB2I", 1, storage.DTYPE_F32, 2, HUGE, HUGE), storage.read_tensor),
    (b"TERN" + struct.pack("<HBB2I", 1, storage.DTYPE_U8, 2, HUGE, HUGE), storage.read_tensor),
    (b"TPKD" + struct.pack("<HIIfB", 1, HUGE, HUGE, 1.0, 1), storage.read_packed_layer),
], ids=["f32", "u8", "packed"])
def test_forged_payload_size_rejected_before_reading(raw, reader):
    with pytest.raises(TruncatedFileError, match="remain in the file"):
        reader(_StrictStream(raw + b"\x00" * 64))


def test_vectors_through_a_pipe(tmp_path):
    """A pipe cannot be sized: a payload within one buffer loads, and a larger
    one raises FormatError, never an OSError."""
    small, large = random_matrix(Rng(4), 4, 8), random_matrix(Rng(5), 300, 8)  # 128 B, 9600 B
    path = tmp_path / "v.vec"
    storage.save_vectors(path, small)
    with piped(path.read_bytes()) as pipe:
        assert np.array_equal(storage.load_vectors(pipe), small)
    storage.save_vectors(path, large)
    with piped(path.read_bytes()) as pipe, pytest.raises(FormatError, match="not seekable"):
        storage.load_vectors(pipe)


@pytest.mark.parametrize("load", [storage.load_tensor, storage.load_packed_layer,
                                  storage.load_vectors])
def test_file_shorter_than_its_header_is_truncated(tmp_path, load):
    """The header is read whole before any field is checked, so even a wrong
    magic reads as truncation here."""
    path = tmp_path / "short"
    path.write_bytes(b"NOPE\x00")
    with pytest.raises(TruncatedFileError):
        load(path)


def _doc_hex_dumps() -> list[bytes]:
    """The bytes of each hex dump in docs/formats.md, in document order."""
    text = (Path(__file__).parents[1] / "docs" / "formats.md").read_text()
    return [bytes.fromhex(" ".join(line for line in block.splitlines()
                                   if re.fullmatch(r"[0-9a-f]{2}( +[0-9a-f]{2})*", line)))
            for block in re.findall(r"```\n(.*?)```", text, re.S)]


def test_format_doc_examples_are_the_written_bytes(tmp_path):
    tern, tpkd, vec = _doc_hex_dumps()
    path = tmp_path / "example"
    for raw, value, save, load in (
            (tern, np.array([[1.0, 2.0]], np.float32), storage.save_tensor, storage.load_tensor),
            (vec, np.array([[1.0, 2.0]], np.float32), storage.save_vectors, storage.load_vectors)):
        save(path, value)
        assert path.read_bytes() == raw
        assert np.array_equal(load(path), value)
    storage.save_packed_layer(path, ternarize(np.array([[2, 0], [-2, 2]], np.float32), 1.5))
    assert path.read_bytes() == tpkd
    back = storage.load_packed_layer(path)
    assert _plane_trits(back).tolist() == [[1, 0], [-1, 1]]
    assert back.gamma == 1.5 and back.bias is None


def test_vectors_forged_count_rejected(tmp_path):
    path = tmp_path / "v.vec"
    path.write_bytes(struct.pack("<II", HUGE, HUGE) + b"\x00" * 64)
    with pytest.raises(TruncatedFileError, match="remain in the file"):
        storage.load_vectors(path)


# -- checkpoints --------------------------------------------------------------------

def test_dense_checkpoint_forward_bitwise(tmp_path):
    model = EncoderModel.init(EncoderConfig(6, 10, 5, 2, seed=11))
    x = random_matrix(Rng(12), 8, 6)
    want = model.forward(x)
    path = tmp_path / "m.ckpt"
    storage.save_checkpoint(path, model)
    back = storage.load_checkpoint(path)
    assert isinstance(back, EncoderModel)
    assert np.array_equal(back.forward(x), want)


def test_dense_checkpoint_preserves_linear_mode(tmp_path):
    model = replace_linears(EncoderModel.init(EncoderConfig(4, 6, 4, 1, seed=2)),
                            MODE_TERNARY, 1.5)
    x = random_matrix(Rng(13), 3, 4)
    want = model.forward(x)
    path = tmp_path / "m.ckpt"
    storage.save_checkpoint(path, model)
    back = storage.load_checkpoint(path)
    assert all(l.mode == MODE_TERNARY and l.beta == 1.5
               for _, l in back.linear_layers())
    assert np.array_equal(back.forward(x), want)


def test_dense_sidecar_without_normalize_and_with_integer_beta_loads(tmp_path):
    model = replace_linears(EncoderModel.init(EncoderConfig(4, 6, 4, 1, seed=2)),
                            MODE_TERNARY, 1.0)
    x = random_matrix(Rng(13), 3, 4)
    path = tmp_path / "m.ckpt"
    storage.save_checkpoint(path, model)
    sidecar = tmp_path / "m.ckpt.json"
    meta = json.loads(sidecar.read_text())
    del meta["normalize"]
    meta["beta"] = 1
    sidecar.write_text(json.dumps(meta))
    back = storage.load_checkpoint(path)
    assert all(type(l.beta) is float and l.beta == 1.0 for _, l in back.linear_layers())
    assert np.array_equal(back.forward(x), model.forward(x))


@pytest.mark.parametrize("attr, value", [("beta", 0.75), ("mode", MODE_FULL)])
def test_dense_checkpoint_rejects_mixed_linear_layers(tmp_path, attr, value):
    model = replace_linears(EncoderModel.init(EncoderConfig(6, 8, 6, 2, seed=2)),
                            MODE_TERNARY, 2.0)
    setattr(model.input_proj, attr, value)
    path = tmp_path / "m.ckpt"
    with pytest.raises(ValueError, match="input_proj=") as err:
        storage.save_checkpoint(path, model)
    assert "blocks.0.fc1=ternary/beta 2" in str(err.value)
    assert not path.exists()


def test_ternary_checkpoint_loads_packed_encoder(tmp_path):
    model = replace_linears(EncoderModel.init(EncoderConfig(6, 8, 6, 2, seed=3)),
                            MODE_TERNARY, 2.0)
    x = random_matrix(Rng(14), 5, 6)
    path = tmp_path / "m.tckpt"
    storage.save_ternary_checkpoint(path, model)
    back = storage.load_checkpoint(path)
    assert isinstance(back, PackedEncoder)
    assert np.array_equal(back.forward(x), PackedEncoder.from_model(model).forward(x))


def test_checkpoint_missing_sidecar(tmp_path):
    model = EncoderModel.init(EncoderConfig(4, 4, 4, 1, seed=4))
    path = tmp_path / "m.ckpt"
    storage.save_checkpoint(path, model)
    os.remove(str(path) + ".json")
    with pytest.raises(ConfigError):
        storage.load_checkpoint(path)


def test_checkpoint_checksum_verified(tmp_path):
    model = EncoderModel.init(EncoderConfig(4, 4, 4, 1, seed=5))
    path = tmp_path / "m.ckpt"
    storage.save_checkpoint(path, model)
    data = bytearray(path.read_bytes())
    data[-1] ^= 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(IntegrityError):
        storage.load_checkpoint(path)


def test_checkpoint_resave_is_byte_identical(tmp_path):
    model = EncoderModel.init(EncoderConfig(5, 7, 4, 2, seed=6))
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    storage.save_checkpoint(p1, model)
    storage.save_checkpoint(p2, storage.load_checkpoint(p1))
    assert p1.read_bytes() == p2.read_bytes()
    assert (tmp_path / "a.ckpt.json").read_text() == (tmp_path / "b.ckpt.json").read_text()


def test_exported_bytes_match_storage_bytes_sum(tmp_path):
    model = replace_linears(EncoderModel.init(EncoderConfig(8, 8, 8, 1, seed=7)),
                            MODE_TERNARY, 2.0)
    from ternkit.encoder import export_packed
    packed = export_packed(model)
    buf = io.BytesIO()
    for p in packed:
        storage.write_packed_layer(buf, p)
    assert len(buf.getvalue()) == sum(storage_bytes(p) for p in packed)


def test_checkpoint_ratio_hidden_256(tmp_path):
    model = EncoderModel.init(EncoderConfig(256, 256, 256, 2, seed=8))
    fp = tmp_path / "fp.ckpt"
    storage.save_checkpoint(fp, model)
    replace_linears(model, MODE_TERNARY, 2.0)
    tn = tmp_path / "tn.ckpt"
    storage.save_ternary_checkpoint(tn, model)
    ratio = storage.checkpoint_total_bytes(tn) / storage.checkpoint_total_bytes(fp)
    assert ratio <= 0.10


def test_sidecar_is_valid_json_with_entries(tmp_path):
    model = EncoderModel.init(EncoderConfig(4, 4, 4, 1, seed=9))
    path = tmp_path / "m.ckpt"
    storage.save_checkpoint(path, model)
    meta = json.loads((tmp_path / "m.ckpt.json").read_text())
    assert meta["format"] == "ternkit-checkpoint"
    assert [e["name"] for e in meta["entries"]] == list(model.parameters())


def test_ternary_checkpoint_rejects_full_precision_model(tmp_path):
    model = EncoderModel.init(EncoderConfig(4, 4, 4, 1, seed=10))
    with pytest.raises(ValueError):
        storage.save_ternary_checkpoint(tmp_path / "m.tckpt", model)


@pytest.mark.parametrize("save", [storage.save_checkpoint, storage.save_ternary_checkpoint])
def test_checkpoint_records_checked_against_config_shapes(tmp_path, save):
    model = replace_linears(EncoderModel.init(EncoderConfig(6, 8, 6, 2, seed=3)),
                            MODE_TERNARY, 2.0)
    path = tmp_path / "m.ckpt"
    save(path, model)
    sidecar = tmp_path / "m.ckpt.json"
    meta = json.loads(sidecar.read_text())
    meta["config"]["input_dim"] = 5
    sidecar.write_text(json.dumps(meta))
    with pytest.raises(IntegrityError):
        storage.load_checkpoint(path)


@pytest.mark.parametrize("key", ["sha256", "mode", "entries", "config"])
def test_checkpoint_sidecar_missing_key_is_config_error(tmp_path, key):
    model = EncoderModel.init(EncoderConfig(4, 4, 4, 1, seed=11))
    path = tmp_path / "m.ckpt"
    storage.save_checkpoint(path, model)
    sidecar = tmp_path / "m.ckpt.json"
    meta = json.loads(sidecar.read_text())
    del meta[key]
    sidecar.write_text(json.dumps(meta))
    with pytest.raises(ConfigError):
        storage.load_checkpoint(path)


@pytest.mark.parametrize("save", [storage.save_checkpoint, storage.save_ternary_checkpoint])
def test_sidecar_not_utf8_is_config_error(tmp_path, save):
    model = replace_linears(EncoderModel.init(EncoderConfig(4, 4, 4, 1, seed=11)),
                            MODE_TERNARY, 2.0)
    path = tmp_path / "m.ckpt"
    save(path, model)
    sidecar = tmp_path / "m.ckpt.json"
    sidecar.write_bytes(sidecar.read_bytes().replace(b'"format"', b'"\xffformat"'))
    with pytest.raises(ConfigError, match="malformed sidecar JSON"):
        storage.load_checkpoint(path)


# the edit that once loaded silently: keys the packed writer never writes, and one no writer does
FOUND_EDIT = {"beta": "garbage", "linear_mode": "bogus", "bogus_key": 1}


@pytest.mark.parametrize("save, edit", [
    pytest.param(storage.save_ternary_checkpoint, FOUND_EDIT, id="packed-edited"),
    pytest.param(storage.save_ternary_checkpoint, {"beta": 2.0}, id="packed-beta"),
    pytest.param(storage.save_ternary_checkpoint, {"linear_mode": MODE_TERNARY},
                 id="packed-linear_mode"),
    pytest.param(storage.save_checkpoint, {"bogus_key": 1}, id="dense-unknown_key"),
    *(pytest.param(save, {"sha256": bad}, id=f"{kind}-sha256_{name}")
      for kind, save in (("dense", storage.save_checkpoint),
                         ("packed", storage.save_ternary_checkpoint))
      for name, bad in (("short", "ab" * 31), ("upper", "AB" * 32), ("non_hex", "zz" * 32),
                        ("number", 7), ("newline", "ab" * 32 + "\n"))),
])
def test_sidecar_outside_schema_is_config_error(tmp_path, save, edit):
    model = replace_linears(EncoderModel.init(EncoderConfig(4, 4, 4, 1, seed=12)),
                            MODE_TERNARY, 2.0)
    path = tmp_path / "m.ckpt"
    save(path, model)
    storage.load_checkpoint(path)
    sidecar = tmp_path / "m.ckpt.json"
    sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), **edit}))
    with pytest.raises(ConfigError):
        storage.load_checkpoint(path)


# -- mutation fuzzing ----------------------------------------------------------------

@pytest.fixture(scope="module")
def fuzz_targets(tmp_path_factory):
    """name -> (valid bytes, load) for every format a loader reads: a TPKD
    record, a TERN container, a vector file, and a dense and a packed
    checkpoint's sidecar and binary. load reads the bytes it is given through
    the public loader; a binary's sidecar gets the bytes' own sha256, so the
    record parser is reached."""
    root = tmp_path_factory.mktemp("fuzz")
    model = replace_linears(EncoderModel.init(EncoderConfig(4, 4, 4, 1, seed=13)),
                            MODE_TERNARY, 2.0)
    buf = io.BytesIO()
    storage.write_packed_layer(buf, random_packed(Rng(13), 5, 11, bias=True))
    targets = {"record": (buf.getvalue(), lambda raw: storage.read_packed_layer(io.BytesIO(raw)))}

    for name, save, value, load in (
            ("tensor", storage.save_tensor, random_matrix(Rng(14), 3, 5), storage.load_tensor),
            ("vectors", storage.save_vectors, random_matrix(Rng(15), 6, 3), storage.load_vectors)):
        path = root / name
        save(path, value)

        def run(raw, path=path, load=load):
            path.write_bytes(raw)
            return load(path)
        targets[name] = (path.read_bytes(), run)
    for kind, save in (("dense", storage.save_checkpoint),
                       ("packed", storage.save_ternary_checkpoint)):
        path = root / f"{kind}.ckpt"
        save(path, model)
        sidecar = root / f"{kind}.ckpt.json"
        binary, meta = path.read_bytes(), json.loads(sidecar.read_text())

        # each load rewrites both files, so neither target sees the other's mutation
        def load_sidecar(raw, path=path, sidecar=sidecar, binary=binary):
            path.write_bytes(binary)
            sidecar.write_bytes(raw)
            return storage.load_checkpoint(path)

        def load_binary(raw, path=path, sidecar=sidecar, meta=meta):
            path.write_bytes(raw)
            sidecar.write_text(json.dumps({**meta, "sha256": hashlib.sha256(raw).hexdigest()}))
            return storage.load_checkpoint(path)
        targets[f"{kind} sidecar"] = (sidecar.read_bytes(), load_sidecar)
        targets[f"{kind} binary"] = (binary, load_binary)
    return targets


def _mutate(data, raw: bytes) -> bytes:
    """raw truncated, with one to four bits flipped, or with one slice of it
    pasted over another."""
    n = len(raw)
    how = data.draw(st.sampled_from(["truncate", "flip", "splice"]))
    if how == "truncate":
        return raw[:data.draw(st.integers(0, n - 1))]
    if how == "flip":
        out = bytearray(raw)
        for bit in data.draw(st.lists(st.integers(0, 8 * n - 1), min_size=1, max_size=4)):
            out[bit // 8] ^= 1 << bit % 8
        return bytes(out)
    a, b, c, d = (data.draw(st.integers(0, n)) for _ in range(4))
    return raw[:min(c, d)] + raw[min(a, b):max(a, b)] + raw[max(c, d):]


@given(st.data())
@settings(max_examples=500, deadline=None)
def test_mutated_record_or_sidecar_raises_only_format_error(fuzz_targets, data):
    raw, load = fuzz_targets[data.draw(st.sampled_from(sorted(fuzz_targets)))]
    try:
        load(_mutate(data, raw))
    except storage.FormatError:
        pass  # any other exception fails the test
