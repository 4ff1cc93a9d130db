"""Bit-exact binary file formats.

All headers are little-endian with fixed-width fields, so golden files are
portable across platforms. Every loader validates magic, version, declared
lengths, and the in-memory invariants of what it builds; every loadable
file re-serializes to identical bytes.

Tensor container ("TERN"):   magic(4) version(u16) dtype(u8) rank(u8)
                             dims(u32 each) payload
    dtype 0 = float32, 2 = uint8. Code 1 (bare trit planes) is retired:
    like any other code it is rejected, and ternary weights are stored only
    as packed layer records.

Packed layer record ("TPKD"): magic(4) version(u16) rows(u32) cols(u32)
                              gamma(f32) bias_present(u8)
                              plus_plane minus_plane [bias f32*rows]

Vector dataset:               count(u32) dim(u32) then count*dim f32.

Model checkpoint:             concatenated records (TERN and/or TPKD) plus
                              a JSON sidecar at <path>.json naming each
                              entry in order and carrying the config and a
                              SHA-256 of the binary file.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import re
import struct
import sys

import numpy as np

from .encoder import (EncoderConfig, EncoderModel, MODE_FULL, MODE_TERNARY,
                      PackedEncoder, export_packed, part_shapes)
from .packed import PackedTernaryMatrix, row_bytes
from .tensor import FLOAT
from .ternary import DEFAULT_BETA

MAGIC_TENSOR = b"TERN"
MAGIC_PACKED = b"TPKD"
FORMAT_VERSION = 1

DTYPE_F32 = 0
DTYPE_U8 = 2

CHECKPOINT_FORMAT = "ternkit-checkpoint"

# the keys a sidecar may hold, by checkpoint mode; the loader rejects any other
_PACKED_SIDECAR_KEYS = {"format", "version", "mode", "normalize", "config", "entries", "sha256"}
_SIDECAR_KEYS = {"packed": _PACKED_SIDECAR_KEYS,
                 "dense": _PACKED_SIDECAR_KEYS | {"linear_mode", "beta"}}


class FormatError(Exception):
    """Base for all on-disk format failures."""


class BadMagicError(FormatError):
    pass


class UnsupportedVersionError(FormatError):
    pass


class TruncatedFileError(FormatError):
    pass


class IntegrityError(FormatError):
    pass


class ConfigError(FormatError):
    pass


def _bytes_left(f) -> int:
    """Bytes between the read position and the end of the file."""
    try:
        size = os.fstat(f.fileno()).st_size
    except OSError:  # in-memory streams have no descriptor
        pos = f.tell()
        size = f.seek(0, os.SEEK_END)
        f.seek(pos)
    return size - f.tell()


def _read_exact(f, n: int, what: str) -> bytes:
    # a forged length must never size a buffer, so reads beyond one buffer's
    # worth are checked against the file first; shorter ones are caught below
    if n > io.DEFAULT_BUFFER_SIZE:
        left = _bytes_left(f)
        if n > left:
            raise TruncatedFileError(f"{what} needs {n} bytes but only {left} remain in the file")
    data = f.read(n)
    if len(data) != n:
        raise TruncatedFileError(f"unexpected end of file while reading {what}")
    return data


def _expect_magic(f, magic: bytes) -> None:
    got = _read_exact(f, 4, "magic")
    if got != magic:
        raise BadMagicError(f"expected magic {magic!r}, found {got!r}")


def _read_version(f) -> None:
    (version,) = struct.unpack("<H", _read_exact(f, 2, "version"))
    if version != FORMAT_VERSION:
        raise UnsupportedVersionError(f"unsupported format version {version}")


# -- tensor container ----------------------------------------------------------

def write_tensor(f, arr: np.ndarray) -> None:
    arr = np.asarray(arr)
    if arr.ndim < 1:
        raise ValueError("0-dimensional tensors are rejected")
    if any(d < 1 for d in arr.shape):
        raise ValueError(f"all dims must be >= 1, got {arr.shape}")
    if arr.dtype == np.float32:
        code, payload = DTYPE_F32, arr.astype("<f4").tobytes(order="C")
    elif arr.dtype == np.uint8:
        code, payload = DTYPE_U8, arr.tobytes(order="C")
    else:
        raise ValueError(f"unsupported tensor dtype {arr.dtype}")
    f.write(MAGIC_TENSOR)
    f.write(struct.pack("<HBB", FORMAT_VERSION, code, arr.ndim))
    f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
    f.write(payload)


def read_tensor(f):
    """Read one container as an ndarray."""
    _expect_magic(f, MAGIC_TENSOR)
    _read_version(f)
    code, rank = struct.unpack("<BB", _read_exact(f, 2, "dtype/rank"))
    if rank < 1:
        raise IntegrityError("rank must be >= 1")
    dims = struct.unpack(f"<{rank}I", _read_exact(f, 4 * rank, "dims"))
    if any(d < 1 for d in dims):
        raise IntegrityError(f"all dims must be >= 1, got {dims}")
    count = math.prod(dims)
    if code == DTYPE_F32:
        payload = _read_exact(f, 4 * count, "f32 payload")
        return np.frombuffer(payload, dtype="<f4").reshape(dims).astype(np.float32)
    if code == DTYPE_U8:
        payload = _read_exact(f, count, "u8 payload")
        return np.frombuffer(payload, dtype=np.uint8).reshape(dims).copy()
    raise FormatError(f"unknown dtype code {code}")


def save_tensor(path, arr: np.ndarray) -> None:
    with open(path, "wb") as f:
        write_tensor(f, arr)


def load_tensor(path):
    with open(path, "rb") as f:
        out = read_tensor(f)
        if f.read(1):
            raise IntegrityError("trailing bytes after tensor container")
    return out


# -- packed layer record ---------------------------------------------------------

def write_packed_layer(f, p: PackedTernaryMatrix) -> None:
    f.write(MAGIC_PACKED)
    f.write(struct.pack("<HII", FORMAT_VERSION, p.rows, p.cols))
    f.write(struct.pack("<f", p.gamma))
    f.write(struct.pack("<B", 1 if p.bias is not None else 0))
    f.write(p.plus_plane.tobytes(order="C"))
    f.write(p.minus_plane.tobytes(order="C"))
    if p.bias is not None:
        f.write(p.bias.astype("<f4").tobytes(order="C"))


def read_packed_layer(f) -> PackedTernaryMatrix:
    _expect_magic(f, MAGIC_PACKED)
    _read_version(f)
    rows, cols = struct.unpack("<II", _read_exact(f, 8, "rows/cols"))
    if rows < 1 or cols < 1:
        raise IntegrityError(f"dimensions must be positive, got {rows}x{cols}")
    (gamma,) = struct.unpack("<f", _read_exact(f, 4, "gamma"))
    (bias_flag,) = struct.unpack("<B", _read_exact(f, 1, "bias flag"))
    if bias_flag not in (0, 1):
        raise IntegrityError(f"bias flag must be 0 or 1, got {bias_flag}")
    nbytes = row_bytes(cols)
    plus = np.frombuffer(_read_exact(f, rows * nbytes, "plus plane"),
                         dtype=np.uint8).reshape(rows, nbytes).copy()
    minus = np.frombuffer(_read_exact(f, rows * nbytes, "minus plane"),
                          dtype=np.uint8).reshape(rows, nbytes).copy()
    bias = None
    if bias_flag:
        bias = np.frombuffer(_read_exact(f, 4 * rows, "bias"),
                             dtype="<f4").astype(np.float32)
    try:
        return PackedTernaryMatrix(rows, cols, plus, minus, gamma, bias)
    except ValueError as e:  # PlaneIntegrityError included
        raise IntegrityError(str(e)) from e


def save_packed_layer(path, p: PackedTernaryMatrix) -> None:
    with open(path, "wb") as f:
        write_packed_layer(f, p)


def load_packed_layer(path) -> PackedTernaryMatrix:
    with open(path, "rb") as f:
        out = read_packed_layer(f)
        if f.read(1):
            raise IntegrityError("trailing bytes after packed layer record")
    return out


# -- vector dataset --------------------------------------------------------------

def save_vectors(path, vectors: np.ndarray) -> None:
    vectors = np.asarray(vectors, dtype=FLOAT)
    if vectors.ndim != 2 or vectors.shape[0] < 1 or vectors.shape[1] < 1:
        raise ValueError(f"vectors must be non-empty 2-D, got {vectors.shape}")
    with open(path, "wb") as f:
        f.write(struct.pack("<II", vectors.shape[0], vectors.shape[1]))
        f.write(vectors.astype("<f4").tobytes(order="C"))


def load_vectors(path) -> np.ndarray:
    with open(path, "rb") as f:
        count, dim = struct.unpack("<II", _read_exact(f, 8, "dataset header"))
        if count < 1 or dim < 1:
            raise IntegrityError(f"count and dim must be positive, got {count}, {dim}")
        payload = _read_exact(f, 4 * count * dim, "dataset payload")
        if f.read(1):
            raise IntegrityError("trailing bytes after vector dataset")
    return np.frombuffer(payload, dtype="<f4").reshape(count, dim).astype(np.float32)


# -- model checkpoints ------------------------------------------------------------

def _sidecar_path(path) -> str:
    return str(path) + ".json"


def _write_sidecar(path, meta: dict) -> None:
    with open(_sidecar_path(path), "w", encoding="utf-8") as f:
        json.dump(meta, f, sort_keys=True, indent=2)
        f.write("\n")


def _file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _entries(config: EncoderConfig, mode: str) -> list[tuple[str, str, tuple[int, ...]]]:
    """(name, kind, shape) of every record of a checkpoint, in file order.

    A dense checkpoint holds one f32 tensor per parameter; a packed one holds
    each linear part as one packed record with its weight's shape.
    """
    entries = []
    for name, shapes in part_shapes(config):
        if mode == "packed" and "weight" in shapes:
            entries.append((name, "packed", shapes["weight"]))
        else:
            entries += [(f"{name}.{attr}", "tensor", shape) for attr, shape in shapes.items()]
    return entries


def _write_checkpoint(path, model: EncoderModel, mode: str, records, meta: dict) -> None:
    entries = _entries(model.config, mode)
    with open(path, "wb") as f:
        for (_, kind, _), record in zip(entries, records, strict=True):
            if kind == "packed":
                write_packed_layer(f, record)
            else:
                write_tensor(f, np.ascontiguousarray(record, dtype=FLOAT))
    _write_sidecar(path, {
        "format": CHECKPOINT_FORMAT,
        "version": FORMAT_VERSION,
        "mode": mode,
        # kept so every file stays byte-identical: encoders emit raw outputs
        "normalize": False,
        "config": model.config.to_dict(),
        "entries": [{"name": name, "kind": kind} for name, kind, _ in entries],
        "sha256": _file_sha256(path),
        **meta,
    })


def save_checkpoint(path, model: EncoderModel) -> None:
    """Full-precision checkpoint: every parameter as an f32 container.

    The sidecar records one linear mode and one beta for the whole model, so
    raises ValueError when the linear layers differ in either.
    """
    settings = {name: (layer.mode, layer.beta) for name, layer in model.linear_layers()}
    if len(set(settings.values())) > 1:
        listing = ", ".join(f"{name}={mode}/beta {beta:g}"
                            for name, (mode, beta) in settings.items())
        raise ValueError(f"linear layers differ in mode or beta ({listing}); "
                         "a checkpoint records one of each")
    mode, beta = next(iter(settings.values()))
    _write_checkpoint(path, model, "dense", model.parameters().values(),
                      {"linear_mode": mode, "beta": beta})


def save_ternary_checkpoint(path, model: EncoderModel) -> None:
    """Exported ternary checkpoint: packed linears, norms kept full-precision.

    Raises ValueError unless every linear layer is in ternary mode.
    """
    packed = iter(export_packed(model))
    params = model.parameters()
    records = [next(packed) if kind == "packed" else params[name]
               for name, kind, _ in _entries(model.config, "packed")]
    _write_checkpoint(path, model, "packed", records, {})


def _load_sidecar(path) -> dict:
    sidecar = _sidecar_path(path)
    if not os.path.exists(sidecar):
        raise ConfigError(f"missing checkpoint sidecar {sidecar}")
    try:
        with open(sidecar, "r", encoding="utf-8") as f:
            meta = json.load(f)
    except json.JSONDecodeError as e:
        raise ConfigError(f"malformed sidecar JSON: {e}") from e
    if not isinstance(meta, dict) or meta.get("format") != CHECKPOINT_FORMAT:
        raise ConfigError("not a checkpoint sidecar")
    if meta.get("version") != FORMAT_VERSION:
        raise UnsupportedVersionError(f"unsupported checkpoint version {meta.get('version')}")
    missing = [k for k in ("sha256", "mode", "entries", "config") if k not in meta]
    if missing:
        raise ConfigError(f"sidecar lacks {', '.join(missing)}")
    mode = meta["mode"]
    if mode not in ("dense", "packed"):  # by equality, so a list or dict mode fails here too
        raise ConfigError(f"unknown checkpoint mode {mode!r}")
    unknown = sorted(meta.keys() - _SIDECAR_KEYS[mode])
    if unknown:
        raise ConfigError(f"keys not allowed in a {mode} sidecar: {', '.join(unknown)}")
    if not (isinstance(meta["sha256"], str) and re.fullmatch("[0-9a-f]{64}", meta["sha256"])):
        raise ConfigError(f"sha256 must be 64 lowercase hex digits, got {meta['sha256']!r}")
    return meta


def load_checkpoint(path):
    """Load a checkpoint; dense sidecars give an EncoderModel, packed a PackedEncoder."""
    meta = _load_sidecar(path)
    if _file_sha256(path) != meta["sha256"]:
        raise IntegrityError("checkpoint bytes do not match the recorded checksum")
    try:
        config = EncoderConfig.from_dict(meta["config"])
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"bad config in sidecar: {e}") from e
    mode = meta["mode"]
    if meta.get("normalize", False) is not False:
        raise ConfigError(f"normalize must be false, got {meta['normalize']!r}")
    try:
        listed = [(e["name"], e["kind"]) for e in meta["entries"]]
    except (KeyError, TypeError) as e:
        raise ConfigError(f"malformed sidecar entries: {e!r}") from e
    # every block adds several entries, so this bounds the list built next
    if config.num_blocks > len(listed):
        raise ConfigError("sidecar entries do not match the architecture in its config")
    expected = _entries(config, mode)
    if listed != [(name, kind) for name, kind, _ in expected]:
        raise ConfigError("sidecar entries do not match the architecture in its config")

    records = {}
    with open(path, "rb") as f:
        for name, kind, shape in expected:
            if kind == "packed":
                record = read_packed_layer(f)
                ok = (record.rows, record.cols) == shape and record.bias is not None
            else:
                record = read_tensor(f)
                ok = record.dtype == FLOAT and record.shape == shape
            if not ok:
                raise IntegrityError(f"record {name} does not match its config shape {shape}")
            records[name] = record
        if f.read(1):
            raise IntegrityError("trailing bytes after checkpoint records")

    if mode == "packed":
        parts = part_shapes(config)
        packed = [records[name] for name, shapes in parts if "weight" in shapes]
        ln = [tuple(records[f"{name}.{attr}"] for attr in shapes)
              for name, shapes in parts if "weight" not in shapes]
        return PackedEncoder(config, packed, ln)
    linear_mode = meta.get("linear_mode", MODE_FULL)
    if linear_mode not in (MODE_FULL, MODE_TERNARY):
        raise ConfigError(f"unknown linear mode {linear_mode!r}")
    beta = meta.get("beta", DEFAULT_BETA)
    # bool is an int subclass; the bounds also reject nan, inf and huge ints
    number = isinstance(beta, (int, float)) and not isinstance(beta, bool)
    if not (number and 0 < beta <= sys.float_info.max):
        raise ConfigError(f"beta must be a finite positive number, got {beta!r}")
    return EncoderModel.from_arrays(config, records, linear_mode, float(beta))


def checkpoint_total_bytes(path) -> int:
    """Binary plus sidecar footprint of a saved checkpoint."""
    return os.path.getsize(path) + os.path.getsize(_sidecar_path(path))
