"""In-memory spans for the traced benchmark run.

A span is (name, start, end, parent, tags); every span of one run shares
the run id. Spans are recorded only around calls the benchmark makes into
ternkit's public functions: ``patch_ternkit`` rebinds each function at the
attribute its callers look up, and ``unpatch`` restores the originals.
Nothing inside ``src/`` is edited. A span's self time is its duration
minus the part its child spans cover.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import json
import time
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    tags: dict
    stage: str
    start_ns: int
    end_ns: int
    self_ns: int

    @property
    def dur_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Records spans into flat lists while tracing; ``spans()`` builds them after.

    Flat lists of numbers and strings keep the collector's work small while
    a pass runs, so a long pass does not slow down as spans accumulate.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self._name: list[str] = []
        self._tags: list[dict | None] = []
        self._parent: list[int] = []
        self._start: list[int] = []
        self._end: list[int] = []
        self._child: list[int] = []
        self._stack: list[int] = []
        # id(object) -> (layer name, object), for LinearLayer and
        # PackedTernaryMatrix instances; holding the object keeps its id unique
        self.layer_names: dict[int, tuple[str, object]] = {}

    def open(self, name: str, tags: dict | None = None) -> int:
        i = len(self._name)
        self._name.append(name)
        self._tags.append(tags)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._end.append(0)
        self._child.append(0)
        self._stack.append(i)
        self._start.append(time.perf_counter_ns())
        return i

    def close(self, i: int) -> None:
        end = time.perf_counter_ns()
        self._end[i] = end
        self._stack.pop()
        parent = self._parent[i]
        if parent >= 0:
            self._child[parent] += end - self._start[i]

    @contextlib.contextmanager
    def span(self, name: str):
        i = self.open(name)
        try:
            yield
        finally:
            self.close(i)

    def name_layers(self, pairs) -> None:
        """Register (name, object) pairs so their spans carry the layer name."""
        for name, obj in pairs:
            self.layer_names[id(obj)] = (name, obj)

    def spans(self) -> list[Span]:
        out: list[Span] = []
        for i, name in enumerate(self._name):
            parent = self._parent[i]
            stage = out[parent].stage if parent >= 0 else name
            out.append(Span(i, parent if parent >= 0 else None, name, self._tags[i] or {},
                            stage, self._start[i], self._end[i],
                            self._end[i] - self._start[i] - self._child[i]))
        return out

    def write_jsonl(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as f:
            for s in self.spans():
                f.write(json.dumps({"run": self.run_id, "id": s.id, "parent": s.parent,
                                    "name": s.name, "start_ns": s.start_ns,
                                    "end_ns": s.end_ns, "self_ns": s.self_ns,
                                    **({"tags": s.tags} if s.tags else {})}) + "\n")


def maybe_span(tracer: Tracer | None, name: str):
    """A span when tracing, a no-op otherwise."""
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _wrap(tracer: Tracer, fn, name_of):
    """fn with a span around each call; name_of(args) gives (name, tags) or None."""
    def traced(*args, **kwargs):
        named = name_of(args)
        if named is None:
            return fn(*args, **kwargs)
        i = tracer.open(*named)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(i)
    return traced


def patch_ternkit(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap ternkit's public functions; returns what ``unpatch`` restores.

    Each entry names the module or class attribute that callers resolve at
    call time, e.g. ``ternkit.encoder.ternarize`` is the binding
    ``LinearLayer`` uses and ``ternkit.tensor.matmul`` the one behind every
    ``tensor.matmul`` call.
    """
    from ternkit import ann, encoder, rng, storage, tensor
    # the package re-exports the function distill(), which hides the module
    distill = importlib.import_module("ternkit.distill")

    names = tracer.layer_names

    def fixed(name):
        return lambda args: (name, None)

    def model_forward(args):
        ste = args[0].input_proj.mode == encoder.MODE_TERNARY
        return ("encoder.ste_forward" if ste else "encoder.teacher_forward", None)

    def linear(kind):
        def name_of(args):
            named = names.get(id(args[0]))
            return None if named is None else (f"encoder.{kind}", {"layer": named[0]})
        return name_of

    def gemm(args):
        tags = {"batch": int(args[1].shape[1])}
        named = names.get(id(args[0]))
        if named is not None:
            tags["layer"] = named[0]
        return ("packed.gemm", tags)

    table = [
        (tensor, "matmul", fixed("tensor.matmul")),
        (tensor, "gelu", fixed("tensor.gelu")),
        (tensor, "gelu_grad", fixed("tensor.gelu_grad")),
        (tensor, "layer_norm", fixed("tensor.layer_norm")),
        (tensor, "layer_norm_with_cache", fixed("tensor.layer_norm")),
        (rng.Rng, "normals", fixed("rng.normals")),
        (rng.Rng, "permutation", fixed("rng.permutation")),
        (encoder, "compute_threshold", fixed("ternary.compute_threshold")),
        (encoder, "ternarize", fixed("ternary.ternarize")),
        (encoder, "packed_gemm", gemm),
        (encoder, "export_packed", fixed("encoder.export")),
        (encoder.EncoderModel, "forward", model_forward),
        (encoder.EncoderModel, "backward", fixed("encoder.backward")),
        (encoder.LinearLayer, "forward", linear("layer_forward")),
        (encoder.LinearLayer, "backward", linear("layer_backward")),
        (encoder.PackedEncoder, "forward", fixed("encoder.packed_forward")),
        (distill, "adam_step", fixed("distill.adam_step")),
        (distill, "mse_loss", fixed("distill.mse_loss")),
        (storage, "save_ternary_checkpoint", fixed("storage.save_ternary_checkpoint")),
        (storage, "load_checkpoint", fixed("storage.load_checkpoint")),
    ]
    for kind in ("flat", "ivf", "lsh", "hnsw"):
        table.append((ann, f"{kind}_search", fixed(f"ann.{kind}.search")))
    for kind in ("ivf", "lsh", "hnsw"):
        table.append((ann, f"{kind}_build", fixed(f"ann.{kind}.build")))

    saved = []
    for owner, attr, name_of in table:
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, _wrap(tracer, original, name_of))
    return saved


def unpatch(saved) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)
