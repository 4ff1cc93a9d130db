"""The traced benchmark wraps ternkit attributes by name (perfbench/spans.py).

Patching and unpatching here makes a rename or deletion in ``src/`` fail
the test suite, not only the traced benchmark run.
"""

import importlib.util
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from conftest import random_matrix
from ternkit.encoder import MODE_TERNARY, EncoderConfig, EncoderModel, replace_linears
from ternkit.rng import Rng

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    return spans


def test_patch_wraps_and_unpatch_restores_every_attribute(monkeypatch):
    spans = load_spans(monkeypatch)
    saved = spans.patch_ternkit(spans.Tracer("t"))
    try:
        assert saved
        unwrapped = [(owner, attr) for owner, attr, original in saved
                     if owner.__dict__[attr] is original]
        assert not unwrapped, f"not wrapped: {unwrapped}"
    finally:
        spans.unpatch(saved)
    changed = [(owner, attr) for owner, attr, original in saved
               if owner.__dict__[attr] is not original]
    assert not changed, f"not restored: {changed}"


def test_training_pass_opens_one_span_per_named_layer(monkeypatch):
    """The layers a model trains through are the ones ``linear_layers`` names,
    so each named layer gets exactly one forward and one backward span per
    training pass, and an inference forward opens neither."""
    spans = load_spans(monkeypatch)
    config = EncoderConfig(input_dim=6, hidden_dim=8, output_dim=5, num_blocks=3, seed=2)
    teacher = EncoderModel.init(config)
    x = random_matrix(Rng(4), 7, 6)
    tracer = spans.Tracer("t")
    saved = spans.patch_ternkit(tracer)
    try:
        student = replace_linears(teacher.clone(), MODE_TERNARY, 2.0)
        tracer.name_layers(student.linear_layers())
        student.backward(np.ones_like(student.train_forward(x)))
        trained = len(tracer.spans())
        student.forward(x)
    finally:
        spans.unpatch(saved)
    names = [name for name, _ in student.linear_layers()]
    assert len(names) == 2 * config.num_blocks + 2
    recorded = tracer.spans()
    for kind in ("encoder.layer_forward", "encoder.layer_backward"):
        layers = Counter(s.tags["layer"] for s in recorded[:trained] if s.name == kind)
        assert layers == Counter(names), kind
        assert not any(s.name == kind for s in recorded[trained:]), kind
