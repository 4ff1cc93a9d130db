"""The traced benchmark wraps ternkit attributes by name (perfbench/spans.py).

Patching and unpatching here makes a rename or deletion in ``src/`` fail
the test suite, not only the traced benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_patch_wraps_and_unpatch_restores_every_attribute(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)

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
