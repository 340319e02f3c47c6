"""The benchmark tracer names library functions and collapser methods by
string; a rename in the library must fail here, not in a traced run."""

import importlib
from pathlib import Path

from tightmorse.morse import FaceSetCollapser

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_names_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    # collapsible is wrapped on its own, with a span named after the strategy
    targets = [t for functions in spans.LAYERS.values() for t in functions]
    targets.append(("algorithms", "collapsible"))
    for mod_name, attr in targets:
        assert callable(getattr(importlib.import_module(f"tightmorse.{mod_name}"), attr, None)), (mod_name, attr)
    for meth in spans.COLLAPSER_METHODS:
        assert meth in FaceSetCollapser.__dict__, meth
