"""The benchmark tracer names library functions and collapser methods by
string; a rename in the library must fail here, not in a traced run.  The
benchmark's independent output checks must pass their own self-test here,
not only when a benchmark run refuses to start."""

import importlib
import subprocess
import sys
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


def test_independent_checks_selftest():
    proc = subprocess.run(
        [sys.executable, "-B", "selftest.py"], cwd=PERFBENCH, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
