"""The benchmark tracer names library functions and collapser methods by
string; a rename in the library must fail here, not in a traced run.  The
benchmark's independent output checks must pass their own self-test here,
not only when a benchmark run refuses to start.  Tracing must leave every
package-level name bound as it found it."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import tightmorse
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


# Run in a fresh interpreter, so that no package-level name has been read
# before the tracer installs.  The tracer patches only the bindings that
# exist at install time; a name cached in the package while tracing would
# keep its wrapper after uninstall.
TRACER_ROUND_TRIP = """
import importlib, sys
import tightmorse
from spans import LAYERS, Tracer

modules = [importlib.import_module(f"tightmorse.{m}") for m in sorted({m for fs in LAYERS.values() for m, _ in fs})]
originals = {
    name: obj
    for mod in modules for name, obj in vars(mod).items()
    if name in tightmorse.__all__ and getattr(obj, "__module__", None) == mod.__name__
}
submodules = {"algorithms", "complex_core", "errors", "geometry", "homology_z2", "morse"}
assert set(originals) == set(tightmorse.__all__) - submodules
tracer = Tracer()
tracer.install(tightmorse)
try:
    for name in ("betti", "is_pi_tight", "collapsible", "link"):
        assert getattr(tightmorse, name).__wrapped__ is originals[name], name
    tightmorse.betti(tightmorse.from_facets([(1, 2, 3)]))
    assert "homology_z2.betti" in tracer.names
finally:
    tracer.uninstall()
for name, obj in originals.items():
    assert getattr(tightmorse, name) is obj, name
    assert getattr(sys.modules[obj.__module__], name) is obj, name
"""


def test_tracer_leaves_package_exports_as_it_found_them():
    src = str(Path(tightmorse.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-B", "-c", TRACER_ROUND_TRIP], cwd=PERFBENCH, capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
