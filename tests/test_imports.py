"""Start-up cost: each CLI command loads only the library modules it runs,
and the package-level names resolve lazily to the objects their modules
define; no module imports a name it never uses."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tightmorse
from tightmorse.constructions import checkerboard, straight_path
from tightmorse.formats import dump_facets, dump_morse, dump_path
from tightmorse.morse import random_discrete_morse

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# the package-level names, by the module that defines them
EXPORTS = {
    "complex_core": [
        "SimplicialComplex", "barycentric_subdivision", "boundary_complex", "cone", "deletion",
        "free_faces", "from_facets", "join", "link", "restrict", "star", "suspension",
    ],
    "homology_z2": ["betti", "inclusion_induced_injective"],
    "morse": [
        "MorseMatching", "critical_faces", "from_collapse_sequence", "is_perfect",
        "lift_matching_over_cone", "morse_vector", "random_discrete_morse", "validate",
    ],
    "geometry": [
        "GeometricRealization", "check_tightness_sampled", "is_pi_tight", "is_prefix_tight",
        "sweep_order",
    ],
    "algorithms": [
        "CollapseSequence", "NonEvasivenessCertificate", "collapsible", "nonevasive",
        "planar_acyclic_nonevasive", "planar_perfect_morse", "relative_collapse",
        "sweep_perfect_morse", "verify_certificate",
    ],
}
SUBMODULES = [*EXPORTS, "errors"]
ALL = sorted([name for names in EXPORTS.values() for name in names] + SUBMODULES)


def loaded_modules(code: str, cwd: Path) -> set[str]:
    """Run code in a fresh interpreter; the names of the modules it loaded."""
    src = str(Path(tightmorse.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = "import json, sys\nprint(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", code + "\n" + probe],
        capture_output=True, text=True, cwd=cwd, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def tightmorse_submodules(modules: set[str]) -> set[str]:
    return {name.split(".", 1)[1] for name in modules if name.startswith("tightmorse.")}


def loaded_submodules(code: str, cwd: Path) -> set[str]:
    """Run code in a fresh interpreter; the tightmorse submodules it loaded."""
    return tightmorse_submodules(loaded_modules(code, cwd))


def run_main(argv: list[str]) -> str:
    return f"from tightmorse.cli import main\nassert main({argv!r}) == 0"


@pytest.fixture
def inputs(tmp_path):
    (tmp_path / "e.facets").write_text(dump_facets(checkerboard()))
    (tmp_path / "e.morse").write_text(dump_morse(random_discrete_morse(checkerboard(), seed=0)))
    (tmp_path / "p.path").write_text(dump_path(straight_path(3, 3, 3)))
    (tmp_path / "s.geom").write_text((FIXTURES / "simplex3.geom").read_text())
    return tmp_path


# argv, the tightmorse submodules it must not load, the other modules it
# must not load (dataclasses costs start-up time that only a few commands need)
@pytest.mark.parametrize(
    "argv, absent, absent_other",
    [
        (
            ["betti", "e.facets"],
            {"geometry", "embedding", "morse", "algorithms", "constructions"}, {"dataclasses"},
        ),
        (
            ["tight", "check", "s.geom", "--pi", "1,2,4"],
            {"embedding", "morse", "algorithms", "constructions"}, set(),
        ),
        (
            ["morse", "validate", "e.facets", "e.morse"],
            {"homology_z2", "algorithms", "geometry", "embedding", "constructions"}, set(),
        ),
        (
            ["morse", "vector", "e.facets", "e.morse"],
            {"homology_z2", "algorithms", "geometry", "embedding", "constructions"}, set(),
        ),
        (
            ["build", "furch", "--n", "3,3,3", "--path", "p.path", "--out", "f.geom"],
            {"embedding", "algorithms"}, set(),
        ),
    ],
    ids=["betti", "tight_check", "morse_validate", "morse_vector", "build_furch"],
)
def test_cli_command_loads_only_what_it_runs(inputs, argv, absent, absent_other):
    modules = loaded_modules(run_main(argv), inputs)
    loaded = tightmorse_submodules(modules)
    assert "cli" in loaded
    assert not loaded & absent, sorted(loaded & absent)
    assert not modules & absent_other, sorted(modules & absent_other)


def test_importing_the_package_loads_no_submodule(tmp_path):
    assert loaded_submodules("import tightmorse", tmp_path) == set()


def test_star_import_binds_the_same_names(tmp_path):
    code = "from tightmorse import *\nassert sorted(n for n in dir() if not n.startswith('_')) == " + repr(ALL)
    loaded_submodules(code, tmp_path)


def test_package_exports_resolve_to_their_module_objects():
    assert tightmorse.__all__ == ALL and len(ALL) == 42
    for module, names in EXPORTS.items():
        mod = importlib.import_module(f"tightmorse.{module}")
        assert getattr(tightmorse, module) is mod
        for name in names:
            obj = getattr(tightmorse, name)
            assert obj is getattr(mod, name), name
            assert obj.__module__ == mod.__name__, name
    assert tightmorse.errors is importlib.import_module("tightmorse.errors")
    assert set(ALL) <= set(dir(tightmorse))


def test_package_exports_are_not_cached(monkeypatch):
    # a rebinding in the module (a tracing wrapper, say) shows through the
    # package, and undoing it shows through too
    for module, names in EXPORTS.items():
        mod = importlib.import_module(f"tightmorse.{module}")
        for name in names:
            original = getattr(tightmorse, name)
            stand_in = object()
            monkeypatch.setattr(mod, name, stand_in)
            assert getattr(tightmorse, name) is stand_in, name
            monkeypatch.setattr(mod, name, original)
            assert getattr(tightmorse, name) is original, name


@pytest.mark.parametrize(
    "name", ["upper_subcomplex", "verify_lemma_betti_recursion", "BettiVector", "MorseVector"]
)
def test_removed_package_names_are_gone(name):
    assert name not in dir(tightmorse)
    with pytest.raises(AttributeError, match=f"no attribute {name!r}"):
        getattr(tightmorse, name)


def unused_imports(source: str) -> list[str]:
    """The names an import in source binds that no expression reads."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(bound.items()) if name not in read]


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from .homology_z2 import betti as b, is_subcomplex\n"
        "print(os.sep, is_subcomplex)\n"
    )
    assert unused_imports(source) == ["b (line 3)"]


@pytest.mark.parametrize("path", sorted(Path(tightmorse.__file__).parent.glob("*.py")), ids=lambda p: p.name)
def test_library_modules_import_no_unused_name(path):
    assert unused_imports(path.read_text()) == []


def test_unknown_package_attribute_raises():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        tightmorse.no_such_name
