"""Start-up cost: each CLI command loads only the library modules it runs,
and the package-level names resolve lazily to the objects their modules
define; no module imports a name it never uses."""

import ast
import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import tightmorse
from tightmorse import cli
from tightmorse.constructions import checkerboard, straight_path
from tightmorse.formats import dump_facets, dump_morse, dump_path, read_complex
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
    s_morse = random_discrete_morse(read_complex(tmp_path / "s.geom"), seed=0)
    (tmp_path / "s.morse").write_text(dump_morse(s_morse))
    return tmp_path


# heavy standard modules no command needs: dataclasses generates code for
# each class it creates, and it imports inspect, which imports ast, dis and
# tokenize
HEAVY = {"dataclasses", "inspect"}


@pytest.fixture(scope="module")
def heavy_in_stdlib(tmp_path_factory) -> set[str]:
    """The heavy modules that the standard modules the CLI imports load by
    themselves on this Python, which the library cannot avoid."""
    code = "import argparse, json, pathlib"
    return HEAVY & loaded_modules(code, tmp_path_factory.mktemp("stdlib"))


# hashlib loads OpenSSL's _hashlib; the input digest needs neither
NO_COMMAND_LOADS = {"hashlib", "_hashlib"}
# fractions, which imports decimal, serves only non-integer numbers and the
# geometry and construction code
NUMBERS = {"fractions", "decimal"}


# argv, the tightmorse submodules it must not load, and the standard
# modules it must not load beyond NO_COMMAND_LOADS
@pytest.mark.parametrize(
    "argv, absent, absent_stdlib",
    [
        (["betti", "e.facets"], {"geometry", "embedding", "morse", "algorithms", "constructions"}, NUMBERS),
        (["betti", "s.geom"], {"geometry", "embedding", "morse", "algorithms", "constructions"}, NUMBERS),
        (
            ["tight", "check", "s.geom", "--pi", "1,2,4"],
            {"embedding", "morse", "algorithms", "constructions"},
            set(),
        ),
        (
            ["morse", "validate", "e.facets", "e.morse"],
            {"homology_z2", "algorithms", "geometry", "embedding", "constructions"},
            NUMBERS,
        ),
        (
            ["morse", "validate", "s.geom", "s.morse"],
            {"homology_z2", "algorithms", "geometry", "embedding", "constructions"},
            NUMBERS,
        ),
        (
            ["morse", "vector", "e.facets", "e.morse"],
            {"homology_z2", "algorithms", "geometry", "embedding", "constructions"},
            NUMBERS,
        ),
        (["morse", "sweep", "s.geom", "--pi", "1,2,4", "--out", "s2.morse"], {"embedding", "constructions"}, set()),
        (["check", "nonevasive", "e.facets"], {"geometry", "embedding", "morse", "constructions"}, NUMBERS),
        (["check", "collapsible", "e.facets"], {"geometry", "embedding", "constructions"}, NUMBERS),
        (
            ["build", "furch", "--n", "3,3,3", "--path", "p.path", "--out", "f.geom"],
            {"embedding", "algorithms"},
            set(),
        ),
    ],
    ids=[
        "betti", "betti_geom", "tight_check", "morse_validate", "morse_validate_geom", "morse_vector",
        "morse_sweep", "check_nonevasive", "check_collapsible", "build_furch",
    ],
)
def test_cli_command_loads_only_what_it_runs(inputs, heavy_in_stdlib, argv, absent, absent_stdlib):
    modules = loaded_modules(run_main(argv), inputs)
    loaded = tightmorse_submodules(modules)
    assert "cli" in loaded
    assert not loaded & absent, sorted(loaded & absent)
    heavy = (modules & HEAVY) - heavy_in_stdlib
    assert not heavy, sorted(heavy)
    stdlib = modules & (NO_COMMAND_LOADS | absent_stdlib)
    assert not stdlib, sorted(stdlib)


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.binary(max_size=300))
def test_digest_is_the_sha256_prefix(tmp_path, data):
    # the builtin module is _sha256 up to Python 3.11 and _sha2 from 3.12
    path = tmp_path / "input"
    path.write_bytes(data)
    assert cli._digest(str(path)) == hashlib.sha256(data).hexdigest()[:12]


def test_non_integer_numbers_load_fractions_on_demand(tmp_path):
    # in a fresh interpreter, formats loads fractions at the first
    # non-integer number it reads, and writes such numbers back byte for byte
    (tmp_path / "x.geom").write_text("geom 3\nv 1 3/4 0.25 -2.5E-4300\nv 2 0 1 0\nfacets 1\n1 2\n")
    dumped = f"geom 3\nv 1 3/4 1/4 -1/{4 * 10**4299}\nv 2 0 1 0\nfacets 1\n1 2\n"
    code = f"""
import sys
from tightmorse import formats
assert formats.format_number(True) == "True" and formats.format_number(-7) == "-7"
assert formats.format_number(2.5) == "2.5"
assert "fractions" not in sys.modules
assert formats.read_complex("x.geom").num_faces == 3
assert "fractions" in sys.modules and "tightmorse.geometry" not in sys.modules
from fractions import Fraction
assert formats.format_number(Fraction(4, 2)) == "2"
g = formats.read_geom("x.geom")
assert g.coords[1] == (Fraction(3, 4), Fraction(1, 4), Fraction(-25, 10**4301))
assert formats.dump_geom(g) == {dumped!r}
assert formats.dump_geom(formats.parse_geom({dumped!r})) == {dumped!r}
"""
    loaded_modules(code, tmp_path)


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
