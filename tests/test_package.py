"""The package surface: lazily resolved public names, and the modules each
CLI command imports.

``vknots`` resolves its public names on first use (PEP 562), and the CLI
imports a library module only inside the handlers that call it.  These
tests pin the exported names and, for each command class, the exact set of
``vknots`` modules a fresh process holds after running it, so that a later
top-level import that slows every CLI call shows here.  They also check that
no command loads ``dataclasses``, ``inspect`` or ``typing`` beyond what the
bare interpreter already holds: the first pulls in the other two plus
``ast``, ``dis`` and ``tokenize``.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vknots

SRC = Path(__file__).resolve().parents[1] / "src"

# the names `from vknots import X` gives
PUBLIC = {
    "algebra": (
        "FiniteQuandle", "QuandleMap", "automorphisms", "inner_automorphism", "is_automorphism",
        "make_dihedral", "make_from_table", "map_order", "validate_quandle",
    ),
    "diagram": (
        "BUILDER_NAMES", "ClassicalCrossing", "VirtualCrossing", "VirtualDiagram", "builder",
        "component_count", "isomorphic", "parse_diagram", "serialize_diagram", "validate_diagram",
    ),
    "invariants": (
        "InvariantResult", "aut_sum_z3", "coloring_weight", "state_sum_classical", "state_sum_z2",
        "state_weight_z1",
    ),
    "moves": (
        "ALL_KINDS", "CLASSICAL_KINDS", "MoveRecord", "apply_move", "detour", "r1_insert", "r1_remove",
        "r2_insert", "r2_remove", "r3_slide", "random_equivalent", "vkink_insert", "vkink_remove",
    ),
    "solver": ("brute_force_colorings", "count_colorings", "enumerate_colorings", "verify_coloring"),
    "weights": (
        "CoefficientGroup", "Cochain1", "Cocycle2", "Weight", "WeightPolynomial", "coboundary",
        "cocycle_product", "cocycle_space_basis", "example_cocycle_r4", "is_cohomologous", "preserves",
        "trivial_cocycle", "validate_cocycle",
    ),
}
PUBLIC_NAMES = [(home, name) for home, names in PUBLIC.items() for name in names]


@pytest.mark.parametrize("home, name", PUBLIC_NAMES, ids=[name for _, name in PUBLIC_NAMES])
def test_public_name_resolves_through_its_home_module(home, name):
    namespace = {}
    exec(f"from vknots import {name}", namespace)
    assert namespace[name] is getattr(importlib.import_module(f"vknots.{home}"), name)
    assert name in dir(vknots)


def test_exported_names_are_the_pinned_ones():
    assert sorted(vknots.__all__) == sorted(name for _, name in PUBLIC_NAMES)
    assert vknots.__version__ == "0.1.0"


def test_unknown_and_private_names_raise_attribute_error():
    for name in ("no_such_name", "_slot_maps", "quandle_from_json"):
        with pytest.raises(AttributeError, match=name):
            getattr(vknots, name)
    with pytest.raises(ImportError):
        exec("from vknots import no_such_name", {})


def test_submodules_import_through_the_package():
    namespace = {}
    exec("from vknots import algebra, intlin, kernel", namespace)
    assert namespace["algebra"] is importlib.import_module("vknots.algebra")
    assert namespace["intlin"] is importlib.import_module("vknots.intlin")
    assert namespace["kernel"] is importlib.import_module("vknots.kernel")


def test_package_attributes_follow_replacements_in_the_home_module(monkeypatch):
    import vknots.algebra

    def replacement(n):
        return n

    monkeypatch.setattr(vknots.algebra, "make_dihedral", replacement)
    assert vknots.make_dihedral is replacement
    monkeypatch.undo()
    assert vknots.make_dihedral is vknots.algebra.make_dihedral


_QUANDLE = {"vknots", "vknots.cli", "vknots.algebra", "vknots.errors", "vknots.value"}
_COCYCLE = _QUANDLE | {"vknots.weights"}
_DIAGRAM = _QUANDLE | {"vknots.diagram"}
_COLOR = _DIAGRAM | {"vknots.kernel", "vknots.solver"}
_INVARIANT = _COLOR | _COCYCLE | {"vknots.invariants"}
_FUZZ = _INVARIANT | {"vknots.moves"}

SCOPES = {
    "import": (None, _QUANDLE),
    "quandle-check": (["quandle", "check", "--dihedral", "4"], _QUANDLE),
    "quandle-auts": (["quandle", "auts", "--quandle", "dihedral:4"], _QUANDLE),
    "cocycle-check": (["cocycle", "check", "--quandle", "dihedral:4", "--cocycle", "example-r4"], _COCYCLE),
    "cocycle-basis": (["cocycle", "basis", "--quandle", "dihedral:3", "--m", "3"], _COCYCLE | {"vknots.intlin"}),
    "diagram-build": (["diagram", "build", "--name", "kishino"], _DIAGRAM),
    "diagram-validate": (["diagram", "validate", "--diagram", "kishino"], _DIAGRAM),
    "color-count": (["color", "count", "--diagram", "trefoil", "--quandle", "dihedral:3"], _COLOR),
    "invariant-z": (["invariant", "z", "--diagram", "trefoil", "--quandle", "dihedral:4", "--cocycle", "example-r4"], _INVARIANT),
    "invariant-z3": (
        ["invariant", "z3", "--diagram", "virtual_trefoil", "--quandle", "dihedral:4", "--cocycle", "example-r4",
         "--aut", "inner:0"],
        _INVARIANT,
    ),
    "fuzz": (
        ["fuzz", "--diagram", "trefoil", "--quandle", "dihedral:3", "--cocycle", "trivial", "--aut", "identity",
         "--moves", "5"],
        _FUZZ,
    ),
}

# standard-library modules that no command needs
_UNWANTED = ("dataclasses", "inspect", "typing")

_CHILD = """
import sys
bare = set(sys.modules)  # what the interpreter holds before any import of its own
import contextlib, io, json
import vknots.cli
argv = json.loads(sys.argv[1])
code = 0
if argv is not None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = vknots.cli.main(argv)
unwanted = sorted(m for m in json.loads(sys.argv[2]) if m in sys.modules and m not in bare)
print(json.dumps([code, sorted(m for m in sys.modules if m == "vknots" or m.startswith("vknots.")), unwanted]))
"""


@pytest.mark.parametrize("argv, expected", list(SCOPES.values()), ids=list(SCOPES))
def test_each_command_imports_only_the_modules_it_runs(argv, expected):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps(argv), json.dumps(_UNWANTED)], env=env, capture_output=True,
        text=True, timeout=120, check=True,
    ).stdout
    code, modules, unwanted = json.loads(out)
    assert code == 0
    assert set(modules) == expected
    assert unwanted == []
