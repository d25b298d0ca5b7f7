"""Exact quandle 2-cocycle state-sum invariants of classical and virtual diagrams.

The package attributes load on first use (PEP 562): ``vknots.X`` and
``from vknots import X`` import X's home module and read X from it on every
access, so a replacement made in ``vknots.<module>`` is what ``vknots.X``
returns, and a process that needs one module pays for that one alone.
"""

from importlib import import_module as _import_module

_EXPORTS = {
    "algebra": (
        "FiniteQuandle",
        "QuandleMap",
        "automorphisms",
        "inner_automorphism",
        "is_automorphism",
        "make_dihedral",
        "make_from_table",
        "map_order",
        "validate_quandle",
    ),
    "diagram": (
        "BUILDER_NAMES",
        "ClassicalCrossing",
        "VirtualCrossing",
        "VirtualDiagram",
        "builder",
        "component_count",
        "isomorphic",
        "parse_diagram",
        "serialize_diagram",
        "validate_diagram",
    ),
    "invariants": (
        "InvariantResult",
        "aut_sum_z3",
        "coloring_weight",
        "state_sum_classical",
        "state_sum_z2",
        "state_weight_z1",
    ),
    "moves": (
        "ALL_KINDS",
        "CLASSICAL_KINDS",
        "MoveRecord",
        "apply_move",
        "detour",
        "r1_insert",
        "r1_remove",
        "r2_insert",
        "r2_remove",
        "r3_slide",
        "random_equivalent",
        "vkink_insert",
        "vkink_remove",
    ),
    "solver": ("brute_force_colorings", "count_colorings", "enumerate_colorings", "verify_coloring"),
    "weights": (
        "CoefficientGroup",
        "Cochain1",
        "Cocycle2",
        "Weight",
        "WeightPolynomial",
        "coboundary",
        "cocycle_product",
        "cocycle_space_basis",
        "example_cocycle_r4",
        "is_cohomologous",
        "preserves",
        "trivial_cocycle",
        "validate_cocycle",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)  # what `from vknots import *` resolves
__version__ = "0.1.0"


def __getattr__(name: str):
    # called only for names missing from the namespace; a submodule name
    # falls through to AttributeError, and the import system then imports it
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(f"{__name__}.{home}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
