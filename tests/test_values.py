"""The contract of the package's immutable value types.

Each value compares equal to, and hashes like, a twin built from the same
arguments and is unequal to a value of another class; its repr names its
fields; assignment and deletion raise ``AttributeError``; pickle (every
protocol) and deepcopy give an equal value of the same class, which keeps a
stored validity report and no other cached table; and the constructor keeps
its signature, checks and normalisations.
"""

import copy
import pickle
import re

import pytest

from vknots import algebra, weights
from vknots.algebra import FiniteQuandle, QuandleMap, QuandleReport, make_dihedral
from vknots.diagram import DiagramReport, VirtualDiagram, builder
from vknots.errors import InvalidParameter, MalformedInput
from vknots.invariants import InvariantResult
from vknots.moves import MoveRecord
from vknots.weights import (
    CoefficientGroup,
    Cochain1,
    Cocycle2,
    CocycleReport,
    Weight,
    WeightPolynomial,
    example_cocycle_r4,
    trivial_cocycle,
)

_Z3 = "CoefficientGroup(modulus=3)"
_R2 = "FiniteQuandle(table=((0, 0), (1, 1)))"
_HOPF = (
    "VirtualDiagram(edges=4, free_loops=0, crossings=("
    "ClassicalCrossing(sign=1, under_in=2, over_in=0, under_out=1, over_out=3), "
    "VirtualCrossing(first_in=1, first_out=2, second_in=3, second_out=0, chirality=1)))"
)

# name -> (a factory that builds a fresh value, its fields in constructor order, its repr)
CASES = {
    "FiniteQuandle": (
        lambda: make_dihedral(3), ("table",), "FiniteQuandle(table=((0, 2, 1), (2, 1, 0), (1, 0, 2)))"
    ),
    "QuandleMap": (lambda: QuandleMap((1, 0, 2)), ("images",), "QuandleMap(images=(1, 0, 2))"),
    "QuandleReport": (
        lambda: QuandleReport(False, axiom=3, witness=(0, 1, 2)),
        ("ok", "axiom", "witness"),
        "QuandleReport(ok=False, axiom=3, witness=(0, 1, 2))",
    ),
    "VirtualDiagram": (
        lambda: VirtualDiagram(4, 0, tuple(builder("virtual_hopf").crossings)),
        ("edges", "free_loops", "crossings"),
        _HOPF,
    ),
    "DiagramReport": (
        lambda: DiagramReport(False, "edge 0 is never consumed"),
        ("ok", "message"),
        "DiagramReport(ok=False, message='edge 0 is never consumed')",
    ),
    "CoefficientGroup": (lambda: CoefficientGroup(3), ("modulus",), _Z3),
    "Weight": (
        lambda: Weight(CoefficientGroup(3), 7), ("group", "exponent"), f"Weight(group={_Z3}, exponent=1)"
    ),
    "WeightPolynomial": (
        lambda: WeightPolynomial.from_pairs([(1, 2), (0, 1)]),
        ("terms",),
        "WeightPolynomial(terms=((0, 1), (1, 2)))",
    ),
    "Cochain1": (
        lambda: Cochain1(CoefficientGroup(3), (4, -1)),
        ("group", "exponents"),
        f"Cochain1(group={_Z3}, exponents=(1, 2))",
    ),
    "Cocycle2": (
        lambda: Cocycle2(make_dihedral(2), CoefficientGroup(3), ((0, 4), (-1, 0))),
        ("quandle", "group", "exponents"),
        f"Cocycle2(quandle={_R2}, group={_Z3}, exponents=((0, 1), (2, 0)))",
    ),
    "CocycleReport": (
        lambda: CocycleReport(False, condition=2, witness=(0, 1, 2)),
        ("ok", "condition", "witness"),
        "CocycleReport(ok=False, condition=2, witness=(0, 1, 2))",
    ),
    "InvariantResult": (
        lambda: InvariantResult("Z2", WeightPolynomial.from_pairs([(1, 2), (0, 1)]), 3, True),
        ("kind", "value", "colorings", "preserving"),
        "InvariantResult(kind='Z2', value=WeightPolynomial(terms=((0, 1), (1, 2))), colorings=3, preserving=True)",
    ),
    "MoveRecord": (
        lambda: MoveRecord("r3_slide", {"bridges": [0, 1, 2]}),
        ("kind", "site"),
        "MoveRecord(kind='r3_slide', site={'bridges': [0, 1, 2]})",
    ),
}


@pytest.mark.parametrize("name", list(CASES))
def test_twins_are_equal(name):
    make, fields, _ = CASES[name]
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert type(a).__name__ == name
    assert a != tuple(getattr(a, field) for field in fields)
    if name != "MoveRecord":
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


@pytest.mark.parametrize("name", list(CASES))
def test_repr_names_the_fields(name):
    make, _, text = CASES[name]
    assert repr(make()) == text


@pytest.mark.parametrize("name", list(CASES))
def test_constructor_takes_the_fields_positionally_and_by_keyword(name):
    make, fields, _ = CASES[name]
    a = make()
    values = [getattr(a, field) for field in fields]
    assert type(a)(*values) == a
    assert type(a)(**dict(zip(fields, values))) == a


@pytest.mark.parametrize("name", list(CASES))
def test_fields_cannot_be_assigned_or_deleted(name):
    make, fields, _ = CASES[name]
    a = make()
    for field in fields:
        before = getattr(a, field)
        with pytest.raises(AttributeError):
            setattr(a, field, before)
        with pytest.raises(AttributeError):
            delattr(a, field)
        assert getattr(a, field) is before
    with pytest.raises(AttributeError):
        a.no_such_field = 1


@pytest.mark.parametrize("name", list(CASES))
def test_pickle_and_deepcopy_round_trip(name):
    make, _, text = CASES[name]
    a = make()
    copies = [pickle.loads(pickle.dumps(a, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for copied in copies + [copy.deepcopy(a), copy.copy(a)]:
        assert type(copied) is type(a) and copied == a and repr(copied) == text


def test_values_of_different_classes_are_unequal():
    assert QuandleReport(True) != CocycleReport(True)
    assert not QuandleReport(True) == CocycleReport(True)
    assert QuandleReport(True) != DiagramReport(True)
    assert QuandleMap((0, 1)) != FiniteQuandle(((0, 0), (1, 1)))


def test_defaults():
    assert QuandleReport(True) == QuandleReport(True, None, None)
    assert CocycleReport(True) == CocycleReport(ok=True, condition=None, witness=None)
    assert DiagramReport(True) == DiagramReport(True, "")
    assert CoefficientGroup() == CoefficientGroup(0)
    result = InvariantResult("Z1", Weight(CoefficientGroup(0), 3), 9)
    assert result.preserving is None
    assert bool(QuandleReport(True)) and not CocycleReport(False) and not DiagramReport(False, "no")


def test_constructor_checks():
    with pytest.raises(InvalidParameter, match="modulus must be non-negative"):
        CoefficientGroup(-1)
    for modulus in (2.5, 2.0, True, "2", None):
        with pytest.raises(InvalidParameter, match="modulus must be an int"):
            CoefficientGroup(modulus)
    q = make_dihedral(3)
    group = CoefficientGroup(0)
    for exponents in (((0, 0), (0, 0)), ((0, 0, 0),) * 3 + ((0, 0, 0),), ((0, 0, 0), (0, 0), (0, 0, 0))):
        with pytest.raises(MalformedInput, match="cocycle table size"):
            Cocycle2(q, group, exponents)
    for bad in (0.5, 1.0, False, "1", None):
        with pytest.raises(MalformedInput, match="cocycle exponent .* is not an integer"):
            Cocycle2(q, group, ((0, 0, 0), (0, 0, bad), (0, 0, 0)))
        with pytest.raises(MalformedInput, match="cochain exponent .* is not an integer"):
            Cochain1(group, (0, bad, 0))
        with pytest.raises(MalformedInput, match="weight exponent .* is not an integer"):
            Weight(group, bad)
        for term in ((bad, 1), (0, bad)):
            with pytest.raises(MalformedInput, match="polynomial term .* does not hold integers"):
                WeightPolynomial(((-1, 1), term))
    for terms in (((0, -2),), ((0, 0),), ((1, 2), (1, 3)), ((1, 2), (0, 3))):
        with pytest.raises(InvalidParameter, match="polynomial (multiplicity .* is not positive|exponent .* does not follow)"):
            WeightPolynomial(terms)
    for pairs in ([(0, -1)], [(0, 2), (0, -2)], [(1, 0)]):
        with pytest.raises(InvalidParameter, match="polynomial multiplicity"):
            WeightPolynomial.from_pairs(pairs)


def test_from_pairs_refuses_exponents_that_do_not_compare():
    # sorting these exponents fails; the term check must still name the non-int term
    for pairs, term in (
        ([("a", 1), (0, 1)], "('a', 1)"),
        ([(5, 1), (3, 1), ("a", 1)], "('a', 1)"),
        ([(0, 1), (None, 1)], "(None, 1)"),
    ):
        with pytest.raises(MalformedInput, match=re.escape(f"polynomial term {term} does not hold integers")):
            WeightPolynomial.from_pairs(pairs)


def test_from_pairs_refuses_what_is_no_pair_of_ints_as_malformed_input():
    # each fails inside the summing loop: an int plus a str, a 1-tuple, an int
    for pairs in ([(0, "x")], [(1,)], [5], [(0, 1, 2)], [([0], 1)], 5):
        with pytest.raises(MalformedInput, match=re.escape("polynomial terms must be (exponent, multiplicity) int pairs")):
            WeightPolynomial.from_pairs(pairs)


def test_constructor_normalisation():
    assert Weight(CoefficientGroup(5), 7).exponent == 2
    assert Weight(CoefficientGroup(5), -1).exponent == 4
    assert Weight(CoefficientGroup(0), -7).exponent == -7
    assert Weight(CoefficientGroup(5), 7) == Weight(CoefficientGroup(5), 2)
    assert Cochain1(CoefficientGroup(4), [5, -1]).exponents == (1, 3)
    c = Cocycle2(make_dihedral(2), CoefficientGroup(2), [[0, 3], (-2, 0)])
    assert c.exponents == ((0, 1), (0, 0)) and c == Cocycle2(c.quandle, c.group, ((0, 1), (0, 0)))
    assert trivial_cocycle(make_dihedral(2)).group == CoefficientGroup(0)
    assert QuandleMap([1, 0, 2]).images == (1, 0, 2) and QuandleMap([1, 0, 2]) == QuandleMap((1, 0, 2))
    assert WeightPolynomial([[0, 3], [2, 1]]).terms == ((0, 3), (2, 1))


def test_move_records_are_unhashable():
    with pytest.raises(TypeError):
        hash(MoveRecord("r1_remove", {"loop": 0}))


def test_a_diagram_stores_its_slot_maps_when_made():
    d = VirtualDiagram(4, 0, tuple(builder("virtual_hopf").crossings))
    maps = d.slot_maps
    assert d.slot_maps is maps and "slot_maps" not in vars(d)  # a slot, not a cache
    assert d == builder("virtual_hopf") and hash(d) == hash(builder("virtual_hopf"))
    with pytest.raises(AttributeError):
        d.slot_maps = maps


def test_built_in_algebra_stores_a_passing_report():
    q = FiniteQuandle(make_dihedral(3).table)
    assert "report" not in vars(q)
    report = q.report
    assert report == QuandleReport(True) and vars(q)["report"] is report and q == make_dihedral(3)
    for value in (make_dihedral(3), trivial_cocycle(q), example_cocycle_r4()):
        assert vars(value)["report"].ok
    c = Cocycle2(q, CoefficientGroup(0), ((0, 1, 0), (0, 0, 0), (0, 0, 0)))
    assert "report" not in vars(c) and c.report == CocycleReport(False, 2, (0, 1, 0))


_COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    **{f"pickle-{p}": (lambda v, p=p: pickle.loads(pickle.dumps(v, p))) for p in range(pickle.HIGHEST_PROTOCOL + 1)},
}


@pytest.mark.parametrize("duplicate", list(_COPIES.values()), ids=list(_COPIES))
def test_a_copy_keeps_a_stored_report_and_no_other_cached_table(duplicate, monkeypatch):
    checked_q = FiniteQuandle(make_dihedral(5).table)
    checked_c = Cocycle2(checked_q, CoefficientGroup(0), ((0,) * 5,) * 5)
    stored = [make_dihedral(7), trivial_cocycle(make_dihedral(3)), example_cocycle_r4(), checked_q, checked_c]
    assert checked_q.report.ok and checked_c.report.ok  # the only checks this test runs
    assert checked_q.division and checked_q.generation  # cached tables, which no copy carries
    unchecked = [FiniteQuandle(make_dihedral(4).table), Cocycle2(make_dihedral(2), CoefficientGroup(0), ((0, 0), (0, 0)))]

    def refuse(value):
        raise AssertionError("a copy reran the validity check")

    monkeypatch.setattr(algebra, "validate_quandle", refuse)
    monkeypatch.setattr(weights, "validate_cocycle", refuse)
    for value in stored:
        twin = duplicate(value)
        assert twin == value and type(twin) is type(value)
        assert list(vars(twin)) == ["report"] and twin.report == value.report
    for value in unchecked:
        twin = duplicate(value)
        assert twin == value and "report" not in vars(twin)
        with pytest.raises(AssertionError, match="reran"):
            twin.report
