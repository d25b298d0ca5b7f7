import json

import pytest

from vknots.diagram import (
    BUILDER_NAMES,
    ClassicalCrossing,
    VirtualCrossing,
    VirtualDiagram,
    builder,
    component_count,
    isomorphic,
    parse_diagram,
    relabel_canonical,
    serialize_diagram,
    successor_cycles,
    validate_diagram,
)
from vknots.errors import InvalidParameter, MalformedInput

UNKNOT_TEXT = '{"edges":0,"free_loops":1,"crossings":[]}'


def test_builder_names_are_fixed():
    assert set(BUILDER_NAMES) == {
        "unknot",
        "unknot_kink_pos",
        "unknot_kink_neg",
        "unknot_vkink",
        "trefoil",
        "figure_eight",
        "hopf_pos",
        "virtual_trefoil",
        "virtual_hopf",
        "kishino",
    }
    with pytest.raises(InvalidParameter):
        builder("granny")


@pytest.mark.parametrize("name", BUILDER_NAMES)
def test_every_builder_validates(name):
    assert validate_diagram(builder(name)).ok


def test_builder_shapes():
    unknot = builder("unknot")
    assert (unknot.edges, unknot.free_loops, unknot.crossings) == (0, 1, ())
    trefoil = builder("trefoil")
    assert trefoil.edges == 6 and len(trefoil.classical()) == 3 and not trefoil.virtual()
    vt = builder("virtual_trefoil")
    assert vt.edges == 6 and len(vt.classical()) == 2 and len(vt.virtual()) == 1
    kish = builder("kishino")
    assert kish.edges == 12 and len(kish.classical()) == 4 and len(kish.virtual()) == 2
    assert {c.sign for c in kish.classical()} == {1, -1}


@pytest.mark.parametrize(
    "name,expected",
    [
        ("unknot", 1),
        ("trefoil", 1),
        ("figure_eight", 1),
        ("hopf_pos", 2),
        ("virtual_hopf", 2),
        ("virtual_trefoil", 1),
        ("kishino", 1),
        ("unknot_kink_pos", 1),
        ("unknot_vkink", 1),
    ],
)
def test_component_counts(name, expected):
    assert component_count(builder(name)) == expected


def test_crossing_field_validation():
    with pytest.raises(MalformedInput):
        ClassicalCrossing(0, 0, 1, 1, 0)
    with pytest.raises(MalformedInput):
        VirtualCrossing(0, 1, 1, 0, 2)
    with pytest.raises(MalformedInput):
        ClassicalCrossing(True, 0, 1, 1, 0)
    with pytest.raises(MalformedInput):
        VirtualCrossing(0, 1, 1, 0, 1.0)


def test_virtual_crossing_normalisation():
    v = VirtualCrossing(first_in=5, first_out=0, second_in=2, second_out=3, chirality=1)
    assert (v.first_in, v.first_out, v.second_in, v.second_out, v.chirality) == (2, 3, 5, 0, -1)
    w = VirtualCrossing(2, 3, 5, 0, -1)
    assert v == w


def test_validate_rejects_double_use():
    d = VirtualDiagram(2, 0, (ClassicalCrossing(1, 0, 0, 1, 1),))
    report = validate_diagram(d)
    assert not report.ok
    assert "more than once" in report.message


def test_validate_rejects_dangling():
    d = VirtualDiagram(3, 0, (ClassicalCrossing(1, 0, 1, 1, 0),))
    report = validate_diagram(d)
    assert not report.ok


def test_parse_unknot():
    d = parse_diagram(UNKNOT_TEXT)
    assert d == builder("unknot")


@pytest.mark.parametrize("name", BUILDER_NAMES)
def test_parse_serialize_round_trip(name):
    d = builder(name)
    assert parse_diagram(serialize_diagram(d)) == d


def test_serialize_parse_gives_canonical_text():
    text = serialize_diagram(builder("trefoil"))
    messy = json.dumps(json.loads(text), indent=2)
    assert serialize_diagram(parse_diagram(messy)) == text


def test_parse_errors_carry_location():
    with pytest.raises(MalformedInput):
        parse_diagram("{")
    with pytest.raises(MalformedInput, match="edge 0"):
        parse_diagram('{"edges":1,"free_loops":0,"crossings":[]}')
    with pytest.raises(MalformedInput, match="unknown diagram fields"):
        parse_diagram('{"edges":0,"free_loops":0,"crossings":[],"extra":1}')
    with pytest.raises(MalformedInput, match=r"crossings\[0\]"):
        parse_diagram(
            '{"edges":2,"free_loops":0,"crossings":[{"type":"classical","sign":1,'
            '"under_in":0,"over_in":1,"under_out":1,"over_out":0,"bonus":2}]}'
        )
    with pytest.raises(MalformedInput, match=r"crossings\[0\]"):
        parse_diagram('{"edges":2,"free_loops":0,"crossings":[{"type":"wild"}]}')


def test_relabel_canonical_traversal_order():
    # same kink written with shifted labels collapses to one canonical form
    a = relabel_canonical([ClassicalCrossing(1, 7, 9, 9, 7)], 0)
    b = relabel_canonical([ClassicalCrossing(1, 0, 1, 1, 0)], 0)
    assert a == b
    assert a.edges == 2


def test_isomorphic_basics():
    tre = builder("trefoil")
    assert isomorphic(tre, tre)
    # rotate labels along the strand cycle: still the same diagram
    cyc = successor_cycles(tre)[0]
    shift = {e: cyc[(i + 2) % len(cyc)] for i, e in enumerate(cyc)}
    rotated = VirtualDiagram(
        6,
        0,
        tuple(
            ClassicalCrossing(c.sign, shift[c.under_in], shift[c.over_in], shift[c.under_out], shift[c.over_out])
            for c in tre.crossings
        ),
    )
    assert validate_diagram(rotated).ok
    assert isomorphic(tre, rotated)
    assert not isomorphic(tre, builder("virtual_trefoil"))
    assert not isomorphic(builder("unknot_kink_pos"), builder("unknot_kink_neg"))
    assert not isomorphic(builder("unknot"), VirtualDiagram(0, 2, ()))
    assert isomorphic(builder("unknot"), builder("unknot"))


def test_isomorphic_handles_chirality_normalisation():
    # swapping the labels of a closed virtual kink flips the stored
    # chirality bit, so the two stored forms denote the same diagram
    a = VirtualDiagram(2, 0, (VirtualCrossing(0, 1, 1, 0, 1),))
    c = VirtualDiagram(2, 0, (VirtualCrossing(0, 1, 1, 0, -1),))
    assert isomorphic(a, c)
    # with a classical crossing pinning the labels, chirality distinguishes
    vh = builder("virtual_hopf")
    flipped = VirtualDiagram(4, 0, (vh.crossings[0], VirtualCrossing(1, 2, 3, 0, -1)))
    assert validate_diagram(flipped).ok
    assert not isomorphic(vh, flipped)
