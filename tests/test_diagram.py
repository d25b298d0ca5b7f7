import copy
import json
import pickle

import pytest

from vknots.diagram import (
    BUILDER_NAMES,
    MAX_FREE_LOOPS,
    ClassicalCrossing,
    VirtualCrossing,
    DiagramReport,
    VirtualDiagram,
    _RECORD_CLASSES,
    _store,
    _unchecked_diagram,
    builder,
    component_count,
    isomorphic,
    parse_diagram,
    relabel_canonical,
    serialize_diagram,
    strand_passages,
    successor_cycles,
    validate_diagram,
)
from vknots.errors import InvalidParameter, MalformedInput
from vknots.kernel import arc_skeleton
from vknots.moves import MoveRecord, apply_move, random_equivalent

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


def test_validate_diagram_checks_the_fields_of_an_unchecked_diagram():
    # relabel_canonical's door stores slot maps without the constructor's
    # check; validate_diagram re-runs that check on the fields
    d = _unchecked_diagram(3, 0, builder("unknot_kink_pos").crossings)
    assert d.slot_maps[0][2] is None  # edge 2 dangles
    assert validate_diagram(d) == DiagramReport(False, "edge 2 is never consumed (dangling out end)")
    assert validate_diagram(_unchecked_diagram(2, 0, builder("unknot_kink_pos").crossings)).ok


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


_CLASSICAL = {"type": "classical", "sign": 1, "under_in": 0, "over_in": 1, "under_out": 1, "over_out": 0}
_VIRTUAL = {"type": "virtual", "first_in": 0, "first_out": 1, "second_in": 1, "second_out": 0, "chirality": 1}
_CLASSICAL_KEYS = "['over_in', 'over_out', 'sign', 'type', 'under_in', 'under_out']"
_VIRTUAL_KEYS = "['chirality', 'first_in', 'first_out', 'second_in', 'second_out', 'type']"

# The exact text of every crossing-record failure, per record type.
BAD_RECORDS = {
    "classical-missing": (
        {k: v for k, v in _CLASSICAL.items() if k != "over_out"},
        f"crossings[0]: classical crossings take exactly the fields {_CLASSICAL_KEYS}",
    ),
    "classical-extra": (
        {**_CLASSICAL, "bonus": 2},
        f"crossings[0]: classical crossings take exactly the fields {_CLASSICAL_KEYS}",
    ),
    "virtual-missing": (
        {k: v for k, v in _VIRTUAL.items() if k != "chirality"},
        f"crossings[0]: virtual crossings take exactly the fields {_VIRTUAL_KEYS}",
    ),
    "virtual-extra": (
        {**_VIRTUAL, "sign": 1},
        f"crossings[0]: virtual crossings take exactly the fields {_VIRTUAL_KEYS}",
    ),
    "type-string": ({**_CLASSICAL, "type": "wild"}, "crossings[0]: unknown crossing type 'wild'"),
    "type-number": ({**_CLASSICAL, "type": 3}, "crossings[0]: unknown crossing type 3"),
    "type-list": ({**_VIRTUAL, "type": ["virtual"]}, "crossings[0]: unknown crossing type ['virtual']"),
    # the record constructors refuse a bad sign and a label that is no int,
    # and parse_diagram names the record
    "bad-sign": ({**_CLASSICAL, "sign": 2}, "crossings[0]: crossing sign must be +1 or -1, got 2"),
    "bad-chirality": ({**_VIRTUAL, "chirality": 0}, "crossings[0]: chirality must be +1 or -1, got 0"),
    "virtual-null-edge": ({**_VIRTUAL, "first_in": None}, "crossings[0]: edge label must be an integer, got None"),
    "classical-null-edge": ({**_CLASSICAL, "under_in": None}, "crossings[0]: edge label must be an integer, got None"),
}


@pytest.mark.parametrize("record, message", list(BAD_RECORDS.values()), ids=list(BAD_RECORDS))
def test_parse_crossing_record_messages(record, message):
    text = json.dumps({"edges": 2, "free_loops": 0, "crossings": [record]})
    with pytest.raises(MalformedInput) as err:
        parse_diagram(text)
    assert str(err.value) == message


def test_relabel_canonical_traversal_order():
    # same kink written with shifted labels collapses to one canonical form
    a = relabel_canonical([ClassicalCrossing(1, 7, 9, 9, 7)], 0)
    b = relabel_canonical([ClassicalCrossing(1, 0, 1, 1, 0)], 0)
    assert a == b
    assert a.edges == 2


# Records wired so that the first reused slot, in passage order (under then
# over, first then second), is the one named in the message.
BAD_REWIRINGS = {
    "consumed-twice": (
        [ClassicalCrossing(1, 0, 1, 2, 3), ClassicalCrossing(1, 2, 0, 1, 4)],
        "edge 0 consumed twice",
    ),
    "emitted-twice": (
        [ClassicalCrossing(1, 0, 1, 2, 3), ClassicalCrossing(1, 2, 3, 0, 2)],
        "edge 2 emitted twice",
    ),
    "emitted-before-consumed": (
        [ClassicalCrossing(1, 0, 1, 2, 3), ClassicalCrossing(1, 4, 0, 2, 5)],
        "edge 2 emitted twice",
    ),
    "virtual-consumed-twice": (
        [VirtualCrossing(0, 1, 2, 3, 1), VirtualCrossing(1, 0, 2, 4, -1)],
        "edge 2 consumed twice",
    ),
    "dangling": ([ClassicalCrossing(1, 0, 1, 2, 3)], "dangling edge ends"),
    "dangling-virtual": ([VirtualCrossing(0, 1, 1, 2, 1)], "dangling edge ends"),
}


@pytest.mark.parametrize("crossings, message", list(BAD_REWIRINGS.values()), ids=list(BAD_REWIRINGS))
def test_relabel_canonical_rejects_bad_rewiring(crossings, message):
    with pytest.raises(MalformedInput, match=message):
        relabel_canonical(crossings, 0)


# entries that are neither records nor slot tuples a constructor would accept:
# sign 5 used to come back as ClassicalCrossing(sign=5, ...), which the gate
# then passed; tag 7, a 3-item entry and an int crossings raised a bare
# IndexError, ValueError and TypeError; a float label came back as a kink,
# and a str label raised a bare TypeError from sorting the labels
_NO_INT_LABELS = "is not a 6-item slot tuple with int edge labels"
BAD_ENTRIES = {
    "sign-5": (
        [(0, 5, 0, 1, 1, 0)],
        "crossing entry (0, 5, 0, 1, 1, 0) is neither a crossing record nor a slot tuple with tag 0 or 1 "
        "and sign +1 or -1",
    ),
    "tag-7": (
        [(7, 1, 0, 1, 1, 0)],
        "crossing entry (7, 1, 0, 1, 1, 0) is neither a crossing record nor a slot tuple with tag 0 or 1 "
        "and sign +1 or -1",
    ),
    "three-items": ([(0, 1, 2)], f"crossing entry (0, 1, 2) {_NO_INT_LABELS}"),
    # an unhashable out-edge label, which raised a bare TypeError
    "unhashable-label": ([(0, 1, 0, [1], 1, 0)], f"crossing entry (0, 1, 0, [1], 1, 0) {_NO_INT_LABELS}"),
    "float-label": ([(0, 1, 0.5, 1, 1, 0.5)], f"crossing entry (0, 1, 0.5, 1, 1, 0.5) {_NO_INT_LABELS}"),
    "bool-label": ([(0, 1, 0, True, True, 0)], f"crossing entry (0, 1, 0, True, True, 0) {_NO_INT_LABELS}"),
    "str-label": ([(0, 1, 0, "a", "a", 0)], f"crossing entry (0, 1, 0, 'a', 'a', 0) {_NO_INT_LABELS}"),
    "int": (5, "crossings must be a list of crossing records, got 5"),
}


@pytest.mark.parametrize("crossings, message", list(BAD_ENTRIES.values()), ids=list(BAD_ENTRIES))
def test_relabel_canonical_refuses_an_entry_no_constructor_would_accept(crossings, message):
    with pytest.raises(MalformedInput) as err:
        relabel_canonical(crossings, 0)
    assert str(err.value) == message


# a crossings that is no list or tuple: a dict or a set of one readable
# entry used to come back as a one-kink diagram built from its keys, and a
# generator raised a bare TypeError from len()
NO_LIST = {
    "dict": lambda: {(0, 1, 0, 1, 1, 0): 1},
    "set": lambda: {(0, 1, 0, 1, 1, 0)},
    "generator": lambda: (c for c in [(0, 1, 0, 1, 1, 0)]),
}


@pytest.mark.parametrize("make", list(NO_LIST.values()), ids=list(NO_LIST))
def test_relabel_canonical_refuses_crossings_that_are_no_list_or_tuple(make):
    crossings = make()
    with pytest.raises(MalformedInput) as err:
        relabel_canonical(crossings, 0)
    assert str(err.value) == f"crossings must be a list of crossing records, got {crossings!r}"


def _rebuilt_slot_maps(d):
    consumed, emitted = [None] * d.edges, [None] * d.edges
    for ci, c in enumerate(d.crossings):
        for role, e_in, e_out in strand_passages(c):
            consumed[e_in] = (ci, role)
            emitted[e_out] = (ci, role)
    return consumed, emitted


def _public_copy(c):
    if isinstance(c, ClassicalCrossing):
        return ClassicalCrossing(c.sign, c.under_in, c.over_in, c.under_out, c.over_out)
    return VirtualCrossing(c.first_in, c.first_out, c.second_in, c.second_out, c.chirality)


def _outputs(d, seed, moves):
    """Every diagram of a fuzz trace from ``d``, in order."""
    for record in random_equivalent(d, seed, moves)[1]:
        d = apply_move(d, record)
        yield d


def test_move_outputs_have_seeded_slot_maps_and_checked_records():
    outputs = 0
    for name in BUILDER_NAMES:
        for seed in range(5):
            for d in _outputs(builder(name), seed, 200):
                outputs += 1
                assert d.slot_maps == _rebuilt_slot_maps(d)
                # the unchecked records equal (field by field, so no renormalisation)
                # and hash equal the same records built by the public constructors
                public = [_public_copy(c) for c in d.crossings]
                assert [type(c) for c in public] == [type(c) for c in d.crossings]
                assert public == list(d.crossings) and list(map(hash, public)) == list(map(hash, d.crossings))
                assert list(map(repr, public)) == list(map(repr, d.crossings))
                assert relabel_canonical(public, d.free_loops) == d
    assert outputs == 10 * 5 * 200


def test_the_renaming_keeps_the_records_whose_labels_it_keeps():
    knots = 0
    for name in BUILDER_NAMES:
        for seed in range(3):
            for d in _outputs(builder(name), seed, 40):
                # a canonical code renamed again keeps every record object ...
                again = relabel_canonical(list(d.crossings), d.free_loops)
                assert again == d and all(a is c for a, c in zip(again.crossings, d.crossings))
                # ... and its plain slot tuples always come back as records
                plain = relabel_canonical([tuple(c) for c in d.crossings], d.free_loops)
                assert plain == d and [type(c) for c in plain.crossings] == [type(c) for c in d.crossings]
                # a kink on the last edge of a knot's walk renames no other edge, so a
                # move output holds every input record but the one its new slot edits
                cycles = successor_cycles(d)
                if len(cycles) != 1:
                    continue
                knots += 1
                last = cycles[0][-1]
                out = apply_move(d, MoveRecord("r1_insert", {"edge": last, "sign": 1}))
                held = [c for c in d.crossings if any(c is o for o in out.crossings)]
                assert held == [c for c in d.crossings if last not in (c[2], c[4])]
    assert knots > 100


def test_built_in_slot_maps_are_edge_indexed_lists():
    for name in BUILDER_NAMES:
        d = builder(name)
        consumed, emitted = d.slot_maps
        assert type(consumed) is list and type(emitted) is list
        assert (consumed, emitted) == _rebuilt_slot_maps(d)


# Codes built with the record constructors or from plain tuples that carry a
# tag and a sign no constructor makes, and counts out of range; the diagram
# constructor refuses each at its first fault, the counts first, then in
# passage order.  No reader of a diagram (a coloring search, an invariant,
# a move, a finder, the fuzzer, serialize_diagram) can be handed one.
KINK_RECORDS = (ClassicalCrossing(1, 0, 1, 1, 0),)
NO_INT = "edge and free-loop counts must be integers"
NEGATIVE = "edge and free-loop counts must be non-negative"
INCONSISTENT_CODES = {
    "label-out-of-range": (
        (2, 0, (ClassicalCrossing(1, 0, 5, 1, 6),)),
        "crossings[0]: edge label 5 out of range 0..1",
    ),
    "negative-label": (
        (2, 0, (ClassicalCrossing(1, 0, -1, 1, 0),)),
        "crossings[0]: edge label -1 out of range 0..1",
    ),
    "slot-used-twice": (
        (4, 0, (ClassicalCrossing(1, 0, 1, 2, 3), ClassicalCrossing(1, 0, 2, 1, 0))),
        "crossings[1]: edge 0 used more than once as an in-slot",
    ),
    "slot-used-twice-in-one-crossing": (
        (2, 0, (ClassicalCrossing(1, 0, 0, 1, 1),)),
        "crossings[0]: edge 0 used more than once as an in-slot",
    ),
    "dangling-third-edge": ((3, 0, KINK_RECORDS), "edge 2 is never consumed (dangling out end)"),
    "no-in-slot": (
        (4, 0, (ClassicalCrossing(1, 0, 1, 1, 0),)),
        "edge 2 is never consumed (dangling out end)",
    ),
    "no-out-slot": (
        (3, 0, (ClassicalCrossing(1, 0, 1, 2, 0),)),
        "edge 1 is never emitted (dangling in end)",
    ),
    # trefoil's code with sign 5 read as classical by its tag
    "plain-tuples": (
        (6, 0, tuple((0, 5) + tuple(c)[2:] for c in builder("trefoil").crossings)),
        "crossings[0]: (0, 5, 3, 1, 0, 4) is not a crossing record",
    ),
    "plain-tuples-tag-7": (
        (6, 0, tuple((7, 5) + tuple(c)[2:] for c in builder("trefoil").crossings)),
        "crossings[0]: (7, 5, 3, 1, 0, 4) is not a crossing record",
    ),
    # crossings that are no tuple: None and 5 used to raise a bare TypeError,
    # and a list of valid records validated, though the diagram cannot be hashed
    "crossings-none": ((2, 0, None), "crossings must be a tuple of crossing records, got None"),
    "crossings-int": ((2, 0, 5), "crossings must be a tuple of crossing records, got 5"),
    "crossings-list": (
        (2, 0, [ClassicalCrossing(1, 0, 1, 1, 0)]),
        "crossings must be a tuple of crossing records, got "
        "[ClassicalCrossing(sign=1, under_in=0, over_in=1, under_out=1, over_out=0)]",
    ),
    # the counts are checked first, whatever the records
    **{f"edge-count-{edges!r}": ((edges, 0, KINK_RECORDS), NO_INT) for edges in (2.5, 2.0, "2", None, True)},
    "virtual-kink-edge-count-2.5": ((2.5, 0, (VirtualCrossing(0, 1, 1, 0, 1),)), NO_INT),
    **{f"free-loops-{x!r}": ((2, x, KINK_RECORDS), NO_INT) for x in (0.5, 2.5, True)},
    **{f"counts-{e}-{x}": ((e, x, ()), NEGATIVE) for e, x in ((-1, 0), (0, -1), (-2, -2), (0, -3))},
    **{f"free-loops-{x}": ((2, x, KINK_RECORDS), f"free_loops {x} exceeds the maximum 1024") for x in (2000, 5000)},
}


@pytest.mark.parametrize("fields, message", list(INCONSISTENT_CODES.values()), ids=list(INCONSISTENT_CODES))
def test_the_constructor_refuses_an_inconsistent_code(fields, message):
    with pytest.raises(MalformedInput) as err:
        VirtualDiagram(*fields)
    assert str(err.value) == message


def _forged(edges, free_loops, crossings) -> VirtualDiagram:
    """A diagram object that holds the given fields and no slot maps, made
    past both doors, as only a caller of the private ``_store`` can."""
    return _store(object.__new__(VirtualDiagram), edges, free_loops, crossings, None)


# pickle and copy make a diagram from its fields with the constructor
_REMADE = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda d: pickle.loads(pickle.dumps(d)),
}


@pytest.mark.parametrize("remake", _REMADE)
@pytest.mark.parametrize("fields, message", list(INCONSISTENT_CODES.values()), ids=list(INCONSISTENT_CODES))
def test_a_copy_or_pickle_of_an_inconsistent_code_is_refused_with_the_constructors_message(fields, message, remake):
    with pytest.raises(MalformedInput) as err:
        _REMADE[remake](_forged(*fields))
    assert str(err.value) == message


@pytest.mark.parametrize("fields, message", list(INCONSISTENT_CODES.values()), ids=list(INCONSISTENT_CODES))
def test_validate_diagram_reports_an_inconsistent_code_with_the_constructors_message(fields, message):
    assert validate_diagram(_forged(*fields)) == DiagramReport(False, message)


# the codes that a JSON document can state: a tuple of records, the counts any
# JSON value
_JSON_CODES = {
    name: (fields, message)
    for name, (fields, message) in INCONSISTENT_CODES.items()
    if type(fields[2]) is tuple and all(type(c) in _RECORD_CLASSES for c in fields[2])
}


@pytest.mark.parametrize("fields, message", list(_JSON_CODES.values()), ids=list(_JSON_CODES))
def test_parse_diagram_refuses_an_inconsistent_code_with_the_constructors_message(fields, message):
    edges, free_loops, crossings = fields
    records = [{"type": c.TYPE, **{name: getattr(c, name) for name in c.FIELDS}} for c in crossings]
    text = json.dumps({"edges": edges, "free_loops": free_loops, "crossings": records})
    with pytest.raises(MalformedInput) as err:
        parse_diagram(text)
    assert str(err.value) == f"invalid diagram: {message}"


# Move outputs: the final diagram of a short trace per corpus name and seed.
_TRACED = [
    (f"{name}-{seed}", random_equivalent(builder(name), seed, 60)[0])
    for name in BUILDER_NAMES
    for seed in range(3)
]


def _with_arcs(d: VirtualDiagram) -> VirtualDiagram:
    """A fresh copy of d that carries its arc skeleton in its ``__dict__``."""
    d = copy.copy(d)
    arc_skeleton(d)
    return d


_COPIED = [*_TRACED, ("kishino-with-arcs", _with_arcs(random_equivalent(builder("kishino"), 0, 60)[0]))]


@pytest.mark.parametrize("name, d", _COPIED, ids=[name for name, _ in _COPIED])
def test_records_are_their_own_sort_keys(name, d):
    assert list(d.crossings) == sorted(d.crossings)
    for c in d.crossings:
        args = [getattr(c, field) for field in c.FIELDS]
        assert type(c)(*args) == type(c)(**dict(zip(c.FIELDS, args))) == c
        assert repr(c) == f"{type(c).__name__}({', '.join(f'{k}={v}' for k, v in zip(c.FIELDS, args))})"
        assert eval(repr(c)) == c
    for copied in (pickle.loads(pickle.dumps(d)), copy.deepcopy(d), copy.copy(d)):
        assert copied == d and hash(copied) == hash(d)
        assert [type(c) for c in copied.crossings] == [type(c) for c in d.crossings]
        # the derived tables stay behind, and a copy rebuilds them on demand
        assert "arc_skeleton" not in vars(copied)
        assert arc_skeleton(copied) == arc_skeleton(d)


def test_record_tuples_and_repr():
    c = ClassicalCrossing(sign=-1, under_in=2, over_in=3, under_out=4, over_out=5)
    assert c == (0, -1, 2, 4, 3, 5)  # passage k at indices 2 + 2k, 3 + 2k, as in a virtual record
    assert repr(c) == "ClassicalCrossing(sign=-1, under_in=2, over_in=3, under_out=4, over_out=5)"
    v = VirtualCrossing(5, 0, 2, 3, 1)  # normalised: strands swapped, chirality negated
    assert v == (1, -1, 2, 3, 5, 0)
    assert repr(v) == "VirtualCrossing(first_in=2, first_out=3, second_in=5, second_out=0, chirality=-1)"
    # the same five integers in a classical and a virtual record
    assert ClassicalCrossing(1, 0, 1, 2, 3) != VirtualCrossing(0, 1, 2, 3, 1)
    assert ClassicalCrossing(1, 0, 1, 2, 3) < VirtualCrossing(0, 1, 2, 3, 1)
    for record in (c, v):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            # every protocol calls the constructor with the fields, never the raw tuple
            assert record.__reduce_ex__(protocol)[0] is type(record)
            copied = pickle.loads(pickle.dumps(record, protocol))
            assert type(copied) is type(record) and copied == record
        assert not hasattr(record, "__dict__")
        with pytest.raises(AttributeError):
            record.sign = 1


def test_free_loops_are_bounded():
    assert validate_diagram(VirtualDiagram(0, MAX_FREE_LOOPS, ())).ok
    with pytest.raises(MalformedInput, match=f"exceeds the maximum {MAX_FREE_LOOPS}"):
        VirtualDiagram(0, MAX_FREE_LOOPS + 1, ())
    with pytest.raises(MalformedInput, match="exceeds the maximum"):
        parse_diagram('{"edges":0,"free_loops":10000,"crossings":[]}')


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


def test_isomorphic_search_tells_apart_diagrams_with_equal_signatures():
    # two positive kinks on one circle, one after the other (Gauss word
    # U0 O0 U1 O1) or the second inside the first's loop (U0 U1 O1 O0): the
    # same component signature, so only the search can refuse the pair
    from vknots.diagram import _component_signatures
    from vknots.moves import LOOP, r1_insert

    ring = VirtualDiagram(0, 1, ())
    after = r1_insert(r1_insert(ring, LOOP, 1, "over"), 1, 1, "under")
    inside = r1_insert(r1_insert(ring, LOOP, 1, "under"), 1, 1, "under")
    signature = lambda d: _component_signatures(d, successor_cycles(d))
    assert signature(after) == signature(inside)
    assert not isomorphic(after, inside) and not isomorphic(inside, after)
    assert isomorphic(after, after) and isomorphic(inside, inside)


def test_isomorphic_matches_many_components_without_recursion():
    # 1,200 disjoint virtual kinks; matching them used one stack frame per component
    n = 1200
    kinks = VirtualDiagram(2 * n, 0, tuple(VirtualCrossing(2 * k, 2 * k + 1, 2 * k + 1, 2 * k, 1) for k in range(n)))
    interleaved = VirtualDiagram(2 * n, 0, tuple(VirtualCrossing(k, n + k, n + k, k, 1) for k in range(n)))
    assert validate_diagram(kinks).ok and validate_diagram(interleaved).ok
    assert kinks != interleaved
    assert isomorphic(kinks, kinks)
    assert isomorphic(kinks, interleaved)
    assert not isomorphic(kinks, VirtualDiagram(2 * n, 1, kinks.crossings))


def test_isomorphic_prunes_each_component_as_it_is_matched():
    # 12 disjoint virtual kinks against the same kinks with the first one stored
    # at the other chirality: only the second rotation of the first kink maps
    # its crossing into b, and trying every matching of the other 11 kinks
    # under the first rotation would take hours
    import time

    n = 12
    kinks = VirtualDiagram(2 * n, 0, tuple(VirtualCrossing(2 * k, 2 * k + 1, 2 * k + 1, 2 * k, 1) for k in range(n)))
    flipped = VirtualDiagram(2 * n, 0, (VirtualCrossing(0, 1, 1, 0, -1),) + kinks.crossings[1:])
    # two circles crossing each other twice in place of the first two kinks:
    # the same counts of edges, crossings and components of each length
    linked = VirtualDiagram(
        2 * n, 0, (VirtualCrossing(0, 1, 2, 3, 1), VirtualCrossing(1, 0, 3, 2, 1)) + kinks.crossings[2:]
    )
    assert validate_diagram(flipped).ok and validate_diagram(linked).ok
    start = time.perf_counter()
    assert isomorphic(flipped, kinks)
    assert isomorphic(kinks, flipped)
    assert not isomorphic(linked, kinks)
    assert time.perf_counter() - start < 1.0


def test_isomorphic_refuses_a_component_mismatch_without_a_search():
    # 12 disjoint virtual kinks against the same kinks with two of them
    # replaced by two circles crossing each other twice: the same counts of
    # edges, crossings and components of each length, so with the kinks as
    # the first argument the match used to try the interchangeable kinks in
    # every order (29 ms at n = 8, factorial in n); the components' passages
    # differ, which refuses the pair at once
    import time

    n = 12
    kinks = VirtualDiagram(2 * n, 0, tuple(VirtualCrossing(2 * k, 2 * k + 1, 2 * k + 1, 2 * k, 1) for k in range(n)))
    linked = VirtualDiagram(
        2 * n, 0, (VirtualCrossing(0, 1, 2, 3, 1), VirtualCrossing(1, 0, 3, 2, 1)) + kinks.crossings[2:]
    )
    for a, b in ((kinks, linked), (linked, kinks)):
        start = time.perf_counter()
        assert not isomorphic(a, b)
        assert time.perf_counter() - start < 0.05


def test_isomorphic_accepts_every_relabelling_of_move_outputs():
    import random

    for name in BUILDER_NAMES:
        for seed in range(3):
            d = random_equivalent(builder(name), seed, 60)[0]
            labels = list(range(d.edges))
            random.Random(seed).shuffle(labels)
            relabel = lambda c, f: getattr(c, f) if f in ("sign", "chirality") else labels[getattr(c, f)]
            relabelled = VirtualDiagram(
                d.edges, d.free_loops, tuple(type(c)(*[relabel(c, f) for f in c.FIELDS]) for c in d.crossings)
            )
            assert validate_diagram(relabelled).ok
            assert isomorphic(d, relabelled) and isomorphic(relabelled, d), (name, seed)


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
