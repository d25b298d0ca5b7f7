"""The library boundary: every public name refuses what it must, with a typed error.

``WALK`` holds, for every callable of ``vknots.__all__`` (and for
``preservation_witness``, which the CLI calls) and for every public method
of an exported class (``__call__`` included, keyed ``Class.method`` and
walked as a plain function whose ``self`` is a parameter), one valid call
and, for each parameter, a Hypothesis strategy of values that the call
must refuse: junk of other kinds for a plain parameter (an int, a bool, a
list), and for a value parameter a value of the right class that this call
cannot take (a table that fails a quandle axiom where a coloring needs a
quandle, a map of the wrong length, a virtual diagram where Z needs a
classical one).  A diagram's parameter is answered: the constructor checks
every diagram, so none of the right class is malformed.  An object of the
wrong class where a value is due is out of scope, except where a
constructor checks it (a cocycle's quandle, a coefficient group).  The
strategies draw small values only, never a valid large int, so no call
runs long.

The walk puts each drawn value into the valid call, one parameter at a
time, and the call must raise an error of ``vknots.errors``; any other
exception fails the test with its traceback.  A parameter whose every value
of its class is answered is ``ANSWERED``; the constants, the unchecked
result type ``InvariantResult`` and ``MoveRecord``, whose site ``apply_move``
checks, are in ``NOT_WALKED`` with their methods; and a public name or
method in neither place fails ``test_the_walk_covers_every_public_name``.

``KNOWN`` is the one list of arguments that once escaped as a bare error or
were answered, each an explicit example of the walk with the error it
raises now.
"""

import inspect
import re
from itertools import permutations, product
from types import FunctionType

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import vknots
from vknots import errors
from vknots.algebra import (
    FiniteQuandle,
    QuandleMap,
    automorphisms,
    inner_automorphism,
    is_automorphism,
    make_dihedral,
    validate_quandle,
)
from vknots.diagram import ClassicalCrossing, VirtualCrossing, VirtualDiagram, builder, validate_diagram
from vknots.errors import InvalidParameter, MalformedInput
from vknots.moves import (
    ALL_KINDS,
    CLASSICAL_KINDS,
    MoveRecord,
    find_r1_sites,
    find_r2_sites,
    find_r3_sites,
    find_vkink_sites,
    r2_insert,
    random_equivalent,
)
from vknots.solver import verify_coloring
from vknots.weights import (
    CoefficientGroup,
    Cochain1,
    Cocycle2,
    coboundary,
    cocycle_product,
    cocycle_space_basis,
    example_cocycle_r4,
    is_cohomologous,
    preservation_witness,
    preserves,
    trivial_cocycle,
    validate_cocycle,
)

TYPED = tuple(
    v
    for v in vars(errors).values()
    if isinstance(v, type) and issubclass(v, Exception) and v.__module__ == errors.__name__
)

R2, R3, R4, R5 = (make_dihedral(n) for n in (2, 3, 4, 5))
Z, Z2 = CoefficientGroup(0), CoefficientGroup(2)
PHI = example_cocycle_r4()
ID4, INNER0, SHIFT4 = QuandleMap.identity(4), inner_automorphism(R4, 0), QuandleMap((1, 2, 3, 0))
TREFOIL, VT = builder("trefoil"), builder("virtual_trefoil")
KINK, VKINK = builder("unknot_kink_pos"), builder("unknot_vkink")
POKED = r2_insert(TREFOIL, 0, 1)
R3_SITE_DIAGRAM = random_equivalent(TREFOIL, 0, 12, kinds=CLASSICAL_KINDS)[0]
# a table that the algebra answers on and the coloring layer refuses: axioms 1 and 3 hold,
# axiom 2 fails (column 0 is 0, 0, 2)
NOT_A_QUANDLE = FiniteQuandle(((0, 0, 0), (0, 1, 1), (2, 2, 2)))

ANSWERED = None  # every value of the parameter's class is answered

# ---------------------------------------------------------------------------
# refused values, by kind

NOT_INT = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(),
    st.text(max_size=3),
    st.binary(max_size=2),
    st.lists(st.integers(0, 3), max_size=2),
    st.tuples(st.integers(0, 3)),
    st.dictionaries(st.integers(0, 2), st.integers(0, 2), max_size=1),
)
NOT_BOOL = st.one_of(
    st.none(), st.integers(-2, 2), st.floats(), st.text(max_size=3), st.lists(st.booleans(), max_size=1)
)
# no list and no tuple: what a parameter that takes a list or tuple refuses
NOT_SEQUENCE = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 5),
    st.floats(),
    st.text(max_size=3),
    st.dictionaries(st.integers(0, 2), st.integers(0, 2), max_size=2),
    st.frozensets(st.integers(0, 3), max_size=2),
    st.just(range(2)),
)


def outside(lo, hi):
    """Ints just outside lo..hi."""
    return st.integers(lo - 3, lo - 1) | st.integers(hi + 1, hi + 3)


def bad_unit():
    """Anything but the int +1 or -1, as a sign or chirality."""
    return NOT_INT | st.integers(-3, 3).filter(lambda x: x not in (1, -1))


def bad_edge(d):
    return NOT_INT | outside(0, d.edges - 1)


def square_tables(sizes):
    return st.sampled_from(sizes).flatmap(
        lambda n: st.lists(st.lists(st.integers(0, n - 1), min_size=n, max_size=n), min_size=n, max_size=n)
    )


def maps(lengths):
    return st.sampled_from(lengths).flatmap(
        lambda k: st.lists(st.integers(0, k - 1), min_size=k, max_size=k)
    ).map(QuandleMap)


def _is_table(t) -> bool:
    """The shape FiniteQuandle takes: a non-empty square list or tuple of rows of ints in 0..n-1."""
    return (
        isinstance(t, (list, tuple))
        and len(t) > 0
        and all(isinstance(row, (list, tuple)) and len(row) == len(t) for row in t)
        and all(type(x) is int and 0 <= x < len(t) for row in t for x in row)
    )


def _is_self_map(images) -> bool:
    return isinstance(images, (list, tuple)) and all(type(x) is int and 0 <= x < len(images) for x in images)


BAD_TABLES = NOT_SEQUENCE | st.lists(
    st.lists(st.integers(-1, 3) | NOT_INT, max_size=3) | NOT_SEQUENCE, max_size=3
).filter(lambda t: not _is_table(t))
BAD_IMAGES = NOT_SEQUENCE | st.lists(st.integers(-2, 4) | NOT_INT, min_size=1, max_size=4).filter(
    lambda m: not _is_self_map(m)
)
NON_QUANDLES = st.sampled_from([NOT_A_QUANDLE]) | square_tables([2, 3]).map(FiniteQuandle).filter(
    lambda q: not validate_quandle(q)
)
# a table the coloring layer refuses under a map of order 4: no quandle, or a quandle of another order
COLORING_Q = NON_QUANDLES | st.sampled_from([R3, R5])
WRONG_LENGTH_MAPS = maps([1, 2, 3, 5, 6])
NON_AUTOMORPHISMS = WRONG_LENGTH_MAPS | maps([4]).filter(lambda m: not is_automorphism(R4, m))
NON_PERMUTATIONS = maps([2, 3, 4]).filter(lambda m: not m.is_permutation())
# a cocycle the invariants refuse over R4: one that fails a condition, or one on another table
OTHER_TABLE_COCYCLES = st.sampled_from([trivial_cocycle(R3), trivial_cocycle(R5), trivial_cocycle(NOT_A_QUANDLE)])
INVARIANT_C = OTHER_TABLE_COCYCLES | square_tables([4]).map(lambda e: Cocycle2(R4, Z, e)).filter(
    lambda c: not validate_cocycle(c)
)
# a cocycle on another quandle or over another group than example-r4's
OTHER_SPACE = st.sampled_from(
    [trivial_cocycle(R3), trivial_cocycle(R4, Z2), Cocycle2(R4, CoefficientGroup(5), PHI.exponents)]
)
NOT_A_GROUP = NOT_INT | st.integers(-1, 3)

RECORDS = st.one_of(
    st.builds(ClassicalCrossing, st.sampled_from((1, -1)), *[st.integers(-1, 4)] * 4),
    st.builds(VirtualCrossing, *[st.integers(-1, 4)] * 4, st.sampled_from((1, -1))),
    st.tuples(st.integers(0, 2), st.sampled_from((1, -1, 5)), *[st.integers(0, 3)] * 4),  # no record
)


def _refused(edges, free_loops, crossings) -> bool:
    """Whether the diagram constructor refuses these fields."""
    try:
        VirtualDiagram(edges, free_loops, crossings)
    except MalformedInput:
        return True
    return False


# a diagram that Z refuses: a virtual one
Z_DIAGRAMS = st.sampled_from([VT, VKINK, builder("kishino")])
BAD_COLORINGS = NOT_SEQUENCE | st.lists(st.integers(-2, 5) | NOT_INT, max_size=8).filter(
    lambda c: len(c) != 6 or not all(type(x) is int and 0 <= x < 4 for x in c)
)
SITE_KEYS = st.sampled_from(["edge", "loop", "sign", "chirality", "handed", "bridges", "start", "x"])
BAD_RECORDS = st.one_of(
    st.builds(MoveRecord, st.text(max_size=3) | NOT_INT, st.just({})),
    st.builds(MoveRecord, st.sampled_from(ALL_KINDS), NOT_SEQUENCE),
    st.builds(MoveRecord, st.sampled_from(ALL_KINDS), st.dictionaries(SITE_KEYS, NOT_INT, max_size=3)),
)
# what from_pairs refuses: no pair of ints, or multiplicities that sum to no positive int
BAD_PAIRS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 2),
    st.floats(),
    st.lists(
        st.one_of(
            st.none(),
            st.integers(-2, 2),
            st.floats(),
            st.text(max_size=3),
            st.tuples(NOT_INT, st.integers(1, 2)),
            st.tuples(st.integers(-2, 2), NOT_INT | st.integers(-2, 0)),
            st.lists(st.integers(0, 2), min_size=3, max_size=3),
        ),
        min_size=1,
        max_size=2,
    ),
)
BAD_PASSAGES = NOT_SEQUENCE | st.lists(
    st.one_of(
        NOT_SEQUENCE,
        st.tuples(NOT_INT | outside(0, 5), st.sampled_from((1, -1))),
        st.tuples(st.integers(0, 5), bad_unit()),
        st.lists(st.integers(0, 5), min_size=3, max_size=3),
    ),
    min_size=1,
    max_size=2,
)
BAD_TERMS = NOT_SEQUENCE | st.lists(
    st.one_of(
        NOT_SEQUENCE,
        st.tuples(st.integers(-2, 2)),
        st.tuples(st.integers(-2, 2), st.integers(1, 2), st.integers(1, 2)),
        st.tuples(NOT_INT, st.integers(1, 2)),
        st.tuples(st.integers(-2, 2), NOT_INT | st.integers(-2, 0)),
    ),
    min_size=1,
    max_size=3,
) | st.lists(st.tuples(st.integers(-2, 2), st.integers(1, 2)), min_size=2, max_size=3).filter(
    lambda ts: any(a[0] >= b[0] for a, b in zip(ts, ts[1:]))
)

# ---------------------------------------------------------------------------
# the walk: name -> (callable, its valid call, the refused values of each parameter)


def case(target, base, call=None, **refusals):
    return target, base, call or target, refusals


_D_Q_F = {"d": ANSWERED, "q": COLORING_Q, "f": NON_AUTOMORPHISMS}
_D_Q_C = {"d": ANSWERED, "q": COLORING_Q, "c": INVARIANT_C}

WALK = {
    # algebra
    "FiniteQuandle": case(FiniteQuandle, {"table": R3.table}, table=BAD_TABLES),
    "QuandleMap": case(QuandleMap, {"images": (1, 0)}, images=BAD_IMAGES),
    "automorphisms": case(
        automorphisms,
        {"q": R4, "bound": 8},
        q=st.sampled_from([make_dihedral(9), FiniteQuandle(tuple((x,) * 9 for x in range(9)))]),
        bound=NOT_INT | st.integers(-3, 3),
    ),
    "inner_automorphism": case(inner_automorphism, {"q": R4, "a": 0}, q=ANSWERED, a=NOT_INT | outside(0, 3)),
    "is_automorphism": case(
        is_automorphism, {"q": R4, "m": ID4}, q=st.sampled_from([R3, R5, NOT_A_QUANDLE]), m=WRONG_LENGTH_MAPS
    ),
    "make_dihedral": case(make_dihedral, {"n": 4}, n=NOT_INT | st.integers(-3, 0) | st.integers(1025, 1027)),
    "make_from_table": case(vknots.make_from_table, {"table": R3.table}, table=BAD_TABLES),
    "map_order": case(vknots.map_order, {"m": ID4}, m=NON_PERMUTATIONS),
    "validate_quandle": case(validate_quandle, {"q": NOT_A_QUANDLE}, q=ANSWERED),
    # diagram
    "ClassicalCrossing": case(
        ClassicalCrossing,
        {"sign": 1, "under_in": 0, "over_in": 1, "under_out": 1, "over_out": 0},
        sign=bad_unit(),
        **dict.fromkeys(("under_in", "over_in", "under_out", "over_out"), NOT_INT),
    ),
    "VirtualCrossing": case(
        VirtualCrossing,
        {"first_in": 0, "first_out": 1, "second_in": 1, "second_out": 0, "chirality": 1},
        chirality=bad_unit(),
        **dict.fromkeys(("first_in", "first_out", "second_in", "second_out"), NOT_INT),
    ),
    "VirtualDiagram": case(
        VirtualDiagram,
        {"edges": 2, "free_loops": 0, "crossings": KINK.crossings},
        edges=NOT_INT | st.integers(-3, 1) | st.integers(3, 6),
        free_loops=NOT_INT | st.integers(-3, -1) | st.integers(1025, 1027),
        crossings=NOT_SEQUENCE
        | st.lists(RECORDS, max_size=2)
        | st.lists(RECORDS, min_size=1, max_size=2)
        .map(tuple)
        .filter(lambda cs: _refused(2, 0, cs)),
    ),
    "builder": case(builder, {"name": "trefoil"}, name=NOT_INT | st.integers(-2, 2)),
    "component_count": case(vknots.component_count, {"d": TREFOIL}, d=ANSWERED),
    "isomorphic": case(vknots.isomorphic, {"a": TREFOIL, "b": TREFOIL}, a=ANSWERED, b=ANSWERED),
    "parse_diagram": case(
        vknots.parse_diagram,
        {"text": vknots.serialize_diagram(TREFOIL)},
        text=st.text(max_size=20) | NOT_INT.filter(lambda x: not isinstance(x, (str, bytes))),
    ),
    "serialize_diagram": case(vknots.serialize_diagram, {"d": TREFOIL}, d=ANSWERED),
    "validate_diagram": case(validate_diagram, {"d": TREFOIL}, d=ANSWERED),
    # invariants
    "aut_sum_z3": case(vknots.aut_sum_z3, {"d": VT, "q": R4, "c": PHI}, **_D_Q_C),
    "coloring_weight": case(
        vknots.coloring_weight,
        {"d": TREFOIL, "c": PHI, "coloring": (0,) * 6},
        d=ANSWERED,
        c=NON_QUANDLES.map(trivial_cocycle),
        coloring=BAD_COLORINGS | st.lists(st.integers(0, 3), min_size=6, max_size=6).filter(
            lambda c: not verify_coloring(TREFOIL, R4, ID4, c)
        ),
    ),
    "state_sum_classical": case(
        vknots.state_sum_classical, {"d": TREFOIL, "q": R4, "c": PHI}, **{**_D_Q_C, "d": Z_DIAGRAMS}
    ),
    "state_sum_z2": case(
        vknots.state_sum_z2,
        {"d": VT, "q": R4, "c": PHI, "f": INNER0},
        **_D_Q_C,
        f=NON_AUTOMORPHISMS | st.just(SHIFT4),  # SHIFT4 is an automorphism that does not preserve example-r4
    ),
    "state_weight_z1": case(
        vknots.state_weight_z1, {"d": VT, "q": R4, "c": PHI, "f": ID4}, **_D_Q_C, f=NON_AUTOMORPHISMS
    ),
    # moves
    "apply_move": case(
        vknots.apply_move,
        {"d": TREFOIL, "record": MoveRecord("r1_insert", {"edge": 0, "sign": 1})},
        d=ANSWERED,
        record=BAD_RECORDS,
    ),
    "detour": case(
        vknots.detour,
        {"d": VT, "start": 2, "end": 3, "passages": []},
        d=ANSWERED,
        start=bad_edge(VT),
        end=bad_edge(VT),
        passages=BAD_PASSAGES,
    ),
    "r1_insert": case(
        vknots.r1_insert,
        {"d": TREFOIL, "edge": 0, "sign": 1, "handed": "under"},
        d=ANSWERED,
        edge=bad_edge(TREFOIL),  # None and "loop" ask for a free loop, which the trefoil has not
        sign=bad_unit(),
        handed=NOT_INT.filter(lambda h: h not in ("under", "over")),
    ),
    "r1_remove": case(
        vknots.r1_remove, {"d": KINK, "loop": find_r1_sites(KINK)[0]}, d=ANSWERED, loop=bad_edge(KINK)
    ),
    "r2_insert": case(
        vknots.r2_insert,
        {"d": TREFOIL, "edge_a": 0, "edge_b": 1, "over_first": True},
        d=ANSWERED,
        edge_a=bad_edge(TREFOIL),
        edge_b=bad_edge(TREFOIL),
        over_first=NOT_BOOL,
    ),
    "r2_remove": case(
        vknots.r2_remove, {"d": POKED, "over_mid": find_r2_sites(POKED)[0]}, d=ANSWERED, over_mid=bad_edge(POKED)
    ),
    "r3_slide": case(
        vknots.r3_slide,
        {"d": R3_SITE_DIAGRAM, "bridges": find_r3_sites(R3_SITE_DIAGRAM)[0]},
        d=ANSWERED,
        bridges=NOT_SEQUENCE
        | st.lists(bad_edge(R3_SITE_DIAGRAM), min_size=1, max_size=3)
        | st.lists(st.integers(0, R3_SITE_DIAGRAM.edges - 1), max_size=4).filter(
            lambda b: tuple(sorted(b)) not in find_r3_sites(R3_SITE_DIAGRAM)
        ),
    ),
    "random_equivalent": case(
        vknots.random_equivalent,
        {"d": TREFOIL, "seed": 0, "n_moves": 1},
        d=ANSWERED,
        seed=NOT_INT,
        n_moves=NOT_INT | st.integers(-5, -1),
        allow_semi_virtual=NOT_BOOL,
        kinds=NOT_SEQUENCE.filter(lambda k: k is not None)
        | st.lists(st.text(max_size=3) | NOT_INT, min_size=1, max_size=2),  # no name of a move kind
        soft_cap=NOT_INT.filter(lambda s: s is not None),
    ),
    "vkink_insert": case(
        vknots.vkink_insert,
        {"d": TREFOIL, "edge": 0, "chirality": 1},
        d=ANSWERED,
        edge=bad_edge(TREFOIL),
        chirality=bad_unit(),
    ),
    "vkink_remove": case(
        vknots.vkink_remove, {"d": VKINK, "loop": find_vkink_sites(VKINK)[0]}, d=ANSWERED, loop=bad_edge(VKINK)
    ),
    # solver
    "brute_force_colorings": case(
        vknots.brute_force_colorings,
        {"d": TREFOIL, "q": R4, "f": ID4, "ceiling": 64},  # the trefoil has 3 arcs: 4^3 = 64 assignments
        **_D_Q_F,
        ceiling=NOT_INT | st.integers(-3, 63),
    ),
    "count_colorings": case(vknots.count_colorings, {"d": TREFOIL, "q": R4, "f": ID4}, **_D_Q_F),
    "enumerate_colorings": case(vknots.enumerate_colorings, {"d": TREFOIL, "q": R4, "f": ID4}, **_D_Q_F),
    "verify_coloring": case(
        verify_coloring, {"d": TREFOIL, "q": R4, "f": ID4, "coloring": (0,) * 6}, **_D_Q_F, coloring=BAD_COLORINGS
    ),
    # weights
    "CoefficientGroup": case(CoefficientGroup, {"modulus": 3}, modulus=NOT_INT | st.integers(-3, -1)),
    "Cochain1": case(
        Cochain1,
        {"group": Z, "exponents": (0, 1)},
        group=NOT_A_GROUP,
        exponents=NOT_SEQUENCE | st.lists(NOT_INT, min_size=1, max_size=2),
    ),
    "Cocycle2": case(
        Cocycle2,
        {"quandle": R2, "group": Z, "exponents": ((0, 0), (0, 0))},
        quandle=NOT_A_GROUP | st.sampled_from([R3, Z, ID4]),
        group=NOT_A_GROUP,
        exponents=NOT_SEQUENCE
        | st.lists(st.lists(st.integers(0, 1), max_size=3), max_size=3).filter(
            lambda e: len(e) != 2 or any(len(row) != 2 for row in e)
        )
        | st.lists(st.lists(NOT_INT, min_size=2, max_size=2), min_size=2, max_size=2),
    ),
    "Weight": case(vknots.Weight, {"group": Z, "exponent": 1}, group=NOT_A_GROUP, exponent=NOT_INT),
    "WeightPolynomial": case(vknots.WeightPolynomial, {"terms": ((0, 1),)}, terms=BAD_TERMS),
    "coboundary": case(
        coboundary,
        {"q": R4, "group": Z, "psi": Cochain1(Z, (0, 0, 0, 0))},
        q=st.sampled_from([R2, R3, NOT_A_QUANDLE]),
        group=NOT_A_GROUP | st.sampled_from([Z2, CoefficientGroup(5)]),
        psi=st.sampled_from([Cochain1(Z, (0, 0)), Cochain1(Z2, (0, 0, 0, 0))]),
    ),
    "cocycle_product": case(cocycle_product, {"c1": PHI, "c2": PHI}, c1=OTHER_SPACE, c2=OTHER_SPACE),
    "cocycle_space_basis": case(
        cocycle_space_basis,
        {"q": R3, "m": 2},
        q=st.sampled_from([make_dihedral(13)]),
        m=NOT_INT | st.integers(-3, 1),
    ),
    "example_cocycle_r4": case(example_cocycle_r4, {}),
    "is_cohomologous": case(is_cohomologous, {"c1": PHI, "c2": PHI}, c1=OTHER_SPACE, c2=OTHER_SPACE),
    "preserves": case(
        preserves,
        {"f": INNER0, "c": PHI},
        f=NON_AUTOMORPHISMS,
        c=st.sampled_from([trivial_cocycle(R3), trivial_cocycle(R5), trivial_cocycle(NOT_A_QUANDLE)]),
    ),
    "trivial_cocycle": case(trivial_cocycle, {"q": R3, "group": Z}, q=ANSWERED, group=NOT_A_GROUP),
    "validate_cocycle": case(validate_cocycle, {"c": PHI}, c=ANSWERED),
    # public methods of the exported classes
    "CoefficientGroup.reduce": case(
        CoefficientGroup.reduce, {"self": CoefficientGroup(3), "exponent": 5}, self=ANSWERED, exponent=NOT_INT
    ),
    "QuandleMap.__call__": case(
        QuandleMap.__call__, {"self": QuandleMap((0, 1)), "a": 1}, self=ANSWERED, a=NOT_INT | outside(0, 1)
    ),
    "QuandleMap.compose": case(
        QuandleMap.compose, {"self": ID4, "other": SHIFT4}, self=ANSWERED, other=WRONG_LENGTH_MAPS
    ),
    "QuandleMap.identity": case(QuandleMap.identity, {"n": 4}, n=NOT_INT | st.integers(-3, -1)),
    "QuandleMap.inverse": case(QuandleMap.inverse, {"self": SHIFT4}, self=NON_PERMUTATIONS),
    "QuandleMap.is_permutation": case(QuandleMap.is_permutation, {"self": ID4}, self=ANSWERED),
    "VirtualDiagram.classical": case(VirtualDiagram.classical, {"self": VT}, self=ANSWERED),
    "VirtualDiagram.virtual": case(VirtualDiagram.virtual, {"self": VT}, self=ANSWERED),
    "WeightPolynomial.evaluate_at_one": case(
        vknots.WeightPolynomial.evaluate_at_one, {"self": vknots.WeightPolynomial(((0, 2),))}, self=ANSWERED
    ),
    "WeightPolynomial.from_pairs": case(
        vknots.WeightPolynomial.from_pairs, {"pairs": [(1, 2), (0, 1), (1, 1)]}, pairs=BAD_PAIRS
    ),
    "WeightPolynomial.to_json_obj": case(
        vknots.WeightPolynomial.to_json_obj, {"self": vknots.WeightPolynomial(((0, 2),))}, self=ANSWERED
    ),
    # not exported: the CLI's preservation test, which invariant_bundle calls too
    "preservation_witness": case(
        preservation_witness,
        {"f": INNER0, "c": PHI},
        f=WRONG_LENGTH_MAPS,
        c=st.sampled_from([trivial_cocycle(R3), trivial_cocycle(R5)]),
    ),
}

NOT_WALKED = {
    "ALL_KINDS": "a constant",
    "BUILDER_NAMES": "a constant",
    "CLASSICAL_KINDS": "a constant",
    "InvariantResult": "a result type, built by compute_invariant alone, and unchecked",
    "InvariantResult.to_json": "a method of an unchecked result type",
    "MoveRecord": "unchecked: apply_move checks a record's mutable site where it uses it",
    "MoveRecord.to_json_obj": "a method of an unchecked record",
}


def _public_methods() -> set[str]:
    """``Class.method`` for every method, ``__call__`` included and other dunders
    aside, that an exported class defines or inherits from a class of the
    package."""
    methods = set()
    for name in vknots.__all__:
        cls = getattr(vknots, name)
        for base in cls.__mro__ if isinstance(cls, type) else ():
            if not base.__module__.startswith("vknots."):
                continue
            for attr, value in vars(base).items():
                if isinstance(value, (FunctionType, staticmethod)) and (attr == "__call__" or attr[0] != "_"):
                    methods.add(f"{name}.{attr}")
    return methods


def test_the_walk_covers_every_public_name():
    public = set(vknots.__all__) | _public_methods()
    assert public == (set(WALK) - {"preservation_witness"}) | set(NOT_WALKED)
    assert not set(WALK) & set(NOT_WALKED)
    for name, (target, base, _, refusals) in WALK.items():
        parameters = set(inspect.signature(target).parameters)
        assert set(refusals) == parameters, name  # every parameter is drawn or answered
        assert set(base) <= parameters, name


@pytest.mark.parametrize("name", list(WALK))
def test_each_valid_call_is_answered(name):
    # so that a refusal in the walk comes from the one value it replaced
    _, base, call, _ = WALK[name]
    call(**base)


WALKED = sorted(name for name, (_, _, _, refusals) in WALK.items() if set(refusals.values()) - {ANSWERED})


@pytest.mark.parametrize("name", WALKED)
def test_every_public_callable_refuses_what_it_must_with_a_typed_error(name):
    _, base, call, refusals = WALK[name]
    drawn = {param: strategy for param, strategy in refusals.items() if strategy is not ANSWERED}

    @settings(
        max_examples=12, deadline=None, suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow]
    )
    @given(st.data())
    def check(data):
        for param, strategy in drawn.items():
            value = data.draw(strategy, label=param)
            with pytest.raises(TYPED):
                call(**{**base, param: value})

    check()


# ---------------------------------------------------------------------------
# the known bad arguments: label -> (walk name, parameter, value, error, message)

KNOWN = {
    # each raised a bare TypeError deep inside the call, or (a search bound
    # of 8.5 or True) was accepted
    **{f"basis modulus {m!r}": ("cocycle_space_basis", "m", m, InvalidParameter, None) for m in ("3", 3.0, True, None)},
    **{
        f"automorphism bound {b!r}": ("automorphisms", "bound", b, InvalidParameter, None)
        for b in (None, 8.5, True, "8")
    },
    **{f"cocycle table {e!r}": ("Cocycle2", "exponents", e, MalformedInput, None) for e in (5, None, (0, 0, 0, 0))},
    **{
        f"map images {m!r}": ("QuandleMap", "images", m, InvalidParameter, None)
        for m in (range(4), None, "0123", 5, {0: 0})
    },
    "verify_coloring None": ("verify_coloring", "coloring", None, InvalidParameter, None),
    "coloring_weight None": ("coloring_weight", "coloring", None, InvalidParameter, None),
    # each raised a bare TypeError, ValueError or IndexError
    "WeightPolynomial None": ("WeightPolynomial", "terms", None, MalformedInput, "polynomial terms must be"),
    "WeightPolynomial ((0,),)": ("WeightPolynomial", "terms", ((0,),), MalformedInput, "polynomial terms must be"),
    "Cochain1 exponents 1.5": ("Cochain1", "exponents", 1.5, InvalidParameter, "a list or tuple"),
    # validate_quandle(FiniteQuandle(((0, 1),))) raised a bare IndexError; the table is now refused when built
    "table ((0, 1),)": ("FiniteQuandle", "table", ((0, 1),), MalformedInput, "operation table is not square"),
    # serialize_diagram read the records of these diagrams before checking
    # them; the diagram constructor refuses them now
    "diagram plain-tuple records": (
        "VirtualDiagram",
        "crossings",
        tuple(tuple(c) for c in TREFOIL.crossings),
        MalformedInput,
        re.escape("crossings[0]: (0, 1, 3, 1, 0, 4) is not a crossing record"),
    ),
    "diagram crossings None": (
        "VirtualDiagram",
        "crossings",
        None,
        MalformedInput,
        "crossings must be a tuple of crossing records, got None",
    ),
    "builder []": ("builder", "name", [], InvalidParameter, re.escape("unknown diagram name []")),
    # a TypeError that parse_diagram caught for itself
    "VirtualCrossing first_in None": (
        "VirtualCrossing", "first_in", None, MalformedInput, "edge label must be an integer, got None"
    ),
    # a group that is no CoefficientGroup raised a bare AttributeError, and a map of the wrong
    # length a bare IndexError
    "Cocycle2 group 0": ("Cocycle2", "group", 0, InvalidParameter, "needs a CoefficientGroup"),
    "trivial_cocycle group 0": ("trivial_cocycle", "group", 0, InvalidParameter, "needs a CoefficientGroup"),
    "preservation_witness short map": (
        "preservation_witness",
        "f",
        QuandleMap((0, 1)),
        InvalidParameter,
        "map length does not match quandle order",
    ),
    # public methods: a bare TypeError or IndexError, or an answer
    **{
        f"identity {n!r}": (
            "QuandleMap.identity", "n", n, InvalidParameter, f"a map's order must be a non-negative integer, got {n!r}"
        )
        for n in ("x", -2)
    },
    "map (0, 1) at 5": ("QuandleMap.__call__", "a", 5, InvalidParameter, re.escape("element 5 out of range 0..1")),
    "map (0, 1) at -1": ("QuandleMap.__call__", "a", -1, InvalidParameter, re.escape("element -1 out of range 0..1")),
    "reduce 'x'": ("CoefficientGroup.reduce", "exponent", "x", InvalidParameter, "an exponent must be an integer"),
    "reduce 1.5": ("CoefficientGroup.reduce", "exponent", 1.5, InvalidParameter, "an exponent must be an integer"),
    # a bool multiplicity was summed as an int
    "from_pairs (0, True)": (
        "WeightPolynomial.from_pairs",
        "pairs",
        [(0, True)],
        MalformedInput,
        re.escape("polynomial term (0, True) does not hold integers"),
    ),
}


@pytest.mark.parametrize("label", list(KNOWN))
def test_each_known_bad_argument_is_refused(label):
    name, param, value, error, message = KNOWN[label]
    _, base, call, refusals = WALK[name]
    assert refusals[param] is not ANSWERED  # an explicit example of a walked parameter
    with pytest.raises(error, match=message):
        call(**{**base, param: value})


def test_the_algebra_answers_exactly_on_a_table_that_is_no_quandle():
    # decided once: only the coloring and invariant entry points need axiom 2
    t = NOT_A_QUANDLE
    assert validate_quandle(t).axiom == 2
    table = t.table
    scan = [
        QuandleMap(p)
        for p in permutations(range(3))
        if all(p[table[a][b]] == table[p[a]][p[b]] for a in range(3) for b in range(3))
    ]
    assert automorphisms(t) == scan
    # the span of the basis over Z_2 is the set of 2-cocycles among all 512 tables
    basis = cocycle_space_basis(t, 2)
    span = {
        tuple(tuple(sum(k * c.exponents[a][b] for k, c in zip(coefs, basis)) % 2 for b in range(3)) for a in range(3))
        for coefs in product(range(2), repeat=len(basis))
    }
    tables = (tuple(flat[3 * a : 3 * a + 3] for a in range(3)) for flat in product(range(2), repeat=9))
    cocycles = {e for e in tables if validate_cocycle(Cocycle2(t, Z2, e))}
    assert len(cocycles) == 8 and span == cocycles
    # the rest of the algebra answers on it too
    c = trivial_cocycle(t)
    assert inner_automorphism(t, 0).images == (0, 0, 2)
    assert coboundary(t, Z, Cochain1(Z, (0, 0, 0))) == c and cocycle_product(c, c) == c
    assert is_cohomologous(c, c) == Cochain1(Z, (0, 0, 0)) and preserves(QuandleMap.identity(3), c)
