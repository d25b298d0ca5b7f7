import copy
import re
from itertools import permutations, product
from math import gcd

import pytest

from intlin_helpers import solve_mod
from vknots import intlin
from vknots.algebra import (
    DEFAULT_AUT_SEARCH_BOUND,
    QuandleMap,
    automorphisms,
    inner_automorphism,
    is_automorphism,
    make_dihedral,
    make_from_table,
    map_order,
    validate_quandle,
)
from vknots.diagram import (
    BUILDER_NAMES,
    ClassicalCrossing,
    VirtualCrossing,
    VirtualDiagram,
    builder,
    isomorphic,
    parse_diagram,
    relabel_canonical,
    serialize_diagram,
    validate_diagram,
)
from vknots.moves import find_r1_sites, find_r2_sites, find_r3_sites, find_vkink_sites, r3_slide, random_equivalent
from vknots.errors import InvalidParameter, PreconditionFailed, SearchBoundExceeded
from vknots.invariants import (
    aut_sum_z3,
    coloring_weight,
    compute_invariant,
    invariant_bundle,
    state_sum_classical,
    state_sum_z2,
    state_weight_z1,
)
from vknots.kernel import arc_skeleton, compile_problem
from vknots.solver import (
    _orbits,
    _powers,
    _symmetries,
    brute_force_colorings,
    count_colorings,
    enumerate_colorings,
    verify_coloring,
)
from vknots.weights import CoefficientGroup, Cocycle2, example_cocycle_r4, trivial_cocycle

Q3, Q4 = make_dihedral(3), make_dihedral(4)
ID3, ID4 = QuandleMap.identity(3), QuandleMap.identity(4)
SHIFT4 = QuandleMap((1, 2, 3, 0))


def maps_for(n):
    q = make_dihedral(n)
    return [QuandleMap.identity(n), inner_automorphism(q, 0), QuandleMap(tuple((x + 1) % n for x in range(n)))]


@pytest.mark.parametrize("color", [4, 9, -1, True, 1.0, "1", None])
def test_a_color_outside_the_quandle_is_refused(color):
    d, coloring = builder("trefoil"), (0, 0, 0, 0, 0, color)
    with pytest.raises(InvalidParameter, match=r"is not an integer in 0\.\.3"):
        verify_coloring(d, Q4, ID4, coloring)
    with pytest.raises(InvalidParameter, match=r"is not an integer in 0\.\.3"):
        coloring_weight(d, example_cocycle_r4(), coloring)


def test_unknot_has_one_empty_coloring():
    d = builder("unknot")
    assert enumerate_colorings(d, Q4, ID4) == [()]
    assert brute_force_colorings(d, Q4, ID4) == [()]
    assert count_colorings(d, Q4, ID4) == 4  # free-loop factor
    # no arc, so no root arc and no tree: one empty coloring times n^free_loops
    for loops in (0, 3):
        assert count_colorings(VirtualDiagram(0, loops, ()), Q4, SHIFT4) == 4**loops


def test_the_search_depth_has_no_recursion_limit():
    # 1,500 disjoint virtual kinks: all-virtual components, so the search
    # branches once per component, 1,500 levels deep, past the default
    # interpreter recursion limit of 1,000 frames
    kinks = 1500
    d = relabel_canonical([VirtualCrossing(2 * i, 2 * i + 1, 2 * i + 1, 2 * i, 1) for i in range(kinks)], 0)
    assert d.edges == 2 * kinks
    q1 = make_dihedral(1)
    id1 = QuandleMap.identity(1)
    assert enumerate_colorings(d, q1, id1) == [(0,) * d.edges]
    assert brute_force_colorings(d, q1, id1) == [(0,) * d.edges]


def test_trefoil_coloring_counts():
    assert len(enumerate_colorings(builder("trefoil"), Q3, ID3)) == 9
    assert len(enumerate_colorings(builder("trefoil"), Q4, ID4)) == 4


def test_positive_kink_keeps_all_colors():
    d = builder("unknot_kink_pos")
    cols = enumerate_colorings(d, Q4, ID4)
    assert cols == [(a, a) for a in range(4)]


def test_enumeration_is_lexicographic():
    for name in ("trefoil", "hopf_pos", "virtual_trefoil"):
        cols = enumerate_colorings(builder(name), Q4, ID4)
        assert cols == sorted(cols)


def test_constant_colorings():
    d = builder("trefoil")
    for a in range(4):
        assert verify_coloring(d, Q4, ID4, (a,) * 6)
    # on a virtual diagram a constant survives iff the twist fixes the color
    vt = builder("virtual_trefoil")
    f = inner_automorphism(Q4, 0)  # fixes 0 and 2
    assert verify_coloring(vt, Q4, f, (0,) * 6)
    assert not verify_coloring(vt, Q4, f, (1,) * 6)


def test_verify_matches_enumeration():
    import random

    rng = random.Random(0)
    for name in ("virtual_hopf", "figure_eight"):
        d = builder(name)
        for f in maps_for(4):
            good = set(enumerate_colorings(d, Q4, f))
            for coloring in good:
                assert verify_coloring(d, Q4, f, coloring)
            for _ in range(200):
                vec = tuple(rng.randrange(4) for _ in range(d.edges))
                assert verify_coloring(d, Q4, f, vec) == (vec in good)


def test_non_automorphism_rejected():
    d, c = builder("trefoil"), example_cocycle_r4()
    entry_points = [
        lambda f: enumerate_colorings(d, Q4, f),
        lambda f: count_colorings(d, Q4, f),
        lambda f: brute_force_colorings(d, Q4, f),
        lambda f: verify_coloring(d, Q4, f, (0,) * 6),
        lambda f: invariant_bundle(d, Q4, c, f),
        *(lambda f, kind=kind: compute_invariant(kind, d, Q4, c, f) for kind in ("z1", "z2", "z3")),
    ]
    for call in entry_points:
        for images in ((0, 0, 1, 2), (0, 1, 3, 2)):
            with pytest.raises(InvalidParameter, match="the twist map must be an automorphism of the quandle"):
                call(QuandleMap(images))
    # images must be ints: True passed as 1, and floats raised a TypeError;
    # the map refuses them when it is built, before any entry point sees it
    for images in ((True, 2, 3, 0), (0.0, 1.0, 2.0, 3.0)):
        with pytest.raises(InvalidParameter, match=r"a map's images must be a list or tuple of n ints in 0\.\.n-1"):
            QuandleMap(images)
    with pytest.raises(InvalidParameter):
        verify_coloring(builder("trefoil"), Q4, ID4, (0,) * 5)


def test_each_entry_point_checks_the_twist_once(monkeypatch):
    # the automorphism test is O(n^2), so no entry point repeats it: not per
    # enumeration, and not for the maps automorphisms() has just returned
    import vknots.kernel

    calls = []
    check = vknots.kernel.is_automorphism
    monkeypatch.setattr(vknots.kernel, "is_automorphism", lambda q, f: calls.append(f) or check(q, f))
    d, c, f = builder("virtual_trefoil"), example_cocycle_r4(), inner_automorphism(Q4, 0)

    def entry_points(f):
        return {
            "enumerate_colorings": lambda: enumerate_colorings(d, Q4, f),
            "count_colorings": lambda: count_colorings(d, Q4, f),
            "brute_force_colorings": lambda: brute_force_colorings(d, Q4, f),
            "verify_coloring": lambda: verify_coloring(d, Q4, f, (0,) * 6),
            "invariant_bundle": lambda: invariant_bundle(d, Q4, c, f),
            **{kind: lambda kind=kind: compute_invariant(kind, d, Q4, c, f) for kind in ("z1", "z2", "z3")},
        }

    # the identity is an automorphism of every table, so no entry point tests it
    for g, tested in ((f, [f]), (ID4, [])):
        for name, call in entry_points(g).items():
            calls.clear()
            call()
            assert calls == tested, name
    calls.clear()
    compute_invariant("z", builder("trefoil"), Q4, c)  # Z uses the identity, which needs no check
    assert calls == []


def test_ceiling_enforced():
    # the ceiling bounds the arc assignments: kishino has four arcs, 4^4 = 256 over R4
    d = builder("kishino")
    with pytest.raises(SearchBoundExceeded, match=r"4\^4 arc assignments exceed the ceiling 100"):
        brute_force_colorings(d, Q4, ID4, ceiling=100)
    assert brute_force_colorings(d, Q4, ID4, ceiling=256) == enumerate_colorings(d, Q4, ID4)
    assert brute_force_colorings(d, Q4, ID4, ceiling=10**6) == enumerate_colorings(d, Q4, ID4)


@pytest.mark.parametrize("name", BUILDER_NAMES)
@pytest.mark.parametrize("n", [3, 4])
def test_oracle_equivalence(name, n):
    d = builder(name)
    q = make_dihedral(n)
    for f in maps_for(n):
        fast = enumerate_colorings(d, q, f)
        slow = brute_force_colorings(d, q, f)
        assert fast == slow  # both sorted, equal as sets and sequences


@pytest.mark.parametrize("seed", [0, 1])
def test_oracle_equivalence_at_scale(seed):
    # E = 38 with 9 classical crossings: 4^38 full assignments, 4^9 arc assignments
    d, _ = random_equivalent(builder("kishino"), seed, 300, soft_cap=60)
    assert d.edges > 30 and len(d.classical()) == 9
    for n in (3, 4):
        q = make_dihedral(n)
        for f in maps_for(n):
            assert brute_force_colorings(d, q, f) == enumerate_colorings(d, q, f)


def _crossing_twice(second_chirality):
    # two circles crossing each other twice virtually: with equal chiralities
    # each circle twists by the same power of f at both crossings, with
    # opposite ones the two twists cancel
    return relabel_canonical([VirtualCrossing(0, 1, 2, 3, 1), VirtualCrossing(1, 0, 3, 2, second_chirality)], 0)


def test_twisted_count_can_drop():
    # equal chiralities: each color must be fixed by the square of the twist
    d = _crossing_twice(1)
    assert validate_diagram(d).ok
    assert count_colorings(d, Q4, ID4) == 16
    assert count_colorings(d, Q4, SHIFT4) == 0  # shift^2 has no fixed points
    assert count_colorings(d, Q4, inner_automorphism(Q4, 0)) == 16  # an involution
    # opposite chiralities: the twists cancel round each circle
    d = _crossing_twice(-1)
    assert validate_diagram(d).ok
    assert count_colorings(d, Q4, ID4) == count_colorings(d, Q4, SHIFT4) == 16


# Diagrams whose arcs the corpus does not exercise: closed arcs with a
# twisted loop, a closed all-virtual strand passing over classical
# crossings, and classical kinks whose in-arc, out-arc and over-arc are one
# arc, twisted on the way round by virtual crossings with a closed circle.
ARC_CASES = {
    "crossing twice, equal chiralities": lambda: _crossing_twice(1),
    "crossing twice, opposite chiralities": lambda: _crossing_twice(-1),
    # strand 0 -> 1 -> 2 -> 0 passes under the closed strand 3 -> 4 -> 5 -> 3
    # twice; the two cross virtually on 3 -> 4, so the over edges are twisted
    "closed strand over two crossings": lambda: relabel_canonical(
        [
            ClassicalCrossing(1, under_in=0, over_in=4, under_out=1, over_out=5),
            ClassicalCrossing(-1, under_in=1, over_in=5, under_out=2, over_out=3),
            VirtualCrossing(2, 0, 3, 4, 1),
        ],
        0,
    ),
    **{
        f"kink sign {sign}, chiralities {c1} {c2}": lambda sign=sign, c1=c1, c2=c2: relabel_canonical(
            [
                ClassicalCrossing(sign, under_in=0, over_in=2, under_out=1, over_out=3),
                VirtualCrossing(1, 2, 4, 5, c1),
                VirtualCrossing(3, 0, 5, 4, c2),
            ],
            0,
        )
        for sign in (1, -1)
        for c1, c2 in ((1, 1), (1, -1))
    },
}


@pytest.mark.parametrize("case", ARC_CASES)
def test_arc_search_matches_oracle_on_new_arc_cases(case):
    d = ARC_CASES[case]()
    assert validate_diagram(d).ok
    for n in (3, 4, 5, 6):
        q = make_dihedral(n)
        for f in automorphisms(q):
            assert enumerate_colorings(d, q, f) == brute_force_colorings(d, q, f), (n, f.images)


def test_global_twist_relabelling_is_a_bijection():
    for name in ("virtual_trefoil", "virtual_hopf", "kishino"):
        d = builder(name)
        for f in maps_for(4):
            cols = set(enumerate_colorings(d, Q4, f))
            mapped = {tuple(f(x) for x in c) for c in cols}
            assert mapped == cols


# ---------------------------------------------------------------------------
# The Alexander quandle a * b = 2a - b over Z_5.  On a dihedral quandle
# x * y * y = x, so dividing by the over color equals multiplying by it and
# no dihedral test can tell the two negative-crossing rules apart; here
# x * y * y = 4x - 3y.  The search and the oracle read one encoding of the
# rules, so only move invariance pins the negative rule down.

A5 = make_from_table([[(2 * a - b) % 5 for b in range(5)] for a in range(5)])
A5_TWISTS = {
    "identity": QuandleMap.identity(5),
    "x+1": QuandleMap(tuple((x + 1) % 5 for x in range(5))),
    "2x": QuandleMap(tuple(2 * x % 5 for x in range(5))),
}


@pytest.mark.parametrize("name", BUILDER_NAMES)
def test_oracle_equivalence_alexander(name):
    assert validate_quandle(A5).ok
    d = builder(name)
    for spec, f in A5_TWISTS.items():
        assert is_automorphism(A5, f), spec
        assert enumerate_colorings(d, A5, f) == brute_force_colorings(d, A5, f), spec


def test_alexander_counts_survive_moves():
    for name in BUILDER_NAMES:
        d = builder(name)
        base = {spec: count_colorings(d, A5, f) for spec, f in A5_TWISTS.items()}
        for seed in range(5):
            final, _ = random_equivalent(d, seed, 200)
            for spec, f in A5_TWISTS.items():
                assert count_colorings(final, A5, f) == base[spec], (name, seed, spec)


# ---------------------------------------------------------------------------
# The root arc tries one color per orbit of a group H of automorphisms
# that commute with the twist f; the other colors' colorings are images
# h o c.  When Aut(q) is cheap to list (order <= 8, at most n(n-1)
# candidates) H is the centralizer of f in Aut(q); otherwise it is
# generated by f and the inner maps S_g of q's greedy generators that
# commute with f.  These quandles give H every shape: on T4 (24 candidates)
# every S_a is the identity, so only f acts; on the conjugation quandle of
# S3 an order-3 twist keeps some automorphisms; and over R5-R8, whose
# automorphisms x -> ux + v are not all inner, every twist keeps its
# centralizer.  A table that is no quandle never reaches the search: the
# gate tests below refuse it at every entry point.


def _trivial(n):
    return make_from_table([[a] * n for a in range(n)])


def _s3_conjugation():
    group = list(permutations(range(3)))  # a * b = b^-1 a b
    inverse = {p: tuple(p.index(i) for i in range(3)) for p in group}
    return make_from_table([[group.index(tuple(inverse[b][a[b[i]]] for i in range(3))) for b in group] for a in group])


T4, S3_CONJ = _trivial(4), _s3_conjugation()
NO_AXIOM_2 = make_from_table([[0, 0, 0], [0, 1, 1], [2, 2, 2]])
NO_AXIOM_3 = make_from_table(
    [[0, 3, 1, 4, 2], [4, 1, 3, 2, 0], [1, 4, 2, 0, 3], [2, 0, 4, 3, 1], [3, 2, 0, 1, 4]]
)
ROOT_ORBIT_CASES = {
    "T4": (T4, automorphisms(T4)),
    "S3 conjugation": (S3_CONJ, [QuandleMap.identity(6), inner_automorphism(S3_CONJ, 3)]),
    "A5": (A5, list(A5_TWISTS.values())),
    **{f"R{n}": (make_dihedral(n), automorphisms(make_dihedral(n))) for n in (5, 6, 7, 8)},
}


def test_root_orbit_quandles_are_what_they_claim():
    assert validate_quandle(T4).ok and validate_quandle(S3_CONJ).ok
    assert all(QuandleMap(col) == QuandleMap.identity(4) for col in T4.columns)
    assert map_order(inner_automorphism(S3_CONJ, 3)) == 3
    assert validate_quandle(NO_AXIOM_2).axiom == 2
    assert validate_quandle(NO_AXIOM_3).axiom == 3


@pytest.mark.parametrize("case", ROOT_ORBIT_CASES)
def test_root_orbits_match_the_oracle(case):
    q, twists = ROOT_ORBIT_CASES[case]
    diagrams = [builder(name) for name in BUILDER_NAMES] + [make() for make in ARC_CASES.values()]
    for d in diagrams:
        for f in twists:
            expected = brute_force_colorings(d, q, f)
            assert enumerate_colorings(d, q, f) == expected, (d, f.images)
            # the count gives each x = h(y) of the tree the count of y
            assert count_colorings(d, q, f) == len(expected) * q.order**d.free_loops, (d, f.images)


def test_a_closed_root_arc_keeps_its_fixed_points():
    # each circle of the diagram is one closed arc that twists by f^2 on the
    # way round; f = (0 1)(2 3 4) on the trivial quandle of order 5, so f^2
    # fixes only 0 and 1, and f swaps them: the root tries 0 and builds 1
    d, q, f = _crossing_twice(1), _trivial(5), QuandleMap((1, 0, 3, 4, 2))
    cols = enumerate_colorings(d, q, f)
    assert cols == brute_force_colorings(d, q, f)
    assert len(cols) == 4 and {c[0] for c in cols} == {0, 1}
    assert count_colorings(d, q, f) == 4  # the tree gives 1 the count of 0


@pytest.mark.parametrize(
    "q, f, reps",
    [
        (make_dihedral(5), QuandleMap.identity(5), [0]),  # x -> x + 1 acts transitively
        (make_dihedral(4), QuandleMap.identity(4), [0]),  # x -> x + 1, which is no inner map
        (make_dihedral(6), QuandleMap.identity(6), [0]),
        # the centralizer of x -> -x is x -> ux + v with 2v = 0
        (make_dihedral(5), inner_automorphism(make_dihedral(5), 0), [0, 1]),
        (make_dihedral(7), inner_automorphism(make_dihedral(7), 0), [0, 1]),
        (make_dihedral(8), inner_automorphism(make_dihedral(8), 0), [0, 1, 2]),  # {0, 4}, the odd, {2, 6}
        (Q4, SHIFT4, [0]),  # f alone
        (T4, QuandleMap.identity(4), [0, 1, 2, 3]),  # 24 > 12 candidates: f and the S_a, all the identity
    ],
)
def test_root_orbit_representatives(q, f, reps):
    identity = tuple(range(q.order))
    orbits = _orbits(*_symmetries(q, f, identity), range(q.order))
    found, tree = [r for r, _ in orbits], [step for _, steps in orbits for step in steps]
    assert list(found) == reps
    assert sorted([*reps, *(x for x, _, _ in tree)]) == list(identity)
    assert all(h[y] == x for x, h, y in tree)


# The one gate of a table and of a cocycle: every coloring entry point
# refuses a table that fails a quandle axiom, and every invariant entry point
# refuses it too and a cocycle that fails condition 2, with PreconditionFailed
# in the words the CLI prints, naming the axiom or condition and its witness.
# A table without axiom 2 used to be searched with a one-way propagation
# (its negative crossings reading division's "last such x, or 0"), and the
# invariants summed a non-cocycle as if it were one.

BROKEN_R4 = Cocycle2(Q4, CoefficientGroup(0), ((0, 1, 0, 0), (0,) * 4, (0,) * 4, (0,) * 4))  # example-r4, phi(0, 3) = 1
NOT_QUANDLES = {"axiom 2 fails": NO_AXIOM_2, "only axiom 3 fails": NO_AXIOM_3}
GATE_COLORING_CALLS = {
    "count_colorings": lambda d, q, c, f: count_colorings(d, q, f),
    "enumerate_colorings": lambda d, q, c, f: enumerate_colorings(d, q, f),
    "brute_force_colorings": lambda d, q, c, f: brute_force_colorings(d, q, f),
    "verify_coloring": lambda d, q, c, f: verify_coloring(d, q, f, (0,) * d.edges),
    "coloring_weight": lambda d, q, c, f: coloring_weight(d, c, (0,) * d.edges),
}
GATE_INVARIANT_CALLS = {
    **{f"compute_invariant {kind}": lambda d, q, c, f, kind=kind: compute_invariant(kind, d, q, c, f)
       for kind in ("z", "z1", "z2", "z3")},
    "invariant_bundle": lambda d, q, c, f: invariant_bundle(d, q, c, f),
    "state_sum_classical": lambda d, q, c, f: state_sum_classical(d, q, c),
    "state_weight_z1": lambda d, q, c, f: state_weight_z1(d, q, c, f),
    "state_sum_z2": lambda d, q, c, f: state_sum_z2(d, q, c, f),
    "aut_sum_z3": lambda d, q, c, f: aut_sum_z3(d, q, c),
}


def _refused(call, q, c, report, words):
    with pytest.raises(PreconditionFailed) as err:
        call(builder("trefoil"), q, c, QuandleMap.identity(q.order))
    assert str(err.value) == f"{words} {list(report.witness)}"
    assert err.value.witness == report.witness


@pytest.mark.parametrize("call", [*GATE_COLORING_CALLS, *GATE_INVARIANT_CALLS])
@pytest.mark.parametrize("table", NOT_QUANDLES)
def test_every_entry_point_refuses_a_table_that_is_no_quandle(table, call):
    q = NOT_QUANDLES[table]
    report = validate_quandle(q)
    call = {**GATE_COLORING_CALLS, **GATE_INVARIANT_CALLS}[call]
    _refused(call, q, trivial_cocycle(q), report, f"the quandle fails axiom {report.axiom}, witness")


@pytest.mark.parametrize("call", GATE_INVARIANT_CALLS)
def test_every_invariant_entry_point_refuses_a_cocycle_that_fails_condition_2(call):
    r4 = example_cocycle_r4().exponents
    assert [(a, b) for a in range(4) for b in range(4) if BROKEN_R4.exponents[a][b] != r4[a][b]] == [(0, 3)]
    _refused(GATE_INVARIANT_CALLS[call], Q4, BROKEN_R4, BROKEN_R4.report, "the cocycle fails condition 2, witness")


@pytest.mark.parametrize(
    "q, counts",
    [
        # 7! and 8! candidates, far more than n(n-1): H stays f and the S_g
        (_trivial(7), {"trefoil": [7, 7], "virtual_hopf": [49, 0], "kishino": [7, 7]}),
        (_trivial(8), {"trefoil": [8, 8], "virtual_hopf": [64, 0], "kishino": [8, 8]}),
        # an order above DEFAULT_AUT_SEARCH_BOUND
        (make_dihedral(256), {"trefoil": [256, 256], "virtual_hopf": [512, 0], "kishino": [256, 256]}),
    ],
)
def test_a_costly_automorphism_group_is_never_searched(monkeypatch, q, counts):
    import vknots.algebra

    def refuse(*args):
        raise AssertionError("the coloring search listed Aut(q)")

    monkeypatch.setattr(vknots.algebra, "automorphisms", refuse)
    monkeypatch.setattr(vknots.algebra.FiniteQuandle, "automorphism_images", property(refuse))
    n = q.order
    twists = [QuandleMap.identity(n), QuandleMap(tuple((x + 1) % n for x in range(n)))]
    for name, expected in counts.items():
        assert [count_colorings(builder(name), q, f) for f in twists] == expected, name


def test_a_count_over_a_large_order():
    # only the 256 constant colorings color the trefoil over R256, and the
    # root arc tries two colors, one per parity
    assert count_colorings(builder("trefoil"), make_dihedral(256), QuandleMap.identity(256)) == 256


def test_the_count_builds_no_coloring(monkeypatch):
    import vknots.solver

    def refuse(*args):
        raise AssertionError("count_colorings listed the colorings")

    def count_only(d, q, f, listing):
        if listing:
            refuse()
        return search(d, q, f, listing)

    search = vknots.solver._search
    monkeypatch.setattr(vknots.solver, "_search", count_only)
    monkeypatch.setattr(vknots.solver, "enumerate_colorings", refuse)
    # the root tries one color of R3 and of R5, and the tree gives the rest
    assert count_colorings(builder("trefoil"), Q3, ID3) == 9
    assert count_colorings(builder("figure_eight"), make_dihedral(5), QuandleMap.identity(5)) == 25


# ---------------------------------------------------------------------------
# Linear-algebra check at scale.  On the dihedral quandle R_n (a * b = 2b - a)
# both classical rules read u_out + u_in - 2*o = 0 and o_out - o_in = 0, and
# the twists below are affine, x -> u*x + b with u a unit of Z_n, so the
# twisted colorings are the solutions of an affine system over Z_n.  Their number is
# 0 when the system is inconsistent and otherwise the size of the kernel,
# the product of gcd(d_j, n) over the Smith diagonal (d_j = 0 past the rank).
# It shares no code with the search and needs no scan of n^E assignments.

AFFINE_TWISTS = {"identity": (1, 0), "inner:0": (-1, 0), "shift": (1, 1)}
# x -> 2x has order 4 over R5 and 3 over R7, so the arcs compose powers of f
# past +-1 that differ from their inverses
SCALE_TWISTS = {**AFFINE_TWISTS, "2x": (2, 0)}


def _affine_count(d, n, u, b):
    rows, rhs = [], []

    def equation(terms, value):
        row = [0] * d.edges
        for e, coeff in terms:
            row[e] += coeff
        rows.append(row)
        rhs.append(value % n)

    u_inv = pow(u, -1, n)
    f, f_inv = (u, b), (u_inv, -u_inv * b)
    for c in d.crossings:
        if isinstance(c, ClassicalCrossing):
            equation([(c.over_out, 1), (c.over_in, -1)], 0)
            equation([(c.under_out, 1), (c.under_in, 1), (c.over_in, -2)], 0)
        else:
            first, second = (f_inv, f) if c.chirality > 0 else (f, f_inv)
            for e_in, e_out, (uu, bb) in ((c.first_in, c.first_out, first), (c.second_in, c.second_out, second)):
                equation([(e_out, 1), (e_in, -uu)], bb)
    if solve_mod(rows, rhs, n) is None:
        return 0
    diag, _ = intlin.smith_normal_form(rows)
    rank_bound = min(len(rows), d.edges)
    count = n**d.free_loops
    for j in range(d.edges):
        count *= gcd(diag[j][j] if j < rank_bound else 0, n)
    return count


@pytest.fixture(scope="module")
def ladder_diagrams():
    return {
        "E102": random_equivalent(builder("figure_eight"), 36, 250, soft_cap=105)[0],
        "E186": random_equivalent(builder("kishino"), 1, 400, soft_cap=200)[0],
    }


def test_affine_count_matches_search_on_corpus():
    for name in BUILDER_NAMES:
        d = builder(name)
        for n in (3, 4):
            for spec, (u, b) in AFFINE_TWISTS.items():
                f = QuandleMap(tuple((u * x + b) % n for x in range(n)))
                assert count_colorings(d, make_dihedral(n), f) == _affine_count(d, n, u, b), (name, n, spec)


@pytest.mark.parametrize("n", [5, 7])
@pytest.mark.parametrize("size", ["E102", "E186"])
def test_search_matches_linear_algebra_at_scale(ladder_diagrams, size, n):
    d = ladder_diagrams[size]
    q = make_dihedral(n)
    assert inner_automorphism(q, 0).images == tuple(-x % n for x in range(n))
    for spec, (u, b) in SCALE_TWISTS.items():
        f = QuandleMap(tuple((u * x + b) % n for x in range(n)))
        assert count_colorings(d, q, f) == _affine_count(d, n, u, b), spec


# ---------------------------------------------------------------------------
# The search's set-up against references of its own.  compile_problem reads
# each record once as a tuple and arc_skeleton walks lists indexed by edge; these
# references read the records' named fields and walk a dict, and must give
# equal rules and arcs on the corpus, on move outputs and on a large diagram.


def _reference_rules(d, q, f):
    """The strand rules, read off the records' named fields: under-rules,
    then over-rules, then the virtual passages."""
    identity = tuple(range(q.order))
    f_inv = tuple(f.images.index(x) for x in range(q.order))
    under, over, virtual = [], [], []
    for c in d.crossings:
        if isinstance(c, ClassicalCrossing):
            under.append((c.under_in, c.under_out, c.over_in, q.columns if c.sign == 1 else q.division))
            over.append((c.over_in, c.over_out, -1, identity))
        else:
            first, second = (f_inv, f.images) if c.chirality == 1 else (f.images, f_inv)
            virtual.append((c.first_in, c.first_out, -1, first))
            virtual.append((c.second_in, c.second_out, -1, second))
    return tuple(under + over + virtual)


def _reference_arcs(d, rules, identity):
    """The arcs of a walk on a dict from each edge to its next edge and twist."""
    classical = 2 * len(d.classical())  # under-rules, then over-rules, then twists
    step = {
        i: (o, None if k < classical or fwd == identity else fwd)
        for k, (i, o, b, fwd) in enumerate(rules)
        if b < 0
    }
    arc_of = [-1] * d.edges
    perm_of = [identity] * d.edges
    loops = []
    for start in [o for _, o, b, _ in rules if b >= 0] + list(range(d.edges)):
        if arc_of[start] >= 0:
            continue
        e, perm = start, identity
        while True:
            arc_of[e], perm_of[e] = len(loops), perm
            if e not in step:  # an under passage ends the arc
                loops.append(None)
                break
            e, table = step[e]
            if table is not None:
                perm = table if perm is identity else tuple(map(table.__getitem__, perm))
            if e == start:
                loops.append(perm)
                break
    return arc_of, perm_of, loops


def _set_up_inputs():
    yield from (builder(name) for name in BUILDER_NAMES)
    yield from (make() for make in ARC_CASES.values())
    for name in BUILDER_NAMES:
        for seed in range(3):
            yield random_equivalent(builder(name), seed, 60)[0]
    yield random_equivalent(builder("figure_eight"), 36, 250, soft_cap=105)[0]  # E = 102


SET_UP_INPUTS = list(_set_up_inputs())
# every automorphism of R3, R4 and R5: the identity, inner:0, the shift,
# [1, 2, 3, 0] and x -> 2x, which differs from its inverse, among them
SET_UP_TWISTS = [(make_dihedral(n), f) for n in (3, 4, 5) for f in automorphisms(make_dihedral(n))]


def test_set_up_twists_include_the_named_maps():
    maps = {f.images for _, f in SET_UP_TWISTS}
    named = [
        *(tuple(range(n)) for n in (3, 4, 5)),
        *(inner_automorphism(make_dihedral(n), 0).images for n in (3, 4, 5)),
        *(tuple((x + 1) % n for x in range(n)) for n in (3, 4, 5)),
        (1, 2, 3, 0),
        (0, 2, 4, 1, 3),
    ]
    assert all(images in maps for images in named)
    assert len(SET_UP_INPUTS) == 10 + len(ARC_CASES) + 30 + 1 and SET_UP_INPUTS[-1].edges == 102


def test_compile_problem_matches_the_named_fields():
    for d in SET_UP_INPUTS:
        for q, f in SET_UP_TWISTS:
            assert compile_problem(d, q, f) == _reference_rules(d, q, f), (d, f.images)


def test_arcs_match_a_dict_walk():
    for d in SET_UP_INPUTS:
        arc_of, k_of, loops, crossings, by_lowest_edge = arc_skeleton(d)
        for q, f in SET_UP_TWISTS:
            rules, identity = compile_problem(d, q, f), tuple(range(q.order))
            ref_arc_of, ref_perm_of, ref_loops = _reference_arcs(d, rules, identity)
            # bind f: each edge's permutation is f^k, each closed arc's f^k once round
            power = _powers(f, identity, [*k_of, *(k for k in loops if k is not None)])
            perm_of = [power[k] for k in k_of]
            closed = [None if k is None else power[k] for k in loops]
            assert (arc_of, perm_of, closed) == (ref_arc_of, ref_perm_of, ref_loops), (d, f.images)
            assert [(a, power[k_in], oa, ba, power[k_by], s) for a, k_in, oa, ba, k_by, s in crossings] == [
                (ref_arc_of[c.under_in], ref_perm_of[c.under_in], ref_arc_of[c.under_out],
                 ref_arc_of[c.over_in], ref_perm_of[c.over_in], c.sign)
                for c in d.classical()
            ], (d, f.images)
            # a permutation equal to the identity is the identity object itself
            bound = perm_of + [p for p in closed if p is not None]
            assert all((p is identity) == (p == identity) for p in bound), (d, f.images)
        assert by_lowest_edge == list(dict.fromkeys(arc_of))


def test_the_arcs_are_built_once_per_diagram_object(monkeypatch):
    import vknots.kernel

    built = []
    build = vknots.kernel._build_arc_skeleton
    monkeypatch.setattr(vknots.kernel, "_build_arc_skeleton", lambda d: built.append(d) or build(d))
    d, c = copy.copy(builder("kishino")), example_cocycle_r4()
    assert "arc_skeleton" not in vars(d)
    count_colorings(d, Q4, SHIFT4)
    enumerate_colorings(d, Q4, ID4)
    state_weight_z1(d, Q4, c, inner_automorphism(Q4, 0))
    aut_sum_z3(d, Q4, c)
    assert len(built) == 1 and built[0] is d
    # an equal diagram object builds its own: the arcs live on the object
    twin = copy.copy(d)
    assert twin == d and hash(twin) == hash(d) and "arc_skeleton" not in vars(twin)
    assert count_colorings(twin, Q4, SHIFT4) == count_colorings(d, Q4, SHIFT4)
    assert len(built) == 2 and built[1] is twin and arc_skeleton(twin) == arc_skeleton(d)


# ---------------------------------------------------------------------------
# A move output comes through relabel_canonical's door, which stores slot
# maps that the constructor never checked.  Every coloring entry point
# answers it, or refuses it, as it does the same fields made by the
# constructor.

DOOR_OUTPUTS = {name: random_equivalent(builder(name), 0, 20)[0] for name in BUILDER_NAMES}

COLORING_CALLS = {
    "count_colorings": lambda d: count_colorings(d, Q4, ID4),
    "enumerate_colorings": lambda d: enumerate_colorings(d, Q4, ID4),
    "brute_force_colorings": lambda d: brute_force_colorings(d, Q4, ID4),
    "verify_coloring": lambda d: verify_coloring(d, Q4, ID4, (0,) * d.edges),
    "coloring_weight": lambda d: coloring_weight(d, example_cocycle_r4(), (0,) * d.edges),
    "state_sum_classical": lambda d: state_sum_classical(d, Q4, example_cocycle_r4()),
    "state_weight_z1": lambda d: state_weight_z1(d, Q4, example_cocycle_r4(), ID4),
    "state_sum_z2": lambda d: state_sum_z2(d, Q4, example_cocycle_r4(), ID4),
    "aut_sum_z3": lambda d: aut_sum_z3(d, Q4, example_cocycle_r4()),
    "invariant_bundle": lambda d: invariant_bundle(d, Q4, example_cocycle_r4(), ID4),
}


def _answer(call, d):
    """What ``call`` answers on d, or the type and words of its refusal."""
    try:
        return call(d)
    except (ValueError, RuntimeError) as exc:  # every error of vknots.errors
        return type(exc), str(exc)


def _constructed(d: VirtualDiagram) -> VirtualDiagram:
    made = VirtualDiagram(d.edges, d.free_loops, d.crossings)
    assert made == d and made is not d
    return made


@pytest.mark.parametrize("call", COLORING_CALLS)
@pytest.mark.parametrize("case", DOOR_OUTPUTS)
def test_every_coloring_entry_point_answers_a_move_output_as_the_constructor_made_it(case, call):
    d = DOOR_OUTPUTS[case]
    assert validate_diagram(d).ok
    assert _answer(COLORING_CALLS[call], d) == _answer(COLORING_CALLS[call], _constructed(d))


@pytest.mark.parametrize("case", DOOR_OUTPUTS)
def test_a_move_output_has_the_slot_maps_and_arcs_of_the_constructor(case):
    d = DOOR_OUTPUTS[case]
    made = _constructed(d)
    assert d.slot_maps == made.slot_maps
    assert arc_skeleton(d) == arc_skeleton(made)  # d's arcs read its stored slot maps


# ---------------------------------------------------------------------------
# Every code of at most two crossings (free loops aside): the search, its
# oracle and the counter agree on each, over R3 and R4 under every
# automorphism, so propagation meets every configuration of one or two
# crossings, kinks and crossings that share an arc included.


def all_codes(c: int) -> list[VirtualDiagram]:
    """Every diagram of c crossings and no free loop, once each: in-slot j
    of the c crossings (two per crossing) holds edge j, each bijection of
    the 2c out-slots onto the 2c in-slots, with every tag and sign, is made
    canonical by ``relabel_canonical``, and a set keeps one of each."""
    found = set()
    for outs in permutations(range(2 * c)):
        for tags, signs in product(product((0, 1), repeat=c), product((1, -1), repeat=c)):
            slots = [(t, s, 2 * i, outs[2 * i], 2 * i + 1, outs[2 * i + 1]) for i, (t, s) in enumerate(zip(tags, signs))]
            found.add(relabel_canonical(slots, 0))
    return sorted(found, key=lambda d: d.crossings)


SMALL_CODES = {c: all_codes(c) for c in (1, 2)}
SMALL_TWISTS = [(q, f) for q in (Q3, Q4) for f in automorphisms(q)]


def test_the_small_codes_are_counted():
    for c, count, classes in ((1, 8, 6), (2, 304, 120)):
        codes = SMALL_CODES[c]
        assert len(codes) == count and all(d.edges == 2 * c and d.free_loops == 0 for d in codes)
        reps: list[VirtualDiagram] = []
        for d in codes:
            if not any(isomorphic(r, d) for r in reps):
                reps.append(d)
        assert len(reps) == classes


@pytest.mark.parametrize("c", SMALL_CODES)
def test_every_small_code_agrees_with_the_oracle(c):
    assert len(SMALL_TWISTS) == 6 + 8
    for d in SMALL_CODES[c]:
        assert validate_diagram(d).ok, d
        assert parse_diagram(serialize_diagram(d)) == d
        for q, f in SMALL_TWISTS:
            found = enumerate_colorings(d, q, f)
            assert found == brute_force_colorings(d, q, f), (d, f.images)
            assert count_colorings(d, q, f) == len(found), (d, f.images)


def test_every_r3_site_of_three_crossings_keeps_the_counts():
    # the c = 3 codes are too many for the oracle; their sites are pinned per
    # move kind, so that a change to a finder shows as a count change, and
    # every R3 slide keeps the count over R3 and 2a - b mod 5 under every
    # automorphism (9,984 comparisons)
    codes = all_codes(3)
    assert len(codes) == 19040
    finders = {"r3_slide": find_r3_sites, "r2_remove": find_r2_sites, "r1_remove": find_r1_sites, "vkink_remove": find_vkink_sites}
    sites = {kind: [(d, s) for d in codes for s in find(d)] for kind, find in finders.items()}
    assert {kind: len(found) for kind, found in sites.items()} == {
        "r3_slide": 384,
        "r2_remove": 1008,
        "r1_remove": 9856,
        "vkink_remove": 7424,
    }
    twists = [(q, f) for q in (Q3, A5) for f in automorphisms(q)]
    assert len(twists) == 6 + 20
    for d, bridges in sites["r3_slide"]:
        slid = r3_slide(d, bridges)
        for q, f in twists:
            assert count_colorings(slid, q, f) == count_colorings(d, q, f), (d, bridges, f.images)


# ---------------------------------------------------------------------------
# Symmetry at every branch level: a level tries one color per orbit of the
# maps of H that fix every color placed above it, and the colorings under
# the orbit's other colors are images h o c.  Over R3-R8 every twist keeps
# a centralizer listed whole; over T4, R9, R10 and R11 (too many generators,
# or above the automorphism search bound) H is generated by f and the inner
# maps; the conjugation quandle of S3 and 2a - b mod 5 give it other shapes.
# The diagrams are every code of at most two crossings, the corpus and one
# 3-move trace per builder, whose moves add arcs, so the searches run
# several levels deep.  The oracle scans n^arcs assignments and the search
# costs most on the 312 codes, so the sweep keeps to a few seconds thus: a
# twist f = g r g^-1 maps the colorings under r onto those under f by
# c -> g o c, so over R3-R8 and T4 the oracle runs once per conjugacy class
# of Aut(q) and the codes are searched under one twist per class (every
# code is searched under every automorphism of R3 and R4 above); and over
# R9-R11 the traces, whose oracle scans up to 11^6 assignments, run under
# x -> ux alone.


def _affine(n, u, b):
    return QuandleMap(tuple((u * x + b) % n for x in range(n)))


CODES = [*SMALL_CODES[1], *SMALL_CODES[2]]
CORPUS_AND_TRACES = [
    *(builder(name) for name in BUILDER_NAMES),
    *(random_equivalent(builder(name), 0, 3)[0] for name in BUILDER_NAMES),
]
# u = 2 or 3 is a unit of order above 2, so x -> ux differs from its inverse
DEEP_SAMPLED = {f"R{n}": (make_dihedral(n), unit) for n, unit in ((9, 2), (10, 3), (11, 2))}


def _conjugacy_classes(maps):
    """Each map f of ``maps``, a group, as ``(r, g)``: r the first map of its
    conjugacy class and g a map with f = g r g^-1."""
    found = {}
    for r in maps:
        if r.images in found:
            continue
        for g in maps:
            found.setdefault(g.compose(r).compose(g.inverse()).images, (r, g))
    return [found[f.images] for f in maps]


def _agrees_with_the_oracle(diagrams, q, twists, classes=None):
    """Search every diagram under every twist, and count, against the oracle,
    run once per class and carried to the class's other maps by c -> g o c."""
    classes = classes or [(f, QuandleMap.identity(q.order)) for f in twists]
    for d in diagrams:
        oracle = {}
        for f, (r, g) in zip(twists, classes):
            if r.images not in oracle:
                oracle[r.images] = brute_force_colorings(d, q, r)
            found = enumerate_colorings(d, q, f)
            assert found == sorted(tuple(map(g, c)) for c in oracle[r.images]), (d, f.images)
            assert count_colorings(d, q, f) == len(found) * q.order**d.free_loops, (d, f.images)


def test_the_deep_sweep_covers_what_it_claims():
    assert len(CODES) == 8 + 304 and len(CORPUS_AND_TRACES) == 20
    growth = [len(arc_skeleton(t)[2]) - len(arc_skeleton(d)[2]) for d, t in zip(CORPUS_AND_TRACES, CORPUS_AND_TRACES[10:])]
    assert sum(growth) > 10 and max(len(arc_skeleton(t)[2]) for t in CORPUS_AND_TRACES) == 6
    for q, _ in DEEP_SAMPLED.values():
        assert q.order > DEFAULT_AUT_SEARCH_BOUND
    for q in (make_dihedral(8), T4):
        maps = automorphisms(q)
        classes = _conjugacy_classes(maps)
        assert len({r.images for r, _ in classes}) < len(maps)
        assert all(g.compose(r) == f.compose(g) for f, (r, g) in zip(maps, classes))


@pytest.mark.parametrize("q", [*(make_dihedral(n) for n in range(3, 9)), T4], ids=[*(f"R{n}" for n in range(3, 9)), "T4"])
def test_every_level_matches_the_oracle_under_every_automorphism(q):
    twists = automorphisms(q)
    classes = _conjugacy_classes(twists)
    _agrees_with_the_oracle(CORPUS_AND_TRACES, q, twists, classes)
    _agrees_with_the_oracle(CODES, q, list({r.images: r for r, _ in classes}.values()))


@pytest.mark.parametrize("case", ["S3 conjugation", "A5"])
def test_every_level_matches_the_oracle_under_the_listed_twists(case):
    q, twists = ROOT_ORBIT_CASES[case]
    _agrees_with_the_oracle([*CODES, *CORPUS_AND_TRACES], q, twists)


@pytest.mark.parametrize("case", DEEP_SAMPLED)
def test_every_level_of_the_generator_path_matches_the_oracle(case):
    q, unit = DEEP_SAMPLED[case]
    n = q.order
    # H is generated by x -> -x and x -> 2 - x, by x -> -x + 1 alone, and by x -> ux and x -> -x
    sample = [_affine(n, 1, 0), _affine(n, -1, 1), _affine(n, unit, 0)]
    _agrees_with_the_oracle([*CODES, *CORPUS_AND_TRACES[:10]], q, sample)
    _agrees_with_the_oracle(CORPUS_AND_TRACES[10:], q, sample[-1:])


def _ring_sum(d, k):
    """k copies of d, each cut at its edge 0 and joined to the next in a ring."""
    m = d.edges
    out = lambda e, i: (i + 1) % k * m if e == 0 else e + i * m  # noqa: E731
    return relabel_canonical(
        [(t, s, w + i * m, out(x, i), y + i * m, out(z, i)) for i in range(k) for t, s, w, x, y, z in d.crossings], 0
    )


def _split(d, k):
    """k disjoint copies of d."""
    m = d.edges
    return relabel_canonical(
        [(t, s, w + i * m, x + i * m, y + i * m, z + i * m) for i in range(k) for t, s, w, x, y, z in d.crossings], 0
    )


R7_2X = _affine(7, 2, 0)


def test_counts_of_sums_and_split_diagrams_match_their_formulas():
    # the connected sum of k trefoils has determinant 3^k, so 3^(k+1) colorings
    # over R3; each split virtual kink takes any of the 7 colors of R7
    for k in range(1, 7):
        assert count_colorings(_ring_sum(builder("trefoil"), k), Q3, ID3) == 3 ** (k + 1), k
        assert count_colorings(_split(builder("unknot_vkink"), k), make_dihedral(7), R7_2X) == 7**k, k
    for k in (2, 3):
        d = _ring_sum(builder("trefoil"), k)
        found = enumerate_colorings(d, Q3, ID3)
        assert len(found) == 3 ** (k + 1) and found == brute_force_colorings(d, Q3, ID3)


def test_the_count_keeps_no_coloring():
    # 3^11 = 177,147 colorings: a tuple kept per coloring peaked at 16 MB,
    # the search, its arcs included, takes under 20 kB
    import tracemalloc

    d = _ring_sum(builder("trefoil"), 10)
    tracemalloc.start()
    try:
        assert count_colorings(d, Q3, ID3) == 3**11
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


def test_the_branch_after_the_root_tries_one_color_per_orbit_of_the_stabilizer(monkeypatch):
    # over R7 under the identity H is every x -> ux + v: the root tries one
    # color r, and the maps that fix r, x -> u(x - r) + r, have two orbits,
    # {r} and the six others, so the next arc tries 2 colors, not 7
    import vknots.solver

    tried = []
    orbits = vknots.solver._orbits

    def spy(group, whole, domain):
        found = orbits(group, whole, domain)
        tried.append([r for r, _ in found])
        return found

    monkeypatch.setattr(vknots.solver, "_orbits", spy)
    q = make_dihedral(7)
    assert count_colorings(builder("trefoil"), q, QuandleMap.identity(7)) == 7
    assert tried == [[0], [0, 1]]
    tried.clear()
    assert enumerate_colorings(builder("trefoil"), q, QuandleMap.identity(7)) == [(x,) * 6 for x in range(7)]
    assert tried == [[0], [0, 1]]


# ---------------------------------------------------------------------------
@pytest.mark.parametrize("ceiling", [None, "10", 2.5, 10.0, True, False])
def test_the_oracle_refuses_a_ceiling_that_is_no_int(ceiling):
    with pytest.raises(InvalidParameter, match=rf"the ceiling must be an integer, got {re.escape(repr(ceiling))}"):
        brute_force_colorings(builder("trefoil"), Q4, ID4, ceiling)
