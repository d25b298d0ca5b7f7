import random

import pytest

from vknots.algebra import QuandleMap, automorphisms, inner_automorphism, make_dihedral
from vknots.diagram import BUILDER_NAMES, VirtualDiagram, builder
from vknots.errors import InvalidParameter, PreconditionFailed, WrongKind
from vknots.invariants import (
    InvariantResult,
    aut_sum_z3,
    coloring_weight,
    compute_invariant,
    invariant_bundle,
    state_sum_classical,
    state_sum_z2,
    state_weight_z1,
)
from vknots.solver import brute_force_colorings, count_colorings, enumerate_colorings, verify_coloring
from vknots.weights import (
    CoefficientGroup,
    Cochain1,
    Cocycle2,
    Weight,
    coboundary,
    cocycle_product,
    example_cocycle_r4,
    preservation_witness,
    trivial_cocycle,
)

Q3, Q4 = make_dihedral(3), make_dihedral(4)
PHI = example_cocycle_r4()
ID4 = QuandleMap.identity(4)
INNER0 = inner_automorphism(Q4, 0)
SHIFT = QuandleMap((1, 2, 3, 0))
Z = CoefficientGroup(0)


def test_coloring_weight_rules():
    d = builder("unknot_vkink")
    for a in range(4):
        w = coloring_weight(d, PHI, (a, a))
        assert w.exponent == 0
    kink = builder("unknot_kink_pos")
    for a in range(4):
        assert coloring_weight(kink, PHI, (a, a)).exponent == 0
    tre = builder("trefoil")
    assert coloring_weight(tre, PHI, (0,) * 6).exponent == 0
    with pytest.raises(InvalidParameter):
        coloring_weight(tre, PHI, (0, 1, 0, 0, 0, 0))
    with pytest.raises(InvalidParameter):
        coloring_weight(tre, PHI, (0, 0))


@pytest.mark.parametrize(
    "images, message",
    [
        ((0, 1), "map length does not match quandle order"),
        ((0, 0, 0, 0), "the twist map must be an automorphism of the quandle"),
    ],
)
def test_every_invariant_refuses_a_twist_map_that_is_no_automorphism(images, message):
    # z2 checks the map before it tests whether the map preserves the cocycle
    f = QuandleMap(images)
    for kind in ("z1", "z2", "z3"):
        with pytest.raises(InvalidParameter) as refused:
            compute_invariant(kind, builder("virtual_trefoil"), Q4, PHI, f)
        assert str(refused.value) == message


@pytest.mark.parametrize("images", [[0, 1, 2, 3], list(INNER0.images)])
def test_a_map_built_from_a_list_answers_like_one_built_from_a_tuple(images):
    # Z3 and the bundle used to raise a bare TypeError on a list-built map
    # (its images were the dict key of its state sum), while the counts and
    # Z2 took it
    d = builder("virtual_trefoil")
    listed, tupled = QuandleMap(images), QuandleMap(tuple(images))
    assert listed.images == tupled.images and listed == tupled and hash(listed) == hash(tupled)
    coloring = enumerate_colorings(d, Q4, tupled)[-1]
    entry_points = {
        "count_colorings": lambda f: count_colorings(d, Q4, f),
        "enumerate_colorings": lambda f: enumerate_colorings(d, Q4, f),
        "brute_force_colorings": lambda f: brute_force_colorings(d, Q4, f),
        "verify_coloring": lambda f: verify_coloring(d, Q4, f, coloring),
        "invariant_bundle": lambda f: invariant_bundle(d, Q4, PHI, f),
        "state_weight_z1": lambda f: state_weight_z1(d, Q4, PHI, f),
        "state_sum_z2": lambda f: state_sum_z2(d, Q4, PHI, f),
        **{kind: lambda f, kind=kind: compute_invariant(kind, d, Q4, PHI, f) for kind in ("z1", "z2", "z3")},
    }
    for name, call in entry_points.items():
        assert call(listed) == call(tupled), name


def test_z3_refuses_a_bad_twist_map_before_enumerating(monkeypatch):
    import vknots.invariants

    # the map is checked before any state sum: over R6 (12 automorphisms) the
    # refusal used to follow 12 enumerations, and above the automorphism
    # search bound it was the search's SearchBoundExceeded
    calls = []

    def counted(*args):
        calls.append(args)
        return search(*args)

    # the state sums reach the search through the solver's unchecked path
    search = vknots.invariants._search
    monkeypatch.setattr(vknots.invariants, "_search", counted)
    d = builder("kishino")
    for n in (6, 9):
        q = make_dihedral(n)
        c, f = trivial_cocycle(q), QuandleMap((0,) * n)
        with pytest.raises(InvalidParameter, match="must be an automorphism"):
            compute_invariant("z3", d, q, c, f)
        with pytest.raises(InvalidParameter, match="must be an automorphism"):
            invariant_bundle(d, q, c, f)
    assert calls == []


def test_weight_convention_on_hopf():
    # a nonconstant hopf coloring picks up the cocycle entries of both
    # crossings; the exact values are pinned by the brute-force oracle
    d = builder("hopf_pos")
    cols = enumerate_colorings(d, Q4, ID4)
    assert len(cols) == 8
    weights = sorted(coloring_weight(d, PHI, c).exponent for c in cols)
    assert weights == [0] * 8  # oracle-computed: all eight weights vanish


def test_classical_state_sum_values():
    # oracle-frozen values over the dihedral quandle of order 4
    assert str(state_sum_classical(builder("unknot"), Q4, PHI)) == "4"
    assert str(state_sum_classical(builder("trefoil"), Q4, PHI)) == "4"
    assert str(state_sum_classical(builder("hopf_pos"), Q4, PHI)) == "8"
    assert str(state_sum_classical(builder("figure_eight"), Q4, PHI)) == "4"
    assert str(state_sum_classical(builder("trefoil"), Q3, trivial_cocycle(Q3))) == "9"


def test_classical_state_sum_rejects_virtual():
    with pytest.raises(WrongKind):
        state_sum_classical(builder("virtual_trefoil"), Q4, PHI)


def test_unknot_values():
    assert str(state_sum_z2(builder("unknot"), Q4, PHI, INNER0)) == "4"
    assert state_weight_z1(builder("unknot"), Q4, PHI, INNER0) == Weight(Z, 0)
    z3 = aut_sum_z3(builder("unknot"), Q4, PHI)
    assert z3.terms == ((0, 8),)  # one identity monomial per automorphism


def test_trivial_cocycle_values():
    for name in BUILDER_NAMES:
        d = builder(name)
        triv = trivial_cocycle(Q4)
        assert state_weight_z1(d, Q4, triv, INNER0) == Weight(Z, 0)
        z2 = state_sum_z2(d, Q4, triv, INNER0)
        assert z2.terms == () or z2.terms == ((0, count_colorings(d, Q4, INNER0)),)


def test_frozen_virtual_values():
    # all constants below were computed with the brute-force oracle
    vt = builder("virtual_trefoil")
    assert state_sum_z2(vt, Q4, PHI, INNER0).terms == ((0, 4),)
    assert state_weight_z1(vt, Q4, PHI, ID4) == Weight(Z, 0)
    assert state_weight_z1(vt, Q4, PHI, INNER0) == Weight(Z, 0)
    assert state_weight_z1(vt, Q4, PHI, SHIFT) == Weight(Z, 2)
    assert aut_sum_z3(vt, Q4, PHI).terms == ((0, 4), (2, 4))
    vh = builder("virtual_hopf")
    assert state_sum_z2(vh, Q4, PHI, INNER0).terms == ((0, 8),)
    assert aut_sum_z3(vh, Q4, PHI).terms == ((0, 7), (2, 1))
    assert state_sum_z2(builder("kishino"), Q4, PHI, INNER0).terms == ((0, 4),)


def test_z2_precondition_enforced():
    with pytest.raises(PreconditionFailed) as err:
        state_sum_z2(builder("virtual_trefoil"), Q4, PHI, SHIFT)
    assert err.value.witness == (0, 1)


def test_z2_equals_z_on_classical_diagrams():
    classical = [n for n in BUILDER_NAMES if not builder(n).virtual()]
    assert classical
    for name in classical:
        d = builder(name)
        z = state_sum_classical(d, Q4, PHI)
        for f in (ID4, INNER0):
            assert state_sum_z2(d, Q4, PHI, f) == z


def test_z2_at_one_equals_coloring_count():
    for name in BUILDER_NAMES:
        d = builder(name)
        assert state_sum_z2(d, Q4, PHI, INNER0).evaluate_at_one() == count_colorings(d, Q4, INNER0)


def test_free_loops_scale_all_invariants():
    from vknots.diagram import VirtualDiagram

    vt = builder("virtual_trefoil")
    doubled = VirtualDiagram(vt.edges, vt.free_loops + 2, vt.crossings)
    assert count_colorings(doubled, Q4, INNER0) == 16 * count_colorings(vt, Q4, INNER0)
    z2 = state_sum_z2(doubled, Q4, PHI, INNER0)
    assert z2.terms == tuple((e, 16 * m) for e, m in state_sum_z2(vt, Q4, PHI, INNER0).terms)
    z1 = state_weight_z1(doubled, Q4, PHI, SHIFT)
    assert z1.exponent == 16 * state_weight_z1(vt, Q4, PHI, SHIFT).exponent


def test_z1_invariant_under_cohomologous_change():
    rng = random.Random(9)
    for name in ("virtual_trefoil", "virtual_hopf", "kishino", "trefoil"):
        d = builder(name)
        base = state_weight_z1(d, Q4, PHI, INNER0)
        for _ in range(10):
            psi = Cochain1(Z, tuple(rng.randrange(-5, 6) for _ in range(4)))
            shifted = cocycle_product(PHI, coboundary(Q4, Z, psi))
            assert state_weight_z1(d, Q4, shifted, INNER0) == base


def test_z3_at_one_counts_automorphisms():
    n_aut = len(automorphisms(Q4))
    for name in ("unknot", "virtual_trefoil", "kishino"):
        assert aut_sum_z3(builder(name), Q4, PHI).evaluate_at_one() == n_aut


def test_compute_invariant_results():
    r = compute_invariant("z2", builder("virtual_trefoil"), Q4, PHI, INNER0)
    assert isinstance(r, InvariantResult)
    assert r.kind == "Z2" and r.preserving is True and r.colorings == 4
    assert r.to_json() == '{"kind":"Z2","polynomial":[[0,4]],"colorings":4,"preserving":true}'
    r = compute_invariant("z1", builder("virtual_trefoil"), Q4, PHI, SHIFT)
    assert r.kind == "Z1" and str(r) == "t^2"
    r = compute_invariant("z", builder("hopf_pos"), Q4, PHI)
    assert str(r) == "8"
    r = compute_invariant("z3", builder("virtual_hopf"), Q4, PHI, INNER0)
    assert str(r) == "7 + t^2"
    with pytest.raises(InvalidParameter):
        compute_invariant("z1", builder("unknot"), Q4, PHI, None)
    with pytest.raises(InvalidParameter):
        compute_invariant("zz", builder("unknot"), Q4, PHI, ID4)


def test_modular_coefficients():
    g2 = CoefficientGroup(2)
    from vknots.weights import Cocycle2

    phi2 = Cocycle2(Q4, g2, PHI.exponents)
    vt = builder("virtual_trefoil")
    z1 = state_weight_z1(vt, Q4, phi2, SHIFT)
    assert z1.group.modulus == 2
    assert z1.exponent == 0  # 2 mod 2


# The grid on which compute_invariant must agree with the public functions:
# every corpus diagram (and one with free loops) over R3 and R4, under
# identity, inner:0 and shift, with the trivial cocycle, example-r4 and its
# copy mod 2 (the last two on R4 only).
_VT_LOOPS = VirtualDiagram(6, 2, builder("virtual_trefoil").crossings)
_GRID_DIAGRAMS = [(name, builder(name)) for name in BUILDER_NAMES] + [("virtual_trefoil+2", _VT_LOOPS)]


def _grid_settings():
    for q in (Q3, Q4):
        n = q.order
        twists = {"id": QuandleMap.identity(n), "inner:0": inner_automorphism(q, 0),
                  "shift": QuandleMap(tuple((i + 1) % n for i in range(n)))}
        cocycles = {"trivial": trivial_cocycle(q)}
        if n == 4:
            cocycles["example-r4"] = PHI
            cocycles["example-r4-mod2"] = Cocycle2(Q4, CoefficientGroup(2), PHI.exponents)
        for cname, c in cocycles.items():
            for fname, f in twists.items():
                yield f"R{n}-{cname}-{fname}", q, c, f


def _outcome(call):
    try:
        return call()
    except (WrongKind, PreconditionFailed) as exc:
        return type(exc)


@pytest.mark.parametrize("name, d", _GRID_DIAGRAMS, ids=[name for name, _ in _GRID_DIAGRAMS])
def test_compute_invariant_matches_public_functions(name, d):
    public = {
        "z": lambda q, c, f: state_sum_classical(d, q, c),
        "z1": lambda q, c, f: state_weight_z1(d, q, c, f),
        "z2": lambda q, c, f: state_sum_z2(d, q, c, f),
        "z3": lambda q, c, f: aut_sum_z3(d, q, c),
    }
    for setting, q, c, f in _grid_settings():
        for kind, fn in public.items():
            result = _outcome(lambda: compute_invariant(kind, d, q, c, f))
            expected = _outcome(lambda: fn(q, c, f))
            if isinstance(expected, type):
                assert result is expected, (setting, kind)
                continue
            assert result.value == expected, (setting, kind)
            twist = QuandleMap.identity(q.order) if kind == "z" else f
            assert result.colorings == count_colorings(d, q, twist), (setting, kind)


@pytest.mark.parametrize("name, d", _GRID_DIAGRAMS, ids=[name for name, _ in _GRID_DIAGRAMS])
def test_invariant_bundle_matches_public_functions(name, d):
    for setting, q, c, f in _grid_settings():
        expected = {
            "colorings": count_colorings(d, q, f),
            "z1": state_weight_z1(d, q, c, f).exponent,
            "z3": aut_sum_z3(d, q, c).to_json_obj(),
        }
        if preservation_witness(f, c) is None:
            expected["z2"] = state_sum_z2(d, q, c, f).to_json_obj()
        assert invariant_bundle(d, q, c, f) == expected, setting


def test_invariants_without_a_twist_map_are_refused():
    d = builder("virtual_trefoil")
    with pytest.raises(InvalidParameter, match="needs an automorphism"):
        state_weight_z1(d, Q4, PHI, None)
    with pytest.raises(InvalidParameter, match="needs an automorphism"):
        state_sum_z2(d, Q4, PHI, None)
    with pytest.raises(InvalidParameter, match="must be an automorphism"):
        compute_invariant("z3", d, Q4, PHI, QuandleMap((0, 0, 0, 0)))


def test_an_unknown_invariant_kind_is_refused_before_the_twist_map_is_read():
    # without a twist map this used to ask for an automorphism, not name the kind
    for f in (None, QuandleMap.identity(4), QuandleMap((0, 0, 0, 0))):
        with pytest.raises(InvalidParameter, match="unknown invariant kind 'zz'"):
            compute_invariant("zz", builder("trefoil"), Q4, PHI, f)


@pytest.mark.parametrize("order", [3, 5])
def test_a_cocycle_from_another_quandle_is_refused(order):
    # example-r4 lives on R4: over R3 it used to give a meaningless t^3, over
    # R5 an IndexError
    q, d = make_dihedral(order), builder("trefoil")
    f = QuandleMap.identity(order)
    for kind in ("z", "z1", "z2", "z3"):
        with pytest.raises(InvalidParameter, match="different quandle"):
            compute_invariant(kind, d, q, PHI, f)
    with pytest.raises(InvalidParameter, match="different quandle"):
        invariant_bundle(d, q, PHI, f)
    with pytest.raises(InvalidParameter, match="different quandle"):
        state_weight_z1(d, q, PHI, f)
