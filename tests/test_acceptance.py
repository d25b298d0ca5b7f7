"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; everything is exact (integer/polynomial equality, no tolerances).
"""

import random
import time
from itertools import product

import pytest

from vknots.algebra import (
    QuandleMap,
    automorphisms,
    inner_automorphism,
    is_automorphism,
    make_dihedral,
    make_from_table,
    validate_quandle,
)
from vknots.diagram import BUILDER_NAMES, builder, validate_diagram
from vknots.errors import PreconditionFailed
from vknots.invariants import (
    aut_sum_z3,
    state_sum_classical,
    state_sum_z2,
    state_weight_z1,
)
from vknots.kernel import compile_problem, satisfying
from vknots.moves import random_equivalent
from vknots.solver import brute_force_colorings, count_colorings, enumerate_colorings
from vknots.weights import (
    CoefficientGroup,
    Cochain1,
    Weight,
    coboundary,
    cocycle_product,
    example_cocycle_r4,
    is_cohomologous,
    preserves,
    trivial_cocycle,
    validate_cocycle,
)

Q3 = make_dihedral(3)
Q4 = make_dihedral(4)
PHI = example_cocycle_r4()
Z = CoefficientGroup(0)


def _maps(n):
    q = make_dihedral(n)
    return (
        QuandleMap.identity(n),
        inner_automorphism(q, 0),
        QuandleMap(tuple((x + 1) % n for x in range(n))),
    )


def _ok(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_1_example_data():
    t0 = time.time()
    assert validate_cocycle(PHI).ok  # exhaustive 64-triple check
    f = inner_automorphism(Q4, 0)
    assert is_automorphism(Q4, f)
    assert preserves(f, PHI)
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _ok(1, f"example cocycle valid, inner(0) is a preserving automorphism ({elapsed:.3f}s)")


def test_criterion_2_quandle_axioms():
    for n in (3, 4, 5, 6):
        assert validate_quandle(make_dihedral(n)).ok
    rng = random.Random(2024)
    mutations = 0
    while mutations < 60:
        a, b, v = rng.randrange(4), rng.randrange(4), rng.randrange(4)
        if v == Q4.table[a][b]:
            continue
        table = [list(row) for row in Q4.table]
        table[a][b] = v
        assert not validate_quandle(make_from_table(table)).ok
        mutations += 1
    _ok(2, f"dihedral 3..6 validate; {mutations} single-entry mutations rejected")


def test_criterion_3_oracle_equivalence():
    # one full scan of all |G|^E edge assignments per case (kishino over R4
    # is 4^12), besides the arc scan that the solver ships as its oracle
    checked = 0
    for name in BUILDER_NAMES:
        d = builder(name)
        for n in (3, 4):
            q = make_dihedral(n)
            for f in _maps(n):
                full = satisfying(compile_problem(d, q, f), product(range(n), repeat=d.edges))
                assert full == brute_force_colorings(d, q, f) == enumerate_colorings(d, q, f)
                checked += 1
    _ok(3, f"propagation enumerator, arc scan and full scan agree on {checked} cases")


def test_criterion_4_trivial_values():
    unknot = builder("unknot")
    for n in (3, 4):
        q = make_dihedral(n)
        triv = trivial_cocycle(q)
        for f in _maps(n):
            assert state_sum_z2(unknot, q, triv, f).terms == ((0, n),)
    for f in (QuandleMap.identity(4), inner_automorphism(Q4, 0)):
        assert state_sum_z2(unknot, Q4, PHI, f).terms == ((0, 4),)
    for name in BUILDER_NAMES:
        d = builder(name)
        for n in (3, 4):
            q = make_dihedral(n)
            triv = trivial_cocycle(q)
            for f in _maps(n):
                assert state_weight_z1(d, q, triv, f) == Weight(Z, 0)
                count = count_colorings(d, q, f)
                expect = () if count == 0 else ((0, count),)
                assert state_sum_z2(d, q, triv, f).terms == expect
    _ok(4, "unknot state sum is |G|; trivial cocycle gives t^0 and bare counts")


def test_criterion_5_trefoil_dihedral3():
    cols = brute_force_colorings(builder("trefoil"), Q3, QuandleMap.identity(3))
    assert len(cols) == 9
    z2 = state_sum_z2(builder("trefoil"), Q3, trivial_cocycle(Q3), QuandleMap.identity(3))
    assert z2.terms == ((0, 9),)
    _ok(5, "trefoil has exactly 9 dihedral-3 colorings and state sum 9")


def test_criterion_6_move_invariance_fuzz():
    t0 = time.time()
    maps4 = _maps(4)
    inner0 = maps4[1]
    shift = maps4[2]
    traces = 0
    for name in BUILDER_NAMES:
        d = builder(name)
        base_counts = {f.images: count_colorings(d, Q4, f) for f in maps4}
        base_z1 = {f.images: state_weight_z1(d, Q4, PHI, f) for f in maps4}
        base_z3 = aut_sum_z3(d, Q4, PHI)
        base_z2 = state_sum_z2(d, Q4, PHI, inner0)
        with pytest.raises(PreconditionFailed) as err:
            state_sum_z2(d, Q4, PHI, shift)
        assert err.value.witness is not None
        for seed in range(20):
            final, trace = random_equivalent(d, seed, 200, allow_semi_virtual=True)
            assert len(trace) == 200
            assert validate_diagram(final).ok
            for f in maps4:
                assert count_colorings(final, Q4, f) == base_counts[f.images]
                assert state_weight_z1(final, Q4, PHI, f) == base_z1[f.images]
            assert aut_sum_z3(final, Q4, PHI) == base_z3
            assert state_sum_z2(final, Q4, PHI, inner0) == base_z2
            with pytest.raises(PreconditionFailed):
                state_sum_z2(final, Q4, PHI, shift)
            traces += 1
    elapsed = time.time() - t0
    assert elapsed <= 60.0
    _ok(6, f"{traces} traces of 200 moves kept counts, Z1, Z2, Z3 fixed ({elapsed:.1f}s)")


def test_criterion_7_coboundary_triviality():
    rng = random.Random(7)
    inner0 = inner_automorphism(Q4, 0)
    cochains = [
        Cochain1(Z, tuple(rng.randrange(-6, 7) for _ in range(4))) for _ in range(50)
    ]
    for name in BUILDER_NAMES:
        d = builder(name)
        base = state_weight_z1(d, Q4, PHI, inner0)
        for psi in cochains:
            shifted = cocycle_product(PHI, coboundary(Q4, Z, psi))
            assert state_weight_z1(d, Q4, shifted, inner0) == base
    _ok(7, "Z1 unchanged by 50 random coboundary shifts on every corpus diagram")


def test_criterion_8_cohomology():
    assert is_cohomologous(PHI, trivial_cocycle(Q4)) is None
    rng = random.Random(8)
    for _ in range(25):
        psi = Cochain1(Z, tuple(rng.randrange(-6, 7) for _ in range(4)))
        shifted = cocycle_product(PHI, coboundary(Q4, Z, psi))
        witness = is_cohomologous(shifted, PHI)
        assert witness is not None
        assert cocycle_product(PHI, coboundary(Q4, Z, witness)) == shifted
    _ok(8, "example cocycle is non-trivial; coboundary shifts yield witnesses")


def test_criterion_9_consistency():
    combos = 0
    for name in BUILDER_NAMES:
        d = builder(name)
        for n in (3, 4):
            q = make_dihedral(n)
            for f in _maps(n):
                z2 = state_sum_z2(d, q, trivial_cocycle(q), f)
                assert z2.evaluate_at_one() == count_colorings(d, q, f)
                combos += 1
        for f in (QuandleMap.identity(4), inner_automorphism(Q4, 0)):
            z2 = state_sum_z2(d, Q4, PHI, f)
            assert z2.evaluate_at_one() == count_colorings(d, Q4, f)
            combos += 1
    classical = [n for n in BUILDER_NAMES if not builder(n).virtual()]
    for name in classical:
        d = builder(name)
        z = state_sum_classical(d, Q4, PHI)
        z_triv = state_sum_classical(d, Q4, trivial_cocycle(Q4))
        for f in automorphisms(Q4):
            assert state_sum_z2(d, Q4, trivial_cocycle(Q4), f) == z_triv
            if preserves(f, PHI):
                assert state_sum_z2(d, Q4, PHI, f) == z
    _ok(9, f"Z2 at t=1 matches counts on {combos} combinations; Z2 = Z classically")
