from math import gcd

import pytest

from vknots import _colorkernel_py, intlin, kernel
from vknots.algebra import QuandleMap, inner_automorphism, make_dihedral
from vknots.diagram import (
    BUILDER_NAMES,
    ClassicalCrossing,
    VirtualCrossing,
    VirtualDiagram,
    builder,
)
from vknots.moves import random_equivalent
from vknots.errors import CeilingExceeded, InvalidParameter
from vknots.solver import (
    _compiled_constraints,
    _division_table,
    brute_force_colorings,
    count_colorings,
    enumerate_colorings,
    verify_coloring,
)

Q3, Q4 = make_dihedral(3), make_dihedral(4)
ID3, ID4 = QuandleMap.identity(3), QuandleMap.identity(4)
SHIFT4 = QuandleMap((1, 2, 3, 0))


def maps_for(n):
    q = make_dihedral(n)
    return [QuandleMap.identity(n), inner_automorphism(q, 0), QuandleMap(tuple((x + 1) % n for x in range(n)))]


def test_unknot_has_one_empty_coloring():
    d = builder("unknot")
    assert enumerate_colorings(d, Q4, ID4) == [()]
    assert brute_force_colorings(d, Q4, ID4) == [()]
    assert count_colorings(d, Q4, ID4) == 4  # free-loop factor


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
    with pytest.raises(InvalidParameter):
        enumerate_colorings(builder("trefoil"), Q4, QuandleMap((0, 0, 1, 2)))
    with pytest.raises(InvalidParameter):
        brute_force_colorings(builder("trefoil"), Q4, QuandleMap((0, 1, 3, 2)))
    with pytest.raises(InvalidParameter):
        verify_coloring(builder("trefoil"), Q4, ID4, (0,) * 5)


def test_ceiling_enforced():
    with pytest.raises(CeilingExceeded):
        brute_force_colorings(builder("kishino"), Q4, ID4, ceiling=10**6)


@pytest.mark.parametrize("name", BUILDER_NAMES)
@pytest.mark.parametrize("n", [3, 4])
def test_oracle_equivalence(name, n):
    d = builder(name)
    q = make_dihedral(n)
    for f in maps_for(n):
        fast = enumerate_colorings(d, q, f)
        slow = brute_force_colorings(d, q, f, ceiling=2 * 10**7)
        assert fast == slow  # both sorted, equal as sets and sequences


def test_twisted_count_can_drop():
    # two circles crossing each other twice virtually with equal chirality:
    # each color must be fixed by the square of the twist
    d = VirtualDiagram(
        4, 0, (VirtualCrossing(0, 1, 2, 3, 1), VirtualCrossing(1, 0, 3, 2, 1))
    )
    from vknots.diagram import validate_diagram

    assert validate_diagram(d).ok
    assert count_colorings(d, Q4, ID4) == 16
    assert count_colorings(d, Q4, SHIFT4) == 0  # shift^2 has no fixed points
    assert count_colorings(d, Q4, inner_automorphism(Q4, 0)) == 16  # an involution


def test_global_twist_relabelling_is_a_bijection():
    for name in ("virtual_trefoil", "virtual_hopf", "kishino"):
        d = builder(name)
        for f in maps_for(4):
            cols = set(enumerate_colorings(d, Q4, f))
            mapped = {tuple(f(x) for x in c) for c in cols}
            assert mapped == cols


def test_backend_parity_python_vs_selected():
    assert kernel.BACKEND in ("compiled", "python")
    for name in ("trefoil", "virtual_trefoil", "virtual_hopf", "unknot_vkink"):
        d = builder(name)
        for f in maps_for(4):
            classical, virtual = _compiled_constraints(d)
            args = (
                4,
                d.edges,
                classical,
                virtual,
                Q4.table,
                _division_table(Q4),
                f.images,
                f.inverse().images,
            )
            assert kernel.filter_colorings(*args) == _colorkernel_py.filter_colorings(*args)


# ---------------------------------------------------------------------------
# Linear-algebra check at scale.  On the dihedral quandle R_n (a * b = 2b - a)
# both classical rules read u_out + u_in - 2*o = 0 and o_out - o_in = 0, and
# the twists below are affine, x -> u*x + b with u = +-1, so the twisted
# colorings are the solutions of an affine system over Z_n.  Their number is
# 0 when the system is inconsistent and otherwise the size of the kernel,
# the product of gcd(d_j, n) over the Smith diagonal (d_j = 0 past the rank).
# It shares no code with the search and needs no scan of n^E assignments.

AFFINE_TWISTS = {"identity": (1, 0), "inner:0": (-1, 0), "shift": (1, 1)}


def _affine_count(d, n, u, b):
    rows, rhs = [], []

    def equation(terms, value):
        row = [0] * d.edges
        for e, coeff in terms:
            row[e] += coeff
        rows.append(row)
        rhs.append(value % n)

    f, f_inv = (u, b), (u, -u * b)  # u = u^-1 since u = +-1
    for c in d.crossings:
        if isinstance(c, ClassicalCrossing):
            equation([(c.over_out, 1), (c.over_in, -1)], 0)
            equation([(c.under_out, 1), (c.under_in, 1), (c.over_in, -2)], 0)
        else:
            first, second = (f_inv, f) if c.chirality > 0 else (f, f_inv)
            for e_in, e_out, (uu, bb) in ((c.first_in, c.first_out, first), (c.second_in, c.second_out, second)):
                equation([(e_out, 1), (e_in, -uu)], bb)
    if intlin.solve_mod(rows, rhs, n) is None:
        return 0
    diag, _, _ = intlin.smith_normal_form(rows)
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
    for spec, (u, b) in AFFINE_TWISTS.items():
        f = QuandleMap(tuple((u * x + b) % n for x in range(n)))
        assert count_colorings(d, q, f) == _affine_count(d, n, u, b), spec
