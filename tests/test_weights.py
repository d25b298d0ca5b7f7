import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intlin_helpers import solve_mod
from vknots import weights
from vknots.algebra import MAX_COCYCLE_BASIS_ORDER, QuandleMap, inner_automorphism, make_dihedral, make_from_table
from vknots.errors import InvalidParameter, MalformedInput, SearchBoundExceeded
from vknots.weights import (
    CoefficientGroup,
    Cochain1,
    Cocycle2,
    Weight,
    WeightPolynomial,
    coboundary,
    cocycle_from_json,
    cocycle_product,
    cocycle_space_basis,
    cocycle_to_json,
    example_cocycle_r4,
    is_cohomologous,
    preservation_witness,
    preserves,
    trivial_cocycle,
    validate_cocycle,
)

Z = CoefficientGroup(0)
TRIVIAL2 = make_from_table([[0, 0], [1, 1]])


def test_weight_arithmetic_exact():
    big = 10**40
    assert Weight(Z, 7 * big - 3).exponent == 7 * big - 3
    assert str(Weight(Z, 0)) == "1"
    assert str(Weight(Z, 1)) == "t"
    assert str(Weight(Z, -2)) == "t^-2"


def test_weight_modulus_reduction():
    g = CoefficientGroup(5)
    assert Weight(g, 7).exponent == 2
    assert Weight(g, -1).exponent == 4
    assert Weight(g, 10**40).exponent == 0
    with pytest.raises(InvalidParameter):
        CoefficientGroup(-1)


def test_weight_polynomial_basics():
    p = WeightPolynomial.from_pairs([(1, 2), (0, 3), (1, 1)])
    assert p.terms == ((0, 3), (1, 3))
    assert p.evaluate_at_one() == 6
    assert str(p) == "3 + 3*t"
    assert str(WeightPolynomial.from_pairs([(0, 8), (1, 8)])) == "8 + 8*t"
    assert str(WeightPolynomial(())) == "0"
    assert p.to_json_obj() == [[0, 3], [1, 3]]
    with pytest.raises(InvalidParameter):
        WeightPolynomial.from_pairs([(0, -1)])


def test_example_cocycle_r4_values():
    c = example_cocycle_r4()
    assert c.group == Z
    assert c.exponents[0][1] == 1
    assert c.exponents[0][3] == 1
    assert c.exponents[2][2] == 0
    assert sum(e for row in c.exponents for e in row) == 2
    assert validate_cocycle(c).ok


def test_trivial_cocycle_validates_everywhere():
    for n in (1, 2, 3, 4, 5):
        assert validate_cocycle(trivial_cocycle(make_dihedral(n))).ok


def test_built_in_cocycles_validate():
    # the CLI trusts --cocycle trivial and example-r4 without re-checking them
    for n in range(1, 17):
        assert validate_cocycle(trivial_cocycle(make_dihedral(n))).ok, n
    assert validate_cocycle(example_cocycle_r4()).ok


def test_validate_cocycle_finds_violations():
    c = example_cocycle_r4()
    table = [list(row) for row in c.exponents]
    table[1][0] = 1  # one extra entry breaks the quadrilateral identity
    broken = Cocycle2(c.quandle, c.group, tuple(tuple(r) for r in table))
    report = validate_cocycle(broken)
    assert not report.ok
    assert report.condition == 2
    a, b, cc = report.witness
    q = c.quandle
    lhs = broken.exponents[a][b] + broken.exponents[q.table[a][b]][cc]
    rhs = broken.exponents[a][cc] + broken.exponents[q.table[a][cc]][q.table[b][cc]]
    assert lhs != rhs
    diag = [list(row) for row in c.exponents]
    diag[2][2] = 5
    report = validate_cocycle(Cocycle2(c.quandle, c.group, tuple(tuple(r) for r in diag)))
    assert report.condition == 1 and report.witness == (2,)


def test_cocycle_table_size_checked():
    with pytest.raises(MalformedInput):
        Cocycle2(make_dihedral(3), Z, ((0, 0), (0, 0)))


def test_coboundary_examples():
    q = make_dihedral(4)
    constant = coboundary(q, Z, Cochain1(Z, (5, 5, 5, 5)))
    assert constant == trivial_cocycle(q)
    c = coboundary(q, Z, Cochain1(Z, (1, 0, 0, 0)))
    assert c.exponents[0][1] == 1  # 0*1 = 2, so psi(0) - psi(2) = 1
    assert all(c.exponents[x][x] == 0 for x in range(4))
    with pytest.raises(InvalidParameter):
        coboundary(q, Z, Cochain1(Z, (1, 0)))
    # only a cochain over the coboundary's own group: no bare sequence, no other modulus
    for psi in ((1, 0, 0, 0), (True, 0, 0, 0), Cochain1(CoefficientGroup(2), (1, 0, 0, 0))):
        with pytest.raises(InvalidParameter, match="not a Cochain1 over the coefficient group"):
            coboundary(q, CoefficientGroup(3), psi)


@given(st.integers(min_value=1, max_value=6), st.data())
@settings(max_examples=60)
def test_coboundaries_always_validate(n, data):
    q = make_dihedral(n)
    exps = tuple(data.draw(st.integers(min_value=-9, max_value=9)) for _ in range(n))
    m = data.draw(st.sampled_from([0, 0, 2, 3, 5]))
    group = CoefficientGroup(m)
    assert validate_cocycle(coboundary(q, group, Cochain1(group, exps))).ok


def test_product_and_inverse():
    c = example_cocycle_r4()
    inverse = Cocycle2(c.quandle, c.group, tuple(tuple(-e for e in row) for row in c.exponents))
    assert cocycle_product(c, inverse) == trivial_cocycle(c.quandle)
    assert cocycle_product(c, c).exponents[0][1] == 2
    q3 = make_dihedral(3)
    with pytest.raises(InvalidParameter):
        cocycle_product(c, trivial_cocycle(q3))
    rng = random.Random(7)
    q = c.quandle
    for _ in range(5):
        c1 = coboundary(q, Z, Cochain1(Z, tuple(rng.randrange(-4, 5) for _ in range(4))))
        c2 = coboundary(q, Z, Cochain1(Z, tuple(rng.randrange(-4, 5) for _ in range(4))))
        assert validate_cocycle(cocycle_product(c1, c2)).ok


def test_is_cohomologous_basics():
    c = example_cocycle_r4()
    q = c.quandle
    witness = is_cohomologous(c, c)
    assert witness is not None
    assert coboundary(q, Z, witness) == trivial_cocycle(q)
    assert is_cohomologous(c, trivial_cocycle(q)) is None
    psi0 = Cochain1(Z, (2, -1, 0, 3))
    shifted = cocycle_product(coboundary(q, Z, psi0), c)
    w = is_cohomologous(shifted, c)
    assert w is not None
    assert cocycle_product(c, coboundary(q, Z, w)) == shifted


@pytest.mark.parametrize("m", [0, 2, 3])
def test_is_cohomologous_equivalence_relation(m):
    group = CoefficientGroup(m)
    q = make_dihedral(4)
    rng = random.Random(m)
    cocycles = [
        cocycle_product(
            coboundary(q, group, Cochain1(group, tuple(rng.randrange(-3, 4) for _ in range(4)))),
            base,
        )
        for base in (
            trivial_cocycle(q, group),
            Cocycle2(q, group, example_cocycle_r4().exponents),
        )
        for _ in range(2)
    ]
    for a in cocycles:
        assert is_cohomologous(a, a) is not None
        for b in cocycles:
            ab = is_cohomologous(a, b)
            assert (ab is None) == (is_cohomologous(b, a) is None)
            for c in cocycles:
                bc = is_cohomologous(b, c)
                if ab is not None and bc is not None:
                    assert is_cohomologous(a, c) is not None


def test_preserves_examples():
    c = example_cocycle_r4()
    q = c.quandle
    assert preserves(inner_automorphism(q, 0), c)
    assert preserves(QuandleMap.identity(4), c)
    shift = QuandleMap((1, 2, 3, 0))
    assert not preserves(shift, c)
    assert preservation_witness(shift, c) == (0, 1)
    with pytest.raises(InvalidParameter):
        preserves(QuandleMap((0, 1, 2, 2)), c)


def test_preserving_maps_form_a_subgroup():
    c = example_cocycle_r4()
    q = c.quandle
    from vknots.algebra import automorphisms

    preserving = [f for f in automorphisms(q) if preserves(f, c)]
    for f in preserving:
        assert preserves(f.inverse(), c)
        for g in preserving:
            assert preserves(f.compose(g), c)


def test_cocycle_space_basis():
    assert cocycle_space_basis(make_from_table([[0]]), 2) == []
    q = make_dihedral(4)
    basis = cocycle_space_basis(q, 2)
    assert basis
    for c in basis:
        assert validate_cocycle(c).ok
    # the mod-2 reduction of the example cocycle lies in the span
    n = q.order
    cols = [[c.exponents[a][b] for a in range(n) for b in range(n)] for c in basis]
    matrix = [[cols[j][i] for j in range(len(cols))] for i in range(n * n)]
    target = [example_cocycle_r4().exponents[a][b] % 2 for a in range(n) for b in range(n)]
    assert solve_mod(matrix, target, 2) is not None
    with pytest.raises(InvalidParameter):
        cocycle_space_basis(q, 1)


def test_cocycle_space_basis_refuses_orders_above_the_bound(monkeypatch):
    assert MAX_COCYCLE_BASIS_ORDER == 12
    with pytest.raises(SearchBoundExceeded, match="order 13 exceeds the cocycle basis bound 12"):
        cocycle_space_basis(make_dihedral(13), 2)
    # the bound itself is accepted: checked on a lowered bound, since order 12 takes about a second
    monkeypatch.setattr(weights, "MAX_COCYCLE_BASIS_ORDER", 4)
    assert cocycle_space_basis(make_dihedral(4), 2)
    with pytest.raises(SearchBoundExceeded, match="order 5 exceeds the cocycle basis bound 4"):
        cocycle_space_basis(make_dihedral(5), 2)


def test_cocycle_json_round_trip():
    c = example_cocycle_r4()
    text = cocycle_to_json(c)
    assert cocycle_from_json(text, c.quandle) == c
    assert '"m":0' in text
    assert cocycle_from_json('{"group":{"m":0},"entries":[]}', c.quandle) == trivial_cocycle(c.quandle)
    with pytest.raises(MalformedInput):
        cocycle_from_json('{"entries":[]}', c.quandle)
    with pytest.raises(MalformedInput):
        cocycle_from_json('{"group":{"m":0},"entries":[[0,9,1]]}', c.quandle)
    for text in ('{"group":{"m":"3"},"entries":[]}', '{"group":{"m":0},"entries":[[0,1,1.5]]}'):
        with pytest.raises(MalformedInput):
            cocycle_from_json(text, c.quandle)


def test_a_repeated_cocycle_entry_is_refused():
    # a later [a, b, e] overwrote an earlier one: here phi(0, 1) = t was dropped
    q = make_dihedral(4)
    for entries, pair in (("[[0,1,1],[0,1,0],[0,3,1]]", "(0, 1)"), ("[[2,2,0],[2,2,0]]", "(2, 2)")):
        with pytest.raises(MalformedInput, match=rf"^cocycle entry \{pair[:-1]}\) is given twice$"):
            cocycle_from_json('{"group":{"m":0},"entries":' + entries + "}", q)


def _scalar_scan(c):
    """``validate_cocycle``'s answer by its documented order: condition 1 for
    each a, then condition 2 for each (a, b, c) in lexicographic order."""
    t, e, m = c.quandle.table, c.exponents, c.group.modulus
    n = len(t)
    for a in range(n):
        if e[a][a] % m if m else e[a][a]:
            return False, 1, (a,)
    for a in range(n):
        for b in range(n):
            for cc in range(n):
                diff = e[a][b] + e[t[a][b]][cc] - e[a][cc] - e[t[a][cc]][t[b][cc]]
                if diff % m if m else diff:
                    return False, 2, (a, b, cc)
    return True, None, None


def _single_entry_changes(c):
    n = c.quandle.order
    for a in range(n):
        for b in range(n):
            for delta in (-1, 1, 2):
                table = [list(row) for row in c.exponents]
                table[a][b] += delta
                yield Cocycle2(c.quandle, c.group, tuple(tuple(row) for row in table))


def test_validate_cocycle_reports_the_first_failure_in_order():
    # a table that fails quandle axiom 2 is scanned in the same order
    not_a_quandle = make_from_table([[0, 0, 0], [0, 1, 1], [2, 2, 2]])
    bases = [example_cocycle_r4(), trivial_cocycle(not_a_quandle)]
    bases += [trivial_cocycle(make_dihedral(n), CoefficientGroup(m)) for n in (3, 4, 5) for m in (0, 3)]
    failures = set()
    for base in bases:
        for c in _single_entry_changes(base):
            report = validate_cocycle(c)
            assert (report.ok, report.condition, report.witness) == _scalar_scan(c)
            failures.add(report.condition)
    assert failures == {None, 1, 2}
