import gc
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vknots.algebra import (
    DEFAULT_AUT_SEARCH_BOUND,
    MAX_DIHEDRAL_ORDER,
    FiniteQuandle,
    QuandleMap,
    automorphisms,
    inner_automorphism,
    is_automorphism,
    make_dihedral,
    make_from_table,
    map_order,
    quandle_from_json,
    quandle_to_json,
    validate_quandle,
)
from vknots.diagram import builder
from vknots.errors import InvalidParameter, MalformedInput, SearchBoundExceeded
from vknots.invariants import compute_invariant
from vknots.solver import brute_force_colorings, count_colorings
from vknots.weights import trivial_cocycle


def test_dihedral_table_entries():
    q = make_dihedral(4)
    assert q.table[1][0] == 3  # 2*0 - 1 mod 4
    assert make_dihedral(1).table == ((0,),)
    assert make_dihedral(3).table == ((0, 2, 1), (2, 1, 0), (1, 0, 2))


def test_dihedral_rejects_zero():
    with pytest.raises(InvalidParameter):
        make_dihedral(0)
    with pytest.raises(InvalidParameter):
        make_dihedral(True)


def test_dihedral_order_is_bounded():
    assert make_dihedral(MAX_DIHEDRAL_ORDER).order == MAX_DIHEDRAL_ORDER
    with pytest.raises(InvalidParameter, match="exceeds"):
        make_dihedral(MAX_DIHEDRAL_ORDER + 1)
    with pytest.raises(InvalidParameter, match="exceeds"):
        quandle_from_json(f'{{"kind":"dihedral","n":{20000}}}')


def test_make_from_table_no_validation():
    q = make_from_table([[0, 1], [0, 1]])
    assert q.order == 2
    assert not validate_quandle(q).ok
    assert make_from_table([[0]]).order == 1
    assert make_from_table([[(2 * j - i) % 4 for j in range(4)] for i in range(4)]) == make_dihedral(4)


def test_make_from_table_rejects_malformed():
    with pytest.raises(MalformedInput):
        make_from_table([[0, 1], [0]])
    with pytest.raises(MalformedInput):
        make_from_table([[0, 2], [0, 1]])
    with pytest.raises(MalformedInput):
        make_from_table([])
    with pytest.raises(MalformedInput):
        make_from_table([[False, False], [True, True]])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_dihedral_quandles_validate(n):
    assert validate_quandle(make_dihedral(n)).ok


def test_dihedral_quandles_validate_up_to_64():
    # the CLI trusts dihedral:N without re-checking the axioms
    for n in range(1, 65):
        assert validate_quandle(make_dihedral(n)).ok, n


def test_trivial_quandle_validates():
    assert validate_quandle(make_from_table([[0, 0], [1, 1]])).ok


def test_validation_reports_axiom_and_witness():
    report = validate_quandle(make_from_table([[0, 1], [0, 1]]))
    assert not report.ok
    assert report.axiom == 2
    assert report.witness == (0,)
    report = validate_quandle(make_from_table([[1, 1], [0, 0]]))
    assert report.axiom == 1
    assert report.witness == (0,)


def test_every_single_entry_mutation_is_rejected():
    q = make_dihedral(4)
    for a in range(4):
        for b in range(4):
            for v in range(4):
                if v == q.table[a][b]:
                    continue
                table = [list(row) for row in q.table]
                table[a][b] = v
                assert not validate_quandle(make_from_table(table)).ok


def _scalar_report(table):
    """The three axioms checked entry by entry, in the documented witness order."""
    n = len(table)
    for a in range(n):
        if table[a][a] != a:
            return (False, 1, (a,))
    for b in range(n):
        if sorted(table[a][b] for a in range(n)) != list(range(n)):
            return (False, 2, (b,))
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[table[a][c]][table[b][c]]:
                    return (False, 3, (a, b, c))
    return (True, None, None)


def _permutation_column_tables(n):
    # every table whose columns are permutations fixing their own index,
    # so that axioms 1 and 2 hold: (n-1)!^n tables
    per_column = [[p for p in itertools.permutations(range(n)) if p[b] == b] for b in range(n)]
    for cols in itertools.product(*per_column):
        yield [[cols[b][a] for b in range(n)] for a in range(n)]


def _axiom_cases():
    rng = random.Random(5)
    cases = [[[0, 1], [0, 1]], [[1, 1], [0, 0]], [[0, 0], [1, 1]]]
    for n in range(1, 5):
        cases += _permutation_column_tables(n)
    for n in range(1, 7):
        cases += [[[rng.randrange(n) for _ in range(n)] for _ in range(n)] for _ in range(5)]
    q = make_dihedral(4)
    for a in range(4):
        for b in range(4):
            for v in range(4):
                table = [list(row) for row in q.table]
                table[a][b] = v
                cases.append(table)
    # two entries of one column swapped off the diagonal: axioms 1 and 2
    # still hold, and axiom 3 fails at only some (b, c)
    for n in (5, 6, 7):
        base = make_dihedral(n).table
        for b in range(n):
            for a1, a2 in itertools.combinations([a for a in range(n) if a != b], 2):
                table = [list(row) for row in base]
                table[a1][b], table[a2][b] = table[a2][b], table[a1][b]
                cases.append(table)
    cases += [[list(row) for row in make_dihedral(n).table] for n in range(1, 8)]
    return cases


def test_axiom_reports_match_scalar_scan():
    seen_axioms = set()
    for table in _axiom_cases():
        report = validate_quandle(make_from_table(table))
        assert (report.ok, report.axiom, report.witness) == _scalar_report(table)
        seen_axioms.add(report.axiom)
    assert seen_axioms == {None, 1, 2, 3}


def test_left_divide_examples():
    # division[a][y] is the unique x with x * a = y
    assert make_dihedral(4).division[0][3] == 1
    assert make_dihedral(3).division[1][0] == 2
    q = make_dihedral(5)
    for a in range(5):
        assert q.division[a][q.table[a][a]] == a


@given(st.integers(min_value=1, max_value=9), st.data())
def test_left_divide_round_trip(n, data):
    q = make_dihedral(n)
    x = data.draw(st.integers(min_value=0, max_value=n - 1))
    a = data.draw(st.integers(min_value=0, max_value=n - 1))
    assert q.division[a][q.table[x][a]] == x


def test_is_automorphism_examples():
    q = make_dihedral(4)
    assert is_automorphism(q, QuandleMap((0, 3, 2, 1)))
    assert is_automorphism(q, QuandleMap.identity(4))
    assert not is_automorphism(q, QuandleMap((0, 1, 2, 2)))
    with pytest.raises(InvalidParameter):
        is_automorphism(q, QuandleMap((0, 1, 2)))


def test_inner_automorphism_examples():
    assert inner_automorphism(make_dihedral(4), 0).images == (0, 3, 2, 1)
    assert inner_automorphism(make_dihedral(3), 1).images == (2, 1, 0)
    trivial = make_from_table([[0, 0], [1, 1]])
    assert inner_automorphism(trivial, 1) == QuandleMap.identity(2)
    with pytest.raises(InvalidParameter):
        inner_automorphism(make_dihedral(3), 3)


@pytest.mark.parametrize("a", [1.0, True, "1", None, -1, 4])
def test_inner_automorphism_takes_an_int_element(a):
    # 1.0 raised a TypeError from the column lookup, and True returned element 1's map
    with pytest.raises(InvalidParameter, match="out of range"):
        inner_automorphism(make_dihedral(4), a)


@pytest.mark.parametrize("images", [(True, 2, 3, 0), (0.0, 1.0, 2.0, 3.0), (0, 1, 2, 3.0), (0, 1, 2, 4), (-1, 1, 2, 3)])
def test_a_map_with_an_image_that_is_no_element_is_refused_when_built(images):
    # (True, 2, 3, 0) passed as an automorphism of R4, and float images raised
    # a TypeError from the product test; every map is a self-map of 0..n-1,
    # so no permutation test, inverse, order or count ever reads such an image
    with pytest.raises(InvalidParameter, match=r"a map's images must be a list or tuple of n ints in 0\.\.n-1"):
        QuandleMap(images)


def test_map_refusals():
    with pytest.raises(InvalidParameter, match="different orders"):
        QuandleMap.identity(3).compose(QuandleMap.identity(4))
    with pytest.raises(InvalidParameter, match="only permutations"):
        QuandleMap((0, 0, 1)).inverse()


@given(st.integers(min_value=1, max_value=8), st.data())
@settings(max_examples=40)
def test_inner_maps_are_automorphisms(n, data):
    q = make_dihedral(n)
    a = data.draw(st.integers(min_value=0, max_value=n - 1))
    assert is_automorphism(q, inner_automorphism(q, a))


def test_automorphisms_enumeration():
    assert automorphisms(make_dihedral(1)) == [QuandleMap((0,))]
    auts4 = automorphisms(make_dihedral(4))
    images = [m.images for m in auts4]
    assert (0, 3, 2, 1) in images
    assert (1, 2, 3, 0) in images
    assert images == sorted(images)
    assert len(automorphisms(make_dihedral(3))) == 6
    with pytest.raises(SearchBoundExceeded):
        automorphisms(make_dihedral(9))
    with pytest.raises(SearchBoundExceeded, match="order 9 exceeds automorphism search bound 8"):
        automorphisms(_trivial(9))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_automorphism_group_closure(n):
    q = make_dihedral(n)
    auts = {m.images for m in automorphisms(q)}
    for a in list(auts):
        assert QuandleMap(a).inverse().images in auts
        for b in list(auts):
            assert QuandleMap(a).compose(QuandleMap(b)).images in auts


def _trivial(n):
    return make_from_table([[a] * n for a in range(n)])


def _alexander(p, a):
    """x * y = a x + (1 - a) y mod p."""
    return make_from_table([[(a * x + (1 - a) * y) % p for y in range(p)] for x in range(p)])


def _s3_conjugation():
    """The conjugation quandle of S3: a * b = b^-1 a b."""
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    inv = {p: tuple(sorted(range(3), key=p.__getitem__)) for p in perms}
    mul = lambda p, q: tuple(p[q[i]] for i in range(3))
    return make_from_table([[index[mul(inv[b], mul(a, b))] for b in perms] for a in perms])


def _euler_phi(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


@pytest.mark.parametrize("n", range(1, 25))
def test_dihedral_automorphism_count_is_n_phi_n(n):
    # Aut(R_n) is the affine group of Z_n (Elhamdadi, Macquarrie & Restrepo 2012)
    assert len(automorphisms(make_dihedral(n), bound=n)) == n * _euler_phi(n)


AUT_CASES = {
    **{f"R{n}": make_dihedral(n) for n in range(1, 7)},
    **{f"T{n}": _trivial(n) for n in range(1, 6)},
    **{f"alexander-5-{a}": _alexander(5, a) for a in range(2, 5)},
    "conj-S3": _s3_conjugation(),
}


@pytest.mark.parametrize("name", list(AUT_CASES))
def test_automorphisms_match_an_exhaustive_filter(name):
    q = AUT_CASES[name]
    t, n = q.table, q.order
    # the scalar definition, independent of the product test the search shares with is_automorphism
    expected = [
        p for p in itertools.permutations(range(n)) if all(p[t[a][b]] == t[p[a]][p[b]] for a in range(n) for b in range(n))
    ]
    assert [m.images for m in automorphisms(q)] == expected


DERIVED_CASES = {
    **{f"R{n}": make_dihedral(n) for n in range(1, 9)},
    **{f"alexander-{p}-{a}": _alexander(p, a) for p in (5, 7) for a in range(2, p)},
}


@pytest.mark.parametrize("name", list(DERIVED_CASES))
def test_derived_tables_match_their_definitions(name):
    q = DERIVED_CASES[name]
    t, n = q.table, q.order
    assert q.columns == tuple(tuple(t[a][b] for a in range(n)) for b in range(n))
    assert all(t[q.division[b][y]][b] == y for b in range(n) for y in range(n))
    rng = random.Random(name)
    shuffled = [rng.sample(range(n), n) for _ in range(20)]
    arbitrary = [[rng.randrange(n) for _ in range(n)] for _ in range(20)]
    constant = [[c] * n for c in range(n)]
    maps = list(q.columns) + shuffled + arbitrary + constant
    expected = [all(m[t[a][b]] == t[m[a]][m[b]] for a in range(n) for b in range(n)) for m in maps]
    assert [q.preserves_products(m) for m in maps] == expected
    assert all(expected[:n]) and (n < 3 or not all(expected))


def test_derived_tables_of_a_table_that_is_no_quandle():
    q = make_from_table([[0, 0, 0], [0, 1, 2], [1, 2, 2]])  # columns 0 and 2 repeat an entry
    assert q.columns == ((0, 0, 1), (0, 1, 2), (0, 2, 2))
    assert q.division == ((1, 2, 0), (0, 1, 2), (0, 0, 2))  # the last x with x * b = y, else 0
    maps = list(itertools.product(range(3), repeat=3))
    t = q.table
    expected = [m for m in maps if all(m[t[a][b]] == t[m[a]][m[b]] for a in range(3) for b in range(3))]
    assert [m for m in maps if q.preserves_products(m)] == expected
    assert expected == [(0, 0, 0), (0, 1, 2), (1, 1, 1), (2, 2, 2)]
    assert validate_quandle(q).witness == (0,)


def _use_every_derived_table(q):
    """Run every public function that reads the derived tables of q, and check its answers."""
    n = q.order
    d = builder("trefoil")
    f = inner_automorphism(q, 0)
    c = trivial_cocycle(q)
    assert validate_quandle(q).ok
    assert is_automorphism(q, f) and f.images == tuple(-x % n for x in range(n))
    assert len(automorphisms(q, bound=n)) == n * _euler_phi(n)
    assert all(q.division[1][q.table[x][1]] == x for x in range(n))
    colorings = 3 * n if n % 3 == 0 else n
    assert count_colorings(d, q, f) == len(brute_force_colorings(d, q, f)) == colorings
    assert compute_invariant("z1", d, q, c, f).colorings == colorings
    if n <= DEFAULT_AUT_SEARCH_BOUND:
        assert compute_invariant("z3", d, q, c, f).colorings == colorings


def test_the_derived_tables_are_built_without_hashing_the_quandle(monkeypatch):
    def refuse(self):
        raise AssertionError("a quandle was hashed")

    monkeypatch.setattr(FiniteQuandle, "__hash__", refuse)
    with pytest.raises(AssertionError, match="hashed"):
        hash(make_dihedral(3))
    _use_every_derived_table(make_dihedral(6))


def test_a_quandle_and_its_derived_tables_are_freed_together():
    _use_every_derived_table(make_dihedral(37))
    gc.collect()
    assert not [x for x in gc.get_objects() if isinstance(x, FiniteQuandle) and x.order == 37]


def test_map_order():
    assert map_order(QuandleMap.identity(4)) == 1
    assert map_order(QuandleMap((0, 3, 2, 1))) == 2
    assert map_order(QuandleMap((1, 2, 3, 0))) == 4
    with pytest.raises(InvalidParameter):
        map_order(QuandleMap((0, 0, 1, 2)))


def test_quandle_json_round_trip():
    q = make_dihedral(4)
    assert quandle_from_json(quandle_to_json(q)) == q
    assert quandle_from_json('{"kind":"dihedral","n":4}') == q
    with pytest.raises(MalformedInput):
        quandle_from_json('{"kind":"dihedral"}')
    with pytest.raises(MalformedInput):
        quandle_from_json('{"kind":"mystery","n":2}')
    with pytest.raises(MalformedInput):
        quandle_from_json("not json")
    for n in ("true", "4.0", '"4"'):
        with pytest.raises(MalformedInput):
            quandle_from_json('{"kind":"dihedral","n":%s}' % n)
