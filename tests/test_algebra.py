import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vknots.algebra import (
    QuandleMap,
    automorphisms,
    inner_automorphism,
    is_automorphism,
    left_divide,
    make_dihedral,
    make_from_table,
    map_order,
    map_power,
    quandle_from_json,
    quandle_to_json,
    validate_quandle,
)
from vknots.errors import InvalidParameter, MalformedInput, SearchBoundExceeded


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


def test_left_divide_examples():
    assert left_divide(make_dihedral(4), 3, 0) == 1
    assert left_divide(make_dihedral(3), 0, 1) == 2
    q = make_dihedral(5)
    for a in range(5):
        assert left_divide(q, q.table[a][a], a) == a


@given(st.integers(min_value=1, max_value=9), st.data())
def test_left_divide_round_trip(n, data):
    q = make_dihedral(n)
    x = data.draw(st.integers(min_value=0, max_value=n - 1))
    a = data.draw(st.integers(min_value=0, max_value=n - 1))
    assert left_divide(q, q.table[x][a], a) == x


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


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_automorphism_group_closure(n):
    q = make_dihedral(n)
    auts = {m.images for m in automorphisms(q)}
    for a in list(auts):
        assert QuandleMap(a).inverse().images in auts
        for b in list(auts):
            assert QuandleMap(a).compose(QuandleMap(b)).images in auts


def test_map_order():
    assert map_order(QuandleMap.identity(4)) == 1
    assert map_order(QuandleMap((0, 3, 2, 1))) == 2
    assert map_order(QuandleMap((1, 2, 3, 0))) == 4
    with pytest.raises(InvalidParameter):
        map_order(QuandleMap((0, 0, 1, 2)))


def test_map_power_matches_repeated_composition():
    m = QuandleMap((1, 2, 3, 0))
    assert map_power(m, 0) == QuandleMap.identity(4)
    assert map_power(m, 2).images == (2, 3, 0, 1)
    assert map_power(m, -1) == m.inverse()
    assert map_power(m, 4) == QuandleMap.identity(4)


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
