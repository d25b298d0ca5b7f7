import functools
import itertools
import json

import pytest

from moves_helpers import detour_site_lists
from vknots import moves
from vknots.algebra import (
    QuandleMap,
    automorphisms,
    inner_automorphism,
    make_dihedral,
    make_from_table,
    map_order,
)
from vknots.diagram import (
    BUILDER_NAMES,
    ClassicalCrossing,
    VirtualCrossing,
    VirtualDiagram,
    builder,
    component_count,
    isomorphic,
    serialize_diagram,
    successor_cycles,
    validate_diagram,
)
from vknots.errors import InvalidParameter, MalformedInput, NotApplicable
from vknots.moves import (
    ALL_KINDS,
    CLASSICAL_KINDS,
    LOOP,
    MoveRecord,
    _instantiate,
    _realizable,
    apply_move,
    detour,
    find_r1_sites,
    find_r2_sites,
    find_r3_sites,
    find_vkink_sites,
    r1_insert,
    r1_remove,
    r2_insert,
    r2_remove,
    r3_slide,
    random_equivalent,
    vkink_insert,
    vkink_remove,
)
from vknots.solver import count_colorings

Q4 = make_dihedral(4)
MAPS4 = [QuandleMap.identity(4), inner_automorphism(Q4, 0), QuandleMap((1, 2, 3, 0))]


def _s3_conjugation_quandle():
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}

    def mul(p, q):
        return tuple(p[q[i]] for i in range(3))

    def inv(p):
        r = [0] * 3
        for i, v in enumerate(p):
            r[v] = i
        return tuple(r)

    table = [
        [index[mul(inv(perms[b]), mul(perms[a], perms[b]))] for b in range(6)] for a in range(6)
    ]
    return make_from_table(table)


S3 = _s3_conjugation_quandle()
S3_F3 = next(f for f in automorphisms(S3) if map_order(f) == 3)
BATTERY = [(S3, QuandleMap.identity(6)), (S3, S3_F3)] + [(Q4, f) for f in MAPS4]


def counts(d):
    return tuple(count_colorings(d, q, f) for q, f in BATTERY)


def corpus():
    return [builder(name) for name in BUILDER_NAMES]


# --- kinks -----------------------------------------------------------------


def test_r1_insert_on_free_loop():
    d = r1_insert(builder("unknot"), None, 1, "under")
    assert d.edges == 2 and d.free_loops == 0 and len(d.classical()) == 1
    assert isomorphic(d, builder("unknot_kink_pos"))
    assert isomorphic(r1_insert(builder("unknot"), None, -1, "over"), builder("unknot_kink_neg"))


def test_r1_round_trip_everywhere():
    for d in corpus():
        for edge in list(range(d.edges)) + ([None] if d.free_loops else []):
            for sign in (1, -1):
                for handed in ("under", "over"):
                    d2 = r1_insert(d, edge, sign, handed)
                    assert validate_diagram(d2).ok
                    assert d2.edges == d.edges + 2
                    assert any(
                        isomorphic(r1_remove(d2, s), d) for s in find_r1_sites(d2)
                    )


def test_r1_remove_rejects_non_kinks():
    with pytest.raises(NotApplicable):
        r1_remove(builder("trefoil"), 0)


def test_r1_preserves_coloring_count():
    for d in (builder("trefoil"), builder("virtual_trefoil")):
        before = counts(d)
        for sign in (1, -1):
            for handed in ("under", "over"):
                assert counts(r1_insert(d, 0, sign, handed)) == before


# --- pokes -------------------------------------------------------------------


def test_r2_insert_minimal():
    base = builder("unknot_vkink")  # a 2-edge unknot
    d2 = r2_insert(base, 0, 1, True)
    assert validate_diagram(d2).ok
    assert d2.edges == base.edges + 4
    assert len(d2.classical()) == 2
    assert {c.sign for c in d2.classical()} == {1, -1}


def test_r2_round_trip_everywhere():
    for d in corpus():
        for a in range(d.edges):
            for b in range(d.edges):
                if a == b:
                    continue
                for over_first in (True, False):
                    d2 = r2_insert(d, a, b, over_first)
                    assert validate_diagram(d2).ok
                    assert any(
                        isomorphic(r2_remove(d2, s), d) for s in find_r2_sites(d2)
                    )


def test_r2_insert_rejects_equal_edges():
    with pytest.raises(InvalidParameter):
        r2_insert(builder("trefoil"), 2, 2, True)


def test_r2_remove_rejects_bad_site():
    with pytest.raises(NotApplicable):
        r2_remove(builder("figure_eight"), 3)


def test_every_detected_poke_site_removes_cleanly():
    # fuzz traces produce both parallel and antiparallel bigons
    for name in BUILDER_NAMES:
        d = builder(name)
        for seed in range(4):
            dd, _ = random_equivalent(d, seed, 40)
            for mid in find_r2_sites(dd):
                back = r2_remove(dd, mid)
                assert validate_diagram(back).ok
                assert counts(back) == counts(dd)


# --- triangle slides ---------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _pool(n_seeds=6, n_moves=30):
    out = []
    for name in BUILDER_NAMES:
        d = builder(name)
        for seed in range(n_seeds):
            dd, _ = random_equivalent(d, seed, n_moves)
            out.append(dd)
    return tuple(out)


def test_trefoil_triangle_is_cyclic_not_a_site():
    assert find_r3_sites(builder("trefoil")) == []


def test_r3_sites_appear_and_preserve_counts():
    exercised = 0
    for d in _pool():
        c0 = counts(d)
        for site in find_r3_sites(d):
            d2 = r3_slide(d, site)
            assert validate_diagram(d2).ok
            assert d2.edges == d.edges
            assert counts(d2) == c0
            exercised += 1
    assert exercised >= 3


def test_r3_double_slide_is_involution():
    exercised = 0
    for d in _pool():
        for site in find_r3_sites(d)[:2]:
            d2 = r3_slide(d, site)
            assert any(isomorphic(r3_slide(d2, s2), d) for s2 in find_r3_sites(d2))
            exercised += 1
    assert exercised >= 2


def test_r3_rejects_arbitrary_edges():
    with pytest.raises(NotApplicable):
        r3_slide(builder("figure_eight"), (0, 1, 2))


def test_r3_slide_rejects_malformed_bridge_tuples():
    d = next(d for d in _pool() if find_r3_sites(d))
    p, q, r = find_r3_sites(d)[0]
    spare = next(e for e in range(d.edges) if e not in (p, q, r))
    assert validate_diagram(r3_slide(d, (r, p, q))).ok  # any order of the three bridges
    malformed = [(), (p,), (p, q), (p, q, r, spare), (p, p, q), (p, q, q), (p, p, q, r)]
    for bridges in malformed:
        with pytest.raises(NotApplicable):
            r3_slide(d, bridges)
    for bridges in [(-1, q, r), (p, q, d.edges)]:
        with pytest.raises(InvalidParameter, match="out of range"):
            r3_slide(d, bridges)


def _r3_variant_table() -> frozenset:
    """Realizable triangle variants from planar geometry, the reference for
    ``moves._realizable``: three oriented lines pairwise crossing, all height
    orders, both mirror images.  A variant records, for the strand roles
      strand 1 through crossings (X, Y), strand 2 through (X, Z),
      strand 3 through (Z, Y),
    which crossing each strand passes first, which strand is over at each
    crossing, and the three crossing signs."""
    lines = {0: (1, 0), 1: (1, 1), 2: (1, -1)}
    # meeting points at twice their coordinates, so they stay integral;
    # only the order of points along a line is read
    meet = {
        frozenset((0, 1)): (0, 0),
        frozenset((0, 2)): (2, 0),
        frozenset((1, 2)): (1, 1),
    }
    table = set()
    for assignment in itertools.permutations((0, 1, 2)):  # strand role i+1 -> line assignment[i]
        line = {1: assignment[0], 2: assignment[1], 3: assignment[2]}
        px = meet[frozenset((line[1], line[2]))]
        py = meet[frozenset((line[1], line[3]))]
        pz = meet[frozenset((line[2], line[3]))]
        for eps in itertools.product((1, -1), repeat=3):
            dirs = {
                i: (eps[i - 1] * lines[line[i]][0], eps[i - 1] * lines[line[i]][1])
                for i in (1, 2, 3)
            }

            def param(point, i):
                return point[0] * dirs[i][0] + point[1] * dirs[i][1]

            firsts = (
                0 if param(px, 1) < param(py, 1) else 1,
                0 if param(px, 2) < param(pz, 2) else 1,
                0 if param(pz, 3) < param(py, 3) else 1,
            )
            for ranks in itertools.permutations((1, 2, 3)):  # position in tuple = height rank
                height = {s: ranks.index(s) for s in (1, 2, 3)}
                overs = (
                    1 if height[1] > height[2] else 0,
                    1 if height[1] > height[3] else 0,
                    1 if height[2] > height[3] else 0,
                )

                def det(i, j):
                    return dirs[i][0] * dirs[j][1] - dirs[i][1] * dirs[j][0]

                def sgn(i, j, over_ij):
                    d_val = det(i, j) if over_ij else det(j, i)
                    return 1 if d_val > 0 else -1

                signs = (
                    sgn(1, 2, overs[0]),
                    sgn(1, 3, overs[1]),
                    sgn(2, 3, overs[2]),
                )
                for mirror in (1, -1):
                    table.add(firsts + overs + tuple(mirror * s for s in signs))
    return frozenset(table)


R3_VARIANTS = _r3_variant_table()
R3_PATTERNS = [
    (firsts, overs, signs)
    for firsts in itertools.product((0, 1), repeat=3)
    for overs in itertools.product((0, 1), repeat=3)
    for signs in itertools.product((1, -1), repeat=3)
]


def test_r3_variant_table_structure():
    assert len(R3_VARIANTS) == 96
    for entry in R3_VARIANTS:
        firsts, overs, signs = entry[:3], entry[3:6], entry[6:]
        # the over/under pattern is never cyclically woven
        assert overs not in ((1, 0, 1), (0, 1, 0))
        # the flipped triangle (every strand order reversed) is realizable too
        flipped = tuple(1 - b for b in firsts) + overs + signs
        assert flipped in R3_VARIANTS
        # mirror images come in pairs
        mirrored = firsts + overs + tuple(-s for s in signs)
        assert mirrored in R3_VARIANTS
    # for each height/orientation pattern exactly one sign vector per mirror
    by_shape = {}
    for entry in R3_VARIANTS:
        by_shape.setdefault(entry[:6], set()).add(entry[6:])
    assert all(len(v) == 2 for v in by_shape.values())
    assert len(by_shape) == 48  # 8 orientation x 6 acyclic height patterns


def test_realizable_matches_the_line_geometry():
    for firsts, overs, signs in R3_PATTERNS:
        assert _realizable(firsts, overs, signs) == (firsts + overs + signs in R3_VARIANTS)


def test_realizable_is_invariant_under_the_strand_swap():
    # strands 2 and 3 swap, so X and Y swap and strand 1 runs from Y to X
    for (f1, f2, f3), (ox, oy, oz), (sx, sy, sz) in R3_PATTERNS:
        swapped = ((1 - f1, 1 - f3, 1 - f2), (oy, ox, 1 - oz), (sy, sx, sz))
        assert _realizable((f1, f2, f3), (ox, oy, oz), (sx, sy, sz)) == _realizable(*swapped)


# --- virtual kinks -----------------------------------------------------------


def test_vkink_round_trip_everywhere():
    for d in corpus():
        for edge in list(range(d.edges)) + ([None] if d.free_loops else []):
            for ch in (1, -1):
                d2 = vkink_insert(d, edge, ch)
                assert validate_diagram(d2).ok
                assert any(
                    isomorphic(vkink_remove(d2, s), d) for s in find_vkink_sites(d2)
                )


def test_vkink_count_invariance_for_every_map():
    d = builder("virtual_trefoil")
    before = counts(d)
    for edge in range(d.edges):
        for ch in (1, -1):
            assert counts(vkink_insert(d, edge, ch)) == before


# --- detours -----------------------------------------------------------------


def test_identity_detour():
    d = builder("virtual_trefoil")
    # segment through the single virtual crossing of the diagram
    (v,) = d.virtual()
    start = v.first_in
    # walk start..end across exactly that crossing, on its first strand, so the
    # route crosses the second strand with the crossing's own chirality
    end = v.first_out
    d2 = detour(d, start, end, [(v.second_in, v.chirality)])
    assert isomorphic(d2, d)


def test_poke_insert_remove_detours():
    for d in (builder("trefoil"), builder("virtual_hopf")):
        c0 = counts(d)
        for e in range(d.edges):
            for t in range(d.edges):
                if t == e:
                    continue
                for ch in (1, -1):
                    d2 = detour(d, e, e, [(t, ch), (t, -ch)])
                    assert validate_diagram(d2).ok
                    assert d2.edges == d.edges + 4
                    assert counts(d2) == c0
                    sites = detour_site_lists(d2)[0]
                    assert any(
                        isomorphic(detour(d2, s, en, []), d) for s, en in sites
                    )


def test_detour_removing_a_poke_restores_the_base():
    base = builder("unknot_kink_pos")
    poked = detour(base, 0, 0, [(1, 1), (1, -1)])
    sites = detour_site_lists(poked)[0]
    assert sites
    for s, e in sites:
        back = detour(poked, s, e, [])
        assert isomorphic(back, base)


def test_detour_rejects_classical_interior():
    d = builder("trefoil")
    with pytest.raises(NotApplicable):
        detour(d, 0, 4, [])


def test_detour_rejects_route_target():
    d = builder("virtual_trefoil")
    with pytest.raises(InvalidParameter):
        detour(d, 0, 0, [(0, 1), (0, -1)])


def test_detour_consumer_lookup_after_removal():
    # deleting the segment 0 -> 1 -> 2 removes both crossings of the strand 4 -> 5,
    # which closes into a free loop with no consumer left to rewire
    V = VirtualCrossing
    d = VirtualDiagram(6, 0, (V(0, 1, 4, 5, 1), V(1, 2, 5, 4, -1), V(2, 3, 3, 0, 1)))
    with pytest.raises(NotApplicable, match="edge 4 has no consumer"):
        detour(d, 0, 2, [(4, 1)])
    expected = {
        (): '{"edges":2,"free_loops":1,"crossings":[{"type":"virtual","first_in":0,"first_out":1,'
        '"second_in":1,"second_out":0,"chirality":1}]}',
        ((3, 1),): '{"edges":4,"free_loops":1,"crossings":[{"type":"virtual","first_in":0,"first_out":1,'
        '"second_in":2,"second_out":3,"chirality":1},{"type":"virtual","first_in":1,"first_out":2,'
        '"second_in":3,"second_out":0,"chirality":1}]}',
        ((3, 1), (3, -1)): '{"edges":6,"free_loops":1,"crossings":[{"type":"virtual","first_in":1,'
        '"first_out":2,"second_in":4,"second_out":5,"chirality":-1},{"type":"virtual","first_in":0,'
        '"first_out":1,"second_in":3,"second_out":4,"chirality":1},{"type":"virtual","first_in":2,'
        '"first_out":3,"second_in":5,"second_out":0,"chirality":1}]}',
    }
    for passages, text in expected.items():
        assert serialize_diagram(detour(d, 0, 2, list(passages))) == text


def test_virtual_slide_sites_preserve_counts():
    exercised = 0
    for d in _pool():
        c0 = counts(d)
        for start, end, passages in detour_site_lists(d)[1][:4]:
            d2 = detour(d, start, end, list(passages))
            assert validate_diagram(d2).ok
            assert d2.edges == d.edges
            assert counts(d2) == c0
            exercised += 1
    assert exercised >= 10


def test_semi_virtual_slide_sites_preserve_all_invariants():
    from vknots.invariants import state_sum_z2, state_weight_z1
    from vknots.weights import example_cocycle_r4

    phi = example_cocycle_r4()
    inner0 = inner_automorphism(Q4, 0)
    shift = QuandleMap((1, 2, 3, 0))
    exercised = 0
    for d in _pool(6, 35):
        c0 = counts(d)
        z2_0 = state_sum_z2(d, Q4, phi, inner0)
        z1_0 = state_weight_z1(d, Q4, phi, shift)
        for start, end, passages in detour_site_lists(d)[2]:
            d2 = detour(d, start, end, list(passages))
            assert validate_diagram(d2).ok
            assert d2.edges == d.edges
            assert counts(d2) == c0
            assert state_sum_z2(d2, Q4, phi, inner0) == z2_0
            assert state_weight_z1(d2, Q4, phi, shift) == z1_0
            exercised += 1
    assert exercised >= 2


# --- crossing removal --------------------------------------------------------

# the trefoil builder's code in canonical labels: what remains of the trefoil
# after a removal elsewhere is relabelled
TREFOIL_CANONICAL = (
    ClassicalCrossing(1, under_in=1, over_in=4, under_out=2, over_out=5),
    ClassicalCrossing(1, under_in=3, over_in=0, under_out=4, over_out=1),
    ClassicalCrossing(1, under_in=5, over_in=2, under_out=0, over_out=3),
)


@pytest.mark.parametrize(
    "remove, kink",
    [(vkink_remove, VirtualCrossing(6, 7, 7, 6, 1)), (r1_remove, ClassicalCrossing(-1, 6, 7, 7, 6))],
    ids=["vkink_remove", "r1_remove"],
)
def test_removing_a_components_only_crossing_leaves_a_free_loop(remove, kink):
    # the trefoil plus a disjoint kink on edges 6 and 7: removing the kink
    # closes both of its edges into one free loop
    d = VirtualDiagram(8, 0, builder("trefoil").crossings + (kink,))
    assert validate_diagram(d).ok
    assert remove(d, 7) == VirtualDiagram(6, 1, TREFOIL_CANONICAL)


def test_r2_remove_whose_over_strand_closes_into_a_free_loop():
    # the over strand 4 -> 3 -> 4 runs only through the two poke crossings;
    # the under strand 0 -> 1 -> 2 continues through a kink
    d = VirtualDiagram(
        6,
        0,
        (
            ClassicalCrossing(1, under_in=0, over_in=4, under_out=1, over_out=3),
            ClassicalCrossing(-1, under_in=1, over_in=3, under_out=2, over_out=4),
            ClassicalCrossing(1, under_in=2, over_in=5, under_out=5, over_out=0),
        ),
    )
    assert validate_diagram(d).ok and 3 in find_r2_sites(d)
    assert r2_remove(d, 3) == VirtualDiagram(
        2, 1, (ClassicalCrossing(1, under_in=0, over_in=1, under_out=1, over_out=0),)
    )


def test_a_merged_strand_is_named_by_its_lowest_label():
    # removing the kink merges 5 -> 1 -> 4 into one edge, named 1: then the
    # traversal labels the virtual kink on 0 and 2 first and enters the
    # merged strand at that edge.  Named by its first edge, 5, it would be
    # entered at edge 3 and its record stored with the other chirality
    d = VirtualDiagram(
        6,
        0,
        (
            ClassicalCrossing(1, under_in=5, over_in=1, under_out=1, over_out=4),
            VirtualCrossing(4, 3, 3, 5, 1),
            VirtualCrossing(0, 2, 2, 0, 1),
        ),
    )
    assert validate_diagram(d).ok
    assert r1_remove(d, 1) == VirtualDiagram(4, 0, (VirtualCrossing(0, 1, 1, 0, 1), VirtualCrossing(2, 3, 3, 2, 1)))


# --- fuzzer ------------------------------------------------------------------


def test_random_equivalent_zero_moves():
    d = builder("kishino")
    out, trace = random_equivalent(d, 5, 0)
    assert out == d and trace == []


@pytest.mark.parametrize(
    "kwargs",
    [{"n_moves": 2.0}, {"n_moves": "3"}, {"n_moves": None}, {"n_moves": True}, {"n_moves": -1},
     {"soft_cap": 30.0}, {"soft_cap": "30"}, {"soft_cap": True}],
    ids=repr,
)
def test_random_equivalent_refuses_a_count_or_cap_that_is_no_int(kwargs):
    # a float, str or None move count used to raise a bare TypeError, and True ran one move
    args = {"n_moves": 5, **kwargs}
    with pytest.raises(InvalidParameter, match="move count|soft cap"):
        random_equivalent(builder("kishino"), 0, **args)


@pytest.mark.parametrize("seed", [None, 1.5, "x", True, 2.0], ids=repr)
def test_random_equivalent_refuses_a_seed_that_is_no_int(seed):
    # a None seed used to be drawn from the clock, so the trace changed between calls
    with pytest.raises(InvalidParameter, match="seed must be an int"):
        random_equivalent(builder("kishino"), seed, 20)


def test_random_equivalent_deterministic():
    d = builder("virtual_trefoil")
    a1, t1 = random_equivalent(d, 42, 60)
    a2, t2 = random_equivalent(d, 42, 60)
    assert a1 == a2 and t1 == t2
    b1, _ = random_equivalent(d, 43, 60)
    assert a1 != b1 or True  # different seeds usually differ; equality is legal


def test_random_equivalent_output_valid_and_components_preserved():
    # a thousand traces across the corpus: every output validates and
    # keeps its component count
    for name in BUILDER_NAMES:
        d = builder(name)
        comps = component_count(d)
        for seed in range(100):
            out, trace = random_equivalent(d, seed, 10)
            assert validate_diagram(out).ok
            assert component_count(out) == comps
            assert len(trace) == 10


def test_replaying_a_trace_reproduces_the_result():
    d = builder("kishino")
    out, trace = random_equivalent(d, 11, 50)
    cur = d
    for record in trace:
        cur = apply_move(cur, record)
    assert cur == out


def test_classical_only_fuzz_stays_classical():
    d = builder("trefoil")
    for seed in range(10):
        out, trace = random_equivalent(d, seed, 40, kinds=CLASSICAL_KINDS)
        assert not out.virtual()
        assert all(r.kind in CLASSICAL_KINDS for r in trace)


@pytest.mark.parametrize("seed", range(20))
def test_unknown_kind_in_the_menu_is_refused_before_any_draw(seed):
    # the menu used to be checked only when the shuffle reached the bad name,
    # so 9 of these seeds returned a trace without error
    with pytest.raises(InvalidParameter, match="unknown move kind 'bogus'"):
        random_equivalent(builder("trefoil"), seed, 1, kinds=("r1_insert", "bogus"))


@pytest.mark.parametrize(
    "kwargs, message",
    [
        # used to raise a bare TypeError
        ({"kinds": 5}, "kinds must be None or a list of move kinds, got 5"),
        # used to be read letter by letter and refused as the unknown kind 'r'
        ({"kinds": "r1_insert"}, "kinds must be None or a list of move kinds, got 'r1_insert'"),
        # used to be read as true
        ({"allow_semi_virtual": "no"}, "allow_semi_virtual must be True or False, got 'no'"),
    ],
    ids=["kinds-int", "kinds-str", "allow_semi_virtual-str"],
)
def test_random_equivalent_refuses_a_menu_argument_of_the_wrong_type(kwargs, message):
    with pytest.raises(InvalidParameter) as err:
        random_equivalent(builder("kishino"), 0, 20, **kwargs)
    assert str(err.value) == message


def test_classical_only_fuzz_preserves_classical_state_sum():
    from vknots.invariants import state_sum_classical
    from vknots.weights import example_cocycle_r4

    phi = example_cocycle_r4()
    classical = [n for n in BUILDER_NAMES if not builder(n).virtual()]
    for name in classical:
        d = builder(name)
        base = state_sum_classical(d, Q4, phi)
        for seed in range(8):
            out, _ = random_equivalent(d, seed, 60, kinds=CLASSICAL_KINDS)
            assert state_sum_classical(out, Q4, phi) == base


def test_no_semi_virtual_flag_excludes_classical_slides():
    # with the flag off, no detour record may cross a classical crossing's
    # halves: re-simulate and confirm by construction family shapes
    for name in ("virtual_trefoil", "kishino"):
        d = builder(name)
        for seed in range(6):
            _, trace = random_equivalent(d, seed, 60, allow_semi_virtual=False)
            for r in trace:
                if r.kind == "detour" and r.site["start"] != r.site["end"]:
                    # slides with two passages are the semi-virtual family
                    assert len(r.site["passages"]) != 2


def test_move_records_round_trip_json():
    # a record read back from its JSON form is the call that replays it
    for name, seed in itertools.product(BUILDER_NAMES, range(3)):
        d = builder(name)
        out, trace = random_equivalent(d, seed, 60)
        cur = d
        for r in trace:
            obj = json.loads(json.dumps(r.to_json_obj()))
            rec = MoveRecord(obj["kind"], obj["site"])
            assert rec == r
            cur = apply_move(cur, rec)
        assert cur == out, (name, seed)


EDGE_ARGUMENTS = {
    "r1_insert": lambda d, e: r1_insert(d, e, 1),
    "vkink_insert": lambda d, e: vkink_insert(d, e, 1),
    "r2_insert-a": lambda d, e: r2_insert(d, e, 3),
    "r2_insert-b": lambda d, e: r2_insert(d, 0, e),
    "detour-start": lambda d, e: detour(d, e, 0, []),
    "detour-end": lambda d, e: detour(d, 0, e, []),
    "detour-target": lambda d, e: detour(d, 0, 0, [(e, 1), (e, -1)]),
    "r1_remove": r1_remove,
    "vkink_remove": vkink_remove,
    "r2_remove": r2_remove,
    "r3_slide": lambda d, e: r3_slide(d, (e, 0, 1)),
}


@pytest.mark.parametrize("bad", [1.5, 2.0, True, "0", [0]])
@pytest.mark.parametrize("move", list(EDGE_ARGUMENTS.values()), ids=list(EDGE_ARGUMENTS))
def test_every_edge_argument_must_be_an_int_label(move, bad):
    # floats and strings used to raise KeyError, and 2.0 and True were accepted
    with pytest.raises(InvalidParameter, match="out of range"):
        move(builder("virtual_trefoil"), bad)


def test_a_record_names_a_move_and_its_parameters():
    d = builder("unknot_kink_pos")
    (loop,) = find_r1_sites(d)
    assert apply_move(d, MoveRecord("r1_remove", {"loop": loop})) == r1_remove(d, loop)
    with pytest.raises(InvalidParameter, match="unknown move kind"):
        apply_move(d, MoveRecord("r4_slide", {"loop": loop}))
    with pytest.raises(InvalidParameter, match="unknown move kind"):
        apply_move(d, MoveRecord("_delete", {"crossings": {0}}))
    for site in ({}, {"loop_edge": loop}, {"loop": loop, "sign": 1}):
        with pytest.raises(InvalidParameter, match="r1_remove takes a site dict of loop"):
            apply_move(d, MoveRecord("r1_remove", site))
    # a kink insertion reads LOOP as None: onto a free loop
    ring = VirtualDiagram(0, 1, ())
    for kind, site in (("r1_insert", {"sign": 1, "handed": "over"}), ("vkink_insert", {"chirality": -1})):
        assert apply_move(ring, MoveRecord(kind, {"edge": LOOP, **site})) == apply_move(
            ring, MoveRecord(kind, {"edge": None, **site})
        )


# records whose site is not a dict of the move's parameters; each raised a
# bare TypeError from the keyword call
MALFORMED_SITES = {
    "missing-key": ("r1_insert", {"edge": 0}),
    "unknown-key": ("r1_remove", {"loop": 0, "extra": 1}),
    "d-as-a-key": ("r2_remove", {"d": 0, "over_mid": 0}),
    "list": ("r1_remove", [0]),
    "none": ("detour", None),
    "pairs": ("r3_slide", (("bridges", [0, 1, 2]),)),
}


@pytest.mark.parametrize("kind, site", list(MALFORMED_SITES.values()), ids=list(MALFORMED_SITES))
def test_a_site_must_be_a_dict_of_the_moves_parameters(kind, site):
    with pytest.raises(InvalidParameter, match=f"{kind} takes a site dict of"):
        apply_move(builder("trefoil"), MoveRecord(kind, site))


def test_site_keys_are_read_from_the_moves_as_defined(monkeypatch):
    # a wrapper bound over a move's name takes *args, **kwargs, as the
    # benchmark tracer's do; the record is still checked against the move
    calls = []
    original = moves.r1_insert

    def wrapper(*args, **kwargs):
        calls.append(kwargs)
        return original(*args, **kwargs)

    monkeypatch.setattr(moves, "r1_insert", wrapper)
    d = builder("trefoil")
    site = {"edge": 0, "sign": 1}
    assert apply_move(d, MoveRecord("r1_insert", site)) == original(d, 0, 1)
    assert calls == [site]
    with pytest.raises(InvalidParameter, match=r"r1_insert takes a site dict of edge, sign, \[handed\]"):
        apply_move(d, MoveRecord("r1_insert", {"edge": 0, "sign": 1, "hand": "over"}))
    assert len(calls) == 1


# non-edge arguments of the wrong type or shape; each was either accepted or
# refused with a TypeError or ValueError instead of InvalidParameter
MALFORMED_ARGUMENTS = {
    "r3_slide-int": lambda d: r3_slide(d, 5),
    "r3_slide-none": lambda d: r3_slide(d, None),
    "detour-none": lambda d: detour(d, 0, 0, None),
    "detour-int": lambda d: detour(d, 0, 0, 5),
    "detour-int-passage": lambda d: detour(d, 0, 0, [5]),
    "detour-short-passage": lambda d: detour(d, 0, 0, [[1]]),
    "detour-long-passage": lambda d: detour(d, 0, 0, [[1, 1, 1]]),
    "detour-float-chirality": lambda d: detour(d, 0, 0, [[1, 1.0], [1, -1]]),
    "detour-bool-chirality": lambda d: detour(d, 0, 0, [[1, True], [1, -1]]),
    "r1_insert-bool-sign": lambda d: r1_insert(d, 0, True),
    "r1_insert-float-sign": lambda d: r1_insert(d, 0, 1.0),
    "vkink_insert-float-chirality": lambda d: vkink_insert(d, 0, 1.0),
    "vkink_insert-bool-chirality": lambda d: vkink_insert(d, 0, True),
    "r2_insert-str-over_first": lambda d: r2_insert(d, 0, 1, over_first="no"),
    "r2_insert-int-over_first": lambda d: r2_insert(d, 0, 1, over_first=1),
}


@pytest.mark.parametrize("move", list(MALFORMED_ARGUMENTS.values()), ids=list(MALFORMED_ARGUMENTS))
def test_every_malformed_argument_is_an_invalid_parameter(move):
    with pytest.raises(InvalidParameter):
        move(builder("trefoil"))


def _two_virtual_kinks():
    """Two components, each one virtual kink: edges 0, 1 and 2, 3."""
    d = vkink_insert(vkink_insert(VirtualDiagram(0, 2, ()), LOOP, 1), LOOP, 1)
    assert [sorted(c) for c in successor_cycles(d)] == [[0, 1], [2, 3]]
    return d


# every other refusal of a move, with the error and message it raises
REFUSALS = {
    "r1_insert-no-free-loop": (lambda: r1_insert(builder("trefoil"), LOOP, 1), NotApplicable, "no free loop"),
    "vkink_insert-no-free-loop": (lambda: vkink_insert(builder("trefoil"), None, -1), NotApplicable, "no free loop"),
    "r1_insert-sign": (lambda: r1_insert(builder("trefoil"), 0, 0), InvalidParameter, "kink sign"),
    "r1_insert-handed": (lambda: r1_insert(builder("trefoil"), 0, 1, "left"), InvalidParameter, "handed"),
    "vkink_insert-chirality": (lambda: vkink_insert(builder("trefoil"), 0, 0), InvalidParameter, "chirality"),
    "detour-chirality": (lambda: detour(builder("trefoil"), 0, 0, [[1, 2]]), InvalidParameter, "chirality"),
    "detour-off-the-component": (lambda: detour(_two_virtual_kinks(), 0, 2, []), NotApplicable, "never reaches"),
    "detour-endpoint-inside": (lambda: detour(builder("unknot_vkink"), 0, 1, []), NotApplicable, "endpoints lie on"),
}


@pytest.mark.parametrize("call, error, message", list(REFUSALS.values()), ids=list(REFUSALS))
def test_every_refusal_of_a_move(call, error, message):
    with pytest.raises(error, match=message):
        call()


_VKINK = builder("unknot_vkink").crossings


def test_relabel_canonical_refuses_an_output_with_too_many_free_loops():
    # a valid input whose output would have 1,025 free loops: refused in the
    # constructor's words, though relabel_canonical does not call it
    message = "free_loops 1025 exceeds the maximum 1024"
    with pytest.raises(MalformedInput) as err:
        vkink_remove(VirtualDiagram(2, 1024, _VKINK), 0)
    assert str(err.value) == message
    with pytest.raises(MalformedInput, match=message):
        VirtualDiagram(0, 1025, ())


def test_r3_slide_refuses_a_third_bridge_that_does_not_close_the_triangle():
    d = builder("trefoil")
    consumed, emitted = d.slot_maps
    ends = [{emitted[e][0], consumed[e][0]} for e in range(d.edges)]
    # bridges 0 and 1 leave one shared crossing for two others, which 3 does not join
    assert len(ends[0]) == len(ends[1]) == 2 and len(ends[0] & ends[1]) == 1
    assert ends[3] != ends[0] ^ ends[1]
    with pytest.raises(NotApplicable, match="realizable triangle"):
        r3_slide(d, (0, 1, 3))


def test_random_equivalent_stops_when_no_move_applies():
    empty = VirtualDiagram(0, 0, ())
    assert random_equivalent(empty, 0, 5) == (empty, [])


class _MenuSpy:
    """A stand-in for the fuzzer's random generator that records the detour
    family menu it is asked to choose from and picks its first entry."""

    def __init__(self):
        self.menu = None

    def choice(self, seq):
        if self.menu is None:
            self.menu = list(seq)
        return seq[0]

    def sample(self, population, k):
        return list(population)[:k]


def test_detour_menu_offers_exactly_the_families_the_finders_see(monkeypatch):
    # every diagram the fuzzer reaches, recorded as it applies its moves
    reached = []

    def recording_apply_move(d, record):
        reached.append(apply_move(d, record))
        return reached[-1]

    monkeypatch.setattr(moves, "apply_move", recording_apply_move)
    for name, seed in itertools.product(BUILDER_NAMES, range(3)):
        random_equivalent(builder(name), seed, 150)
    families = ("poke_insert", "poke_remove", "virtual_slide", "semi_virtual_slide")
    seen = {True: set(), False: set()}
    for d in reached:
        present = (d.edges >= 2, *map(bool, detour_site_lists(d)))
        for allow_semi_virtual in (True, False):
            expected = [f for f, p in zip(families, present) if p and (allow_semi_virtual or f != families[3])]
            spy = _MenuSpy()
            record = _instantiate(d, spy, "detour", allow_semi_virtual, False)
            assert (spy.menu or []) == expected, (serialize_diagram(d), allow_semi_virtual)
            assert (record is None) == (not expected)
            seen[allow_semi_virtual].update(expected)
    assert seen[True] == set(families) and seen[False] == set(families[:3])
