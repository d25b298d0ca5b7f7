"""Exact outputs of the moves engine and its detour site walk, the Smith
normal form, the Smith-form basis, the automorphism search, the invariants
and the command line, pinned by digest.

The other tests check that move outputs are valid and keep the invariants,
that basis vectors are cocycles and that automorphisms preserve products;
they would all still pass if a change picked a different (equally valid)
site, relabelling, unimodular transform or generator, or listed
automorphisms in another order.
These digests were taken before the moves engine, the Smith reduction,
the automorphism search and the coloring search with its state sums were
rewritten, so any change to the exact diagrams, traces, bases,
automorphism lists or invariant outputs (errors included) shows.  The
command-line digest was taken before the CLI's usage errors were raised
as library error types, so any change to an exit code or to a byte the CLI
writes shows.  The detour-site digest was taken before the fuzzer's three
detour scans were merged into one walk, so any change to the sorted site
list of a detour family on a reached diagram shows; it reads that walk,
``moves._detour_sites``, through ``moves_helpers.detour_site_lists``.

One test here pins no digest but the seam of the pinned traces that a
move-local check reads: every applied move hands ``relabel_canonical``
exactly one list, the input's records less those it removed (X) plus
those it inserted (Y), and X and Y meet the kept records in the same edges.
Each entry of that list is a record of the input diagram or a plain
tuple: a move builds no record.
"""

import contextlib
import hashlib
import io
import json
import random
from collections import Counter

from moves_helpers import detour_site_lists
from vknots import moves
from vknots.algebra import QuandleMap, automorphisms, inner_automorphism, make_dihedral, make_from_table
from vknots.cli import main
from vknots.intlin import smith_normal_form
from vknots.diagram import BUILDER_NAMES, VirtualDiagram, builder, relabel_canonical, serialize_diagram
from vknots.invariants import compute_invariant, invariant_bundle
from vknots.moves import apply_move, random_equivalent
from vknots.weights import (
    Cochain1,
    Cocycle2,
    CoefficientGroup,
    coboundary,
    cocycle_product,
    cocycle_space_basis,
    cocycle_to_json,
    example_cocycle_r4,
    trivial_cocycle,
)

MOVES_DIGEST = "30d581a90750ab4c508964d7e193d313557f2124c78c674c10e9bee978a6b5e8"
BASIS_DIGEST = "69eeb090d847d7bb497964ff14581f1bef6669d55e1a70ed35faf0848dc556d4"
LADDER_DIGEST = "e01a919916b722dcd05669c8634eeb0a75870caf8d188d0535b448abdfa24af0"
AUT_DIGEST = "4430ca5d2b7eddb784d9c741244d526785820f6434c3a12c60877bafb75ca498"
SNF_DIGEST = "8fdabb05576f109b88466ca62243f1398f7f76581cfa36bc8b68e93b73c8e788"
INVARIANT_DIGEST = "88610efbb4c1394407c8ac3b7c0401edd2a94444a92b46c35eb69bf447ed0c27"
CLI_DIGEST = "6581096361c278bd38b4ca5154fd7613b42bc4ba2b5f75283f16a8b9c089f2ac"
DETOUR_SITES_DIGEST = "87049c22d17dc07d7890660b5c97a2c00787a32c20347675c57eac635ffa7223"

# (builder, seed, moves, soft_cap) of the benchmark ladder diagrams, E = 54, 102, 146;
# long traces past the soft cap, where removals are preferred
LADDER = (("trefoil", 7, 120, 50), ("figure_eight", 36, 250, 105), ("kishino", 49, 400, 160))


def _digest_traces(runs):
    h = hashlib.sha256()
    for final, trace in runs:
        h.update(serialize_diagram(final).encode())
        h.update(json.dumps([r.to_json_obj() for r in trace], separators=(",", ":")).encode())
    return h.hexdigest()


def test_move_outputs_and_traces_are_pinned():
    runs = (random_equivalent(builder(name), seed, 200) for name in BUILDER_NAMES for seed in range(5))
    assert _digest_traces(runs) == MOVES_DIGEST


def test_every_move_hands_relabel_canonical_one_list_with_equal_boundaries(monkeypatch):
    handed = []  # every list handed to relabel_canonical, in call order
    steps = []  # (input diagram, the lists handed while the move ran)

    def spy(crossings, free_loops):
        handed.append(list(crossings))
        return relabel_canonical(crossings, free_loops)

    def recording_apply_move(d, record):
        first = len(handed)
        out = apply_move(d, record)
        steps.append((d, handed[first:]))
        return out

    monkeypatch.setattr(moves, "relabel_canonical", spy)
    monkeypatch.setattr(moves, "apply_move", recording_apply_move)
    runs = [random_equivalent(builder(name), seed, 200) for name in BUILDER_NAMES for seed in range(5)]
    assert _digest_traces(runs) == MOVES_DIGEST  # the pinned traces, untouched by the spies
    assert len(steps) == sum(len(trace) for _, trace in runs) == len(handed)

    def boundary(records, kept_edges):
        return {e for c in records for e in c[2:]} & kept_edges

    for d, lists in steps:
        assert len(lists) == 1
        records = {id(c) for c in d.crossings}
        assert all(type(c) is tuple or id(c) in records for c in lists[0]), serialize_diagram(d)
        # records and plain slot tuples compare and hash as tuples
        before, after = Counter(d.crossings), Counter(lists[0])
        removed, inserted = before - after, after - before
        kept_edges = {e for c in (before & after) for e in c[2:]}
        assert boundary(removed, kept_edges) == boundary(inserted, kept_edges), serialize_diagram(d)


def test_soft_cap_ladder_traces_are_pinned():
    runs = (
        random_equivalent(builder(name), seed, moves, soft_cap=cap) for name, seed, moves, cap in LADDER
    )
    assert _digest_traces(runs) == LADDER_DIGEST


def test_detour_site_lists_are_pinned():
    # every diagram a 100-move trace reaches, its start included
    h = hashlib.sha256()
    for name in BUILDER_NAMES:
        for seed in range(3):
            d = builder(name)
            reached = [d]
            for record in random_equivalent(d, seed, 100)[1]:
                reached.append(apply_move(reached[-1], record))
            for d in reached:
                for sites in detour_site_lists(d):
                    h.update(json.dumps(sites, separators=(",", ":")).encode())
    assert h.hexdigest() == DETOUR_SITES_DIGEST


def test_cocycle_bases_are_pinned():
    h = hashlib.sha256()
    for n in range(3, 9):
        for c in cocycle_space_basis(make_dihedral(n), n):
            h.update(cocycle_to_json(c).encode())
    assert h.hexdigest() == BASIS_DIGEST


def _snf_matrices():
    """Seeded integer matrices: empty shapes, then random ones of up to 6 x 6,
    every third made rank-deficient by a row that combines two others."""
    rng = random.Random(41)
    mats = [[], [[]], [[], [], []], [[0, 0, 0], [0, 0, 0]]]
    for k in range(96):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        a = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        if k % 3 == 0 and rows >= 3:
            x, y = rng.randint(-3, 3), rng.randint(-3, 3)
            a[-1] = [x * p + y * q for p, q in zip(a[0], a[1])]
        mats.append(a)
    return mats


def test_smith_normal_forms_are_pinned():
    h = hashlib.sha256()
    for a in _snf_matrices():
        for row_transform in (True, False):
            h.update(json.dumps(smith_normal_form(a, row_transform), separators=(",", ":")).encode())
    assert h.hexdigest() == SNF_DIGEST


def test_automorphism_lists_are_pinned():
    alexander = [
        make_from_table([[(a * x + (1 - a) * y) % p for y in range(p)] for x in range(p)])
        for p in (5, 7)
        for a in range(2, p)
    ]
    h = hashlib.sha256()
    for q in [make_dihedral(n) for n in range(1, 9)] + alexander:
        h.update(json.dumps([list(m.images) for m in automorphisms(q)], separators=(",", ":")).encode())
    assert h.hexdigest() == AUT_DIGEST


def _invariant_cocycles(q):
    """trivial on q, then example-r4 over Z, mod 2, and mod 5 times the
    coboundary of psi = (1, 2, 3, 4); the last three live on R4 only."""
    r4 = example_cocycle_r4()
    z2, z5 = CoefficientGroup(2), CoefficientGroup(5)
    mod5 = Cocycle2(r4.quandle, z5, r4.exponents)
    return (
        trivial_cocycle(q),
        r4,
        Cocycle2(r4.quandle, z2, r4.exponents),
        cocycle_product(mod5, coboundary(r4.quandle, z5, Cochain1(z5, (1, 2, 3, 4)))),
    )


def _outcome(compute):
    try:
        return compute()
    except Exception as exc:  # the error class is part of the pinned output
        return type(exc).__name__


def test_invariant_outputs_are_pinned():
    vt = builder("virtual_trefoil")
    diagrams = [builder(name) for name in BUILDER_NAMES] + [VirtualDiagram(vt.edges, 3, vt.crossings)]
    h = hashlib.sha256()
    for n in (3, 4):
        q = make_dihedral(n)
        twists = (QuandleMap.identity(n), inner_automorphism(q, 0), QuandleMap(tuple((x + 1) % n for x in range(n))))
        for d in diagrams:
            for f in twists:
                for c in _invariant_cocycles(q):
                    for kind in ("z", "z1", "z2", "z3"):
                        h.update(_outcome(lambda: compute_invariant(kind, d, q, c, f).to_json()).encode())
                    h.update(_outcome(lambda: json.dumps(invariant_bundle(d, q, c, f), sort_keys=True)).encode())
    assert h.hexdigest() == INVARIANT_DIGEST


# the commands of README.md's Command line block, then the usage errors that
# cli.py raises itself: an unreadable @file, a bad dihedral order, example-r4
# on another quandle, a bad inner element, an --aut that is not a list of
# integers or not an automorphism, and a --psi that is not a list of integers
CLI_COMMANDS = (
    ["quandle", "check", "--dihedral", "4"],
    ["quandle", "auts", "--dihedral", "4"],
    ["cocycle", "check", "--quandle", "dihedral:4", "--cocycle", "example-r4"],
    ["cocycle", "preserves", "--quandle", "dihedral:4", "--cocycle", "example-r4", "--aut", "inner:0"],
    ["cocycle", "coboundary", "--quandle", "dihedral:4", "--psi", "[1,0,0,0]"],
    ["cocycle", "basis", "--quandle", "dihedral:4", "--m", "2"],
    ["cocycle", "cohomologous", "--quandle", "dihedral:4", "--cocycle", "example-r4", "--other", "trivial"],
    ["diagram", "build", "--name", "virtual_trefoil"],
    ["diagram", "validate", "--diagram", "kishino"],
    ["diagram", "components", "--diagram", "hopf_pos"],
    ["color", "count", "--diagram", "trefoil", "--quandle", "dihedral:3", "--aut", "identity"],
    ["color", "list", "--diagram", "unknot_kink_pos", "--quandle", "dihedral:3"],
    ["invariant", "z", "--diagram", "trefoil", "--quandle", "dihedral:4", "--cocycle", "example-r4"],
    ["invariant", "z2", "--diagram", "virtual_trefoil", "--quandle", "dihedral:4", "--cocycle", "example-r4",
     "--aut", "inner:0", "--json"],
    ["invariant", "z3", "--diagram", "virtual_trefoil", "--quandle", "dihedral:4", "--cocycle", "example-r4",
     "--aut", "inner:0"],
    ["fuzz", "--diagram", "virtual_trefoil", "--quandle", "dihedral:4", "--cocycle", "example-r4",
     "--aut", "inner:0", "--moves", "200", "--seed", "7"],
    ["color", "count", "--diagram", "trefoil", "--quandle", "@vknots-no-such-file.json"],
    ["color", "count", "--diagram", "trefoil", "--quandle", "dihedral:x"],
    ["invariant", "z", "--diagram", "trefoil", "--quandle", "dihedral:3", "--cocycle", "example-r4"],
    ["color", "count", "--diagram", "trefoil", "--quandle", "dihedral:3", "--aut", "inner:x"],
    ["color", "count", "--diagram", "trefoil", "--quandle", "dihedral:3", "--aut", "inner:7"],
    ["color", "count", "--diagram", "trefoil", "--quandle", "dihedral:4", "--aut", '{"images":[0,1,2,3]}'],
    ["color", "count", "--diagram", "trefoil", "--quandle", "dihedral:4", "--aut", '[0,1,2,"3"]'],
    ["color", "count", "--diagram", "trefoil", "--quandle", "dihedral:4", "--aut", "[1,0,2,3]"],
    ["cocycle", "coboundary", "--quandle", "dihedral:4", "--psi", '{"x":1}'],
    ["cocycle", "coboundary", "--quandle", "dihedral:4", "--psi", "[1,0,0,true]"],
)


def test_cli_outputs_and_exit_codes_are_pinned():
    h = hashlib.sha256()
    for argv in CLI_COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        h.update(json.dumps([argv, code, out.getvalue(), err.getvalue()], separators=(",", ":")).encode())
    assert h.hexdigest() == CLI_DIGEST
