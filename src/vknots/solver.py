"""Quandle colorings of a diagram.

A coloring assigns a quandle element to every edge so that every strand
passage obeys its crossing's rule: passing over a crossing keeps the
color, passing under it multiplies by (sign +1) or divides by (sign -1)
the over color, and a virtual crossing twists its two strands by
opposite powers of a fixed quandle automorphism f, decided by its
chirality bit, so that traversing a virtual kink applies f then f^-1.
``kernel.compile_problem`` encodes these rules once, as a tuple of
strand rules with the tables bound; every function here reads them from
there.

A coloring is fixed by the colors of the diagram's arcs, the pieces of
strand from one under passage to the next, so ``enumerate_colorings``
searches over arcs, one variable per arc: the color of its first edge.
Walking an arc from an under-rule's ``out`` edge through the ``by = -1``
rules composes the twist tables met on the way (only those that are not
the identity, so an over-passage costs nothing) into a permutation from
the arc's start color to each edge's color.  A component with no under
passage is one closed arc, walked from its lowest edge; it may take only
the fixed points of the permutation composed once round it.  Each
classical crossing becomes one arc rule relating its in-arc and out-arc
through the color of its over-arc, each color read through its edge's
permutation.  The search branches on the uncolored over-arc of the first
crossing, in crossing order, whose in-arc or out-arc is colored, else on
the arc that holds the lowest uncolored edge; it propagates the arc rules
and backtracks on conflict; a branch, taken or failed, uncolors the arcs
its propagation colored in one place.  Each solution is expanded to its
edge colors by walking its arcs.  Only ``enumerate_colorings`` sorts the
list.  A public entry point checks the twist map once; the invariant
layer, which has checked it and sums over the colorings in any order,
calls the unchecked ``_enumerate``.

``brute_force_colorings`` is the oracle: it tries every assignment of
colors to the arcs (n^arcs of them, bounded by a ceiling), completes each
by walking the arcs edge by edge through their over-passages and twists,
and tests it against every compiled rule; it shares no code with the
search beyond the compiled rules.  Past its ceiling it raises
``SearchBoundExceeded``, the error of every search bound.

Free loops are never enumerated -- they contribute a |G|^free_loops
factor handled by the invariant layer and by ``count_colorings``.
"""

from __future__ import annotations

from itertools import product

from .algebra import FiniteQuandle, QuandleMap, _invert
from .diagram import VirtualDiagram
from .errors import SearchBoundExceeded
from .kernel import check_coloring, check_twist, compile_problem, satisfying

DEFAULT_BRUTE_FORCE_CEILING = 10**7


def verify_coloring(d: VirtualDiagram, q: FiniteQuandle, f: QuandleMap, coloring) -> bool:
    """True iff every crossing constraint holds for the given edge colors."""
    check_coloring(d, q, coloring)
    check_twist(q, f)
    return bool(satisfying(compile_problem(d, q, f), [coloring]))


def enumerate_colorings(
    d: VirtualDiagram, q: FiniteQuandle, f: QuandleMap
) -> list[tuple[int, ...]]:
    """All satisfying colorings, sorted lexicographically as color vectors.

    The search has one variable per arc, the color of its first edge; the
    color of every other edge of the arc is read through the twists
    composed along it.  Strategy: branch on the uncolored over-arc of the
    first under-rule, in crossing order, whose in-arc or out-arc is
    colored, falling back to the arc that holds the lowest uncolored edge;
    try each color the arc may take (a closed arc only the fixed points of
    the twists composed once round it), propagate through every crossing
    whose over-arc and one strand arc are colored (its rule is then a
    bijection between the two strand arcs), and backtrack on conflict.
    Each solution is expanded to its edge colors by walking its arcs, and
    the list is sorted, so the branching order does not change the result.
    """
    check_twist(q, f)
    return sorted(_enumerate(d, q, f))


def _arcs(d: VirtualDiagram, rules, identity: tuple):
    """Per edge, its arc and the permutation from the arc's start color to
    the edge's color; per arc, the permutation composed once round it when
    the arc is closed, else None.

    Walking forward from an under-rule's ``out`` edge through the
    ``by = -1`` rules ends at the next under-rule's ``in`` edge; a
    component with no under passage is one closed arc, walked from its
    lowest edge.  Only twist tables that are not the identity are
    composed, so the walk costs O(virtual passages * n) and an
    over-passage costs nothing.
    """
    classical = 2 * len(d.classical())  # under-rules, then over-rules, then twists
    step = {
        i: (o, None if k < classical or fwd == identity else fwd)
        for k, (i, o, b, fwd, _) in enumerate(rules)
        if b < 0
    }
    arc_of = [-1] * d.edges
    perm_of: list[tuple] = [identity] * d.edges
    loops: list[tuple | None] = []
    for start in [o for _, o, b, _, _ in rules if b >= 0] + list(range(d.edges)):
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


def _enumerate(d: VirtualDiagram, q: FiniteQuandle, f: QuandleMap) -> list[tuple[int, ...]]:
    """``enumerate_colorings`` unsorted, for a twist map the caller has checked."""
    rules = compile_problem(d, q, f)
    n = q.order
    identity = tuple(range(n))
    arc_of, perm_of, loops = _arcs(d, rules, identity)
    colors: list[int | None] = [None] * len(loops)
    # one arc rule (in-arc, p_in, p_in^-1, out-arc, over-arc, fwd, back) per
    # classical crossing, in crossing order, its tables indexed by the
    # over-arc's color: color(out-arc) = fwd[color(over-arc)][p_in[color(in-arc)]]
    arc_rules = []
    for i, o, b, fwd, back in rules:
        if b >= 0:
            p_in, p_by = perm_of[i], perm_of[b]
            if p_by is not identity:
                fwd, back = [fwd[z] for z in p_by], [back[z] for z in p_by]
            p_in_inv = p_in if p_in is identity else _invert(p_in)
            arc_rules.append((arc_of[i], p_in, p_in_inv, arc_of[o], arc_of[b], fwd, back))
    incident: list[list[tuple]] = [[] for _ in loops]  # arc -> the arc rules it appears in
    for rule in arc_rules:
        for a in {rule[0], rule[3], rule[4]}:
            incident[a].append(rule)
    # a closed arc may take only the fixed points of its loop permutation
    domains = [range(n) if p is None else [x for x in range(n) if p[x] == x] for p in loops]
    by_lowest_edge = list(dict.fromkeys(arc_of))
    results: list[tuple[int, ...]] = []

    def propagate(arc: int, value: int) -> tuple[list[int], bool]:
        """Color arc and everything that forces; returns (trail, held)."""
        trail: list[int] = []
        stack = [(arc, value)]
        while stack:
            a, v = stack.pop()
            cur = colors[a]
            if cur is not None:
                if cur != v:
                    return trail, False
                continue
            colors[a] = v
            trail.append(a)
            for ia, p_in, p_in_inv, oa, ba, fwd, back in incident[a]:
                z = colors[ba]
                if z is None:
                    continue
                x, y = colors[ia], colors[oa]
                if x is not None:
                    want = fwd[z][p_in[x]]
                    if y is None:
                        stack.append((oa, want))
                    elif y != want:
                        return trail, False
                elif y is not None:
                    stack.append((ia, p_in_inv[back[z][y]]))
        return trail, True

    def branch_arc() -> int | None:
        """The uncolored over-arc of the first arc rule with a colored strand
        arc; else the arc of the lowest uncolored edge; None when all are
        colored."""
        for ia, _, _, oa, ba, _, _ in arc_rules:
            if colors[ba] is None and (colors[ia] is not None or colors[oa] is not None):
                return ba
        for a in by_lowest_edge:
            if colors[a] is None:
                return a
        return None

    def branches():
        """One branch level: record the arc colors when every arc is colored,
        else yield once per color of the branch arc that propagates."""
        arc = branch_arc()
        if arc is None:
            results.append(tuple(colors))  # type: ignore[arg-type]
            return
        for v in domains[arc]:
            trail, held = propagate(arc, v)
            if held:
                yield
            for t in trail:
                colors[t] = None

    # one suspended generator per branch level on an explicit stack, so deep
    # diagrams cannot hit the interpreter recursion limit: a level that
    # yields has taken a branch and its child level is pushed; an exhausted
    # level has undone its last trail and is popped
    stack = [branches()]
    while stack:
        if next(stack[-1], True):
            stack.pop()
        else:
            stack.append(branches())
    edges = list(zip(arc_of, perm_of))
    return [tuple([p[c[a]] for a, p in edges]) for c in results]


def count_colorings(d: VirtualDiagram, q: FiniteQuandle, f: QuandleMap) -> int:
    """Number of colorings, including the |G|^free_loops factor."""
    return len(enumerate_colorings(d, q, f)) * q.order**d.free_loops


def brute_force_colorings(
    d: VirtualDiagram,
    q: FiniteQuandle,
    f: QuandleMap,
    ceiling: int = DEFAULT_BRUTE_FORCE_CEILING,
) -> list[tuple[int, ...]]:
    """Oracle: every assignment of colors to the arcs, filtered by the rules.

    An arc starts at the ``out`` edge of an under-rule; a component with
    no under passage is one strand starting at its lowest edge.  Walking a
    strand forward through the ``by = -1`` rules (over-passages and
    twists) colors it from its start color alone, up to the next under
    passage or back to the start.  So every candidate is fixed by one
    color per strand, and the scan covers all ``n**strands`` assignments,
    each completed to a full coloring and tested by ``kernel.satisfying``
    against every rule; more than ``ceiling`` assignments raise
    ``SearchBoundExceeded``.  It shares only the compiled rules with
    ``enumerate_colorings`` (no propagation) and must return the same
    list on every diagram within the ceiling.
    """
    check_twist(q, f)
    compiled = compile_problem(d, q, f)
    n = q.order
    passage = {i: (o, fwd) for i, o, b, fwd, _ in compiled if b < 0}
    starts = [o for _, o, b, _, _ in compiled if b >= 0]
    strands: list[list[int]] = []
    covered: set[int] = set()
    for start in starts + list(range(d.edges)):
        if start in covered:
            continue
        strand = [start]
        while strand[-1] in passage and passage[strand[-1]][0] != start:
            strand.append(passage[strand[-1]][0])
        strands.append(strand)
        covered.update(strand)
    if n ** len(strands) > ceiling:
        raise SearchBoundExceeded(
            f"{n}^{len(strands)} arc assignments exceed the ceiling {ceiling}; pass a larger one"
        )
    # colors[k][c]: the colors along strand k when its start has color c
    colors = []
    for strand in strands:
        walks = []
        for c in range(n):
            walk = [c]
            for e in strand[:-1]:
                walk.append(passage[e][1][walk[-1]])
            walks.append(tuple(walk))
        colors.append(walks)
    # Candidates are built in strand order, with the rules relabelled to
    # match, and each is the concatenation of one prefix and one suffix
    # from two precomputed halves of the product, so that the scan pays
    # one tuple concatenation per assignment.
    order = [e for strand in strands for e in strand]
    position = {e: k for k, e in enumerate(order)}
    rules = [
        (position[i], position[o], position[b] if b >= 0 else -1, fwd, back)
        for i, o, b, fwd, back in compiled
    ]
    half = len(strands) // 2
    heads = [sum(walks, ()) for walks in product(*colors[:half])]
    tails = [sum(walks, ()) for walks in product(*colors[half:])]
    found = satisfying(rules, (head + tail for head in heads for tail in tails))
    return sorted(tuple(c[position[e]] for e in range(d.edges)) for c in found)
