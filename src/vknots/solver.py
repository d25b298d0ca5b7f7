"""Quandle colorings of a diagram.

A coloring assigns a quandle element to every edge so that every strand
passage obeys its crossing's rule: passing over a crossing keeps the
color, passing under it multiplies by (sign +1) or divides by (sign -1)
the over color, and a virtual crossing twists its two strands by
opposite powers of a fixed quandle automorphism f, decided by its
chirality bit, so that traversing a virtual kink applies f then f^-1.
``kernel`` writes these rules down once: ``compile_problem`` as a tuple
of strand rules with the tables bound, which the oracle and
``verify_coloring`` read, and ``arc_skeleton`` as the diagram's arcs,
which the search reads.

A coloring is fixed by the colors of the diagram's arcs, the pieces of
strand from one under passage to the next, so ``enumerate_colorings``
searches over arcs, one variable per arc: the color of its first edge.
Every twist met along an arc is f or f^-1, so the permutation from the
arc's start color to an edge's color is f^k, k the sum of the twist
exponents on the way (an over-passage adds 0).  The arcs and every k
depend on the diagram alone: ``kernel.arc_skeleton`` walks them once per
diagram object and keeps, per edge, its arc and k; per closed arc (a
component with no under passage, walked from its lowest edge), its k
once round; and per classical crossing its in-arc, out-arc and over-arc
with the k of its in- and over-edge.  Each search binds q and f over the
classical crossings alone: one table ``power`` with power[k] = f^k for
every |k| up to the largest exponent of the skeleton, composed outward
from f and f^-1 (the identity object when it permutes nothing, and
nothing composed under the identity twist); one arc rule per classical
crossing, relating its in-arc and out-arc through the color of its
over-arc, each color read through its edge's power, the tables
re-indexed by the over-edge's power when that is not the identity; and
a domain per closed arc, the fixed points of its f^k.  The search
branches on the uncolored over-arc of the first crossing, in crossing
order, whose in-arc or out-arc is colored, else on the arc that holds
the lowest uncolored edge.  Its propagation colors an arc as soon as a
rule forces it, both ways, since every column of a quandle is a
bijection (axiom 2); the trail of arcs it colored is also its work list,
each arc read from it checking the rules it is in, so a rule is checked
once its three arcs are colored and a rule whose colors disagree is the
one conflict.  A branch, taken or failed, uncolors its trail in one
place.
``_search`` runs this search with one of two finishers: listing, which
builds each coloring it reaches once, as its edge colors, every edge's
color read from its arc's through the edge's power (only
``enumerate_colorings`` sorts the list), and counting, which
``count_colorings`` reads, building no coloring and no edge's power.
A public entry point calls ``kernel.check_twist`` once, which refuses a
table that is no quandle (``algebra.check_quandle``, naming the failing
axiom and its witness) and then a twist map that is no automorphism; the
invariant layer, which has checked both and sums over the colorings in
any order, calls the unchecked ``_search``.

Every branch level breaks symmetry, the orbit-stabilizer step of
symmetry breaking during search (Gent, Petrie and Puget, *Symmetry in
Constraint Programming*, Handbook of Constraint Programming, 2006).  The
root searches under a group H of automorphisms that commute with f.
Such an h maps the colorings onto themselves: h o c meets every crossing
rule that c meets, since h preserves products and so divisions, and
every twist, since h f = f h.  When Aut(q) is cheap to list, that is
when q's order is at most ``DEFAULT_AUT_SEARCH_BOUND`` and its search
tries at most n(n-1) candidates (n!/(n-g)! for the g greedy generators
of ``FiniteQuandle.generation``), H is the centralizer of f in Aut(q):
every h of ``FiniteQuandle.automorphism_images`` with h f = f h, found
by one search per quandle object.  That covers every dihedral quandle
and every connected Alexander quandle (1 - t a unit) of order at most 8,
and under the identity twist H is then transitive on every dihedral
quandle of order at most 8.  Otherwise (every order above 8, and from
order 4 on every quandle of three or more greedy generators, such as
the trivial ones or 5a - 4b mod 8) no automorphism search runs, and H
is generated by f and by the inner maps S_g: x -> x * g of the greedy
generators g with S_{f(g)} = S_g, which is S_g f = f S_g because
f S_g f^-1 = S_{f(g)}; each S_g is an automorphism by axioms 2 and 3.
H commutes with the twists composed round a closed arc, so it keeps
that arc's fixed points.

A level's group fixes every color placed above it, so it maps the
colorings below the level onto themselves, and the level tries one
color per orbit of its group on the branch arc's colors.  The colorings
under each other color x of an orbit are the images h o c of those under
the color y that reached it in a Schreier tree (x = h(y) for a map h of
the group); when the group is listed whole, y is the orbit's
representative, one step away.  The group of the child under a color r
keeps the maps that fix r.  They fix every color r's propagation forces
too, since each is a product, a quotient or a twist of colors they fix,
so they are the maps that fix the child's colors: under a centralizer
listed whole, the whole stabilizer; under generators, the generators
that fix them, which generate a subgroup of the stabilizer, and a
subgroup is still exact.  Once a representative's subtree is done,
listing appends the images of its block of colorings, in an order that
changes with H while the sorted list does not, each image h o c taken
edge by edge, since h(f^k x) = f^k(h x) for every k; counting adds the
block's size once per other color of the orbit, since c -> h o c maps
y's colorings one-to-one onto x's, and keeps no coloring.  A level whose
group is trivial tries every color, as a search without symmetry does.

``brute_force_colorings`` is the oracle: it tries every assignment of
colors to the arcs (n^arcs of them, bounded by a ceiling), completes each
by walking the arcs edge by edge through their over-passages and twists,
and tests it against every compiled rule; it shares no code with the
search, which reads the arcs of ``arc_skeleton`` and no compiled rule.
Past its ceiling it raises ``SearchBoundExceeded``, the error of every
search bound.

Free loops are never enumerated -- they contribute a |G|^free_loops
factor handled by the invariant layer and by ``count_colorings``.
"""

from __future__ import annotations

from itertools import chain, product
from math import perm
from operator import itemgetter

from .algebra import DEFAULT_AUT_SEARCH_BOUND, FiniteQuandle, QuandleMap, _invert
from .diagram import VirtualDiagram
from .errors import SearchBoundExceeded, _check_type
from .kernel import arc_skeleton, check_coloring, check_twist, compile_problem, satisfying

DEFAULT_BRUTE_FORCE_CEILING = 10**7


def verify_coloring(d: VirtualDiagram, q: FiniteQuandle, f: QuandleMap, coloring) -> bool:
    """True iff every crossing constraint holds for the given edge colors."""
    check_twist(q, f)
    rules = compile_problem(d, q, f)
    check_coloring(d, q, coloring)
    return bool(satisfying(rules, [coloring]))


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
    A table that is no quandle is refused first, with ``PreconditionFailed``.
    Every branch tries one color per orbit of the automorphisms that
    commute with f and fix the colors placed, and the colorings of the
    orbit's other colors are their images.
    Each solution is built once, as its edge colors, each read from its
    arc's color through the twists composed along the arc, and the list is
    sorted, so the branching order does not change the result.
    """
    check_twist(q, f)
    return sorted(_search(d, q, f, True))


def _powers(f: QuandleMap, identity: tuple, exponents) -> list[tuple]:
    """``[f^0, f^1, ..., f^m, f^-m, ..., f^-1]``, m the largest |k| among
    ``exponents``, so that entry k is f^k for every |k| <= m, the negative
    indices reading the powers of f^-1; each power composed once, outward
    from f and f^-1.  A power equal to the identity is the identity object
    (so f^0, and every power when f is the identity, which composes
    nothing), which tells the search that it permutes nothing."""
    m = max(map(abs, exponents), default=0)
    fi = f.images
    if fi == identity:
        return [identity] * (2 * m + 1)
    up, down = [identity], [identity]
    for unit, line in ((fi, up), (_invert(fi), down)):
        for _ in range(m):
            p = tuple(map(unit.__getitem__, line[-1]))
            line.append(identity if p == identity else p)
    return up + down[:0:-1]


def _symmetries(q: FiniteQuandle, f: QuandleMap, identity: tuple) -> tuple[list[tuple], bool]:
    """``(maps, whole)``: the root's group H of the module docstring, as its
    maps other than the identity, and whether H is listed whole.  When
    Aut(q) is cheap to list (order at most ``DEFAULT_AUT_SEARCH_BOUND`` and
    at most n(n-1) candidates, n!/(n-g)! for the g greedy generators), the
    maps are every automorphism h with h o f = f o h, compared as image
    lists (all of them under the identity twist), so H and every stabilizer
    filtered from it are listed whole.  Otherwise the maps are f and the
    S_g = ``columns[g]`` with S_{f(g)} = S_g for the greedy generators g,
    which generate H."""
    n, fi, (generators, _) = q.order, f.images, q.generation
    whole = n <= DEFAULT_AUT_SEARCH_BOUND and perm(n, len(generators)) <= n * (n - 1)
    if whole:
        maps = q.automorphism_images
        if fi != identity:  # under the identity every automorphism commutes
            after_f = itemgetter(*fi)  # after_f(h) is h o f
            maps = [h for h in maps if after_f(h) == itemgetter(*h)(fi)]
    else:
        cols = q.columns
        maps = [fi, *(cols[g] for g in generators if cols[fi[g]] == cols[g])]
    return [h for h in maps if h != identity], whole


def _orbits(group: list[tuple], whole: bool, domain) -> list[tuple[int, list[tuple]]]:
    """One ``(r, tree)`` per orbit on ``domain`` of the group of the maps
    ``group``, r the orbit's first color in ``domain`` and tree its Schreier tree
    of ``(x, h, y)``: x = h(y) for a map h of ``group``, y reached before x,
    built by a breadth-first walk from r.  When the group is listed whole,
    r's step reaches its orbit, the tree holds (h(r), h, r) and the walk
    stops there."""
    orbits, seen = [], set()
    for r in domain:
        if r in seen:
            continue
        seen.add(r)
        orbit, tree = [r], []
        for y in orbit:  # the list grows while it is read: a breadth-first walk
            for h in group:
                x = h[y]
                if x not in seen:
                    seen.add(x)
                    orbit.append(x)
                    tree.append((x, h, y))
            if whole:  # r's step has reached its whole orbit
                break
        orbits.append((r, tree))
    return orbits


def _search(d: VirtualDiagram, q: FiniteQuandle, f: QuandleMap, listing: bool):
    """The propagation search, for a twist map the caller has checked: the
    colorings in search order when ``listing``, each as its edge colors,
    each edge's color read from its arc's through the edge's power f^k,
    else their number."""
    arc_of, k_of, loops, crossings, by_lowest_edge = arc_skeleton(d)
    n = q.order
    identity = tuple(range(n))
    # every in- and over-edge's k is an edge's k, and -k has the same size
    power = _powers(f, identity, chain(k_of, (k for k in loops if k is not None)))
    colors: list[int | None] = [None] * len(loops)
    # one arc rule (in-arc, p_in, p_in^-1, out-arc, over-arc, fwd, back) per
    # classical crossing, in crossing order, its tables indexed by the
    # over-arc's color: color(out-arc) = fwd[color(over-arc)][p_in[color(in-arc)]]
    # and color(in-arc) = p_in^-1[back[color(over-arc)][color(out-arc)]]
    times, divide = q.columns, q.division
    arc_rules = []
    incident: list[list[tuple]] = [[] for _ in loops]  # arc -> the arc rules it appears in
    for ia, k_in, oa, ba, k_by, s in crossings:
        fwd, back = (times, divide) if s > 0 else (divide, times)
        p_by = power[k_by]
        if p_by is not identity:
            fwd, back = [fwd[z] for z in p_by], [back[z] for z in p_by]
        rule = (ia, power[k_in], power[-k_in], oa, ba, fwd, back)
        arc_rules.append(rule)
        incident[ia].append(rule)
        if oa != ia:
            incident[oa].append(rule)
        if ba != ia and ba != oa:
            incident[ba].append(rule)
    # a closed arc may take only the fixed points of f^k, k its exponent once round
    every = range(n)
    domains = [every if k is None else [x for x, y in enumerate(power[k]) if x == y] for k in loops]
    edges = [(a, power[k]) for a, k in zip(arc_of, k_of)] if listing else ()
    results: list[tuple[int, ...]] = []
    tally = 0  # when counting: the colorings found, images included

    def propagate(arc: int, value: int) -> tuple[list[int], bool]:
        """Color the uncolored arc and every arc a rule then forces, as soon
        as it is forced; returns (trail, held), trail the arcs colored, in
        order.  The trail is also the work list: each arc read from it
        checks the rules it is in, so a rule is checked with its three arcs
        colored once its last arc is read, and a rule forces only an
        uncolored arc, so the one conflict is a rule whose colors disagree."""
        colors[arc] = value
        trail = [arc]
        for a in trail:  # the list grows while it is read: a breadth-first walk
            for ia, p_in, p_in_inv, oa, ba, fwd, back in incident[a]:
                z = colors[ba]
                if z is None:
                    continue
                x, y = colors[ia], colors[oa]
                if x is not None:
                    want = fwd[z][p_in[x]]
                    if y is None:
                        colors[oa] = want
                        trail.append(oa)
                    elif y != want:
                        return trail, False
                elif y is not None:
                    colors[ia] = p_in_inv[back[z][y]]
                    trail.append(ia)
        return trail, True

    def branch_arc() -> int:
        """The uncolored over-arc of the first arc rule with a colored strand
        arc; else the arc of the lowest uncolored edge, for a caller that
        has an arc left uncolored."""
        for ia, _, _, oa, ba, _, _ in arc_rules:
            if colors[ba] is None and (colors[ia] is not None or colors[oa] is not None):
                return ba
        return next(a for a in by_lowest_edge if colors[a] is None)

    def branches(group: list[tuple], left: int):
        """One branch level under ``group``, the maps of H that fix every
        color placed, with ``left`` arcs uncolored: once per orbit
        representative r of the branch arc's colors (each color its own
        orbit under a trivial group) that propagates, record the coloring
        (listing) or count it when its trail colors the last arcs, else
        yield the maps that also fix r and the arcs then left; once r's
        subtree is done, account for the orbit's other colors: list the
        images h o c of the colorings found under the color y that reached
        them, or add their number once per color."""
        nonlocal tally
        arc = branch_arc()
        domain = domains[arc]
        for r, tree in _orbits(group, whole, domain) if group else [(v, ()) for v in domain]:
            trail, held = propagate(arc, r)
            if held:
                before = len(results) if listing else tally
                if len(trail) == left:  # every arc is colored
                    if listing:
                        results.append(tuple([p[colors[a]] for a, p in edges]))  # type: ignore[call-overload]
                    else:
                        tally += 1
                else:  # the maps that fix r fix its whole trail (module docstring)
                    yield [h for h in group if h[r] == r], left - len(trail)
                if tree and listing:  # the colorings under x = h(y) are the images h o c of those under y
                    blocks = {r: results[before:]}
                    for x, h, y in tree:
                        blocks[x] = block = [tuple(map(h.__getitem__, c)) for c in blocks[y]]
                        results.extend(block)
                elif tree:  # c -> h o c maps the colorings under y one-to-one onto those under x
                    tally += (tally - before) * len(tree)
            for t in trail:
                colors[t] = None

    if not loops:  # no arc: the one empty coloring
        return [()] if listing else 1
    # the root's group is H; each other level's, its parent's maps that fix its color
    group, whole = _symmetries(q, f, identity)
    # one suspended generator per branch level on an explicit stack, so deep
    # diagrams cannot hit the interpreter recursion limit: a level that
    # yields has taken a branch and its child level is pushed, under the
    # group and with the arcs the level yielded; an exhausted level has
    # undone its last trail and is popped
    stack = [branches(group, len(loops))]
    while stack:
        child = next(stack[-1], None)
        if child is None:
            stack.pop()
        else:
            stack.append(branches(*child))
    return results if listing else tally


def count_colorings(d: VirtualDiagram, q: FiniteQuandle, f: QuandleMap) -> int:
    """Number of colorings, including the |G|^free_loops factor.

    At every branch level the search tries one color per orbit of the
    automorphisms that fix the colors placed, and each other color of an
    orbit has as many colorings below it as the representative, since
    c -> h o c maps them one-to-one; so the count adds that number once per
    other color, and no coloring, image or edge color is built or kept.
    """
    check_twist(q, f)
    return _search(d, q, f, False) * q.order**d.free_loops


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
    ``SearchBoundExceeded``; a ceiling that is not an int (``bool``
    included) raises ``InvalidParameter``.  It shares no code with
    ``enumerate_colorings``, which reads the arcs of ``arc_skeleton`` and
    propagates, and must return the same list on every diagram within the
    ceiling.
    """
    check_twist(q, f)
    compiled = compile_problem(d, q, f)
    _check_type(ceiling, int, "the ceiling")
    n = q.order
    passage = {i: (o, fwd) for i, o, b, fwd in compiled if b < 0}
    starts = [o for _, o, b, _ in compiled if b >= 0]
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
    rules = [(position[i], position[o], position[b] if b >= 0 else -1, fwd) for i, o, b, fwd in compiled]
    half = len(strands) // 2
    heads = [sum(walks, ()) for walks in product(*colors[:half])]
    tails = [sum(walks, ()) for walks in product(*colors[half:])]
    found = satisfying(rules, (head + tail for head in heads for tail in tails))
    return sorted(tuple(c[position[e]] for e in range(d.edges)) for c in found)
