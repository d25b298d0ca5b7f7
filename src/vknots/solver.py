"""Quandle colorings of a diagram.

A coloring assigns a quandle element to every edge so that every strand
passage obeys its crossing's rule: passing over a crossing keeps the
color, passing under it multiplies by (sign +1) or divides by (sign -1)
the over color, and a virtual crossing twists its two strands by
opposite powers of a fixed quandle automorphism f, decided by its
chirality bit, so that traversing a virtual kink applies f then f^-1.
``kernel.compile_problem`` encodes these rules once, as a tuple of
strand rules with the tables bound; every function here reads them from
there, and the search indexes them by edge itself.

A coloring is fixed by the colors of the diagram's arcs, the pieces of
strand from one undercrossing to the next.  So ``enumerate_colorings``
branches on arcs: it picks the uncolored over-arc of an under-rule whose
strand is already colored, tries each color, and propagates.  Every
branch then colors a whole arc plus the next under-strand edge, and the
search tree has one level per arc instead of one per edge.  Only when no
such rule applies -- at the start, or on an all-virtual diagram -- does
it branch on the lowest uncolored edge.  ``brute_force_colorings`` is
the oracle: it tries every assignment of colors to the arcs (n^arcs of
them, bounded by a ceiling), completes each by walking the arcs through
their over-passages and twists, and tests it against every compiled
rule; it shares no code with the propagation.  Past its ceiling it
raises ``SearchBoundExceeded``, the error of every search bound.

Free loops are never enumerated -- they contribute a |G|^free_loops
factor handled by the invariant layer and by ``count_colorings``.
"""

from __future__ import annotations

from itertools import product

from .algebra import FiniteQuandle, QuandleMap
from .diagram import VirtualDiagram
from .errors import SearchBoundExceeded
from .kernel import check_coloring, compile_problem, satisfying

DEFAULT_BRUTE_FORCE_CEILING = 10**7


def verify_coloring(d: VirtualDiagram, q: FiniteQuandle, f: QuandleMap, coloring) -> bool:
    """True iff every crossing constraint holds for the given edge colors."""
    check_coloring(d, q, coloring)
    return bool(satisfying(compile_problem(d, q, f), [coloring]))


def enumerate_colorings(
    d: VirtualDiagram, q: FiniteQuandle, f: QuandleMap
) -> list[tuple[int, ...]]:
    """All satisfying colorings, sorted lexicographically as color vectors.

    Strategy: branch on the uncolored ``by`` edge (the over-arc) of the
    first under-rule whose strand has a colored edge, falling back to the
    lowest uncolored edge when no such rule exists; try each color,
    propagate through every rule that has enough known slots (each rule is
    a bijection along its strand once its ``by`` color is known), and
    backtrack on conflict.  The branching order does not change the
    result, which is sorted before it is returned.
    """
    rules = compile_problem(d, q, f)
    n = q.order
    E = d.edges
    incident: list[list[int]] = [[] for _ in range(E)]  # edge -> indices of the rules it appears in
    for r, (i, o, b, _, _) in enumerate(rules):
        for e in {i, o, b} - {-1}:
            incident[e].append(r)
    under = [r for r in rules if r[2] >= 0]
    colors: list[int | None] = [None] * E
    results: list[tuple[int, ...]] = []

    def propagate(edge: int, value: int) -> list[int] | None:
        """Color edge and everything that forces; returns the trail or None."""
        trail: list[int] = []
        stack = [(edge, value)]
        while stack:
            e, v = stack.pop()
            cur = colors[e]
            if cur is not None:
                if cur != v:
                    for t in trail:
                        colors[t] = None
                    return None
                continue
            colors[e] = v
            trail.append(e)
            for r in incident[e]:
                i, o, b, fwd, back = rules[r]
                if b >= 0:
                    z = colors[b]
                    if z is None:
                        continue
                    fwd, back = fwd[z], back[z]
                x, y = colors[i], colors[o]
                if x is not None:
                    want = fwd[x]
                    if y is None:
                        stack.append((o, want))
                    elif y != want:
                        for t in trail:
                            colors[t] = None
                        return None
                elif y is not None:
                    stack.append((i, back[y]))
        return trail

    def branch_edge() -> int | None:
        """The uncolored over-arc of an under-rule whose strand is colored;
        else the lowest uncolored edge; None when all are colored."""
        for i, o, b, _, _ in under:
            if colors[b] is None and (colors[i] is not None or colors[o] is not None):
                return b
        for e in range(E):
            if colors[e] is None:
                return e
        return None

    def branches():
        """One branch level: record the coloring when every edge is colored,
        else yield once per color of the branch edge that propagates."""
        edge = branch_edge()
        if edge is None:
            results.append(tuple(colors))  # type: ignore[arg-type]
            return
        for v in range(n):
            trail = propagate(edge, v)
            if trail is not None:
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
    results.sort()
    return results


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
