"""Quandle colorings of a diagram.

A coloring assigns a quandle element to every edge subject to one rule
per crossing:

  classical, sign +1:  color(over_out)  = color(over_in)
                       color(under_out) = color(under_in) * color(over_in)
  classical, sign -1:  color(over_out)  = color(over_in)
                       color(under_out) = the x with x * color(over_in) = color(under_in)
  virtual, chirality c: color(first_out)  = f^(-c)(color(first_in))
                        color(second_out) = f^(+c)(color(second_in))

where f is a fixed quandle automorphism.  The two strands of a virtual
crossing twist by opposite powers of f, decided by the chirality bit;
traversing a virtual kink therefore applies f then f^-1, a net identity.

A coloring is fixed by the colors of the diagram's arcs, the pieces of
strand from one undercrossing to the next (passing over a crossing keeps
the color, a virtual crossing twists it by a bijection).  So
``enumerate_colorings`` branches on arcs: it picks the uncolored over-arc
of a classical crossing whose under-strand is already colored, tries each
color, and propagates.  Every branch then colors a whole arc plus the
next under-strand edge, and the search tree has one level per arc
instead of one per edge.  Only when no such crossing exists -- at the
start, or on an all-virtual diagram -- does it branch on the lowest
uncolored edge.  ``brute_force_colorings`` is the independent oracle
scanning every assignment (compiled kernel when available).

Free loops are never enumerated -- they contribute a |G|^free_loops
factor handled by the invariant layer and by ``count_colorings``.
"""

from __future__ import annotations

from . import kernel
from .algebra import FiniteQuandle, QuandleMap, _division_table, is_automorphism
from .diagram import ClassicalCrossing, VirtualDiagram
from .errors import CeilingExceeded, InvalidParameter

DEFAULT_BRUTE_FORCE_CEILING = 10**7


def _check_automorphism(q: FiniteQuandle, f: QuandleMap) -> None:
    if not is_automorphism(q, f):
        raise InvalidParameter("the twist map must be an automorphism of the quandle")


def _compiled_constraints(d: VirtualDiagram):
    classical = []
    virtual = []
    for c in d.crossings:
        if isinstance(c, ClassicalCrossing):
            classical.append((c.sign, c.under_in, c.over_in, c.under_out, c.over_out))
        else:
            virtual.append((c.chirality, c.first_in, c.first_out, c.second_in, c.second_out))
    return classical, virtual


def verify_coloring(d: VirtualDiagram, q: FiniteQuandle, f: QuandleMap, coloring) -> bool:
    """True iff every crossing constraint holds for the given edge colors."""
    if len(coloring) != d.edges:
        raise InvalidParameter("coloring length does not match the edge count")
    _check_automorphism(q, f)
    table = q.table
    ldiv = _division_table(q)
    fplus = f.images
    fminus = f.inverse().images
    for c in d.crossings:
        if isinstance(c, ClassicalCrossing):
            o = coloring[c.over_in]
            if coloring[c.over_out] != o:
                return False
            if c.sign > 0:
                if coloring[c.under_out] != table[coloring[c.under_in]][o]:
                    return False
            elif coloring[c.under_out] != ldiv[coloring[c.under_in]][o]:
                return False
        else:
            if c.chirality > 0:
                if coloring[c.first_out] != fminus[coloring[c.first_in]]:
                    return False
                if coloring[c.second_out] != fplus[coloring[c.second_in]]:
                    return False
            else:
                if coloring[c.first_out] != fplus[coloring[c.first_in]]:
                    return False
                if coloring[c.second_out] != fminus[coloring[c.second_in]]:
                    return False
    return True


def enumerate_colorings(
    d: VirtualDiagram, q: FiniteQuandle, f: QuandleMap
) -> list[tuple[int, ...]]:
    """All satisfying colorings, sorted lexicographically as color vectors.

    Strategy: branch on the uncolored over-arc ``over_in`` of a classical
    crossing whose ``under_in`` or ``under_out`` is colored, falling back
    to the lowest uncolored edge when no such crossing exists; try each
    color, propagate through every crossing rule that has enough known
    slots (each rule is bijective along its strand once the over color is
    known), and backtrack on conflict.  The branching order does not
    change the result, which is sorted before it is returned.
    """
    _check_automorphism(q, f)
    n = q.order
    E = d.edges
    if E == 0:
        return [()]
    table = q.table
    ldiv = _division_table(q)
    fplus = f.images
    fminus = f.inverse().images

    # edge -> indices of crossings touching it, for the propagation worklist
    incident: list[list[int]] = [[] for _ in range(E)]
    for ci, c in enumerate(d.crossings):
        if isinstance(c, ClassicalCrossing):
            slots = (c.under_in, c.over_in, c.under_out, c.over_out)
        else:
            slots = (c.first_in, c.first_out, c.second_in, c.second_out)
        for e in slots:
            incident[e].append(ci)

    colors: list[int | None] = [None] * E
    results: list[tuple[int, ...]] = []

    def derive(c) -> list[tuple[int, int]] | None:
        """Colors forced by one crossing; None on contradiction."""
        forced = []
        if isinstance(c, ClassicalCrossing):
            o = colors[c.over_in]
            oo = colors[c.over_out]
            if o is None and oo is not None:
                o = oo
                forced.append((c.over_in, o))
            elif o is not None:
                if oo is None:
                    forced.append((c.over_out, o))
                elif oo != o:
                    return None
            if o is not None:
                ui, uo = colors[c.under_in], colors[c.under_out]
                if c.sign > 0:
                    if ui is not None:
                        want = table[ui][o]
                        if uo is None:
                            forced.append((c.under_out, want))
                        elif uo != want:
                            return None
                    elif uo is not None:
                        forced.append((c.under_in, ldiv[uo][o]))
                else:
                    if ui is not None:
                        want = ldiv[ui][o]
                        if uo is None:
                            forced.append((c.under_out, want))
                        elif uo != want:
                            return None
                    elif uo is not None:
                        forced.append((c.under_in, table[uo][o]))
        else:
            fwd_first = fminus if c.chirality > 0 else fplus
            fwd_second = fplus if c.chirality > 0 else fminus
            for e_in, e_out, fwd in (
                (c.first_in, c.first_out, fwd_first),
                (c.second_in, c.second_out, fwd_second),
            ):
                a, b = colors[e_in], colors[e_out]
                if a is not None:
                    want = fwd[a]
                    if b is None:
                        forced.append((e_out, want))
                    elif b != want:
                        return None
                elif b is not None:
                    # invert the bijection
                    back = fplus if fwd is fminus else fminus
                    forced.append((e_in, back[b]))
        return forced

    def propagate(assignments: list[tuple[int, int]]) -> list[int] | None:
        """Apply assignments plus consequences; returns the trail or None."""
        trail: list[int] = []
        stack = list(assignments)
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
            for ci in incident[e]:
                forced = derive(d.crossings[ci])
                if forced is None:
                    for t in trail:
                        colors[t] = None
                    return None
                stack.extend(forced)
        return trail

    classical, _ = _compiled_constraints(d)

    def branch_edge() -> int | None:
        """The uncolored over-arc of a classical crossing whose under-strand
        is colored; else the lowest uncolored edge; None when all are colored."""
        for _, ui, oi, uo, _ in classical:
            if colors[oi] is None and (colors[ui] is not None or colors[uo] is not None):
                return oi
        for e in range(E):
            if colors[e] is None:
                return e
        return None

    # explicit depth-first search so deep diagrams cannot hit the
    # interpreter recursion limit; each frame is [edge, next color, trail]
    frames: list[list] = []
    while True:
        edge = branch_edge()
        if edge is None:
            results.append(tuple(colors))  # type: ignore[arg-type]
        else:
            frames.append([edge, 0, None])
        moved = False
        while frames and not moved:
            frame = frames[-1]
            if frame[2] is not None:
                for t in frame[2]:
                    colors[t] = None
                frame[2] = None
            v = frame[1]
            if v == n:
                frames.pop()
                continue
            frame[1] = v + 1
            trail = propagate([(frame[0], v)])
            if trail is not None:
                frame[2] = trail
                moved = True
        if not moved:
            break
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
    """Oracle: filter all |G|^E assignments by the crossing rules.

    Independent of ``enumerate_colorings`` (no propagation); must agree
    with it as a set on every diagram within the ceiling.
    """
    _check_automorphism(q, f)
    n = q.order
    if n**d.edges > ceiling:
        raise CeilingExceeded(
            f"{n}^{d.edges} assignments exceed the ceiling {ceiling}; pass a larger one"
        )
    classical, virtual = _compiled_constraints(d)
    return kernel.filter_colorings(
        n,
        d.edges,
        classical,
        virtual,
        q.table,
        _division_table(q),
        f.images,
        f.inverse().images,
    )
