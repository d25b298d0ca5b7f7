"""The coloring problem of a diagram: its strand rules, and the arcs the search walks.

This module is the one place that encodes the crossing rules.  Every
crossing becomes two strand rules ``(in, out, by, fwd)``, each giving the
color of the edge leaving a passage from the color of the edge entering
it:

  classical, under-strand:  color(out) = fwd[color(by)][color(in)]
      sign +1:  out = in * over              (fwd = columns)
      sign -1:  out = the x with x * over = in  (fwd = division)
  classical, over-strand:   color(out) = color(in)                 (by = -1)
  virtual, chirality c:     first strand twists by f^(-c), second by f^(+c)

where ``by`` is the crossing's ``over_in`` edge and f is the twist
automorphism.  A rule with ``by = -1`` is a bijection read directly from
``fwd``; an under-rule needs the over color first, and the tables are
stored by over color so that ``fwd[o]`` is again a bijection.

``compile_problem`` reads each crossing record once, unpacking it as
``(tag, sign or chirality, in, out, in, out)``, and returns the
under-rules, then the over-rules, then the virtual rules.  The oracle
(``solver.brute_force_colorings``), ``verify_coloring`` and
``coloring_weight`` test these rules with ``satisfying``.

Beside it, ``arc_skeleton`` holds the same conventions in the form the
search (``solver.enumerate_colorings``) reads: the ``by = -1`` rules
composed along each arc.  A virtual passage twists by f^(-c) or f^(+c)
and an over-passage by f^0, so the twist from an arc's start to an edge
is f^k, k the sum of the exponents met on the way.  The arcs and every
k depend on the diagram alone, so they are walked once per diagram
object and kept in its ``__dict__``, and each search binds q and f to
them over the classical crossings alone.

Neither checks the diagram, which its constructor checked, so a
crossing's kind is its tag; nor the quandle or the twist map: each
public entry point calls ``check_twist`` once, which refuses a table
that is no quandle (``algebra.check_quandle``) and then a twist map that
is no automorphism of it.  The crossing weights are not rules; ``invariants`` reads them off
the diagram itself.
"""

from __future__ import annotations

from itertools import chain

from .algebra import FiniteQuandle, QuandleMap, _invert, check_quandle, is_automorphism
from .diagram import VirtualDiagram
from .errors import InvalidParameter

BACKEND = "python"

Rule = tuple[int, int, int, tuple]
ArcSkeleton = tuple[list[int], list[int], list, list[tuple[int, int, int, int, int, int]], list[int]]


def check_twist(q: FiniteQuandle, f: QuandleMap) -> None:
    """Refuse a table that is no quandle (``check_quandle``), then a twist map
    that is not an automorphism of q.  The identity is an automorphism of
    every table, so it skips the O(n^2) product test."""
    check_quandle(q)
    if f.images != tuple(range(q.order)) and not is_automorphism(q, f):
        raise InvalidParameter("the twist map must be an automorphism of the quandle")


def check_coloring(d: VirtualDiagram, q: FiniteQuandle, coloring) -> None:
    """Refuse anything but a list or tuple of one color, an int in 0..|q|-1, per edge of d."""
    if not isinstance(coloring, (list, tuple)):
        raise InvalidParameter(f"a coloring must be a list or tuple of colors, got {coloring!r}")
    if len(coloring) != d.edges:
        raise InvalidParameter("coloring length does not match the edge count")
    for x in coloring:
        if type(x) is not int or not 0 <= x < q.order:  # type(), not isinstance(): bool is an int
            raise InvalidParameter(f"color {x!r} is not an integer in 0..{q.order - 1}")


def compile_problem(d: VirtualDiagram, q: FiniteQuandle, f: QuandleMap) -> tuple[Rule, ...]:
    """The strand rules of d over the quandle q with twist automorphism f,
    which the caller has checked.

    The under-rules of the classical crossings come first (in crossing
    order), then their over-rules, then the virtual passages; so the
    under-rules are the rules before the first one with ``by < 0``, and
    they and the over-rules do not depend on the twist map.
    """
    times, divide = q.columns, q.division  # times[o][x] = x * o, divide[o][x * o] = x
    fplus = f.images
    fminus = _invert(fplus)
    identity = tuple(range(q.order))
    under, over, virtual = [], [], []
    for tag, s, w, x, y, z in d.crossings:  # passages (w -> x) and (y -> z)
        if tag:  # virtual, chirality s
            first, second = (fminus, fplus) if s > 0 else (fplus, fminus)
            virtual.append((w, x, -1, first))
            virtual.append((y, z, -1, second))
        else:  # classical, sign s: under (w -> x) by the over-strand's in-edge y
            under.append((w, x, y, times if s > 0 else divide))
            over.append((y, z, -1, identity))
    return tuple(under + over + virtual)


def arc_skeleton(d: VirtualDiagram) -> ArcSkeleton:
    """The arcs of d and the twist exponents along them, built once per
    diagram object and kept in its ``__dict__``; not a field, so they take
    no part in equality or hashing, and pickle and copy rebuild them.
    """
    skeleton = d.__dict__.get("arc_skeleton")
    if skeleton is None:
        skeleton = d.__dict__["arc_skeleton"] = _build_arc_skeleton(d)
    return skeleton


def _build_arc_skeleton(d: VirtualDiagram) -> ArcSkeleton:
    """``(arc_of, k_of, loops, crossings, by_lowest_edge)``: per edge, its arc
    and its exponent k, so that color(edge) = f^k(color of the arc's first
    edge); per arc, the exponent once round when the arc is closed, else
    None; per classical crossing, in crossing order, ``(in-arc, k of its
    in-edge, out-arc, over-arc, k of its over-edge, sign)``; and the arcs in
    the order of their lowest edges.

    An arc starts at the under-strand's out-edge of a classical crossing, in
    crossing order, and runs through over-passages (exponent 0) and virtual
    passages (-c on the first strand, +c on the second) to the next under
    passage; a component with no under passage is one closed arc, walked
    from its lowest edge.  These are the arcs of ``compile_problem``'s rules,
    numbered as the rules list them, and f^k is the composition of the twist
    tables met on the way, whatever f is.
    """
    edges = d.edges
    nxt = [-1] * edges  # the next edge along the strand; -1 at an under passage
    step = [0] * edges  # the twist exponent of that passage
    starts = []
    for tag, s, w, x, y, z in d.crossings:  # passages (w -> x) and (y -> z)
        if tag:  # virtual, chirality s
            nxt[w], step[w] = x, -s
            nxt[y], step[y] = z, s
        else:  # classical: the under passage ends an arc and starts the next
            starts.append(x)
            nxt[y] = z
    arc_of = [-1] * edges
    k_of = [0] * edges
    loops: list[int | None] = []
    for start in chain(starts, range(edges)):
        if arc_of[start] >= 0:
            continue
        arc = len(loops)
        e, k = start, 0
        while True:
            arc_of[e] = arc
            k_of[e] = k
            k += step[e]
            e = nxt[e]
            if e < 0 or e == start:  # an under passage, or the way round
                break
        loops.append(None if e < 0 else k)
    crossings = [
        (arc_of[w], k_of[w], arc_of[x], arc_of[y], k_of[y], s)
        for tag, s, w, x, y, _ in d.crossings
        if not tag
    ]
    return arc_of, k_of, loops, crossings, list(dict.fromkeys(arc_of))


def satisfying(rules, colorings) -> list:
    """The full edge colorings, in the given order, under which every rule holds.

    One loop over all candidates, so that the exhaustive oracle pays no
    function call per assignment.
    """
    out = []
    for c in colorings:
        for i, o, b, fwd in rules:
            if (fwd if b < 0 else fwd[c[b]])[c[i]] != c[o]:
                break
        else:
            out.append(c)
    return out
