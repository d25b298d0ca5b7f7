"""The coloring problem of a diagram, compiled once into strand rules.

This module is the one place that encodes the crossing rules.  Every
crossing becomes two strand rules ``(in, out, by, fwd, back)``, each
relating the color of an edge entering a passage to the color of the
edge leaving it:

  classical, under-strand:  color(out) = fwd[color(by)][color(in)]
                            color(in)  = back[color(by)][color(out)]
      sign +1:  out = in * over              (fwd = columns, back = division)
      sign -1:  out = the x with x * over = in  (fwd = division, back = columns)
  classical, over-strand:   color(out) = color(in)                 (by = -1)
  virtual, chirality c:     first strand twists by f^(-c), second by f^(+c)

where ``by`` is the crossing's ``over_in`` edge and f is the twist
automorphism.  A rule with ``by = -1`` is a bijection read directly from
``fwd`` and ``back``; an under-rule needs the over color first, and the
tables are stored by over color so that ``fwd[o]`` is again a bijection.

``compile_problem`` reads each crossing record once, unpacking it as
``(tag, sign or chirality, in, out, in, out)``, and returns the
under-rules, then the over-rules, then the virtual rules.  The search
(``solver.enumerate_colorings``) composes the ``by = -1`` rules along
each arc and propagates the under-rules between arcs; the oracle,
``verify_coloring`` and ``coloring_weight`` test the rules with
``satisfying``.  Every one of them compiles first, and
``compile_problem`` reads the diagram's ``slot_maps``, the one gate,
before its records: so a diagram that ``validate_diagram`` refuses is
refused here, with its message, as ``MalformedInput``, and past the gate
a crossing's kind is its tag.  ``compile_problem`` does not check the
twist map: each public entry point calls ``check_twist`` once.  The crossing
weights are not rules; ``invariants`` reads them off the diagram itself.
"""

from __future__ import annotations

from .algebra import FiniteQuandle, QuandleMap, _invert, is_automorphism
from .diagram import VirtualDiagram
from .errors import InvalidParameter

BACKEND = "python"

Rule = tuple[int, int, int, tuple, tuple]


def check_twist(q: FiniteQuandle, f: QuandleMap) -> None:
    """Refuse a twist map that is not an automorphism of q."""
    if not is_automorphism(q, f):
        raise InvalidParameter("the twist map must be an automorphism of the quandle")


def check_coloring(d: VirtualDiagram, q: FiniteQuandle, coloring) -> None:
    """Refuse anything but one color, an int in 0..|q|-1, per edge of d."""
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
    they and the over-rules do not depend on the twist map.  It reads
    ``d.slot_maps`` first, the one gate, which checks the two counts, the
    records and the slots once per diagram (a move output comes with them
    filled in by ``relabel_canonical``, which checks its counts): a
    diagram that ``validate_diagram`` refuses raises ``MalformedInput``
    with its message.
    """
    d.slot_maps  # the gate: built and checked on first use
    times, divide = q.columns, q.division  # times[o][x] = x * o, divide[o][x * o] = x
    fplus = f.images
    fminus = _invert(fplus)
    identity = tuple(range(q.order))
    under, over, virtual = [], [], []
    for tag, s, w, x, y, z in d.crossings:  # passages (w -> x) and (y -> z)
        if tag:  # virtual, chirality s
            first, second = (fminus, fplus) if s > 0 else (fplus, fminus)
            virtual.append((w, x, -1, first, second))
            virtual.append((y, z, -1, second, first))
        else:  # classical, sign s: under (w -> x) by the over-strand's in-edge y
            under.append((w, x, y, times, divide) if s > 0 else (w, x, y, divide, times))
            over.append((y, z, -1, identity, identity))
    return tuple(under + over + virtual)


def satisfying(rules, colorings) -> list:
    """The full edge colorings, in the given order, under which every rule holds.

    One loop over all candidates, so that the exhaustive oracle pays no
    function call per assignment.
    """
    out = []
    for c in colorings:
        for i, o, b, fwd, _ in rules:
            if (fwd if b < 0 else fwd[c[b]])[c[i]] != c[o]:
                break
        else:
            out.append(c)
    return out
