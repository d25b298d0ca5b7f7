"""Combinatorial encoding of oriented classical/virtual link diagrams.

A diagram is a set of edges 0..E-1 (the strand segments between two
consecutive crossing passages) plus a list of crossings wired to edges
through in/out slots.  Orientation is implicit: an edge runs from the
crossing slot that emits it to the slot that consumes it.  Closed
components that meet no crossing are tracked only as a count
(``free_loops``).

Each edge must occur exactly once among all in-slots and exactly once
among all out-slots; pairing each in-slot with the out-slot of the same
strand passage then defines the successor permutation whose cycles are
the link components.

Virtual crossings carry a single chirality bit, the orientation sign of
the ordered pair (first strand direction, second strand direction).
Swapping the two strands of a virtual crossing negates the chirality
and denotes the same crossing; records are normalised so that
``first_in < second_in``.

Planarity of the code is deliberately not checked: every slot-coherent
code is accepted.

A record is a tuple that is its own sort key:
(0, sign, under_in, under_out, over_in, over_out) for a classical
crossing, (1, chirality, first_in, first_out, second_in, second_out) for
a virtual one.  Either way passage k, its role (0 = under or first
strand, 1 = over or second strand, as in ``strand_passages``), holds its
in- and out-edge at tuple indices 2 + 2k and 3 + 2k, so passage code
reads and rewrites records by index without asking their type;
``slot_maps`` records every in- and out-slot as (crossing index, role) in
two lists indexed by edge.  The named fields read these slots, and each
class declares its constructor and JSON field order (``FIELDS``).
Records come only from the two checked constructors and from
``_renamed``, the one rename rule, which ``isomorphic`` and
``relabel_canonical`` read: it checks nothing, makes a record by its tag
and hands back a record whose labels the renaming keeps.  A constructor
checks every field of its record: the sign or chirality, the int +1 or
-1, and four int edge labels, refused with ``MalformedInput``; a label's
range depends on the diagram, so the diagram's constructor checks it.

A crossing's kind is its tag: every kind test in the package reads
``c[0]`` (0 classical, 1 virtual), never the record's class.  That holds
because a diagram is checked when it is made, by one of two doors.  The
constructor of ``VirtualDiagram`` checks the two counts, that the
crossings come as a tuple, then, crossing by crossing in passage order,
that each is a record of its tag's class and keeps the slot discipline,
refuses the first fault with ``MalformedInput`` and stores the slot maps
it built; so no malformed diagram exists, and no function that reads
one checks it again.  The second door is ``relabel_canonical``, the last
step of every move, which builds its output without the constructor's
check.  A move hands it the records of its input and, in the record
layout, plain slot tuples for every crossing it makes or edits.  It
checks each entry once, in the pass that reads it: an entry that is no
record must be a 6-item tuple of the int tag 0 or 1, the int sign or
chirality +1 or -1 and four int edge labels, compared with type() as the
constructors compare.  It then refuses a reused slot, a dangling end and
a count out of range, and ``_renamed`` makes every record of its output.
``validate_diagram`` re-runs the constructor's check on a diagram's
fields, so it checks this door's outputs too.
"""

from __future__ import annotations

import json
from operator import itemgetter

from .errors import InvalidParameter, MalformedInput, load_json
from .value import Value, set_field


class _Record(tuple):
    """A crossing record: a tuple (tag, sign or chirality, passage 0's in and
    out edges, passage 1's in and out edges) that is its own sort key.  A class
    declares ``TYPE`` (its JSON type) and ``FIELDS`` (its constructor and JSON
    field order)."""

    __slots__ = ()
    TYPE: str
    FIELDS: tuple[str, ...]

    def __reduce__(self):  # pickle and copy call the constructor with the fields
        return type(self), tuple(getattr(self, name) for name in self.FIELDS)

    __repr__ = Value.__repr__  # Name(field=value, ...) in FIELDS order


def _check_fields(s, what: str, *labels, error: type = MalformedInput) -> None:
    """Refuse, with ``error``, a sign or chirality ``s`` other than the int +1 or
    -1, then an edge label that is not an int; a label's range is the
    diagram constructor's to check, against its edge count.  The record
    constructors check their fields here, and the moves the sign or
    chirality of a crossing they are asked to build, with
    ``InvalidParameter``."""
    # type() rather than a bare membership test: True == 1 and 1.0 == 1
    if type(s) is not int or s not in (1, -1):
        raise error(f"{what} must be +1 or -1, got {s!r}")
    for e in labels:
        if type(e) is not int:
            raise error(f"edge label must be an integer, got {e!r}")


class ClassicalCrossing(_Record):
    """The tuple (0, sign, under_in, under_out, over_in, over_out)."""

    __slots__ = ()
    TYPE = "classical"
    FIELDS = ("sign", "under_in", "over_in", "under_out", "over_out")

    def __new__(cls, sign: int, under_in: int, over_in: int, under_out: int, over_out: int):
        _check_fields(sign, "crossing sign", under_in, over_in, under_out, over_out)
        return tuple.__new__(cls, (0, sign, under_in, under_out, over_in, over_out))

    sign = property(itemgetter(1))
    under_in = property(itemgetter(2))
    under_out = property(itemgetter(3))
    over_in = property(itemgetter(4))
    over_out = property(itemgetter(5))


class VirtualCrossing(_Record):
    """The tuple (1, chirality, first_in, first_out, second_in, second_out)."""

    __slots__ = ()
    TYPE = "virtual"
    FIELDS = ("first_in", "first_out", "second_in", "second_out", "chirality")

    def __new__(cls, first_in: int, first_out: int, second_in: int, second_out: int, chirality: int):
        _check_fields(chirality, "chirality", first_in, first_out, second_in, second_out)
        if first_in > second_in:
            return tuple.__new__(cls, (1, -chirality, second_in, second_out, first_in, first_out))
        return tuple.__new__(cls, (1, chirality, first_in, first_out, second_in, second_out))

    chirality = property(itemgetter(1))
    first_in = property(itemgetter(2))
    first_out = property(itemgetter(3))
    second_in = property(itemgetter(4))
    second_out = property(itemgetter(5))


Crossing = ClassicalCrossing | VirtualCrossing
_RECORD_CLASSES = (ClassicalCrossing, VirtualCrossing)  # indexed by tag

# Each free loop multiplies every coloring count by the quandle order n.
# With this bound even n = 1024 gives 1024^1024, 3,083 digits: under
# Python's 4,300-digit limit on printing an int.
MAX_FREE_LOOPS = 1024


class VirtualDiagram(Value):
    """A diagram, checked here: the constructor refuses with ``MalformedInput``,
    at the first fault, in this order, an edge or free-loop count that is no
    int, is negative or (free loops) exceeds ``MAX_FREE_LOOPS``; a
    ``crossings`` that is no tuple (a list would not hash); then, crossing by
    crossing in passage order, a crossing that is no record of its tag's
    class (a plain tuple, say), an edge label outside 0..edges-1 and a slot
    used twice; last, an edge without an in- or out-slot.

    ``slot_maps`` is (consumed, emitted): two lists indexed by edge, holding
    the (crossing index, role) of the edge's in- and out-slot, stored here
    (and by ``relabel_canonical`` for every move output); callers must not
    mutate them.
    """

    FIELDS = ("edges", "free_loops", "crossings")
    __slots__ = FIELDS + ("slot_maps", "__dict__")  # the __dict__ holds the arc skeleton's cache

    def __init__(self, edges: int, free_loops: int, crossings: tuple[Crossing, ...]):
        _store(self, edges, free_loops, crossings, _checked_slot_maps(edges, free_loops, crossings))

    def classical(self) -> list[ClassicalCrossing]:
        return [c for c in self.crossings if not c[0]]

    def virtual(self) -> list[VirtualCrossing]:
        return [c for c in self.crossings if c[0]]


def _store(d: VirtualDiagram, edges, free_loops, crossings, slot_maps) -> VirtualDiagram:
    """Fill in ``d``'s fields and slot maps, for either door."""
    set_field(d, "edges", edges)
    set_field(d, "free_loops", free_loops)
    set_field(d, "crossings", crossings)
    set_field(d, "slot_maps", slot_maps)
    return d


def _unchecked_diagram(edges: int, free_loops: int, records: tuple) -> VirtualDiagram:
    """The diagram of records whose edges are 0..edges-1, each once an in- and
    once an out-slot, made without the constructor's check: the door of
    ``relabel_canonical``, whose own checks stand in for it."""
    consumed: list = [None] * edges
    emitted: list = [None] * edges
    for ci, (_, _, w, x, y, z) in enumerate(records):  # passages (w -> x) and (y -> z)
        consumed[w] = emitted[x] = (ci, 0)
        consumed[y] = emitted[z] = (ci, 1)
    return _store(object.__new__(VirtualDiagram), edges, free_loops, records, (consumed, emitted))


class DiagramReport(Value):
    __slots__ = FIELDS = ("ok", "message")

    def __init__(self, ok: bool, message: str = ""):
        set_field(self, "ok", ok)
        set_field(self, "message", message)

    def __bool__(self) -> bool:
        return self.ok


def strand_passages(c: Crossing) -> tuple[tuple[int, int, int], ...]:
    """The two (role, in_edge, out_edge) strand passages of a crossing: role 0 is
    the under (or first) strand, role 1 the over (or second) strand."""
    return ((0, c[2], c[3]), (1, c[4], c[5]))


def _checked_slot_maps(edges, free_loops, crossings) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """The slot maps of a diagram's fields, the check of its constructor and of
    ``validate_diagram``, refusing them with ``MalformedInput`` at the first
    fault: the two counts, a ``crossings`` that is no tuple, then, in
    passage order, a crossing that is no record of its tag's class or a slot
    that breaks the slot discipline.
    The slots are gathered in dicts, so a huge edge count costs nothing
    before the first edge found without a slot."""
    _check_counts(edges, free_loops)
    if type(crossings) is not tuple:  # a list would validate, then fail to hash
        raise MalformedInput(f"crossings must be a tuple of crossing records, got {crossings!r}")
    consumed: dict[int, tuple[int, int]] = {}
    emitted: dict[int, tuple[int, int]] = {}
    for ci, c in enumerate(crossings):
        if type(c) not in _RECORD_CLASSES or type(c) is not _RECORD_CLASSES[c[0]]:
            raise MalformedInput(f"crossings[{ci}]: {c!r} is not a crossing record")
        for role, e_in, e_out in strand_passages(c):
            for e, slots, what in ((e_in, consumed, "in"), (e_out, emitted, "out")):
                if not 0 <= e < edges:  # an int: the record constructors checked it
                    raise MalformedInput(f"crossings[{ci}]: edge label {e!r} out of range 0..{edges - 1}")
                if e in slots:
                    raise MalformedInput(f"crossings[{ci}]: edge {e} used more than once as an {what}-slot")
                slots[e] = (ci, role)
    for e in range(edges):
        if e not in consumed:
            raise MalformedInput(f"edge {e} is never consumed (dangling out end)")
        if e not in emitted:
            raise MalformedInput(f"edge {e} is never emitted (dangling in end)")
    return [consumed[e] for e in range(edges)], [emitted[e] for e in range(edges)]


def _check_counts(edges, free_loops) -> None:
    """Refuse edge and free-loop counts that are not ints in range with
    ``MalformedInput``."""
    if type(edges) is not int or type(free_loops) is not int:  # type(), not isinstance(): bool is an int
        raise MalformedInput("edge and free-loop counts must be integers")
    if edges < 0 or free_loops < 0:
        raise MalformedInput("edge and free-loop counts must be non-negative")
    if free_loops > MAX_FREE_LOOPS:
        raise MalformedInput(f"free_loops {free_loops} exceeds the maximum {MAX_FREE_LOOPS}")


def validate_diagram(d: VirtualDiagram) -> DiagramReport:
    """The constructor's verdict on ``d``'s fields, re-run rather than assumed,
    so that a diagram from the unchecked door of ``relabel_canonical`` is
    checked too: the two counts, that ``crossings`` is a tuple, then in
    passage order that each crossing is a record of its tag's class and
    that every edge is once an in-slot and once an out-slot; the message is
    that of the first fault."""
    try:
        _checked_slot_maps(d.edges, d.free_loops, d.crossings)
    except MalformedInput as exc:
        return DiagramReport(False, str(exc))
    return DiagramReport(True)


def successor_cycles(d: VirtualDiagram) -> list[list[int]]:
    """Cycles of the successor permutation (edge -> next edge along its strand),
    each starting at its lowest edge, walked on the slot maps."""
    succ = [d.crossings[ci][3 + 2 * role] for ci, role in d.slot_maps[0]]
    seen = set()
    cycles = []
    for start in range(d.edges):
        if start in seen:
            continue
        cycle = []
        e = start
        while e not in seen:
            seen.add(e)
            cycle.append(e)
            e = succ[e]
        cycles.append(cycle)
    return cycles


def component_count(d: VirtualDiagram) -> int:
    return len(successor_cycles(d)) + d.free_loops


def _check_slot_tuple(c) -> None:
    """Refuse, with ``MalformedInput``, an entry ``c`` that is no 6-item tuple
    (tag, s, w, x, y, z) of ints with tag 0 or 1 and s +1 or -1: the
    constructors' rule for a crossing that is no record."""
    # type() rather than isinstance() or a bare membership test: True == 1 and 1.0 == 1
    if (type(c) is not tuple or len(c) != 6 or type(c[2]) is not int or type(c[3]) is not int
            or type(c[4]) is not int or type(c[5]) is not int):
        raise MalformedInput(f"crossing entry {c!r} is not a 6-item slot tuple with int edge labels")
    tag, s = c[0], c[1]
    if type(tag) is not int or tag not in (0, 1) or type(s) is not int or s not in (1, -1):
        raise MalformedInput(
            f"crossing entry {c!r} is neither a crossing record nor a slot tuple with tag 0 or 1 and sign +1 or -1"
        )


def _renamed(crossings, label):
    """The records of ``crossings`` (records or plain slot tuples) with edges
    renamed by ``label``, each made by its tag; virtual strands are swapped,
    negating the chirality, so that first_in < second_in.  A record whose four
    labels ``label`` keeps is yielded as it is."""
    for c in crossings:
        tag, s, w, x, y, z = c
        nw, nx, ny, nz = label[w], label[x], label[y], label[z]
        if nw == w and nx == x and ny == y and nz == z and type(c) is _RECORD_CLASSES[tag]:
            yield c
        elif tag and nw > ny:  # virtual strands swapped so that first_in < second_in
            yield tuple.__new__(VirtualCrossing, (1, -s, ny, nz, nw, nx))
        else:
            yield tuple.__new__(_RECORD_CLASSES[tag], (tag, s, nw, nx, ny, nz))


def _raise_reused_slot(crossings) -> None:
    """Raise for the first edge, in passage order, that is consumed or emitted twice."""
    ins: set[int] = set()
    outs: set[int] = set()
    for c in crossings:
        for _, e_in, e_out in strand_passages(c):
            if e_in in ins:
                raise MalformedInput(f"edge {e_in} consumed twice")
            if e_out in outs:
                raise MalformedInput(f"edge {e_out} emitted twice")
            ins.add(e_in)
            outs.add(e_out)


def relabel_canonical(crossings, free_loops: int) -> VirtualDiagram:
    """Diagram from crossings carrying arbitrary integer edge labels.

    Edges are renumbered in successor-traversal order starting from the
    lowest label, continuing from the lowest unvisited label, and the
    crossing list is sorted; the result is the canonical labelling used
    after every rewriting move.  ``crossings`` is a list or a tuple of
    records and plain slot tuples, each entry checked once as it is read
    (``_check_slot_tuple``); anything else is refused with
    ``MalformedInput``.  This is the second door by which a diagram comes
    in, besides the constructor, whose check it does not run: it checks
    what a move can get wrong (the entries, reused slots, dangling ends and
    the two counts) and stores the result's ``slot_maps`` unchecked.
    """
    if type(crossings) not in (list, tuple):  # a dict or a set would be read by its keys
        raise MalformedInput(f"crossings must be a list of crossing records, got {crossings!r}")
    succ: dict[int, int] = {}
    for c in crossings:
        cls = type(c)
        if cls is not ClassicalCrossing and cls is not VirtualCrossing:  # a record was checked when made
            _check_slot_tuple(c)
        _, _, w, x, y, z = c  # passages (w -> x) and (y -> z)
        succ[w] = x
        succ[y] = z
    outs = set(succ.values())
    if len(outs) != 2 * len(crossings):  # an in-edge overwritten or an out-edge repeated
        _raise_reused_slot(crossings)
    if succ.keys() != outs:
        raise MalformedInput("dangling edge ends after rewiring")
    label: dict[int, int] = {}
    n = 0
    for start in sorted(succ):
        e = start
        while e not in label:
            label[e] = n
            n += 1
            e = succ[e]
        if n == len(succ):  # every edge labelled: no later start is needed
            break
    _check_counts(n, free_loops)
    records = tuple(sorted(_renamed(crossings, label)))
    return _unchecked_diagram(n, free_loops, records)


def _component_signatures(d: VirtualDiagram, cycles) -> list:
    """The sorted label-free signatures of the components (successor cycles)
    of ``d``.

    A component's signature is its length and the sorted list of its
    passages.  A passage is (0, sign, role, same) on a classical crossing
    and (1, chirality seen from this strand, same) on a virtual one, where
    ``same`` tells whether the other strand is on the same component.  An
    isomorphism maps each component onto one with the same signature.
    """
    component = {e: idx for idx, cyc in enumerate(cycles) for e in cyc}
    passages: list[list[tuple]] = [[] for _ in cycles]
    for tag, s, w, _, y, _ in d.crossings:
        k0, k1 = component[w], component[y]  # the in-edges of passages 0 and 1
        same = k0 == k1
        if tag:
            passages[k0].append((1, s, same))
            passages[k1].append((1, -s, same))
        else:
            passages[k0].append((0, s, 0, same))
            passages[k1].append((0, s, 1, same))
    return sorted((len(cyc), sorted(p)) for cyc, p in zip(cycles, passages))


def isomorphic(a: VirtualDiagram, b: VirtualDiagram) -> bool:
    """Equality up to an edge relabelling (components may be matched freely)."""
    if (a.edges, a.free_loops, len(a.crossings)) != (b.edges, b.free_loops, len(b.crossings)):
        return False
    if a.edges == 0:
        return True
    cycles_a, cycles_b = successor_cycles(a), successor_cycles(b)
    # refuses most pairs that are not isomorphic without a search
    if _component_signatures(a, cycles_a) != _component_signatures(b, cycles_b):
        return False
    target = set(b.crossings)  # b's records are normalised, like _renamed's outputs
    # each crossing of a is tested as soon as the last cycle holding one of
    # its edges is mapped; the records of a diagram are distinct, so once
    # every crossing of a is found in b's equally many, the two sets agree
    component = {e: idx for idx, cyc in enumerate(cycles_a) for e in cyc}
    ready: list[list[Crossing]] = [[] for _ in cycles_a]
    for c in a.crossings:
        ready[max(component[e] for e in c[2:])].append(c)

    by_len: dict[int, list[list[int]]] = {}
    for cyc in cycles_b:
        by_len.setdefault(len(cyc), []).append(cyc)

    mapping: dict[int, int] = {}
    used: set[tuple[int, int]] = set()

    def assign(idx: int):
        """Map a's cycle idx onto each unused b cycle of its length, at each
        rotation, yielding once per choice under which the crossings it
        completes are crossings of b."""
        cyc = cycles_a[idx]
        for bi, bcyc in enumerate(by_len.get(len(cyc), [])):
            if (len(cyc), bi) in used:
                continue
            used.add((len(cyc), bi))
            for offset in range(len(bcyc)):
                for pos, e in enumerate(cyc):
                    mapping[e] = bcyc[(offset + pos) % len(bcyc)]
                if all(r in target for r in _renamed(ready[idx], mapping)):
                    yield
            used.discard((len(cyc), bi))

    # one suspended generator per matched cycle on an explicit stack, so that
    # many components cannot hit the interpreter recursion limit
    stack = [assign(0)]
    while stack:
        if next(stack[-1], True):
            stack.pop()
        elif len(stack) < len(cycles_a):
            stack.append(assign(len(stack)))
        else:
            return True
    return False


# ---------------------------------------------------------------------------
# JSON form


# JSON crossing record type -> record class; a record's JSON form is its
# TYPE followed by its FIELDS, in that order
_RECORD_TYPES = {cls.TYPE: cls for cls in _RECORD_CLASSES}


def serialize_diagram(d: VirtualDiagram) -> str:
    """The JSON form of a diagram."""
    crossings = [{"type": c.TYPE, **{name: getattr(c, name) for name in c.FIELDS}} for c in d.crossings]
    obj = {"edges": d.edges, "free_loops": d.free_loops, "crossings": crossings}
    return json.dumps(obj, separators=(",", ":"))


def parse_diagram(text: str) -> VirtualDiagram:
    """Parse and validate the JSON diagram form; unknown fields are rejected."""
    obj = load_json(text, "diagram JSON")
    if not isinstance(obj, dict):
        raise MalformedInput("diagram JSON must be an object")
    unknown = set(obj) - {"edges", "free_loops", "crossings"}
    if unknown:
        raise MalformedInput(f"unknown diagram fields: {sorted(unknown)}")
    if "edges" not in obj or "crossings" not in obj:
        raise MalformedInput("diagram JSON needs the fields edges, crossings")
    if not isinstance(obj["crossings"], list):
        raise MalformedInput("diagram crossings must be a list of crossing records")
    crossings = []
    for i, rec in enumerate(obj["crossings"]):
        where = f"crossings[{i}]"
        if not isinstance(rec, dict) or "type" not in rec:
            raise MalformedInput(f"{where}: crossing records need a 'type' field")
        kind = rec["type"]
        # only a string is looked up: hashing a list-valued type would raise
        cls = _RECORD_TYPES.get(kind) if isinstance(kind, str) else None
        if cls is None:
            raise MalformedInput(f"{where}: unknown crossing type {kind!r}")
        names = cls.FIELDS
        if rec.keys() != {"type", *names}:
            raise MalformedInput(
                f"{where}: {kind} crossings take exactly the fields {sorted(['type', *names])}"
            )
        try:
            crossings.append(cls(*[rec[name] for name in names]))
        except MalformedInput as exc:
            raise MalformedInput(f"{where}: {exc}") from None
    try:
        return VirtualDiagram(obj["edges"], obj.get("free_loops", 0), tuple(crossings))
    except MalformedInput as exc:
        raise MalformedInput(f"invalid diagram: {exc}") from None


# ---------------------------------------------------------------------------
# Builder corpus.  Codes are fixed small diagrams used throughout the tests;
# the constructor checks each at import.

def _kishino_code() -> tuple[Crossing, ...]:
    # Connected sum of two virtually-clasped unknots with opposite clasp
    # signs and opposite virtual chirality; 4 classical + 2 virtual
    # crossings on a single component.
    return (
        ClassicalCrossing(1, under_in=3, over_in=6, under_out=1, over_out=4),
        ClassicalCrossing(-1, under_in=4, over_in=1, under_out=2, over_out=5),
        VirtualCrossing(2, 3, 5, 0, 1),
        ClassicalCrossing(-1, under_in=9, over_in=0, under_out=7, over_out=10),
        ClassicalCrossing(1, under_in=10, over_in=7, under_out=8, over_out=11),
        VirtualCrossing(8, 9, 11, 6, -1),
    )


_BUILDERS: dict[str, VirtualDiagram] = {
    "unknot": VirtualDiagram(0, 1, ()),
    "unknot_kink_pos": VirtualDiagram(
        2, 0, (ClassicalCrossing(1, under_in=0, over_in=1, under_out=1, over_out=0),)
    ),
    "unknot_kink_neg": VirtualDiagram(
        2, 0, (ClassicalCrossing(-1, under_in=0, over_in=1, under_out=1, over_out=0),)
    ),
    "unknot_vkink": VirtualDiagram(2, 0, (VirtualCrossing(0, 1, 1, 0, 1),)),
    # closure of the three-crossing positive 2-braid
    "trefoil": VirtualDiagram(
        6,
        0,
        (
            ClassicalCrossing(1, under_in=3, over_in=0, under_out=1, over_out=4),
            ClassicalCrossing(1, under_in=4, over_in=1, under_out=2, over_out=5),
            ClassicalCrossing(1, under_in=5, over_in=2, under_out=0, over_out=3),
        ),
    ),
    # closure of the alternating four-crossing 3-braid (two positive, two negative)
    "figure_eight": VirtualDiagram(
        8,
        0,
        (
            ClassicalCrossing(1, under_in=2, over_in=0, under_out=1, over_out=3),
            ClassicalCrossing(-1, under_in=3, over_in=6, under_out=7, over_out=4),
            ClassicalCrossing(1, under_in=4, over_in=1, under_out=0, over_out=5),
            ClassicalCrossing(-1, under_in=5, over_in=7, under_out=6, over_out=2),
        ),
    ),
    "hopf_pos": VirtualDiagram(
        4,
        0,
        (
            ClassicalCrossing(1, under_in=2, over_in=0, under_out=1, over_out=3),
            ClassicalCrossing(1, under_in=3, over_in=1, under_out=0, over_out=2),
        ),
    ),
    # trefoil code with its third crossing replaced by a virtual one
    "virtual_trefoil": VirtualDiagram(
        6,
        0,
        (
            ClassicalCrossing(1, under_in=3, over_in=0, under_out=1, over_out=4),
            ClassicalCrossing(1, under_in=4, over_in=1, under_out=2, over_out=5),
            VirtualCrossing(2, 3, 5, 0, 1),
        ),
    ),
    # Hopf code with its second crossing replaced by a virtual one
    "virtual_hopf": VirtualDiagram(
        4,
        0,
        (
            ClassicalCrossing(1, under_in=2, over_in=0, under_out=1, over_out=3),
            VirtualCrossing(1, 2, 3, 0, 1),
        ),
    ),
    "kishino": VirtualDiagram(12, 0, _kishino_code()),
}

BUILDER_NAMES = tuple(sorted(_BUILDERS))


def builder(name: str) -> VirtualDiagram:
    """A fixed, validated diagram from the corpus, by name."""
    try:
        return _BUILDERS[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name, which is no str
        raise InvalidParameter(
            f"unknown diagram name {name!r}; known: {', '.join(BUILDER_NAMES)}"
        ) from None
