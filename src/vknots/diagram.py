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
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import InvalidParameter, MalformedInput


@dataclass(frozen=True)
class ClassicalCrossing:
    sign: int
    under_in: int
    over_in: int
    under_out: int
    over_out: int

    def __post_init__(self):
        # type() rather than a bare membership test: True == 1 and 1.0 == 1
        if type(self.sign) is not int or self.sign not in (1, -1):
            raise MalformedInput(f"crossing sign must be +1 or -1, got {self.sign!r}")


@dataclass(frozen=True)
class VirtualCrossing:
    first_in: int
    first_out: int
    second_in: int
    second_out: int
    chirality: int

    def __post_init__(self):
        if type(self.chirality) is not int or self.chirality not in (1, -1):
            raise MalformedInput(f"chirality must be +1 or -1, got {self.chirality!r}")
        if self.first_in > self.second_in:
            fi, fo = self.first_in, self.first_out
            object.__setattr__(self, "first_in", self.second_in)
            object.__setattr__(self, "first_out", self.second_out)
            object.__setattr__(self, "second_in", fi)
            object.__setattr__(self, "second_out", fo)
            object.__setattr__(self, "chirality", -self.chirality)


Crossing = ClassicalCrossing | VirtualCrossing


@dataclass(frozen=True)
class VirtualDiagram:
    edges: int
    free_loops: int
    crossings: tuple[Crossing, ...]

    def classical(self) -> list[ClassicalCrossing]:
        return [c for c in self.crossings if isinstance(c, ClassicalCrossing)]

    def virtual(self) -> list[VirtualCrossing]:
        return [c for c in self.crossings if isinstance(c, VirtualCrossing)]


@dataclass(frozen=True)
class DiagramReport:
    ok: bool
    message: str = ""

    def __bool__(self) -> bool:
        return self.ok


def strand_passages(c: Crossing) -> tuple[tuple[str, int, int], ...]:
    """The two (role, in_edge, out_edge) strand passages of a crossing."""
    if isinstance(c, ClassicalCrossing):
        return (("under", c.under_in, c.under_out), ("over", c.over_in, c.over_out))
    return (("first", c.first_in, c.first_out), ("second", c.second_in, c.second_out))


def successor_map(d: VirtualDiagram) -> dict[int, int]:
    """edge -> next edge along its strand (a permutation of 0..E-1)."""
    succ: dict[int, int] = {}
    for c in d.crossings:
        for _, e_in, e_out in strand_passages(c):
            succ[e_in] = e_out
    return succ


def slot_maps(d: VirtualDiagram):
    """Maps edge -> (crossing index, role) for the consuming and emitting slots."""
    consumed: dict[int, tuple[int, str]] = {}
    emitted: dict[int, tuple[int, str]] = {}
    for ci, c in enumerate(d.crossings):
        for role, e_in, e_out in strand_passages(c):
            consumed[e_in] = (ci, role)
            emitted[e_out] = (ci, role)
    return consumed, emitted


def validate_diagram(d: VirtualDiagram) -> DiagramReport:
    """Check slot discipline: every edge once as an in-slot, once as an out-slot."""
    if type(d.edges) is not int or type(d.free_loops) is not int:
        return DiagramReport(False, "edge and free-loop counts must be integers")
    if d.edges < 0 or d.free_loops < 0:
        return DiagramReport(False, "edge and free-loop counts must be non-negative")
    ins: dict[int, int] = {}
    outs: dict[int, int] = {}
    for ci, c in enumerate(d.crossings):
        for role, e_in, e_out in strand_passages(c):
            for e, counter, what in ((e_in, ins, "in"), (e_out, outs, "out")):
                if type(e) is not int or not 0 <= e < d.edges:
                    return DiagramReport(
                        False, f"crossings[{ci}]: edge label {e!r} out of range 0..{d.edges - 1}"
                    )
                counter[e] = counter.get(e, 0) + 1
                if counter[e] > 1:
                    return DiagramReport(
                        False, f"crossings[{ci}]: edge {e} used more than once as an {what}-slot"
                    )
    for e in range(d.edges):
        if e not in ins:
            return DiagramReport(False, f"edge {e} is never consumed (dangling out end)")
        if e not in outs:
            return DiagramReport(False, f"edge {e} is never emitted (dangling in end)")
    return DiagramReport(True)


def successor_cycles(d: VirtualDiagram) -> list[list[int]]:
    """Cycles of the successor permutation, each starting at its lowest edge."""
    succ = successor_map(d)
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


def _crossing_sort_key(c: Crossing):
    if isinstance(c, ClassicalCrossing):
        return (0, c.sign, c.under_in, c.over_in, c.under_out, c.over_out)
    return (1, c.chirality, c.first_in, c.first_out, c.second_in, c.second_out)


def relabel_canonical(crossings, free_loops: int) -> VirtualDiagram:
    """Diagram from crossing records carrying arbitrary integer edge labels.

    Edges are renumbered in successor-traversal order starting from the
    lowest label, continuing from the lowest unvisited label, and the
    crossing list is sorted; the result is the canonical labelling used
    after every rewriting move.
    """
    succ: dict[int, int] = {}
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
            succ[e_in] = e_out
    if ins != outs:
        raise MalformedInput("dangling edge ends after rewiring")
    new_label: dict[int, int] = {}
    for start in sorted(succ):
        if start in new_label:
            continue
        e = start
        while e not in new_label:
            new_label[e] = len(new_label)
            e = succ[e]

    def rewrite(c: Crossing) -> Crossing:
        if isinstance(c, ClassicalCrossing):
            return ClassicalCrossing(
                c.sign,
                new_label[c.under_in],
                new_label[c.over_in],
                new_label[c.under_out],
                new_label[c.over_out],
            )
        return VirtualCrossing(
            new_label[c.first_in],
            new_label[c.first_out],
            new_label[c.second_in],
            new_label[c.second_out],
            c.chirality,
        )

    relabelled = sorted((rewrite(c) for c in crossings), key=_crossing_sort_key)
    return VirtualDiagram(len(new_label), free_loops, tuple(relabelled))


def isomorphic(a: VirtualDiagram, b: VirtualDiagram) -> bool:
    """Equality up to an edge relabelling (components may be matched freely)."""
    if a.edges != b.edges or a.free_loops != b.free_loops:
        return False
    if len(a.crossings) != len(b.crossings):
        return False
    # stored chirality flips under relabelling (records are normalised by
    # edge order), so only classical signs and the virtual count are
    # label-independent
    sig = lambda d: sorted(
        (0, c.sign) if isinstance(c, ClassicalCrossing) else (1, 0) for c in d.crossings
    )
    if sig(a) != sig(b):
        return False
    if a.edges == 0:
        return True
    cycles_a = successor_cycles(a)
    cycles_b = successor_cycles(b)
    if sorted(map(len, cycles_a)) != sorted(map(len, cycles_b)):
        return False
    target = {_crossing_sort_key(c) for c in b.crossings}
    if len(target) != len(b.crossings):
        # duplicate records: fall back to multiset comparison
        target = sorted(_crossing_sort_key(c) for c in b.crossings)
        as_set = False
    else:
        as_set = True

    def crossings_match(mapping) -> bool:
        mapped = []
        for c in a.crossings:
            if isinstance(c, ClassicalCrossing):
                img = ClassicalCrossing(
                    c.sign,
                    mapping[c.under_in],
                    mapping[c.over_in],
                    mapping[c.under_out],
                    mapping[c.over_out],
                )
            else:
                img = VirtualCrossing(
                    mapping[c.first_in],
                    mapping[c.first_out],
                    mapping[c.second_in],
                    mapping[c.second_out],
                    c.chirality,
                )
            mapped.append(_crossing_sort_key(img))
        if as_set:
            return set(mapped) == target
        return sorted(mapped) == target

    by_len: dict[int, list[list[int]]] = {}
    for cyc in cycles_b:
        by_len.setdefault(len(cyc), []).append(cyc)

    def assign(idx: int, mapping: dict[int, int], used: set[int]) -> bool:
        if idx == len(cycles_a):
            return crossings_match(mapping)
        cyc = cycles_a[idx]
        for bi, bcyc in enumerate(by_len.get(len(cyc), [])):
            if (len(cyc), bi) in used:
                continue
            for offset in range(len(bcyc)):
                for pos, e in enumerate(cyc):
                    mapping[e] = bcyc[(offset + pos) % len(bcyc)]
                used.add((len(cyc), bi))
                if assign(idx + 1, mapping, used):
                    return True
                used.discard((len(cyc), bi))
        return False

    return assign(0, {}, set())


# ---------------------------------------------------------------------------
# JSON form


def serialize_diagram(d: VirtualDiagram) -> str:
    crossings = []
    for c in d.crossings:
        if isinstance(c, ClassicalCrossing):
            crossings.append(
                {
                    "type": "classical",
                    "sign": c.sign,
                    "under_in": c.under_in,
                    "over_in": c.over_in,
                    "under_out": c.under_out,
                    "over_out": c.over_out,
                }
            )
        else:
            crossings.append(
                {
                    "type": "virtual",
                    "first_in": c.first_in,
                    "first_out": c.first_out,
                    "second_in": c.second_in,
                    "second_out": c.second_out,
                    "chirality": c.chirality,
                }
            )
    obj = {"edges": d.edges, "free_loops": d.free_loops, "crossings": crossings}
    return json.dumps(obj, separators=(",", ":"))


_CLASSICAL_FIELDS = {"type", "sign", "under_in", "over_in", "under_out", "over_out"}
_VIRTUAL_FIELDS = {"type", "first_in", "first_out", "second_in", "second_out", "chirality"}


def parse_diagram(text: str) -> VirtualDiagram:
    """Parse and validate the JSON diagram form; unknown fields are rejected."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"bad diagram JSON: {exc}") from exc
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
        try:
            if rec["type"] == "classical":
                if set(rec) != _CLASSICAL_FIELDS:
                    raise MalformedInput(
                        f"{where}: classical crossings take exactly the fields "
                        f"{sorted(_CLASSICAL_FIELDS)}"
                    )
                crossings.append(
                    ClassicalCrossing(
                        rec["sign"], rec["under_in"], rec["over_in"], rec["under_out"], rec["over_out"]
                    )
                )
            elif rec["type"] == "virtual":
                if set(rec) != _VIRTUAL_FIELDS:
                    raise MalformedInput(
                        f"{where}: virtual crossings take exactly the fields "
                        f"{sorted(_VIRTUAL_FIELDS)}"
                    )
                crossings.append(
                    VirtualCrossing(
                        rec["first_in"],
                        rec["first_out"],
                        rec["second_in"],
                        rec["second_out"],
                        rec["chirality"],
                    )
                )
            else:
                raise MalformedInput(f"{where}: unknown crossing type {rec['type']!r}")
        except MalformedInput:
            raise
        except (KeyError, TypeError) as exc:
            raise MalformedInput(f"{where}: {exc}") from exc
    d = VirtualDiagram(obj["edges"], obj.get("free_loops", 0), tuple(crossings))
    report = validate_diagram(d)
    if not report:
        raise MalformedInput(f"invalid diagram: {report.message}")
    return d


# ---------------------------------------------------------------------------
# Builder corpus.  Codes are fixed small diagrams used throughout the tests;
# every builder output passes validate_diagram (checked in the test suite).

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
    except KeyError:
        raise InvalidParameter(
            f"unknown diagram name {name!r}; known: {', '.join(BUILDER_NAMES)}"
        ) from None
