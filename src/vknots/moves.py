"""Local rewriting of diagrams and the randomized equivalence fuzzer.

Implemented rewrites:

  r1_insert / r1_remove      classical kink (any sign, either passage order)
  r2_insert / r2_remove      strand poke: two opposite-sign classical
                             crossings (parallel and antiparallel bigons
                             are both removable)
  r3_slide                   triangle flip across three classical
                             crossings; sites are accepted only when the
                             over/under pattern, strand directions and
                             signs are jointly realizable by a planar
                             triangle (a closed-form rule on the
                             oriented R3 variants)
  vkink_insert / vkink_remove virtual kink (any chirality)
  detour                     delete the virtual passages of a strand
                             segment and re-route it across a given list
                             of (edge, chirality) targets

The fuzzer never applies an arbitrary detour: it draws from instance
families whose effect on twisted colorings is understood exactly --
poke insertion/removal with cancelling chiralities, sliding a virtual
passage across an adjacent virtual crossing, and sliding a consecutive
pair of virtual passages past a classical crossing (the semi-virtual
slide, offered only with ``allow_semi_virtual``).  The semi-virtual slide
additionally requires the two route chiralities p, q to satisfy
p*q = side_a*side_b, where a side is +1 when the route crosses the
incoming half of the classical crossing's strand; other combinations do
not arise from a planar slide and do not preserve twisted colorings.
The sites of every family but poke insertion come from one walk of the
virtual passages, ``_detour_sites``, the only detour site scan, which
always builds the three lists with repeats; the fuzzer sorts the drawn
family's list alone.  Only the fuzzer's family menu reads
``allow_semi_virtual``.

The moves know one crossing form, the record layout of ``diagram``,
(tag, sign or chirality, in0, out0, in1, out1): a role is a passage index
(0 = under/first strand, 1 = over/second strand) and passage k holds its
(in, out) edges at tuple indices 2 + 2k and 3 + 2k, classical or virtual.
They read a sign, like a slot, by index.  Every crossing a move makes or
edits is a plain slot tuple in that layout: ``_rewire`` (one slot) and
``_with_passages`` (both passages) write one, and so do the kinks, the
poke pair and a detour's new virtual crossings.  A move hands
``relabel_canonical`` the records of its input and these tuples; it
checks each tuple's tag, sign and int labels once, and ``_renamed`` makes
every record of the output.

A move finds the in-slot to rewire in ``d.slot_maps``, two lists indexed
by edge (a detour, after deleting its interior crossings, in the chain
ends that ``_remove_crossings`` returns for the merged edges, and in
``d.slot_maps`` for every other edge); no move scans the crossing list
for it.  The scans that run on every move read a record unpacked, as
``(tag, sign, w, x, y, z)``, with passages (w, x) and (y, z).  A diagram
was checked when it was made, so every move and finder tells a
crossing's kind by its tag alone.

A trace is a list of ``MoveRecord``s, and a record is the call that
replays it: ``apply_move`` calls the move its ``kind`` names with its
``site`` as keyword arguments, so the site keys are the parameter names
(``LOOP`` as a kink's edge stands for a free loop).  Every argument of
a move is checked before it is used, else ``InvalidParameter``: an edge
is an int label of the diagram (``_check_edge``), a sign or chirality the
int +1 or -1 (``diagram._check_fields``, the record constructors' own
test), ``handed`` "under" or "over", ``over_first`` a bool, the
bridges a list and the passages a list of (edge, chirality) pairs.  A
site is a dict whose keys are among the move's parameters and include
every parameter without a default; ``apply_move`` reads the names once,
at import, from the move functions themselves.

After every move the edge labels are renumbered canonically (successor
traversal from the lowest surviving label), the crossing list is sorted
and the output's ``slot_maps``, which the next move's site finders read,
are filled in; so structural equality of move outputs is meaningful, and
``diagram.isomorphic`` decides equality up to relabelling in tests.
"""

from __future__ import annotations

import random

from .diagram import VirtualDiagram, _check_fields, relabel_canonical
from .errors import InvalidParameter, NotApplicable, _check_type
from .value import Value, set_field

LOOP = "loop"  # site value standing for "a free loop" in kink insertions


# ---------------------------------------------------------------------------
# slot surgery helpers: a role is a passage index, 0 = under/first, 1 = over/second


def _passage(c, role):
    """(in_edge, out_edge) of the passage ``role`` of a crossing."""
    return c[2 + 2 * role], c[3 + 2 * role]


def _with_passages(c, p0, p1):
    """``c``'s slot tuple with the (in, out) pairs p0, p1 as passages 0 and 1."""
    return (c[0], c[1], *p0, *p1)


def _rewire(crossings, slot, new_edge, end=0):
    """Make the slot ``slot`` = (crossing index, role) of ``crossings`` carry
    ``new_edge`` at its in-end (``end`` 0) or out-end (``end`` 1)."""
    ci, role = slot
    r = list(crossings[ci])
    r[2 + 2 * role + end] = new_edge
    crossings[ci] = tuple(r)


def _remove_crossings(d: VirtualDiagram, remove: set[int]):
    """Delete crossings, merging the through-edges of every deleted passage.

    The edges joined by deleted passages form chains.  Each chain whose
    first edge has a surviving emitter is walked through the deleted
    passages to its last edge, whose consumer survives, and both of those
    slots are renamed to the chain's lowest label, its representative.
    A chain left over is a closed cycle through deleted passages only and
    becomes one free loop.

    Returns (survivors, free loops gained, rep, ends): ``survivors`` maps
    each kept crossing's original index to its slot tuple with merged labels,
    ``rep`` maps every edge of a chain to its representative, and ``ends``
    maps the representative of every open chain to the in-slot (original
    crossing index, role) that consumes it.
    """
    consumed, emitted = d.slot_maps
    crossings = d.crossings
    survivors = {ci: c for ci, c in enumerate(crossings) if ci not in remove}
    ins = [crossings[ci][i] for ci in remove for i in (2, 4)]  # deleted passages' in-edges
    rep: dict[int, int] = {}
    ends: dict[int, tuple[int, int]] = {}
    for first in ins:
        if emitted[first][0] in remove:
            continue
        chain = [first]
        ci, role = consumed[first]
        while ci in remove:
            chain.append(crossings[ci][3 + 2 * role])
            ci, role = consumed[chain[-1]]
        low = min(chain)
        for e in chain:
            rep[e] = low
        ends[low] = (ci, role)
        if low != first:
            _rewire(survivors, emitted[first], low, 1)
        if low != chain[-1]:
            _rewire(survivors, (ci, role), low)
    gained = 0
    for first in ins:
        if first in rep:
            continue
        gained += 1
        chain = [first]
        while True:
            ci, role = consumed[chain[-1]]
            e = crossings[ci][3 + 2 * role]
            if e == first:
                break
            chain.append(e)
        low = min(chain)
        for e in chain:
            rep[e] = low
    return survivors, gained, rep, ends


def _check_edge(d: VirtualDiagram, e) -> None:
    """Refuse anything but an edge label of ``d``, an int in 0..edges-1."""
    if type(e) is not int or not 0 <= e < d.edges:  # type(), not isinstance(): bool is an int
        raise InvalidParameter(f"edge {e!r} out of range")


def _delete(d: VirtualDiagram, crossings: set[int]) -> VirtualDiagram:
    """``d`` without the given crossings, the through-edges of each passage merged."""
    survivors, gained, _, _ = _remove_crossings(d, crossings)
    return relabel_canonical(list(survivors.values()), d.free_loops + gained)


def _insert_kink(d: VirtualDiagram, edge, tag: int, s: int, over_first: bool = False) -> VirtualDiagram:
    """Insert a kink, one crossing of record tag ``tag`` and sign or chirality
    ``s``, on an edge, or onto a free loop (edge None or LOOP): the strand
    runs in -> passage 0 -> loop -> passage 1 -> out, or through passage 1
    first when ``over_first``."""
    a, b = d.edges, d.edges + 1
    crossings = list(d.crossings)
    if edge is None or edge == LOOP:
        if d.free_loops < 1:
            raise NotApplicable("no free loop to kink")
        e_in, loop, e_out, free_loops = a, b, a, d.free_loops - 1
    else:
        _check_edge(d, edge)
        _rewire(crossings, d.slot_maps[0][edge], b)
        e_in, loop, e_out, free_loops = edge, a, b, d.free_loops
    crossings.append((tag, s, loop, e_out, e_in, loop) if over_first else (tag, s, e_in, loop, loop, e_out))
    return relabel_canonical(crossings, free_loops)


def _kink_sites(d: VirtualDiagram, tag: int) -> list[int]:
    """Sorted loop edges of the kinks made by one crossing with record tag
    ``tag`` (0 classical, 1 virtual); a crossing that is a kink both ways is
    listed once, by its passage-0 out-edge."""
    # in a record (tag, s, w, x, y, z), x == y is passage 0 feeding
    # passage 1 and z == w is passage 1 feeding passage 0
    return sorted({x if x == y else z for t, _, w, x, y, z in d.crossings if t == tag and (x == y or z == w)})


def _remove_kink(d: VirtualDiagram, loop: int, tag: int, what: str) -> VirtualDiagram:
    """Remove the crossing with record tag ``tag`` (0 classical, 1 virtual)
    that emits ``loop`` from one passage and consumes it in the other."""
    consumed, emitted = d.slot_maps
    _check_edge(d, loop)
    ci, role = emitted[loop]
    if consumed[loop] != (ci, 1 - role) or d.crossings[ci][0] != tag:
        raise NotApplicable(f"edge {loop} is not the loop of a {what}")
    return _delete(d, {ci})


# ---------------------------------------------------------------------------
# classical kinks


def r1_insert(d: VirtualDiagram, edge, sign: int, handed: str = "under") -> VirtualDiagram:
    """Insert a classical kink on an edge, or onto a free loop (edge None or LOOP).

    ``handed`` selects which passage the incoming strand takes first.
    """
    _check_fields(sign, "kink sign", error=InvalidParameter)
    if handed not in ("under", "over"):
        raise InvalidParameter("handed must be 'under' or 'over'")
    return _insert_kink(d, edge, 0, sign, handed == "over")


def find_r1_sites(d: VirtualDiagram) -> list[int]:
    """Loop edges of removable classical kinks."""
    return _kink_sites(d, 0)


def r1_remove(d: VirtualDiagram, loop: int) -> VirtualDiagram:
    """Remove the classical kink whose loop edge is given."""
    return _remove_kink(d, loop, 0, "classical kink")


# ---------------------------------------------------------------------------
# classical pokes


def r2_insert(d: VirtualDiagram, edge_a: int, edge_b: int, over_first: bool = True) -> VirtualDiagram:
    """Poke edge_a across edge_b: two new opposite-sign classical crossings.

    With ``over_first`` the a-strand passes over the b-strand at both new
    crossings, otherwise under.
    """
    consumed = d.slot_maps[0]
    _check_edge(d, edge_a)
    _check_edge(d, edge_b)
    if edge_a == edge_b:
        raise InvalidParameter("poke needs two distinct edges")
    _check_type(over_first, bool, "over_first")
    m1, m2, k1, k2 = d.edges, d.edges + 1, d.edges + 2, d.edges + 3
    crossings = list(d.crossings)
    _rewire(crossings, consumed[edge_a], m2)
    _rewire(crossings, consumed[edge_b], k2)
    if over_first:  # the a-strand, edge_a -> m1 -> m2, as passage 1 of both
        crossings += [(0, 1, edge_b, k1, edge_a, m1), (0, -1, k1, k2, m1, m2)]
    else:
        crossings += [(0, 1, edge_a, m1, edge_b, k1), (0, -1, m1, m2, k1, k2)]
    return relabel_canonical(crossings, d.free_loops)


def _is_r2_site(d: VirtualDiagram, mid) -> bool:
    """Whether ``mid``, an edge label of ``d``, is the over-strand middle edge
    of a removable poke."""
    consumed, emitted = d.slot_maps
    ei, ri = emitted[mid]
    cj, rj = consumed[mid]
    if ri != 1 or rj != 1 or ei == cj:  # over at both ends
        return False
    x1, x2 = d.crossings[ei], d.crossings[cj]
    if x1[0] or x2[0]:  # a virtual crossing
        return False
    # (tag, sign, under_in, under_out, ...): opposite signs, and the under strands meet
    return x1[1] != x2[1] and (x1[3] == x2[2] or x2[3] == x1[2])


def find_r2_sites(d: VirtualDiagram) -> list[int]:
    """Over-strand middle edges of removable pokes, sorted."""
    # a poke's over-middle is emitted by a classical over passage: its over_out
    return sorted(z for tag, _, _, _, _, z in d.crossings if not tag and _is_r2_site(d, z))


def r2_remove(d: VirtualDiagram, over_mid: int) -> VirtualDiagram:
    """Remove the poke whose over-strand middle edge is given."""
    consumed, emitted = d.slot_maps
    _check_edge(d, over_mid)
    if not _is_r2_site(d, over_mid):
        raise NotApplicable(f"edge {over_mid} is not the over-middle of a poke")
    return _delete(d, {emitted[over_mid][0], consumed[over_mid][0]})


# ---------------------------------------------------------------------------
# triangle slide


def _realizable(firsts, overs, signs) -> bool:
    """Whether a labelled triangle can be drawn with three oriented lines.

    Strand 1 runs through crossings (X, Y), strand 2 through (X, Z) and
    strand 3 through (Z, Y).  ``firsts`` holds, per strand, 0 when it
    passes its first-named crossing first; ``overs`` holds 1 when the
    lower-numbered strand is over at X, Y and Z; ``signs`` holds the three
    crossing signs.  a_k = s_k if o_k else -s_k is the sign of crossing k
    with the lower-numbered strand put over, which the heights do not
    change.  A triangle is realizable when its heights are acyclic and
    a_X*a_Y = -(-1)^(f2+f3), a_X*a_Z = -(-1)^(f1+f3): the oriented R3
    variants (Polyak, *Minimal generating sets of Reidemeister moves*,
    2010), checked against line geometry in the tests.  The rule is
    invariant under swapping strands 2 and 3.
    """
    if overs[0] == overs[2] != overs[1]:  # cyclically woven heights
        return False
    ax, ay, az = (s if o else -s for o, s in zip(overs, signs))
    f1, f2, f3 = firsts
    return ax * ay == -((-1) ** (f2 + f3)) and ax * az == -((-1) ** (f1 + f3))


def _is_r3_site(d: VirtualDiagram, bridges) -> bool:
    """Whether ``bridges``, edge labels of ``d``, are three distinct edges and
    the bridges of a realizable triangle.

    The bridges are labelled once, p < q < r as strands 1, 2 and 3 of
    ``_realizable``: X is the crossing p and q share.  The other labelling,
    q and r swapped, is realizable exactly when this one is.
    """
    consumed, emitted = d.slot_maps
    if len(bridges) != 3 or len(set(bridges)) != 3:
        return False
    p, q, r = sorted(bridges)
    cp, cq, cr = ({emitted[e][0], consumed[e][0]} for e in (p, q, r))
    if len(cp) != 2 or len(cq) != 2 or len(cp & cq) != 1:
        return False
    (x,) = cp & cq
    (y,) = cp - {x}
    (z,) = cq - {x}
    if cr != {y, z} or any(d.crossings[ci][0] for ci in (x, y, z)):  # a virtual crossing
        return False
    role = {(e, ci): rl for e in (p, q, r) for ci, rl in (emitted[e], consumed[e])}
    # the two bridges meeting at a crossing must ride different passages
    if role[p, x] == role[q, x] or role[p, y] == role[r, y] or role[q, z] == role[r, z]:
        return False
    firsts = tuple(int(emitted[e][0] != c) for e, c in ((p, x), (q, x), (r, z)))
    overs = (role[p, x], role[p, y], role[q, z])  # role 1 is over
    return _realizable(firsts, overs, tuple(d.crossings[ci][1] for ci in (x, y, z)))


def find_r3_sites(d: VirtualDiagram) -> list[tuple[int, int, int]]:
    """Bridge-edge triples of realizable triangle slides, sorted."""
    consumed = d.slot_maps[0]
    crossings = d.crossings
    links: dict[tuple[int, int], list[int]] = {}  # (a, b), a < b -> edges between them
    neighbours = [set() for _ in crossings]
    for a, (tag, _, _, x, _, z) in enumerate(crossings):
        if tag:
            continue
        for e in (x, z):  # the classical out-edges, under then over
            b = consumed[e][0]
            if b == a or crossings[b][0]:
                continue
            links.setdefault((a, b) if a < b else (b, a), []).append(e)
            neighbours[a].add(b)
            neighbours[b].add(a)
    sites = set()
    for (a, b), e0s in links.items():
        # each triangle once: from its two lowest crossings
        for third in neighbours[a] & neighbours[b]:
            if third < b:
                continue
            e1s = links[a, third]
            e2s = links[b, third]
            for e0 in e0s:
                for e1 in e1s:
                    for e2 in e2s:
                        bridges = tuple(sorted((e0, e1, e2)))
                        if _is_r3_site(d, bridges):
                            sites.add(bridges)
    return sorted(sites)


def r3_slide(d: VirtualDiagram, bridges) -> VirtualDiagram:
    """Flip the triangle identified by its three bridge edges."""
    consumed, emitted = d.slot_maps
    if not isinstance(bridges, (list, tuple)):
        raise InvalidParameter(f"bridges must be a list of edges, got {bridges!r}")
    bridges = tuple(bridges)
    for e in bridges:
        _check_edge(d, e)
    if not _is_r3_site(d, bridges):
        raise NotApplicable(f"edges {bridges} do not form a realizable triangle")
    new_slots: dict[tuple[int, int], tuple[int, int]] = {}
    for bridge in bridges:
        first, second = emitted[bridge], consumed[bridge]  # (crossing, role) in traversal order
        # the strand now meets its second crossing first
        new_slots[second] = (_passage(d.crossings[first[0]], first[1])[0], bridge)
        new_slots[first] = (bridge, _passage(d.crossings[second[0]], second[1])[1])
    crossings = list(d.crossings)
    for ci in {ci for ci, _ in new_slots}:
        crossings[ci] = _with_passages(d.crossings[ci], new_slots[ci, 0], new_slots[ci, 1])
    return relabel_canonical(crossings, d.free_loops)


# ---------------------------------------------------------------------------
# virtual kinks


def vkink_insert(d: VirtualDiagram, edge, chirality: int) -> VirtualDiagram:
    """Insert a virtual kink on an edge, or onto a free loop (edge None or LOOP)."""
    _check_fields(chirality, "chirality", error=InvalidParameter)
    return _insert_kink(d, edge, 1, chirality)


def find_vkink_sites(d: VirtualDiagram) -> list[int]:
    return _kink_sites(d, 1)


def vkink_remove(d: VirtualDiagram, loop: int) -> VirtualDiagram:
    return _remove_kink(d, loop, 1, "virtual kink")


# ---------------------------------------------------------------------------
# detour


def _segment(d: VirtualDiagram, start: int, end: int) -> list[tuple[int, int]]:
    """(crossing index, route role) of every passage from ``start`` to ``end``."""
    consumed = d.slot_maps[0]
    walk = []
    e = start
    while e != end:
        ci, role = consumed[e]
        c = d.crossings[ci]
        if not c[0]:
            raise NotApplicable("segment interior contains a classical passage")
        walk.append((ci, role))
        e = _passage(c, role)[1]
        if e == start:
            raise NotApplicable("segment never reaches its end edge")
    return walk


def detour(d: VirtualDiagram, start: int, end: int, passages) -> VirtualDiagram:
    """Re-route the strand segment from ``start`` to ``end``.

    The segment's interior crossing passages must all be virtual; they
    are deleted (merging the transversal strands) and the segment is
    re-routed to cross each listed (edge, chirality) target virtually,
    in order.  Chirality is given with the re-routed strand in first
    position.  When the route crosses one target edge several times the
    crossings sit along the target in route order.  Endpoints (the slots
    emitting ``start`` and consuming ``end``) are untouched.
    """
    consumed, emitted = d.slot_maps
    _check_edge(d, start)
    _check_edge(d, end)
    if not isinstance(passages, (list, tuple)):
        raise InvalidParameter(f"passages must be a list of [edge, chirality] pairs, got {passages!r}")
    interior = {ci for ci, _ in _segment(d, start, end)}
    if emitted[start][0] in interior or consumed[end][0] in interior:
        raise NotApplicable("segment endpoints lie on interior crossings")

    survivors, gained, rep, ends = _remove_crossings(d, interior)
    route = rep.get(start, start)

    targets = []
    for passage in passages:
        if not isinstance(passage, (list, tuple)) or len(passage) != 2:
            raise InvalidParameter(f"a passage must be an [edge, chirality] pair, got {passage!r}")
        t, ch = passage
        _check_edge(d, t)
        _check_fields(ch, "chirality", error=InvalidParameter)
        t = rep.get(t, t)
        if t == route:
            raise InvalidParameter("a detour cannot cross its own route")
        targets.append((t, ch))

    # after the removal a chain's representative is consumed by its slot in
    # ``ends``, a closed chain's by none, and every edge off the chains by its
    # slot in ``consumed``; ``tail`` holds the slots that the route moves
    fresh = d.edges + len(targets)
    pieces = [route, *range(d.edges, fresh)]
    if targets:
        # the slot that consumed the segment now consumes the last route piece
        _rewire(survivors, ends[route] if route in rep else consumed[route], pieces[-1])
    added = []
    tail: dict[int, tuple[int, tuple[int, int]]] = {}  # target rep -> (piece carrying its far end, its consumer)
    for i, (t, ch) in enumerate(targets):
        if t in tail:
            t_cur, slot = tail[t]
        elif t in ends:
            t_cur, slot = t, ends[t]
        elif t in rep:
            raise NotApplicable(f"edge {t} has no consumer")
        else:
            t_cur, slot = t, consumed[t]
        t_next = fresh
        fresh += 1
        _rewire(survivors, slot, t_next)  # t_cur is consumed by the new crossing from here on
        added.append((1, ch, pieces[i], pieces[i + 1], t_cur, t_next))
        tail[t] = t_next, slot
    return relabel_canonical([*survivors.values(), *added], d.free_loops + gained)


# ---------------------------------------------------------------------------
# fuzz-safe detour instance families


def _detour_sites(d: VirtualDiagram):
    """(poke-removal, virtual-slide, semi-virtual slide) sites from one walk of
    the virtual passages, each a (start, end, passages) triple, with repeats;
    a poke removal has no passages.

    Each passage is read once from its route: in-edge, out-edge, route-view
    chirality and transversal.  A passage whose route kinks through its own
    crossing gives no site.  Any other one is a virtual slide across each
    virtual neighbour of its transversal, to the edge beyond.  With the
    route's next passage, when that one lies on another virtual crossing
    and the route leaves both, it forms a pair: a poke removal when the
    chiralities cancel and the transversals run through each other, a
    semi-virtual slide when both transversals meet the two strands of one
    classical crossing next to the route with p*q = side1*side2, and that
    crossing's other-half edges lie off the route.
    """
    consumed, emitted = d.slot_maps
    crossings = d.crossings

    def adjacency(t_in, t_out):
        """(classical crossing, side, passage role there, other-half edge) or None;
        the side is +1 at the transversal's next neighbour, -1 at its previous one."""
        qi, qrole = consumed[t_out]
        if not crossings[qi][0]:
            return qi, 1, qrole, crossings[qi][3 + 2 * qrole]
        qi, qrole = emitted[t_in]
        if not crossings[qi][0]:
            return qi, -1, qrole, crossings[qi][2 + 2 * qrole]
        return None

    # route in-edge -> (crossing, route out-edge, route-view chirality, transversal
    # in-edge and out-edge); passage 0 is (w, x), passage 1 is (y, z), and the
    # chirality is negated when the route takes passage 1
    views = {}
    for v, (tag, ch, w, x, y, z) in enumerate(crossings):
        if tag:
            views[w] = (v, x, ch, y, z)
            views[y] = (v, z, -ch, w, x)
    pokes, slides, semis = [], [], []
    for r_in, (v, r_out, p, t_in, t_out) in views.items():
        if emitted[r_in][0] == v or consumed[r_out][0] == v:
            continue  # the route kinks through this crossing
        # hop across the transversal's next, then previous, virtual neighbour
        wi, wrole = consumed[t_out]
        if wi != v and crossings[wi][0]:
            u = crossings[wi][3 + 2 * wrole]
            if u != r_in and u != r_out:
                slides.append((r_in, r_out, ((u, p),)))
        wi, wrole = emitted[t_in]
        if wi != v and crossings[wi][0]:
            u = crossings[wi][2 + 2 * wrole]
            if u != r_in and u != r_out:
                slides.append((r_in, r_out, ((u, p),)))
        if r_out not in views:
            continue
        v2, r_end, q, t2_in, t2_out = views[r_out]  # v2 != v: the route does not kink
        if emitted[r_in][0] == v2 or consumed[r_end][0] in (v, v2):
            continue
        if p + q == 0 and (t_out == t2_in or t2_out == t_in):
            pokes.append((r_in, r_end, ()))
        adj1 = adjacency(t_in, t_out)
        adj2 = adjacency(t2_in, t2_out)
        if adj1 is None or adj2 is None:
            continue
        q1, s1, qrole1, other1 = adj1
        q2, s2, qrole2, other2 = adj2
        if q1 != q2 or qrole1 == qrole2 or p * q != s1 * s2:
            continue
        if other1 in (r_in, r_out, r_end) or other2 in (r_in, r_out, r_end):
            continue
        semis.append((r_in, r_end, ((other2, q), (other1, p))))
    return pokes, slides, semis


# ---------------------------------------------------------------------------
# move records and the randomized fuzzer


class MoveRecord(Value):
    """One move of a trace; unhashable, since its site is a dict."""

    __slots__ = FIELDS = ("kind", "site")

    def __init__(self, kind: str, site: dict):
        set_field(self, "kind", kind)
        set_field(self, "site", site)

    def to_json_obj(self) -> dict:
        return {"kind": self.kind, "site": self.site}


CLASSICAL_KINDS = ("r1_insert", "r1_remove", "r2_insert", "r2_remove", "r3_slide")
ALL_KINDS = CLASSICAL_KINDS + ("vkink_insert", "vkink_remove", "detour")
_SHRINKING = {"r1_remove", "r2_remove", "vkink_remove"}


def _site_keys(move) -> tuple[set, set, tuple]:
    """The keys a site of ``move`` must hold, the keys it may hold and their
    order: the move's parameters after ``d``, those without a default required."""
    code = move.__code__
    names = code.co_varnames[1 : code.co_argcount]
    return set(names[: len(names) - len(move.__defaults__ or ())]), set(names), names


# read once from the moves as defined here, since a wrapper bound over a
# move's name later may take *args, **kwargs
_SITE_KEYS = {kind: _site_keys(globals()[kind]) for kind in ALL_KINDS}


def apply_move(d: VirtualDiagram, record: MoveRecord) -> VirtualDiagram:
    """Replay a record: the move function named by its kind, called with its site
    as keyword arguments; a site that is not a dict of the move's parameters
    is an ``InvalidParameter``."""
    if record.kind not in ALL_KINDS:
        raise InvalidParameter(f"unknown move kind {record.kind!r}")
    required, allowed, names = _SITE_KEYS[record.kind]
    site = record.site
    if type(site) is not dict or not required <= site.keys() <= allowed:
        keys = ", ".join(k if k in required else f"[{k}]" for k in names)
        raise InvalidParameter(f"{record.kind} takes a site dict of {keys}, got {site!r}")
    # looked up per call, so that a wrapper bound over a move's name is the one called
    return globals()[record.kind](d, **site)


def _draw(rng, kind: str, key: str, sites: list):
    """A ``kind`` record whose site ``key`` is drawn from ``sites``, None when there is
    none; a tuple site is stored as the list it reads back as from JSON."""
    if not sites:
        return None
    site = rng.choice(sites)
    return MoveRecord(kind, {key: list(site) if type(site) is tuple else site})


def _instantiate(d, rng, kind, allow_semi_virtual, prefer_removal):
    """A record of ``kind``, one of ALL_KINDS, at a drawn site; None when it has none."""
    if kind == "r1_insert" or kind == "vkink_insert":
        choices = list(range(d.edges)) + ([LOOP] if d.free_loops else [])
        if not choices:
            return None
        edge = rng.choice(choices)
        if kind == "r1_insert":
            site = {"edge": edge, "sign": rng.choice((1, -1)), "handed": rng.choice(("under", "over"))}
        else:
            site = {"edge": edge, "chirality": rng.choice((1, -1))}
        return MoveRecord(kind, site)
    if kind == "r1_remove":
        return _draw(rng, kind, "loop", find_r1_sites(d))
    if kind == "r2_insert":
        if d.edges < 2:
            return None
        a, b = rng.sample(range(d.edges), 2)
        return MoveRecord(kind, {"edge_a": a, "edge_b": b, "over_first": rng.random() < 0.5})
    if kind == "r2_remove":
        return _draw(rng, kind, "over_mid", find_r2_sites(d))
    if kind == "r3_slide":
        return _draw(rng, kind, "bridges", find_r3_sites(d))
    if kind == "vkink_remove":
        return _draw(rng, kind, "loop", find_vkink_sites(d))
    if kind == "detour":
        pokes, slides, semis = _detour_sites(d)
        # the families in this order, so that rng draws the same way
        sites = {
            "poke_insert": d.edges >= 2,
            "poke_remove": pokes,
            "virtual_slide": slides,
            "semi_virtual_slide": allow_semi_virtual and semis,
        }
        families = [family for family, present in sites.items() if present]
        if not families:
            return None
        family = "poke_remove" if prefer_removal and pokes else rng.choice(families)
        if family == "poke_insert":
            e, t = rng.sample(range(d.edges), 2)
            ch = rng.choice((1, -1))
            site = {"start": e, "end": e, "passages": [[t, ch], [t, -ch]]}
        else:
            start, end, passages = rng.choice(sorted(set(sites[family])))
            site = {"start": start, "end": end, "passages": [list(p) for p in passages]}
        return MoveRecord("detour", site)


def random_equivalent(
    d: VirtualDiagram,
    seed: int,
    n_moves: int,
    allow_semi_virtual: bool = True,
    kinds=None,
    soft_cap: int | None = None,
) -> tuple[VirtualDiagram, list[MoveRecord]]:
    """Apply randomly chosen applicable moves; deterministic for a fixed seed.

    ``kinds``, None or a list or tuple, restricts the move menu (e.g. to
    CLASSICAL_KINDS), and a name outside ``ALL_KINDS`` is refused before
    the first draw, as is an ``allow_semi_virtual`` that is no bool; the
    ``soft_cap`` steers move choice toward removals once the diagram
    outgrows it, keeping fuzz traces affordable.
    """
    _check_type(seed, int, "seed")
    _check_type(n_moves, int, "move count")
    if n_moves < 0:
        raise InvalidParameter(f"move count must be non-negative, got {n_moves}")
    if soft_cap is not None:
        _check_type(soft_cap, int, "soft cap")
    _check_type(allow_semi_virtual, bool, "allow_semi_virtual")
    if kinds is not None and not isinstance(kinds, (list, tuple)):
        raise InvalidParameter(f"kinds must be None or a list of move kinds, got {kinds!r}")
    menu = ALL_KINDS if kinds is None else tuple(kinds)
    for kind in menu:
        if kind not in ALL_KINDS:
            raise InvalidParameter(f"unknown move kind {kind!r}")
    rng = random.Random(seed)
    cap = soft_cap if soft_cap is not None else max(24, 2 * d.edges + 16)
    cur = d
    trace: list[MoveRecord] = []
    for _ in range(n_moves):
        order = list(menu)
        rng.shuffle(order)
        if cur.edges > cap:
            order.sort(key=lambda k: (k not in _SHRINKING and k != "detour"))
        record = None
        for kind in order:
            record = _instantiate(cur, rng, kind, allow_semi_virtual, cur.edges > cap)
            if record is not None:
                break
        if record is None:
            break
        cur = apply_move(cur, record)
        trace.append(record)
    return cur, trace
