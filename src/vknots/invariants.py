"""State-sum and state-weight invariants built from colorings and cocycle weights.

Four quantities are computed from a diagram D, a quandle G, a 2-cocycle
phi and (except for Z) an automorphism f used at virtual crossings:

  Z   sum over colorings of the product of crossing weights
      (classical diagrams only)
  Z1  product over ALL colorings of the crossing-weight product
      (a single monomial; invariant for every automorphism f)
  Z2  sum over colorings of the crossing-weight product
      (requires phi(a,b) = phi(f a, f b); enforced, not assumed)
  Z3  sum of the Z1 monomials over every automorphism of G
      (one enumeration per automorphism, f's among them)

Per-crossing weights follow a fixed argument convention: a positive
crossing contributes phi(color(under_in), color(over)), a negative one
phi(color(under_out), color(over))^-1, and virtual crossings contribute
the identity.  This is the unique convention under which the two
crossings created by a strand poke cancel exactly and a kink weighs
phi(a, a) = 1.

Every invariant is read off one polynomial per twist map f, its state
sum: t**weight once per coloring under f.  Z and Z2 are the state sum
(under the identity for Z), the coloring count is its value at t = 1, Z1
is t raised to the sum of exponent times multiplicity, and Z3 adds up the
Z1 monomials over Aut(G).  Every free loop multiplies the coloring count
by |G|, so the state sum's multiplicities carry the factor
|G|**free_loops, and through them so do the count and the Z1 exponent.

Every entry point refuses, with ``PreconditionFailed`` naming the failing
axiom or condition and its witness, a table that is no quandle
(``algebra.check_quandle``) and, but for ``coloring_weight``, a cocycle
that fails a cocycle condition (``weights.check_cocycle``), before any
enumeration.  ``compute_invariant`` and ``invariant_bundle`` share one
gate, ``_check_inputs``: a cocycle from another quandle is an
``InvalidParameter``, then ``kernel.check_twist`` refuses the table and
a twist map that is no automorphism, then the cocycle is checked.  Z
takes the identity as its twist map before the gate, and the identity
needs no automorphism test.  ``_state_sum`` checks nothing.
"""

from __future__ import annotations

import json

from .algebra import FiniteQuandle, QuandleMap, automorphisms, check_quandle
from .diagram import VirtualDiagram
from .errors import InvalidParameter, PreconditionFailed, WrongKind
from .kernel import check_coloring, check_twist, compile_problem, satisfying
from .solver import _search
from .value import Value, set_field
from .weights import Cocycle2, Weight, WeightPolynomial, check_cocycle, preservation_witness


class InvariantResult(Value):
    """A computed invariant with the bookkeeping the JSON form exposes."""

    __slots__ = FIELDS = ("kind", "value", "colorings", "preserving")

    def __init__(
        self, kind: str, value: Weight | WeightPolynomial, colorings: int, preserving: bool | None = None
    ):
        set_field(self, "kind", kind)
        set_field(self, "value", value)
        set_field(self, "colorings", colorings)
        set_field(self, "preserving", preserving)

    def to_json(self) -> str:
        obj: dict = {"kind": self.kind}
        if isinstance(self.value, Weight):
            obj["exponent"] = self.value.exponent
        else:
            obj["polynomial"] = self.value.to_json_obj()
        obj["colorings"] = self.colorings
        if self.preserving is not None:
            obj["preserving"] = self.preserving
        return json.dumps(obj, separators=(",", ":"))

    def __str__(self) -> str:
        return str(self.value)


def _weight_slots(d: VirtualDiagram) -> list[tuple[int, int, int]]:
    """One slot (sign, edge, by) per classical crossing, in crossing order: a
    coloring weighs the product of phi(color(edge), color(by))**sign."""
    return [(s, w if s > 0 else x, y) for tag, s, w, x, y, _ in d.crossings if not tag]


def _exponent(c: Cocycle2, slots, coloring) -> int:
    e = c.exponents
    return sum(sign * e[coloring[x]][coloring[y]] for sign, x, y in slots)


def _state_sum(d: VirtualDiagram, q: FiniteQuandle, c: Cocycle2, f: QuandleMap) -> WeightPolynomial:
    """f's state sum: t**weight for every coloring under the twist map f, each
    multiplicity times the free-loop factor |G|**free_loops.  The colorings are
    the edge color tuples of one unchecked ``solver._search``, in search order,
    which the sum does not see.  The caller has checked that f is an
    automorphism."""
    slots = _weight_slots(d)
    loops = q.order**d.free_loops
    return WeightPolynomial.from_pairs((c.group.reduce(_exponent(c, slots, a)), loops) for a in _search(d, q, f, True))


def _z1(c: Cocycle2, s: WeightPolynomial) -> Weight:
    """Z1 off a state sum: the product of all coloring weights."""
    return Weight(c.group, sum(e * m for e, m in s.terms))


def _z3(d, q, c, f) -> tuple[WeightPolynomial, WeightPolynomial]:
    """Z3 and f's state sum, enumerating the colorings under each twist map once;
    f must be a checked automorphism, and so are the maps ``automorphisms`` returns."""
    sums = {g: _state_sum(d, q, c, g) for g in automorphisms(q)}
    z3 = WeightPolynomial.from_pairs((_z1(c, s).exponent, 1) for s in sums.values())
    return z3, sums[f]


def _check_preserving(f: QuandleMap, c: Cocycle2) -> None:
    witness = preservation_witness(f, c)
    if witness is not None:
        a, b = witness
        raise PreconditionFailed(
            f"the twist map does not preserve the cocycle: phi({a},{b}) != phi(f({a}),f({b}))",
            witness=witness,
        )


def _check_inputs(q: FiniteQuandle, c: Cocycle2, f: QuandleMap) -> None:
    """The invariant layer's gate, in this order: the cocycle lives on q; q is a
    quandle and f an automorphism of it (``check_twist``); the cocycle passes
    its conditions."""
    if c.quandle != q:
        raise InvalidParameter("the cocycle is defined on a different quandle")
    check_twist(q, f)  # before any enumeration and before Z2 reads f's images
    check_cocycle(c)


def coloring_weight(d: VirtualDiagram, c: Cocycle2, coloring) -> Weight:
    """Product over classical crossings of phi(x, y)^sign for one coloring.

    The classical crossing rules are re-checked (the virtual rules depend
    on the twist map and are the solver's business).  A cocycle table
    that is no quandle is refused first.
    """
    q = c.quandle
    check_quandle(q)  # the identity twist needs no automorphism test
    rules = compile_problem(d, q, QuandleMap.identity(q.order))
    check_coloring(d, q, coloring)
    classical = rules[: 2 * len(d.classical())]
    if not satisfying(classical, [coloring]):
        raise InvalidParameter("coloring violates a classical crossing rule")
    return Weight(c.group, _exponent(c, _weight_slots(d), coloring))


def state_sum_classical(d: VirtualDiagram, q: FiniteQuandle, c: Cocycle2) -> WeightPolynomial:
    """Z: the weight sum over all colorings of a classical diagram."""
    return compute_invariant("z", d, q, c).value


def state_weight_z1(d: VirtualDiagram, q: FiniteQuandle, c: Cocycle2, f: QuandleMap) -> Weight:
    """Z1: the product of all coloring weights, a single monomial."""
    return compute_invariant("z1", d, q, c, f).value


def state_sum_z2(d: VirtualDiagram, q: FiniteQuandle, c: Cocycle2, f: QuandleMap) -> WeightPolynomial:
    """Z2: the weight sum over colorings; requires the twist map to preserve phi."""
    return compute_invariant("z2", d, q, c, f).value


def aut_sum_z3(d: VirtualDiagram, q: FiniteQuandle, c: Cocycle2) -> WeightPolynomial:
    """Z3: the sum of the Z1 monomials over all automorphisms of the quandle."""
    return compute_invariant("z3", d, q, c, QuandleMap.identity(q.order)).value


def invariant_bundle(d: VirtualDiagram, q: FiniteQuandle, c: Cocycle2, f: QuandleMap) -> dict:
    """The quantities a move sequence must preserve, as JSON values.

    The coloring count, Z1, Z3 and, when f preserves phi, Z2, built from
    one enumeration per automorphism (f's state sum serves all but Z3).
    """
    _check_inputs(q, c, f)
    z3, own = _z3(d, q, c, f)
    bundle = {"colorings": own.evaluate_at_one(), "z1": _z1(c, own).exponent, "z3": z3.to_json_obj()}
    if preservation_witness(f, c) is None:
        bundle["z2"] = own.to_json_obj()
    return bundle


def compute_invariant(
    kind: str,
    d: VirtualDiagram,
    q: FiniteQuandle,
    c: Cocycle2,
    f: QuandleMap | None = None,
) -> InvariantResult:
    """Z, Z1, Z2 or Z3 (``kind`` "z", "z1", "z2", "z3") with its coloring count.

    The one implementation of the four invariants, whose public functions
    return its ``value``; one enumeration per twist map (Z ignores f and
    uses the identity, Z3 enumerates under every automorphism).
    """
    if kind not in ("z", "z1", "z2", "z3"):
        raise InvalidParameter(f"unknown invariant kind {kind!r}")
    if kind == "z":
        f = QuandleMap.identity(q.order)
    elif f is None:
        raise InvalidParameter(f"invariant {kind!r} needs an automorphism")
    _check_inputs(q, c, f)
    if kind == "z" and d.virtual():
        raise WrongKind("the classical state sum is undefined on virtual diagrams; use Z2")
    if kind == "z3":
        z3, own = _z3(d, q, c, f)
        return InvariantResult("Z3", z3, own.evaluate_at_one())
    if kind == "z2":
        _check_preserving(f, c)
    own = _state_sum(d, q, c, f)
    if kind == "z1":
        return InvariantResult("Z1", _z1(c, own), own.evaluate_at_one())
    preserving = True if kind == "z2" else None
    return InvariantResult(kind.upper(), own, own.evaluate_at_one(), preserving)
