"""Multiplicative weight arithmetic and quandle 2-cocycles.

Weights live in the cyclic group generated by a formal variable t: a
weight is t**e for an integer exponent e, multiplied by adding
exponents.  A coefficient group with modulus m > 0 reduces exponents
mod m; m = 0 means the infinite cyclic group.  Everything is exact --
exponents and multiplicities are arbitrary-precision integers.

Each constructor checks its fields once, where the value is made: a
modulus that is no non-negative int and a coefficient group that is no
``CoefficientGroup`` (one test, in ``_reduced``, for ``Weight``,
``Cochain1`` and ``Cocycle2``) are an ``InvalidParameter``, as is a
cocycle's quandle that is no ``FiniteQuandle``; exponents that are no
list or tuple of ints, a cocycle table of the wrong size and polynomial
terms that are no int pairs are a ``MalformedInput``.  The functions
below trust those shapes and check only how their arguments relate.

A 2-cocycle on a quandle G assigns a weight phi(a, b) to every ordered
pair subject to

    1. phi(a, a) = 1
    2. phi(a, b) phi(a*b, c) = phi(a, c) phi(a*c, b*c)

and a 1-cochain psi yields the coboundary phi(x, y) = psi(x) psi(x*y)^-1,
which always satisfies both conditions.  The conditions are written once,
in the generator ``_conditions``, as signed sums of table entries;
condition 2 at (a, b, c) is the quandle boundary of (a, b, c).
``validate_cocycle`` scans them for the first that fails, and the rows
that ``cocycle_space_basis`` solves are those boundaries, with phi(a, a)
= 1 for each a.

A cocycle carries its ``validate_cocycle`` ``report``, run on first use:
``trivial_cocycle`` and ``example_cocycle_r4`` store a passing one, valid
by construction; any other, one read from JSON included, is checked.
``check_cocycle`` is the one gate of a cocycle, as ``check_quandle`` is of
a table: it refuses a failing report with ``PreconditionFailed``, naming
the condition and its witness.  The cohomology functions here answer
exactly on any table, quandle or not, as ``validate_cocycle`` does.
"""

from __future__ import annotations

import json
from functools import cached_property

from .algebra import MAX_COCYCLE_BASIS_ORDER, FiniteQuandle, QuandleMap, _check_length, _require
from .algebra import is_automorphism, make_dihedral
from .errors import InvalidParameter, MalformedInput, SearchBoundExceeded, _check_type, load_json
from .value import Value, set_field


class CoefficientGroup(Value):
    """Cyclic group <t>; modulus 0 means infinite order, m > 0 means t**m = 1."""

    __slots__ = FIELDS = ("modulus",)

    def __init__(self, modulus: int = 0):
        _check_type(modulus, int, "the modulus")
        if modulus < 0:
            raise InvalidParameter("modulus must be non-negative")
        set_field(self, "modulus", modulus)

    def reduce(self, exponent: int) -> int:
        _check_type(exponent, int, "an exponent")
        return exponent % self.modulus if self.modulus else exponent


def _reduced(group: CoefficientGroup, exponents, what: str) -> tuple[int, ...]:
    """The exponents, read once, reduced in ``group``; a group that is no
    ``CoefficientGroup``, exponents that are no list or tuple and an entry
    that is not an int are refused."""
    if not isinstance(group, CoefficientGroup) or not isinstance(exponents, (list, tuple)):
        raise InvalidParameter(f"{what} needs a CoefficientGroup and a list or tuple, got {group!r}, {exponents!r}")
    reduced = []
    for e in exponents:
        if type(e) is not int:  # type(), not isinstance(): bool is an int
            raise MalformedInput(f"{what} exponent {e!r} is not an integer")
        reduced.append(e % group.modulus if group.modulus else e)  # group.reduce, whose type check e just passed
    return tuple(reduced)


class Weight(Value):
    """The monomial t**exponent inside a fixed coefficient group."""

    __slots__ = FIELDS = ("group", "exponent")

    def __init__(self, group: CoefficientGroup, exponent: int):
        set_field(self, "group", group)
        set_field(self, "exponent", _reduced(group, (exponent,), "weight")[0])

    def __str__(self) -> str:
        if self.exponent == 0:
            return "1"
        if self.exponent == 1:
            return "t"
        return f"t^{self.exponent}"


class WeightPolynomial(Value):
    """Finite multiset of monomials: terms are (exponent, multiplicity) pairs.

    Terms are stored sorted by exponent with positive multiplicities, so
    equal polynomials compare equal structurally; terms that are not int
    pairs in strictly increasing exponent order with positive multiplicities
    are refused.
    """

    __slots__ = FIELDS = ("terms",)

    def __init__(self, terms: tuple[tuple[int, int], ...]):
        if not isinstance(terms, (list, tuple)) or not all(isinstance(t, (list, tuple)) and len(t) == 2 for t in terms):
            raise MalformedInput(f"polynomial terms must be (exponent, multiplicity) int pairs, got {terms!r}")
        checked: list[tuple[int, int]] = []
        for e, m in terms:
            if type(e) is not int or type(m) is not int:  # type(), not isinstance(): bool is an int
                raise MalformedInput(f"polynomial term {(e, m)!r} does not hold integers")
            if m < 1:
                raise InvalidParameter(f"polynomial multiplicity {m} is not positive")
            if checked and e <= checked[-1][0]:
                raise InvalidParameter(f"polynomial exponent {e} does not follow {checked[-1][0]}")
            checked.append((e, m))
        set_field(self, "terms", tuple(checked))

    @staticmethod
    def from_pairs(pairs) -> "WeightPolynomial":
        """Sum the multiplicities of each exponent; every sum must be positive."""
        acc: dict[int, int] = {}
        try:
            for exponent, multiplicity in pairs:
                if type(exponent) is not int or type(multiplicity) is not int:  # type(): bool is an int
                    raise TypeError(f"polynomial term {(exponent, multiplicity)!r} does not hold integers")
                acc[exponent] = acc.get(exponent, 0) + multiplicity
        except (TypeError, ValueError) as exc:  # no pair, or no pair of ints
            raise MalformedInput(f"polynomial terms must be (exponent, multiplicity) int pairs: {exc}") from exc
        return WeightPolynomial(tuple(sorted(acc.items())))

    def evaluate_at_one(self) -> int:
        """Value at t = 1, i.e. the total multiplicity."""
        return sum(m for _, m in self.terms)

    def to_json_obj(self) -> list[list[int]]:
        return [[e, m] for e, m in self.terms]

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, m in self.terms:
            if e == 0:
                parts.append(str(m))
            elif e == 1:
                parts.append("t" if m == 1 else f"{m}*t")
            else:
                parts.append(f"t^{e}" if m == 1 else f"{m}*t^{e}")
        return " + ".join(parts)


class Cochain1(Value):
    """psi: G -> <t>, stored as the exponent of psi(x) for each element x."""

    __slots__ = FIELDS = ("group", "exponents")

    def __init__(self, group: CoefficientGroup, exponents: tuple[int, ...]):
        set_field(self, "group", group)
        set_field(self, "exponents", _reduced(group, exponents, "cochain"))


class Cocycle2(Value):
    """phi: G x G -> <t>, stored as an n x n table of exponents."""

    FIELDS = ("quandle", "group", "exponents")
    __slots__ = FIELDS + ("__dict__",)  # the __dict__ holds the cached report

    def __init__(self, quandle: FiniteQuandle, group: CoefficientGroup, exponents: tuple[tuple[int, ...], ...]):
        if not isinstance(quandle, FiniteQuandle):
            raise InvalidParameter(f"a cocycle's quandle must be a FiniteQuandle, got {quandle!r}")
        n = quandle.order
        if not isinstance(exponents, (list, tuple)) or not all(isinstance(row, (list, tuple)) for row in exponents):
            raise MalformedInput("cocycle table must be a list of rows")
        if len(exponents) != n or any(len(row) != n for row in exponents):
            raise MalformedInput("cocycle table size does not match the quandle order")
        set_field(self, "quandle", quandle)
        set_field(self, "group", group)
        set_field(self, "exponents", tuple(_reduced(group, row, "cocycle") for row in exponents))

    @cached_property
    def report(self) -> "CocycleReport":
        """``validate_cocycle(self)``, run on first use unless the constructor stored it."""
        return validate_cocycle(self)


class CocycleReport(Value):
    __slots__ = FIELDS = ("ok", "condition", "witness")

    def __init__(self, ok: bool, condition: int | None = None, witness: tuple | None = None):
        set_field(self, "ok", ok)
        set_field(self, "condition", condition)
        set_field(self, "witness", witness)

    def __bool__(self) -> bool:
        return self.ok


def trivial_cocycle(q: FiniteQuandle, group: CoefficientGroup = CoefficientGroup(0)) -> Cocycle2:
    """phi = 1 everywhere: a cocycle on any table, quandle or not, over ``group``."""
    n = q.order
    c = Cocycle2(q, group, tuple((0,) * n for _ in range(n)))
    c.__dict__["report"] = CocycleReport(True)  # valid by construction; the test suite checks it
    return c


def check_cocycle(c: Cocycle2) -> None:
    """Refuse a cocycle whose ``report`` fails, naming the condition and its witness."""
    _require(c.report, "cocycle", "condition")


def _conditions(q: FiniteQuandle):
    """Every 2-cocycle condition on ``q`` once, in checking order, as
    ``(condition, witness, terms)``: the condition holds when the signed
    exponents ``s * phi(x, y)`` over its terms ``(x, y, s)`` sum to 0.

    Condition 1 is phi(a, a) = 1 for each a; then condition 2 for each
    (a, b, c) is (a, b) + (a*b, c) - (a, c) - (a*c, b*c), the quandle
    boundary of (a, b, c) up to sign.  Both checks read the quandle table
    only through here.
    """
    n = q.order
    for a in range(n):
        yield 1, (a,), ((a, a, 1),)
    t = q.table
    for a, ta in enumerate(t):
        for b, tb in enumerate(t):
            for c in range(n):
                yield 2, (a, b, c), ((a, b, 1), (ta[b], c, 1), (a, c, -1), (ta[c], tb[c], -1))


def validate_cocycle(c: Cocycle2) -> CocycleReport:
    """Exhaustively check both cocycle conditions in exponent form: the
    first of ``_conditions`` whose signed exponent sum is not 0 in the
    coefficient group fails, with its condition number and witness."""
    e = c.exponents
    red = c.group.reduce
    for condition, witness, terms in _conditions(c.quandle):
        if red(sum([s * e[x][y] for x, y, s in terms])):
            return CocycleReport(False, condition, witness)
    return CocycleReport(True)


def example_cocycle_r4() -> Cocycle2:
    """The order-4 dihedral quandle with phi(0,1) = phi(0,3) = t, otherwise 1."""
    q = make_dihedral(4)
    table = [[0] * 4 for _ in range(4)]
    table[0][1] = 1
    table[0][3] = 1
    c = Cocycle2(q, CoefficientGroup(0), tuple(tuple(row) for row in table))
    c.__dict__["report"] = CocycleReport(True)  # valid by construction; the test suite checks it
    return c


def coboundary(q: FiniteQuandle, group: CoefficientGroup, psi: Cochain1) -> Cocycle2:
    """The cocycle phi(x, y) = psi(x) psi(x*y)^-1, for a cochain psi over ``group``."""
    if not isinstance(psi, Cochain1) or psi.group != group:
        raise InvalidParameter("the cochain is not a Cochain1 over the coefficient group")
    exps = psi.exponents
    if len(exps) != q.order:
        raise InvalidParameter("cochain length does not match quandle order")
    n = q.order
    table = tuple(
        tuple(exps[x] - exps[q.table[x][y]] for y in range(n)) for x in range(n)
    )
    return Cocycle2(q, group, table)


def _check_same_space(c1: Cocycle2, c2: Cocycle2) -> None:
    if c1.quandle != c2.quandle or c1.group != c2.group:
        raise InvalidParameter("cocycles live on different quandles or coefficient groups")


def cocycle_product(c1: Cocycle2, c2: Cocycle2) -> Cocycle2:
    _check_same_space(c1, c2)
    n = c1.quandle.order
    table = tuple(
        tuple(c1.exponents[a][b] + c2.exponents[a][b] for b in range(n)) for a in range(n)
    )
    return Cocycle2(c1.quandle, c1.group, table)


def is_cohomologous(c1: Cocycle2, c2: Cocycle2) -> Cochain1 | None:
    """A cochain psi with c1 = c2 * coboundary(psi), or None when none exists.

    The defining equations psi(x) - psi(x*y) = delta(x, y) are pure
    difference constraints, so one BFS labelling per connected component
    plus a check with ``coboundary`` decides solvability exactly, over Z
    (modulus 0) and over Z_m alike.
    """
    _check_same_space(c1, c2)
    q = c1.quandle
    n = q.order
    group = c1.group
    # edges of the difference graph: psi[x] - psi[x*y] = delta(x, y); the
    # cochain and the check reduce mod m, so the labels need not
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for x in range(n):
        for y in range(n):
            z, delta = q.table[x][y], c1.exponents[x][y] - c2.exponents[x][y]
            adj[x].append((z, -delta))  # psi[z] = psi[x] - delta
            adj[z].append((x, delta))
    psi = [None] * n
    for start in range(n):
        if psi[start] is not None:
            continue
        psi[start] = 0
        stack = [start]
        while stack:
            x = stack.pop()
            for z, diff in adj[x]:
                if psi[z] is None:
                    psi[z] = psi[x] + diff
                    stack.append(z)
    cochain = Cochain1(group, tuple(psi))
    return cochain if cocycle_product(c2, coboundary(q, group, cochain)) == c1 else None


def preserves(f: QuandleMap, c: Cocycle2) -> bool:
    """True iff phi(a, b) = phi(f(a), f(b)) for all pairs."""
    if not is_automorphism(c.quandle, f):
        raise InvalidParameter("the map is not an automorphism of the cocycle's quandle")
    return preservation_witness(f, c) is None


def preservation_witness(f: QuandleMap, c: Cocycle2) -> tuple[int, int] | None:
    """First pair (a, b) with phi(a, b) != phi(f(a), f(b)), else None; a map
    whose length is not the quandle's order is refused."""
    _check_length(c.quandle, f.images)
    n = c.quandle.order
    red = c.group.reduce
    images = f.images
    for a in range(n):
        for b in range(n):
            if red(c.exponents[a][b] - c.exponents[images[a]][images[b]]):
                return (a, b)
    return None


def cocycle_space_basis(q: FiniteQuandle, m: int) -> list[Cocycle2]:
    """Generators of the space of 2-cocycles with exponents mod m (m >= 2).

    Both cocycle conditions are imposed as one homogeneous linear system
    over Z_m in the n^2 table entries, one row per condition of
    ``_conditions`` that is not 0 = 0; the kernel is computed exactly by
    Smith reduction of the condition matrix.  Orders above
    ``MAX_COCYCLE_BASIS_ORDER`` are refused before any row is built.
    """
    group = CoefficientGroup(m)  # refuses an m that is no int
    if m < 2:
        raise InvalidParameter(f"cocycle_space_basis needs an integer modulus m >= 2, got {m!r}")
    n = q.order
    if n > MAX_COCYCLE_BASIS_ORDER:
        raise SearchBoundExceeded(f"order {n} exceeds the cocycle basis bound {MAX_COCYCLE_BASIS_ORDER}")
    rows: list[list[int]] = []
    for _, _, terms in _conditions(q):
        row = [0] * (n * n)
        for x, y, s in terms:
            row[x * n + y] += s
        if any(row):
            rows.append(row)
    from . import intlin  # only this function solves a linear system

    basis = []
    for vec in intlin.kernel_mod(rows, m):
        table = tuple(tuple(vec[a * n + b] for b in range(n)) for a in range(n))
        basis.append(Cocycle2(q, group, table))
    return basis


def cocycle_to_json(c: Cocycle2) -> str:
    entries = [
        [a, b, c.exponents[a][b]]
        for a in range(c.quandle.order)
        for b in range(c.quandle.order)
        if c.exponents[a][b]
    ]
    return json.dumps({"group": {"m": c.group.modulus}, "entries": entries}, separators=(",", ":"))


def cocycle_from_json(text: str, q: FiniteQuandle) -> Cocycle2:
    """Parse {"group":{"m":0},"entries":[[a,b,exponent],...]}; omitted entries
    are 0, and a pair (a, b) given twice is refused."""
    obj = load_json(text, "cocycle JSON")
    if not isinstance(obj, dict) or set(obj) != {"group", "entries"}:
        raise MalformedInput("cocycle JSON takes exactly the fields group, entries")
    if not isinstance(obj["group"], dict) or set(obj["group"]) != {"m"}:
        raise MalformedInput("cocycle group JSON takes exactly the field m")
    # type() rather than isinstance(): bool is a subclass of int
    if type(obj["group"]["m"]) is not int:
        raise MalformedInput(f"cocycle modulus m must be an integer, got {obj['group']['m']!r}")
    group = CoefficientGroup(obj["group"]["m"])
    if not isinstance(obj["entries"], list):
        raise MalformedInput("cocycle entries must be a list of [a, b, exponent] triples")
    n = q.order
    table = [[0] * n for _ in range(n)]
    seen = set()
    for item in obj["entries"]:
        if not (isinstance(item, list) and len(item) == 3):
            raise MalformedInput("cocycle entries must be [a, b, exponent] triples")
        if any(type(x) is not int for x in item):
            raise MalformedInput(f"cocycle entry {item!r} must hold integers")
        a, b, e = item
        if not (0 <= a < n and 0 <= b < n):
            raise MalformedInput(f"cocycle entry ({a}, {b}) out of range")
        if (a, b) in seen:
            raise MalformedInput(f"cocycle entry ({a}, {b}) is given twice")
        seen.add((a, b))
        table[a][b] = e
    return Cocycle2(q, group, tuple(tuple(row) for row in table))
