"""Multiplicative weight arithmetic and quandle 2-cocycles.

Weights live in the cyclic group generated by a formal variable t: a
weight is t**e for an integer exponent e, multiplied by adding
exponents.  A coefficient group with modulus m > 0 reduces exponents
mod m; m = 0 means the infinite cyclic group.  Everything is exact --
exponents and multiplicities are arbitrary-precision integers.

A 2-cocycle on a quandle G assigns a weight phi(a, b) to every ordered
pair subject to

    1. phi(a, a) = 1
    2. phi(a, b) phi(a*b, c) = phi(a, c) phi(a*c, b*c)

and a 1-cochain psi yields the coboundary phi(x, y) = psi(x) psi(x*y)^-1,
which always satisfies both conditions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import intlin
from .algebra import FiniteQuandle, QuandleMap, is_automorphism, make_dihedral
from .errors import InvalidParameter, MalformedInput


@dataclass(frozen=True)
class CoefficientGroup:
    """Cyclic group <t>; modulus 0 means infinite order, m > 0 means t**m = 1."""

    modulus: int = 0

    def __post_init__(self):
        if self.modulus < 0:
            raise InvalidParameter("modulus must be non-negative")

    def reduce(self, exponent: int) -> int:
        return exponent % self.modulus if self.modulus else exponent


@dataclass(frozen=True)
class Weight:
    """The monomial t**exponent inside a fixed coefficient group."""

    group: CoefficientGroup
    exponent: int

    def __post_init__(self):
        object.__setattr__(self, "exponent", self.group.reduce(self.exponent))

    def __mul__(self, other: "Weight") -> "Weight":
        if self.group != other.group:
            raise InvalidParameter("weights from different coefficient groups")
        return Weight(self.group, self.exponent + other.exponent)

    def inverse(self) -> "Weight":
        return Weight(self.group, -self.exponent)

    def __pow__(self, k: int) -> "Weight":
        return Weight(self.group, k * self.exponent)

    def is_identity(self) -> bool:
        return self.exponent == 0

    def __str__(self) -> str:
        if self.exponent == 0:
            return "1"
        if self.exponent == 1:
            return "t"
        return f"t^{self.exponent}"


def identity_weight(group: CoefficientGroup) -> Weight:
    return Weight(group, 0)


@dataclass(frozen=True)
class WeightPolynomial:
    """Finite multiset of monomials: terms are (exponent, multiplicity) pairs.

    Terms are stored sorted by exponent with positive multiplicities, so
    equal polynomials compare equal structurally.
    """

    terms: tuple[tuple[int, int], ...]

    @staticmethod
    def from_pairs(pairs) -> "WeightPolynomial":
        acc: dict[int, int] = {}
        for exponent, multiplicity in pairs:
            if multiplicity < 0:
                raise InvalidParameter("multiplicities are counts; negative not allowed")
            if multiplicity:
                acc[exponent] = acc.get(exponent, 0) + multiplicity
        return WeightPolynomial(tuple(sorted(acc.items())))

    @staticmethod
    def from_weights(weights) -> "WeightPolynomial":
        return WeightPolynomial.from_pairs((w.exponent, 1) for w in weights)

    @staticmethod
    def zero() -> "WeightPolynomial":
        return WeightPolynomial(())

    def __add__(self, other: "WeightPolynomial") -> "WeightPolynomial":
        return WeightPolynomial.from_pairs(self.terms + other.terms)

    def scale(self, factor: int) -> "WeightPolynomial":
        """Multiply every multiplicity by a positive integer."""
        if factor < 1:
            raise InvalidParameter("scale factor must be a positive integer")
        return WeightPolynomial(tuple((e, m * factor) for e, m in self.terms))

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


@dataclass(frozen=True)
class Cochain1:
    """psi: G -> <t>, stored as the exponent of psi(x) for each element x."""

    group: CoefficientGroup
    exponents: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "exponents", tuple(self.group.reduce(e) for e in self.exponents))

    def weight_at(self, x: int) -> Weight:
        return Weight(self.group, self.exponents[x])


@dataclass(frozen=True)
class Cocycle2:
    """phi: G x G -> <t>, stored as an n x n table of exponents."""

    quandle: FiniteQuandle
    group: CoefficientGroup
    exponents: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = self.quandle.order
        if len(self.exponents) != n or any(len(row) != n for row in self.exponents):
            raise MalformedInput("cocycle table size does not match the quandle order")
        object.__setattr__(
            self,
            "exponents",
            tuple(tuple(self.group.reduce(e) for e in row) for row in self.exponents),
        )

    def entry(self, a: int, b: int) -> int:
        return self.exponents[a][b]

    def weight_at(self, a: int, b: int) -> Weight:
        return Weight(self.group, self.exponents[a][b])


@dataclass(frozen=True)
class CocycleReport:
    ok: bool
    condition: int | None = None
    witness: tuple | None = None

    def __bool__(self) -> bool:
        return self.ok


def trivial_cocycle(q: FiniteQuandle, group: CoefficientGroup = CoefficientGroup(0)) -> Cocycle2:
    n = q.order
    return Cocycle2(q, group, tuple((0,) * n for _ in range(n)))


def validate_cocycle(c: Cocycle2) -> CocycleReport:
    """Exhaustively check both cocycle conditions in exponent form."""
    q = c.quandle
    n = q.order
    e = c.exponents
    red = c.group.reduce
    for a in range(n):
        if red(e[a][a]):
            return CocycleReport(False, condition=1, witness=(a,))
    t = q.table
    for a in range(n):
        for b in range(n):
            ab = t[a][b]
            for cc in range(n):
                lhs = e[a][b] + e[ab][cc]
                rhs = e[a][cc] + e[t[a][cc]][t[b][cc]]
                if red(lhs - rhs):
                    return CocycleReport(False, condition=2, witness=(a, b, cc))
    return CocycleReport(True)


def example_cocycle_r4() -> Cocycle2:
    """The order-4 dihedral quandle with phi(0,1) = phi(0,3) = t, otherwise 1."""
    q = make_dihedral(4)
    table = [[0] * 4 for _ in range(4)]
    table[0][1] = 1
    table[0][3] = 1
    return Cocycle2(q, CoefficientGroup(0), tuple(tuple(row) for row in table))


def coboundary(q: FiniteQuandle, group: CoefficientGroup, psi) -> Cocycle2:
    """The cocycle phi(x, y) = psi(x) psi(x*y)^-1."""
    exps = psi.exponents if isinstance(psi, Cochain1) else tuple(psi)
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


def cocycle_inverse(c: Cocycle2) -> Cocycle2:
    n = c.quandle.order
    table = tuple(tuple(-c.exponents[a][b] for b in range(n)) for a in range(n))
    return Cocycle2(c.quandle, c.group, table)


def is_cohomologous(c1: Cocycle2, c2: Cocycle2) -> Cochain1 | None:
    """A cochain psi with c1 = c2 * coboundary(psi), or None when none exists.

    The defining equations psi(x) - psi(x*y) = delta(x, y) are pure
    difference constraints, so one BFS labelling per connected component
    plus a full consistency check decides solvability exactly, over Z
    (modulus 0) and over Z_m alike.
    """
    _check_same_space(c1, c2)
    q = c1.quandle
    n = q.order
    group = c1.group
    red = group.reduce
    delta = [
        [red(c1.exponents[a][b] - c2.exponents[a][b]) for b in range(n)] for a in range(n)
    ]
    # edges of the difference graph: psi[x] - psi[x*y] = delta[x][y]
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for x in range(n):
        for y in range(n):
            z = q.table[x][y]
            adj[x].append((z, -delta[x][y]))  # psi[z] = psi[x] - delta
            adj[z].append((x, delta[x][y]))
    psi = [None] * n
    for start in range(n):
        if psi[start] is not None:
            continue
        psi[start] = 0
        stack = [start]
        while stack:
            x = stack.pop()
            for z, diff in adj[x]:
                value = red(psi[x] + diff)
                if psi[z] is None:
                    psi[z] = value
                    stack.append(z)
                elif red(psi[z] - value):
                    return None
    for x in range(n):
        for y in range(n):
            if red(psi[x] - psi[q.table[x][y]] - delta[x][y]):
                return None
    return Cochain1(group, tuple(psi))


def preserves(f: QuandleMap, c: Cocycle2) -> bool:
    """True iff phi(a, b) = phi(f(a), f(b)) for all pairs."""
    if not is_automorphism(c.quandle, f):
        raise InvalidParameter("the map is not an automorphism of the cocycle's quandle")
    return preservation_witness(f, c) is None


def preservation_witness(f: QuandleMap, c: Cocycle2) -> tuple[int, int] | None:
    """First pair (a, b) with phi(a, b) != phi(f(a), f(b)), else None."""
    n = c.quandle.order
    red = c.group.reduce
    for a in range(n):
        for b in range(n):
            if red(c.exponents[a][b] - c.exponents[f(a)][f(b)]):
                return (a, b)
    return None


def cocycle_space_basis(q: FiniteQuandle, m: int) -> list[Cocycle2]:
    """Generators of the space of 2-cocycles with exponents mod m (m >= 2).

    Both cocycle conditions are imposed as one homogeneous linear system
    over Z_m in the n^2 table entries; the kernel is computed exactly by
    Smith reduction of the condition matrix.
    """
    if m < 2:
        raise InvalidParameter("cocycle_space_basis needs a modulus m >= 2")
    n = q.order
    t = q.table
    var = lambda a, b: a * n + b
    rows: list[list[int]] = []
    for a in range(n):
        row = [0] * (n * n)
        row[var(a, a)] = 1
        rows.append(row)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                row = [0] * (n * n)
                row[var(a, b)] += 1
                row[var(t[a][b], c)] += 1
                row[var(a, c)] -= 1
                row[var(t[a][c], t[b][c])] -= 1
                if any(row):
                    rows.append(row)
    group = CoefficientGroup(m)
    basis = []
    for vec in intlin.kernel_mod(rows, m):
        table = tuple(tuple(vec[var(a, b)] for b in range(n)) for a in range(n))
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
    """Parse {"group":{"m":0},"entries":[[a,b,exponent],...]}; omitted entries are 0."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"bad cocycle JSON: {exc}") from exc
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
    for item in obj["entries"]:
        if not (isinstance(item, list) and len(item) == 3):
            raise MalformedInput("cocycle entries must be [a, b, exponent] triples")
        if any(type(x) is not int for x in item):
            raise MalformedInput(f"cocycle entry {item!r} must hold integers")
        a, b, e = item
        if not (0 <= a < n and 0 <= b < n):
            raise MalformedInput(f"cocycle entry ({a}, {b}) out of range")
        table[a][b] = e
    return Cocycle2(q, group, tuple(tuple(row) for row in table))
