"""Finite quandles as explicit operation tables.

A quandle of order n lives on the elements 0..n-1 and is given by the
table ``table[a][b] = a * b``.  The three defining axioms are

    1. a * a = a                                  (idempotence)
    2. for every b, the map a -> a * b is a bijection
    3. (a * b) * c = (a * c) * (b * c)            (self-distributivity)

Validation is deliberately separate from construction so that broken
tables can be built and fed to negative tests.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .errors import InvalidParameter, MalformedInput, SearchBoundExceeded

DEFAULT_AUT_SEARCH_BOUND = 8


@dataclass(frozen=True)
class FiniteQuandle:
    """Operation table of a finite quandle candidate (validity not implied)."""

    table: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return len(self.table)

    def op(self, a: int, b: int) -> int:
        """a * b"""
        return self.table[a][b]

    def elements(self) -> range:
        return range(self.order)


@dataclass(frozen=True)
class QuandleMap:
    """A self-map of a quandle's element set, stored as an image list."""

    images: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.images)

    def __call__(self, a: int) -> int:
        return self.images[a]

    @staticmethod
    def identity(n: int) -> "QuandleMap":
        return QuandleMap(tuple(range(n)))

    def is_permutation(self) -> bool:
        return sorted(self.images) == list(range(len(self.images)))

    def compose(self, other: "QuandleMap") -> "QuandleMap":
        """Map applying ``other`` first, then ``self``."""
        if self.order != other.order:
            raise InvalidParameter("cannot compose maps of different orders")
        return QuandleMap(tuple(self.images[other.images[a]] for a in range(self.order)))

    def inverse(self) -> "QuandleMap":
        if not self.is_permutation():
            raise InvalidParameter("only permutations can be inverted")
        inv = [0] * self.order
        for a, b in enumerate(self.images):
            inv[b] = a
        return QuandleMap(tuple(inv))


@dataclass(frozen=True)
class QuandleReport:
    """Outcome of a quandle validation: pass/fail plus the first witness."""

    ok: bool
    axiom: int | None = None
    witness: tuple | None = None

    def __bool__(self) -> bool:
        return self.ok


def make_from_table(table) -> FiniteQuandle:
    """Build a quandle value from a square table without validating the axioms."""
    if not isinstance(table, (list, tuple)) or not all(isinstance(row, (list, tuple)) for row in table):
        raise MalformedInput("operation table must be a list of rows")
    rows = [tuple(row) for row in table]
    n = len(rows)
    if n == 0:
        raise MalformedInput("empty operation table")
    for row in rows:
        if len(row) != n:
            raise MalformedInput("operation table is not square")
        for entry in row:
            # type() rather than isinstance(): bool is a subclass of int
            if type(entry) is not int or not 0 <= entry < n:
                raise MalformedInput(f"table entry {entry!r} is not an integer in 0..{n - 1}")
    return FiniteQuandle(tuple(rows))


def make_dihedral(n: int) -> FiniteQuandle:
    """Dihedral quandle on 0..n-1 with i * j = 2j - i (mod n)."""
    if type(n) is not int or n < 1:
        raise InvalidParameter(f"dihedral order must be a positive integer, got {n!r}")
    return FiniteQuandle(tuple(tuple((2 * j - i) % n for j in range(n)) for i in range(n)))


def validate_quandle(q: FiniteQuandle) -> QuandleReport:
    """Check the three quandle axioms exhaustively, reporting the first failure."""
    n = q.order
    t = q.table
    for a in range(n):
        if t[a][a] != a:
            return QuandleReport(False, axiom=1, witness=(a,))
    for b in range(n):
        seen = [False] * n
        for a in range(n):
            v = t[a][b]
            if seen[v]:
                return QuandleReport(False, axiom=2, witness=(b,))
            seen[v] = True
    for a in range(n):
        for b in range(n):
            ab = t[a][b]
            for c in range(n):
                if t[ab][c] != t[t[a][c]][t[b][c]]:
                    return QuandleReport(False, axiom=3, witness=(a, b, c))
    return QuandleReport(True)


@lru_cache(maxsize=None)
def _division_table(q: FiniteQuandle) -> tuple[tuple[int, ...], ...]:
    # div[b][a] = the unique x with x * a = b (axiom 2)
    n = q.order
    div = [[0] * n for _ in range(n)]
    for a in range(n):
        for x in range(n):
            div[q.table[x][a]][a] = x
    return tuple(tuple(row) for row in div)


def left_divide(q: FiniteQuandle, b: int, a: int) -> int:
    """The unique x with x * a = b."""
    return _division_table(q)[b][a]


def is_automorphism(q: FiniteQuandle, m: QuandleMap) -> bool:
    """True iff m is a permutation with m(a * b) = m(a) * m(b) for all a, b."""
    if m.order != q.order:
        raise InvalidParameter("map length does not match quandle order")
    if not m.is_permutation():
        return False
    t = q.table
    im = m.images
    return all(im[t[a][b]] == t[im[a]][im[b]] for a in range(q.order) for b in range(q.order))


def inner_automorphism(q: FiniteQuandle, a: int) -> QuandleMap:
    """The map x -> x * a (an automorphism of every valid quandle)."""
    if not 0 <= a < q.order:
        raise InvalidParameter(f"element {a!r} out of range 0..{q.order - 1}")
    return QuandleMap(tuple(q.table[x][a] for x in range(q.order)))


def automorphisms(q: FiniteQuandle, bound: int = DEFAULT_AUT_SEARCH_BOUND) -> list[QuandleMap]:
    """All automorphisms, by exhaustive permutation search with early pruning.

    Results are sorted lexicographically by image list.  Orders above
    ``bound`` are refused since the search is factorial.
    """
    n = q.order
    if n > bound:
        raise SearchBoundExceeded(f"order {n} exceeds automorphism search bound {bound}")
    t = q.table
    found = []

    def consistent(images, assigned):
        # check every product whose three participants are all assigned
        for a in assigned:
            for b in assigned:
                ab = t[a][b]
                if images[ab] is not None and images[t[a][b]] != t[images[a]][images[b]]:
                    return False
        return True

    def extend(images, used, assigned):
        if len(assigned) == n:
            found.append(QuandleMap(tuple(images)))
            return
        a = len(assigned)
        for v in range(n):
            if used[v]:
                continue
            images[a] = v
            used[v] = True
            assigned.append(a)
            if consistent(images, assigned):
                extend(images, used, assigned)
            assigned.pop()
            used[v] = False
            images[a] = None

    extend([None] * n, [False] * n, [])
    found.sort(key=lambda m: m.images)
    return found


def map_order(m: QuandleMap) -> int:
    """Minimal k >= 1 with the k-fold composite of m equal to the identity."""
    if not m.is_permutation():
        raise InvalidParameter("map_order is defined for permutations only")
    remaining = set(range(m.order))
    k = 1
    while remaining:
        start = min(remaining)
        length = 0
        x = start
        while True:
            remaining.discard(x)
            length += 1
            x = m.images[x]
            if x == start:
                break
        k = k * length // gcd(k, length)
    return k


def map_power(m: QuandleMap, k: int) -> QuandleMap:
    """k-fold composite of a permutation; negative k uses the inverse."""
    if k < 0:
        return map_power(m.inverse(), -k)
    result = QuandleMap.identity(m.order)
    for _ in range(k):
        result = m.compose(result)
    return result


def quandle_to_json(q: FiniteQuandle) -> str:
    return json.dumps({"kind": "table", "table": [list(row) for row in q.table]}, separators=(",", ":"))


def quandle_from_json(text: str) -> FiniteQuandle:
    """Parse {"kind":"dihedral","n":4} or {"kind":"table","table":[[...],...]}."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"bad quandle JSON: {exc}") from exc
    if not isinstance(obj, dict) or "kind" not in obj:
        raise MalformedInput("quandle JSON must be an object with a 'kind' field")
    if obj["kind"] == "dihedral":
        if set(obj) != {"kind", "n"}:
            raise MalformedInput("dihedral quandle JSON takes exactly the fields kind, n")
        if type(obj["n"]) is not int:
            raise MalformedInput(f"dihedral order must be an integer, got {obj['n']!r}")
        return make_dihedral(obj["n"])
    if obj["kind"] == "table":
        if set(obj) != {"kind", "table"}:
            raise MalformedInput("table quandle JSON takes exactly the fields kind, table")
        return make_from_table(obj["table"])
    raise MalformedInput(f"unknown quandle kind {obj['kind']!r}")
