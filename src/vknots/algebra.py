"""Finite quandles as explicit operation tables.

A quandle of order n lives on the elements 0..n-1 and is given by the
table ``table[a][b] = a * b``.  The three defining axioms are

    1. a * a = a                                  (idempotence)
    2. for every b, the map a -> a * b is a bijection
    3. (a * b) * c = (a * c) * (b * c)            (self-distributivity)

The constructor checks the table's shape: a non-empty square table of
ints in 0..n-1, else ``MalformedInput``.  The axioms are not checked
there, so a table that fails one is a value, and the algebra of this
module and of ``weights`` answers exactly on it; only the coloring and
invariant entry points need a quandle, and refuse any other table.

A quandle carries its derived tables, built on first use and freed with
it: the right translations ``columns``, their inverses ``division``,
``preserves_products``, the greedy generating set ``generation``, the
image lists ``automorphism_images`` (the one search for Aut(q), which
``automorphisms`` bounds and maps), and the axiom ``report``:
``make_dihedral`` stores a passing one, so every dihedral spelling is
valid by construction, and a table is always checked.  That one test,
m(a * b) = m(a) * m(b) compared column by column, checks axiom 3,
``is_automorphism`` and each candidate of ``automorphism_images``.

``check_quandle`` is the one gate of a table: it reads the cached
``report`` and refuses a failing one with ``PreconditionFailed``, naming
the axiom and its witness.  Every coloring and invariant entry point
calls it (through ``kernel.check_twist`` when it takes a twist map)
before it reads the table, and so do the CLI's ``quandle auts`` and
``cocycle`` commands, so the search and the invariants serve quandles
only.
"""

from __future__ import annotations

import json
from functools import cached_property
from itertools import permutations
from math import lcm
from operator import itemgetter

from .errors import InvalidParameter, MalformedInput, PreconditionFailed, SearchBoundExceeded, _check_type, load_json
from .value import Value, set_field

DEFAULT_AUT_SEARCH_BOUND = 8

# The table of a dihedral quandle holds n^2 entries (about 40 bytes each as
# Python ints in tuples), and checking its axioms takes n^3 steps: order
# 1024 is about 40 MB and over a minute of checking, order 20000 would ask
# for about 15 GB.
MAX_DIHEDRAL_ORDER = 1024

# weights.cocycle_space_basis solves n^3 conditions in n^2 unknowns, about
# n^7 steps: 0.23 s at order 12 and 0.35 s at order 13 on a 2-core x86-64
# host, and it refuses larger orders.
MAX_COCYCLE_BASIS_ORDER = 12


class FiniteQuandle(Value):
    """Operation table of a finite quandle candidate: a non-empty square table
    of ints in 0..n-1, checked here; the axioms are not implied."""

    FIELDS = ("table",)
    __slots__ = FIELDS + ("__dict__",)  # the __dict__ holds the derived tables

    def __init__(self, table: tuple[tuple[int, ...], ...]):
        if not isinstance(table, (list, tuple)) or not all(isinstance(row, (list, tuple)) for row in table):
            raise MalformedInput("operation table must be a list of rows")
        n = len(table)
        if n == 0:
            raise MalformedInput("empty operation table")
        for row in table:
            if len(row) != n:
                raise MalformedInput("operation table is not square")
            for entry in row:
                # type() rather than isinstance(): bool is a subclass of int
                if type(entry) is not int or not 0 <= entry < n:
                    raise MalformedInput(f"table entry {entry!r} is not an integer in 0..{n - 1}")
        set_field(self, "table", tuple(map(tuple, table)))

    @property
    def order(self) -> int:
        return len(self.table)

    @cached_property
    def columns(self) -> tuple[tuple[int, ...], ...]:
        """``columns[b][a] = a * b``: the right translation by b as an image list."""
        return tuple(zip(*self.table))

    @cached_property
    def division(self) -> tuple[tuple[int, ...], ...]:
        """``division[b][y]`` = the x with x * b = y, the inverse of ``columns[b]`` by
        axiom 2; on a table without it, which ``check_quandle`` refuses before
        any coloring reads this, the last such x, or 0."""
        return tuple(map(_invert, self.columns))

    @cached_property
    def preserves_products(self):
        """The test m(a * b) = m(a) * m(b) for all a, b, on image lists m, as maps:
        m o R_b == R_{m(b)} o m for every right translation R_b = ``columns[b]``,
        where ``after[b](m)`` is m o R_b and ``itemgetter(*m)(col)`` is col o m."""
        cols = self.columns
        after = [itemgetter(*col) for col in cols]

        def preserves_products(images) -> bool:
            through = itemgetter(*images)
            return all(after[b](images) == through(cols[mb]) for b, mb in enumerate(images))

        return preserves_products

    @cached_property
    def generation(self):
        """``(generators, words)``: the greedy generators, each the least element
        the earlier ones do not generate, in O(n^2), and a word x = a * b over
        earlier elements for every other x."""
        n, t = self.order, self.table
        placed, order, generators, words = [False] * n, [], [], []
        i = 0
        while len(order) < n:
            if i == len(order):  # closed under *: the least unplaced element generates
                g = placed.index(False)
                placed[g] = True
                generators.append(g)
                order.append(g)
            x = order[i]
            for y in order[: i + 1]:
                for a, b in ((x, y), (y, x)):
                    ab = t[a][b]
                    if not placed[ab]:
                        placed[ab] = True
                        order.append(ab)
                        words.append((ab, a, b))
            i += 1
        return tuple(generators), tuple(words)

    @cached_property
    def automorphism_images(self) -> tuple[tuple[int, ...], ...]:
        """Every automorphism as an image list, sorted: the one search per
        object, unbounded, so a caller bounds it (``automorphisms`` does).

        An automorphism is fixed by its images of a generating set: every
        injective tuple of generator images (n!/(n-g)! of them for the g
        greedy generators) is extended through the words of the other
        elements, and the bijections that preserve products are kept.  It is
        exact on any table, quandle or not."""
        n, t, (generators, words) = self.order, self.table, self.generation
        found, images = [], [0] * n
        for choice in permutations(range(n), len(generators)):
            for g, v in zip(generators, choice):
                images[g] = v
            for x, a, b in words:
                images[x] = t[images[a]][images[b]]
            if len(set(images)) == n and self.preserves_products(images):
                found.append(tuple(images))
        return tuple(sorted(found))

    @cached_property
    def report(self) -> "QuandleReport":
        """``validate_quandle(self)``, run on first use unless the constructor stored it."""
        return validate_quandle(self)


class QuandleMap(Value):
    """A self-map of the elements 0..n-1, stored as a tuple of n images, each an
    int in 0..n-1 (checked here)."""

    __slots__ = FIELDS = ("images",)

    def __init__(self, images: tuple[int, ...]):
        # type(), not isinstance(): bool is an int
        if not isinstance(images, (list, tuple)) or not all(type(x) is int and 0 <= x < len(images) for x in images):
            raise InvalidParameter(f"a map's images must be a list or tuple of n ints in 0..n-1, got {images!r}")
        set_field(self, "images", tuple(images))

    @property
    def order(self) -> int:
        return len(self.images)

    def __call__(self, a: int) -> int:
        if type(a) is not int or not 0 <= a < len(self.images):  # type(), not isinstance(): bool is an int
            raise InvalidParameter(f"element {a!r} out of range 0..{len(self.images) - 1}")
        return self.images[a]

    @staticmethod
    def identity(n: int) -> "QuandleMap":
        if type(n) is not int or n < 0:  # type(), not isinstance(): bool is an int
            raise InvalidParameter(f"a map's order must be a non-negative integer, got {n!r}")
        return QuandleMap(tuple(range(n)))

    def is_permutation(self) -> bool:
        """True iff the images are the ints 0..order-1, each once."""
        return len(set(self.images)) == self.order

    def compose(self, other: "QuandleMap") -> "QuandleMap":
        """Map applying ``other`` first, then ``self``."""
        if self.order != other.order:
            raise InvalidParameter("cannot compose maps of different orders")
        return QuandleMap(tuple(self.images[other.images[a]] for a in range(self.order)))

    def inverse(self) -> "QuandleMap":
        if not self.is_permutation():
            raise InvalidParameter("only permutations can be inverted")
        return QuandleMap(_invert(self.images))


def _invert(images) -> tuple[int, ...]:
    """The inverse of a permutation of 0..n-1 given as its image list, unchecked;
    of any other list of 0..n-1, ``inv[b]`` is the last a with a -> b, or 0."""
    inv = [0] * len(images)
    for a, b in enumerate(images):
        inv[b] = a
    return tuple(inv)


class QuandleReport(Value):
    """Outcome of a quandle validation: pass/fail plus the first witness."""

    __slots__ = FIELDS = ("ok", "axiom", "witness")

    def __init__(self, ok: bool, axiom: int | None = None, witness: tuple | None = None):
        set_field(self, "ok", ok)
        set_field(self, "axiom", axiom)
        set_field(self, "witness", witness)

    def __bool__(self) -> bool:
        return self.ok


def make_from_table(table) -> FiniteQuandle:
    """``FiniteQuandle(table)``: the table's shape is checked, its axioms are not."""
    return FiniteQuandle(table)


def make_dihedral(n: int) -> FiniteQuandle:
    """Dihedral quandle on 0..n-1 with i * j = 2j - i (mod n), 1 <= n <= MAX_DIHEDRAL_ORDER."""
    if type(n) is not int or n < 1:
        raise InvalidParameter(f"dihedral order must be a positive integer, got {n!r}")
    if n > MAX_DIHEDRAL_ORDER:
        raise InvalidParameter(f"dihedral order {n} exceeds the maximum {MAX_DIHEDRAL_ORDER}")
    q = FiniteQuandle(tuple(tuple((2 * j - i) % n for j in range(n)) for i in range(n)))
    q.__dict__["report"] = QuandleReport(True)  # valid by construction; the test suite checks it
    return q


def check_quandle(q: FiniteQuandle) -> None:
    """Refuse a table whose ``report`` fails, naming the axiom and its witness."""
    _require(q.report, "quandle", "axiom")


def _require(report, what: str, rule: str) -> None:
    """Raise PreconditionFailed unless the ``what`` passed its check, naming the
    failing ``rule`` (a field of the report) and its witness."""
    if not report.ok:
        raise PreconditionFailed(
            f"the {what} fails {rule} {getattr(report, rule)}, witness {list(report.witness)}",
            witness=report.witness,
        )


def validate_quandle(q: FiniteQuandle) -> QuandleReport:
    """Check the three quandle axioms exhaustively, reporting the first failure."""
    n, t = q.order, q.table
    for a in range(n):
        if t[a][a] != a:
            return QuandleReport(False, axiom=1, witness=(a,))
    for b, col in enumerate(q.columns):
        if len(set(col)) != n:
            return QuandleReport(False, axiom=2, witness=(b,))
    # axiom 3: every right translation R_c(a) = a * c preserves products.
    # Only a failure runs the scalar scan, which finds the first witness.
    if not all(map(q.preserves_products, q.columns)):
        for a in range(n):
            for b in range(n):
                ab = t[a][b]
                for c in range(n):
                    if t[ab][c] != t[t[a][c]][t[b][c]]:
                        return QuandleReport(False, axiom=3, witness=(a, b, c))
    return QuandleReport(True)


def _check_length(q: FiniteQuandle, images) -> None:
    """Refuse the image list of a map whose length is not q's order."""
    if len(images) != q.order:
        raise InvalidParameter("map length does not match quandle order")


def is_automorphism(q: FiniteQuandle, m: QuandleMap) -> bool:
    """True iff m is a permutation with m(a * b) = m(a) * m(b) for all a, b."""
    _check_length(q, m.images)
    return m.is_permutation() and q.preserves_products(m.images)


def inner_automorphism(q: FiniteQuandle, a: int) -> QuandleMap:
    """The map x -> x * a (an automorphism of every valid quandle)."""
    if type(a) is not int or not 0 <= a < q.order:  # type(), not isinstance(): bool is an int
        raise InvalidParameter(f"element {a!r} out of range 0..{q.order - 1}")
    return QuandleMap(q.columns[a])


def automorphisms(q: FiniteQuandle, bound: int = DEFAULT_AUT_SEARCH_BOUND) -> list[QuandleMap]:
    """All automorphisms, sorted lexicographically by image list: the maps of
    ``q.automorphism_images``.  Orders above ``bound`` are refused since the
    number of candidates is factorial for the trivial quandles; a bound that
    is not an int (``bool`` included) is refused first.
    """
    _check_type(bound, int, "the automorphism search bound")
    if q.order > bound:
        raise SearchBoundExceeded(f"order {q.order} exceeds automorphism search bound {bound}")
    return list(map(QuandleMap, q.automorphism_images))


def map_order(m: QuandleMap) -> int:
    """Minimal k >= 1 with the k-fold composite of m equal to the identity."""
    if not m.is_permutation():
        raise InvalidParameter("map_order is defined for permutations only")
    k, seen = 1, set()
    for x in range(m.order):
        length = 0
        while x not in seen:  # walk the cycle through x unless an earlier walk did
            seen.add(x)
            x = m.images[x]
            length += 1
        k = lcm(k, length or 1)
    return k


def quandle_to_json(q: FiniteQuandle) -> str:
    return json.dumps({"kind": "table", "table": [list(row) for row in q.table]}, separators=(",", ":"))


def quandle_from_json(text: str) -> FiniteQuandle:
    """Parse {"kind":"dihedral","n":4} or {"kind":"table","table":[[...],...]}."""
    obj = load_json(text, "quandle JSON")
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
