"""Exact linear algebra over the integers and over Z_m.

Everything here works on plain Python ints (arbitrary precision), as
lists of lists.  Matrices are small in this package -- the cocycle
condition system for a quandle of order n is (n^3 + n) x n^2 -- so the
classical cubic algorithms are more than enough.  The Smith form builds
only the column transform v, which is all that ``kernel_mod`` reads; it
builds no row transform.
"""

from __future__ import annotations

from math import gcd

from .errors import InvalidParameter


def smith_normal_form(matrix: list[list[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """Return (d, v) with d diagonal and v unimodular such that u @ matrix @ v == d
    for some unimodular u, which is not built.

    The diagonal entries satisfy the usual divisibility chain
    d[0][0] | d[1][1] | ... and are non-negative.  A kernel needs only v.

    One working matrix carries v (Cohen, *A Course in Computational
    Algebraic Number Theory*, 1993, 2.4): the rows of v sit below those of
    d, so column operations carry v; only the top-left d block is ever read.
    """
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    w = [list(r) for r in matrix] + [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def add_row(src, dst, factor):
        # row[dst] += factor * row[src]
        w[dst] = [x + factor * y for x, y in zip(w[dst], w[src])]

    t = 0
    while t < min(rows, cols):
        # locate the first pivot of minimal absolute value in the remaining
        # block; no later entry beats an entry of absolute value 1
        pivot = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                x = w[i][j]
                if x != 0 and (best is None or abs(x) < best):
                    best = abs(x)
                    pivot = (i, j)
                    if best == 1:
                        break
            if best == 1:
                break
        if pivot is None:
            break
        i, j = pivot
        if i != t:
            w[i], w[t] = w[t], w[i]
        if j != t:
            for r in w:
                r[j], r[t] = r[t], r[j]
        if w[t][t] < 0:
            w[t] = [-x for x in w[t]]

        dirty = False
        for i in range(t + 1, rows):
            if w[i][t]:
                qt = w[i][t] // w[t][t]
                add_row(t, i, -qt)
                if w[i][t]:
                    dirty = True
        for j in range(t + 1, cols):
            if w[t][j]:
                qt = w[t][j] // w[t][t]
                for r in w:
                    r[j] -= qt * r[t]
                if w[t][j]:
                    dirty = True
        if dirty:
            continue  # remainders left; pick a smaller pivot and repeat

        # enforce the divisibility chain: d[t][t] must divide everything
        # below-right, which a pivot of 1 always does
        p = w[t][t]
        if p != 1:
            i = next((i for i in range(t + 1, rows) if any(x % p for x in w[i][t + 1 : cols])), None)
            if i is not None:
                add_row(i, t, 1)
                continue
        t += 1

    return w[:rows], w[rows:]


def kernel_mod(matrix: list[list[int]], m: int) -> list[list[int]]:
    """Generators of {x : matrix @ x == 0 (mod m)}, entries reduced mod m.

    Requires m >= 2.  The returned vectors generate the solution module;
    zero vectors are dropped and duplicates removed, order deterministic.
    """
    if m < 2:
        raise InvalidParameter("kernel_mod needs a modulus m >= 2")
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    if cols == 0:
        return []
    d, v = smith_normal_form(matrix)
    gens: list[list[int]] = []
    seen = set()
    for j in range(cols):
        diag = d[j][j] if j < min(rows, cols) else 0
        step = m // gcd(diag, m)  # y_j must be a multiple of this
        vec = [(v[i][j] * step) % m for i in range(cols)]
        if any(vec):
            key = tuple(vec)
            if key not in seen:
                seen.add(key)
                gens.append(vec)
    return gens
