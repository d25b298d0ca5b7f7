"""Exact linear algebra over the integers and over Z_m.

Everything here works on plain Python ints (arbitrary precision), as
lists of lists.  Matrices are small in this package -- the cocycle
condition system for a quandle of order n is (n^3 + n) x n^2 -- so the
classical cubic algorithms are more than enough.
"""

from __future__ import annotations

from math import gcd


def identity_matrix(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        for k in range(inner):
            x = ai[k]
            if x:
                bk = b[k]
                oi = out[i]
                for j in range(cols):
                    oi[j] += x * bk[j]
    return out


def smith_normal_form(
    matrix: list[list[int]], row_transform: bool = True
) -> tuple[list[list[int]], list[list[int]] | None, list[list[int]]]:
    """Return (d, u, v) with u @ matrix @ v == d, u and v unimodular, d diagonal.

    The diagonal entries satisfy the usual divisibility chain
    d[0][0] | d[1][1] | ... and are non-negative.  With ``row_transform``
    false, u is not built and None is returned in its place; a kernel
    needs only v, and u is as large as the matrix has rows.
    """
    d = [list(row) for row in matrix]
    rows = len(d)
    cols = len(d[0]) if rows else 0
    u = identity_matrix(rows) if row_transform else None
    v = identity_matrix(cols)

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        if u is not None:
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in d:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def add_row(src, dst, factor):
        # row[dst] += factor * row[src]
        d[dst] = [x + factor * y for x, y in zip(d[dst], d[src])]
        if u is not None:
            u[dst] = [x + factor * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, factor):
        for r in d:
            r[dst] += factor * r[src]
        for r in v:
            r[dst] += factor * r[src]

    def negate_row(i):
        d[i] = [-x for x in d[i]]
        if u is not None:
            u[i] = [-x for x in u[i]]

    t = 0
    while t < min(rows, cols):
        # locate the first pivot of minimal absolute value in the remaining
        # block; no later entry beats an entry of absolute value 1
        pivot = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                x = d[i][j]
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
            swap_rows(i, t)
        if j != t:
            swap_cols(j, t)
        if d[t][t] < 0:
            negate_row(t)

        dirty = False
        for i in range(t + 1, rows):
            if d[i][t]:
                qt = d[i][t] // d[t][t]
                add_row(t, i, -qt)
                if d[i][t]:
                    dirty = True
        for j in range(t + 1, cols):
            if d[t][j]:
                qt = d[t][j] // d[t][t]
                add_col(t, j, -qt)
                if d[t][j]:
                    dirty = True
        if dirty:
            continue  # remainders left; pick a smaller pivot and repeat

        # enforce the divisibility chain: d[t][t] must divide everything below-right
        fixup = False
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if d[i][j] % d[t][t]:
                    add_row(i, t, 1)
                    fixup = True
                    break
            if fixup:
                break
        if fixup:
            continue
        t += 1

    return d, u, v


def kernel_mod(matrix: list[list[int]], m: int) -> list[list[int]]:
    """Generators of {x : matrix @ x == 0 (mod m)}, entries reduced mod m.

    Requires m >= 2.  The returned vectors generate the solution module;
    zero vectors are dropped and duplicates removed, order deterministic.
    """
    if m < 2:
        raise ValueError("kernel_mod needs a modulus m >= 2")
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    if cols == 0:
        return []
    if rows == 0:
        d, v = [], identity_matrix(cols)
    else:
        d, _, v = smith_normal_form(matrix, row_transform=False)
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


def solve_mod(matrix: list[list[int]], rhs: list[int], m: int) -> list[int] | None:
    """One solution of matrix @ x == rhs (mod m), or None when inconsistent."""
    if m < 2:
        raise ValueError("solve_mod needs a modulus m >= 2")
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    if rows == 0:
        return [0] * cols
    d, u, v = smith_normal_form(matrix)
    c = [sum(u[i][k] * rhs[k] for k in range(rows)) % m for i in range(rows)]
    y = [0] * cols
    for i in range(rows):
        diag = d[i][i] if i < min(rows, cols) else 0
        if diag == 0:
            if c[i] % m:
                return None
            continue
        g = gcd(diag, m)
        if c[i] % g:
            return None
        mg = m // g
        y[i] = (c[i] // g) * pow(diag // g, -1, mg) % mg
    x = [sum(v[i][k] * y[k] for k in range(cols)) % m for i in range(cols)]
    return x
