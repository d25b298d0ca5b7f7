"""Exact linear algebra that only the tests need: a matrix product to check
Smith forms with, and one solution of a linear system over Z_m, both built
on ``vknots.intlin.smith_normal_form``."""

from __future__ import annotations

from math import gcd

from vknots.intlin import smith_normal_form


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


def solve_mod(matrix: list[list[int]], rhs: list[int], m: int) -> list[int] | None:
    """One solution of matrix @ x == rhs (mod m), or None when inconsistent."""
    if m < 2:
        raise ValueError("solve_mod needs a modulus m >= 2")
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
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
