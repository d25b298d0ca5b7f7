"""Exact linear algebra that only the tests need: a matrix product and a
seeded set of integer matrices to check Smith forms with, and one solution
of a linear system over Z_m built on ``vknots.intlin.kernel_mod``."""

from __future__ import annotations

import random
from math import gcd

from vknots.intlin import kernel_mod


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


def snf_matrices() -> list[list[list[int]]]:
    """Seeded integer matrices: empty shapes, then random ones of up to 6 x 6,
    every third made rank-deficient by a row that combines two others."""
    rng = random.Random(41)
    mats = [[], [[]], [[], [], []], [[0, 0, 0], [0, 0, 0]]]
    for k in range(96):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        a = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        if k % 3 == 0 and rows >= 3:
            x, y = rng.randint(-3, 3), rng.randint(-3, 3)
            a[-1] = [x * p + y * q for p, q in zip(a[0], a[1])]
        mats.append(a)
    return mats


def solve_mod(matrix: list[list[int]], rhs: list[int], m: int) -> list[int] | None:
    """One solution of matrix @ x == rhs (mod m), or None when inconsistent.

    Built on ``kernel_mod``: x is a solution exactly when (x, 1) lies in the
    kernel mod m of the augmented matrix [matrix | -rhs].  An extended gcd
    combines the kernel generators into one whose last entry is 1 mod m;
    there is none when the gcd of their last entries with m is not 1.
    """
    if m < 2:
        raise ValueError("solve_mod needs a modulus m >= 2")
    if not matrix:
        return []
    acc = [0] * (len(matrix[0]) + 1)  # a combination of generators, last entry g mod m
    g = 0
    for vec in kernel_mod([list(row) + [-b] for row, b in zip(matrix, rhs)], m):
        # s * g + t * e == gcd(g, e), by the extended Euclidean algorithm
        a, b, s, s1, t, t1 = g, vec[-1], 1, 0, 0, 1
        while b:
            q = a // b
            a, b, s, s1, t, t1 = b, a - q * b, s1, s - q * s1, t1, t - q * t1
        acc = [(s * x + t * y) % m for x, y in zip(acc, vec)]
        g = a
    if gcd(g, m) != 1:
        return None
    scale = pow(g, -1, m)
    return [x * scale % m for x in acc[:-1]]
