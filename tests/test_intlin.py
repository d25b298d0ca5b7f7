import random
from itertools import combinations
from math import gcd

import pytest

from intlin_helpers import mat_mul, snf_matrices, solve_mod
from vknots import intlin
from vknots.errors import InvalidParameter


def _random_matrix(rng, rows, cols, lo=-6, hi=6):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def _det(a):
    """Exact determinant of a square integer matrix, by fraction-free
    (Bareiss) elimination; the empty matrix has determinant 1."""
    a = [list(r) for r in a]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            i = next((i for i in range(k + 1, n) if a[i][k]), None)
            if i is None:
                return 0
            a[k], a[i] = a[i], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1


def _check_smith_form(a):
    """Check smith_normal_form(a) against what reads none of its transforms:
    the determinantal divisors of a, the determinant of v and a @ v."""
    d, v = intlin.smith_normal_form(a)
    rows = len(a)
    cols = len(a[0]) if rows else 0
    r = min(rows, cols)
    assert len(d) == rows and all(len(row) == cols for row in d)
    assert all(d[i][j] == 0 for i in range(rows) for j in range(cols) if i != j)
    diag = [d[i][i] for i in range(r)]
    for x, y in zip(diag, diag[1:]):
        assert x >= 0
        if y:
            assert x != 0 and y % x == 0
    # d_1 ... d_k is the gcd of the k x k minors of a
    product = 1
    for k in range(1, r + 1):
        product *= diag[k - 1]
        minors = 0
        for ri in combinations(range(rows), k):
            for ci in combinations(range(cols), k):
                minors = gcd(minors, _det([[a[i][j] for j in ci] for i in ri]))
        assert product == minors, (a, k)
    assert len(v) == cols and abs(_det(v)) == 1
    av = mat_mul(a, v)
    for j in range(cols):
        dj = diag[j] if j < r else 0
        for row in av:
            assert (row[j] % dj == 0) if dj else row[j] == 0


def test_smith_normal_form_small():
    a = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    d, _ = intlin.smith_normal_form(a)
    diag = [d[i][i] for i in range(3)]
    assert diag == [2, 2, 156]
    assert diag[0] * diag[1] * diag[2] == 624  # |det| of the input
    _check_smith_form(a)


@pytest.mark.parametrize("seed", range(25))
def test_smith_normal_form_random(seed):
    rng = random.Random(seed)
    rows, cols = rng.randint(1, 5), rng.randint(1, 5)
    _check_smith_form(_random_matrix(rng, rows, cols))


def test_smith_normal_form_of_the_pinned_matrices():
    for a in snf_matrices():
        _check_smith_form(a)


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("m", [2, 3, 4, 6])
def test_kernel_mod_vectors_satisfy_system(seed, m):
    rng = random.Random(seed)
    rows, cols = rng.randint(1, 4), rng.randint(1, 4)
    a = _random_matrix(rng, rows, cols)
    for vec in intlin.kernel_mod(a, m):
        for row in a:
            assert sum(x * y for x, y in zip(row, vec)) % m == 0


def test_kernel_mod_spans_brute_force():
    # exhaustive cross-check on a small system mod 4
    a = [[2, 0, 1], [0, 2, 3]]
    m = 4
    gens = intlin.kernel_mod(a, m)
    spanned = {(0, 0, 0)}
    frontier = [(0, 0, 0)]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = tuple((c + x) % m for c, x in zip(cur, g))
            if nxt not in spanned:
                spanned.add(nxt)
                frontier.append(nxt)
    brute = {
        (x, y, z)
        for x in range(m)
        for y in range(m)
        for z in range(m)
        if (2 * x + z) % m == 0 and (2 * y + 3 * z) % m == 0
    }
    assert spanned == brute


@pytest.mark.parametrize("seed", range(30))
@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_solve_mod_agrees_with_enumeration(seed, m):
    rng = random.Random(1000 * m + seed)
    rows, cols = rng.randint(1, 3), rng.randint(1, 3)
    a = _random_matrix(rng, rows, cols, -4, 4)
    b = [rng.randrange(m) for _ in range(rows)]

    def residual(x):
        return all(sum(r * v for r, v in zip(row, x)) % m == rhs % m for row, rhs in zip(a, b))

    found = solve_mod(a, b, m)
    brute_solvable = False
    stack = [[]]
    while stack:
        cur = stack.pop()
        if len(cur) == cols:
            if residual(cur):
                brute_solvable = True
                break
            continue
        stack.extend(cur + [v] for v in range(m))
    if found is None:
        assert not brute_solvable
    else:
        assert residual(found)


def test_empty_system():
    assert intlin.kernel_mod([], 5) == []
    assert solve_mod([], [], 5) == []


@pytest.mark.parametrize("m", [1, 0, -3])
@pytest.mark.parametrize(
    "solve",
    [lambda m: intlin.kernel_mod([[1, 2]], m), lambda m: solve_mod([[1, 2]], [1], m)],
    ids=["kernel_mod", "solve_mod"],
)
def test_a_modulus_below_two_is_refused(solve, m):
    with pytest.raises(ValueError, match="needs a modulus m >= 2"):
        solve(m)


def test_kernel_mod_refuses_a_modulus_below_two_with_a_typed_error():
    with pytest.raises(InvalidParameter, match="kernel_mod needs a modulus m >= 2"):
        intlin.kernel_mod([[1, 2]], 1)
