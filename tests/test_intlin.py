import random

import pytest

from intlin_helpers import mat_mul, solve_mod
from vknots import intlin


def _mat_eq(a, b):
    return [list(r) for r in a] == [list(r) for r in b]


def _random_matrix(rng, rows, cols, lo=-6, hi=6):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def test_smith_normal_form_small():
    d, u, v = intlin.smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    assert _mat_eq(mat_mul(mat_mul(u, [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]), v), d)
    diag = [d[i][i] for i in range(3)]
    assert diag == [2, 2, 156]
    assert diag[0] * diag[1] * diag[2] == 624  # |det| of the input
    for i in range(2):
        if diag[i + 1]:
            assert diag[i + 1] % diag[i] == 0


@pytest.mark.parametrize("seed", range(25))
def test_smith_normal_form_random(seed):
    rng = random.Random(seed)
    rows, cols = rng.randint(1, 5), rng.randint(1, 5)
    a = _random_matrix(rng, rows, cols)
    d, u, v = intlin.smith_normal_form(a)
    assert _mat_eq(mat_mul(mat_mul(u, a), v), d)
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert d[i][j] == 0
    diag = [d[i][i] for i in range(min(rows, cols))]
    for x, y in zip(diag, diag[1:]):
        assert x >= 0
        if y:
            assert x != 0 and y % x == 0
    # without the row transform the reduction takes the same steps
    assert intlin.smith_normal_form(a, row_transform=False) == (d, None, v)


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
