"""The integer symmetric elimination against the rational algorithms it replaced.

`fraction_signature` (rational congruence reduction) and
`fraction_short_vectors` (Fincke-Pohst on a rational Cholesky-style
decomposition) are kept here as independent oracles: they share no code
with `exactlin._symmetric_bareiss`, `signature` or `short_vectors`.
"""

import random
from fractions import Fraction
from math import isqrt

import pytest

from k3evenset.exactlin import IntMatrix, Signature, _symmetric_bareiss, signature
from k3evenset.families import make
from k3evenset.lattice import IntegerLattice, short_vectors


def fraction_signature(g):
    n = len(g)
    a = [[Fraction(x) for x in row] for row in g]

    def sym_swap(i, j):
        a[i], a[j] = a[j], a[i]
        for row in a:
            row[i], row[j] = row[j], row[i]

    def sym_add(i, j):
        a[i] = [x + y for x, y in zip(a[i], a[j])]
        for row in a:
            row[i] = row[i] + row[j]

    pos = neg = zero = 0
    for k in range(n):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][i] != 0), None)
            if swap is not None:
                sym_swap(k, swap)
            else:
                off = next((j for j in range(k + 1, n) if a[k][j] != 0), None)
                if off is None:
                    zero += 1
                    continue
                sym_add(k, off)
        p = a[k][k]
        if p > 0:
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, n):
            if a[i][k] != 0:
                q = a[i][k] / p
                for j in range(k, n):
                    a[i][j] -= q * a[k][j]
                for j in range(k, n):
                    a[j][i] -= q * a[j][k]
    return Signature(pos, neg, zero)


def floor_sqrt(f):
    r = isqrt(f.numerator * f.denominator) // f.denominator
    while (r + 1) * (r + 1) <= f:
        r += 1
    while r * r > f:
        r -= 1
    return r


def fraction_short_vectors(lat, max_abs_norm):
    n = lat.rank
    g = lat.gram
    q = [[Fraction(-g[i, j]) for j in range(n)] for i in range(n)]
    for i in range(n):
        if q[i][i] <= 0:
            raise ValueError("not negative definite")
        for j in range(i + 1, n):
            q[j][i] = q[i][j]
            q[i][j] = q[i][j] / q[i][i]
        for k in range(i + 1, n):
            for l in range(k, n):
                q[k][l] -= q[k][i] * q[i][l]
    results = []
    x = [0] * n

    def recurse(i, remaining):
        if i < 0:
            if any(x):
                results.append(tuple(x))
            return
        c = sum(q[i][j] * x[j] for j in range(i + 1, n))
        half_width = floor_sqrt(remaining / q[i][i])
        for xi in range(int(-c) - half_width - 1, int(-c) + half_width + 2):
            t = q[i][i] * (xi + c) ** 2
            if t <= remaining:
                x[i] = xi
                recurse(i - 1, remaining - t)
        x[i] = 0

    recurse(n - 1, Fraction(max_abs_norm))
    return results


def fraction_det(rows):
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    out = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            out = -out
        out *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return out


def random_symmetric(rng, n):
    """One of: random entries (some diagonals zeroed, so the hyperbolic step
    runs), B^T diag(signs) B of rank at most n (semidefinite and degenerate
    forms), or a zero-diagonal form with sparse off-diagonal entries."""
    kind = rng.randrange(3)
    if kind == 0:
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                g[i][j] = g[j][i] = rng.randint(-5, 5)
            if rng.random() < 0.4:
                g[i][i] = 0
        return g
    if kind == 1:
        k = rng.randint(0, n)
        b = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
        signs = [rng.choice((1, 1, -1)) if rng.random() < 0.5 else 1 for _ in range(k)]
        if rng.random() < 0.5:
            signs = [-s for s in signs]
        return [
            [sum(s * r[i] * r[j] for s, r in zip(signs, b)) for j in range(n)]
            for i in range(n)
        ]
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.3:
                g[i][j] = g[j][i] = rng.randint(-3, 3)
    return g


def test_signature_matches_rational_reduction():
    rng = random.Random(2024)
    cases = [[[0] * n for _ in range(n)] for n in range(1, 9)]
    cases += [random_symmetric(rng, rng.randint(1, 8)) for _ in range(1500)]
    seen = set()
    for g in cases:
        got = signature(IntMatrix(g))
        assert got == fraction_signature(g), g
        seen.add((got.positive > 0, got.negative > 0, got.zero > 0))
    # indefinite, definite of both signs, semidefinite and zero forms all occur
    assert {(True, True, False), (True, False, False), (False, True, False),
            (True, False, True), (False, True, True), (True, True, True),
            (False, False, True)} <= seen


def test_pivots_are_leading_minors_without_pivoting():
    rng = random.Random(7)
    checked = 0
    for _ in range(400):
        n = rng.randint(1, 8)
        g = random_symmetric(rng, n)
        minors = [fraction_det([row[:k] for row in g[:k]]) for k in range(1, n + 1)]
        if 0 in minors:
            continue
        rows, pivots, zero = _symmetric_bareiss(g)
        assert pivots == minors and zero == 0
        assert [r[0] for r in rows] == pivots
        assert rows[0] == tuple(g[0])
        checked += 1
    assert checked > 50


def assert_same_short_vectors(lat, bound):
    vectors = short_vectors(lat, bound)
    assert all(v.denominator == 1 for v in vectors)
    got = [v.numerators for v in vectors]
    assert got == fraction_short_vectors(lat, bound)
    return got


@pytest.mark.parametrize(
    "name,bound,count",
    [("E8(-1)", 2, 240), ("E8(-1)", 4, 2400), ("E8(-2)", 2, 0), ("E8(-2)", 4, 240), ("N", 4, None)],
)
def test_short_vectors_match_rational_cholesky(name, bound, count):
    got = assert_same_short_vectors(make(name), bound)
    if count is not None:
        assert len(got) == count


def test_short_vectors_on_random_negative_definite_forms():
    rng = random.Random(11)
    done = 0
    while done < 60:
        n = rng.randint(1, 5)
        b = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if fraction_det(b) == 0:
            continue
        g = IntMatrix(
            [[-sum(x * y for x, y in zip(b[i], b[j])) for j in range(n)] for i in range(n)]
        )
        lat = IntegerLattice("rand", g, [f"e{i}" for i in range(n)], even=False)
        bound = min(-g[i, i] for i in range(n)) + rng.randint(0, 6)
        assert_same_short_vectors(lat, bound)
        done += 1


@pytest.mark.parametrize(
    "lat", [make("U"), IntegerLattice("diag(-2,0)", IntMatrix([[-2, 0], [0, 0]]), ("a", "b"))]
)
def test_short_vectors_rejects_forms_that_are_not_negative_definite(lat):
    with pytest.raises(ValueError, match="negative definite"):
        short_vectors(lat, 2)
