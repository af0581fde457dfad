"""The acceptance oracles against plain scans written here.

Both oracles skip work (elimination of the last coordinate, pruning of the
beta recursion); these tests check that they still return exactly what an
unpruned scan over the same candidate set returns.
"""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import lcm

from k3evenset.acceptance import _brute_solve, oracle_obstructing_roots
from k3evenset.exactlin import IntMatrix
from k3evenset.families import make, parse_divisor
from k3evenset.lattice import contains, norm
from k3evenset.positivity import derive_profile


def plain_solve(a, b, radius):
    for x in product(range(-radius, radius + 1), repeat=a.cols):
        if all(sum(r * xi for r, xi in zip(row, x)) == bb for row, bb in zip(a.entries, b)):
            return x
    return None


def test_brute_solve_matches_plain_scan():
    rng = random.Random(20061121)
    solved = zero_last = 0
    for trial in range(3000):
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        radius = rng.randint(0, 4)
        entries = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        if trial % 5 == 0:
            for row in entries:
                row[-1] = 0
        if all(row[-1] == 0 for row in entries):
            zero_last += 1
        a = IntMatrix(entries)
        b = [rng.randint(-6, 6) for _ in range(rows)]
        got = _brute_solve(a, b, radius)
        assert got == plain_solve(a, b, radius), (entries, b, radius)
        solved += got is not None
    assert solved > 500 and zero_last > 500


@lru_cache(maxsize=None)
def square_tuples(n, total):
    """All nonnegative n-tuples with sum of squares equal to total."""
    if n == 0:
        return [()] if total == 0 else []
    out = []
    b = 0
    while b * b <= total:
        out += [(b,) + rest for rest in square_tuples(n - 1, total - b * b)]
        b += 1
    return out


def unpruned_roots(ns, divisor, strict, a_cap):
    """Every C = a L - sum beta_i N_i / 2 with C^2 = -2, a up to a_cap on the
    grid, D.C <= 0 (or < 0) and C in ns, with no pruning at all."""
    root = ns.root()
    g = root.gram.entries
    dc = divisor.root_coords()
    # 2 D.C = 2 w_0 a - sum w_j beta_j with w = G D; scaled by m to integers
    w = [sum(dc[i] * g[i][j] for i in range(9)) for j in range(9)]
    m = 1
    for x in w:
        m = lcm(m, x.denominator)
    wi = [int(x * m) for x in w[1:]]
    den = derive_profile(ns).a_denominator
    bound = 2 * m * (-1 if strict else 0)
    out = []
    k = 1
    while Fraction(k, den) <= a_cap:
        a = Fraction(k, den)
        k += 1
        lead = 2 * m * w[0] * a
        # C^2 = 2 d a^2 - sum beta_i^2 / 2 = -2
        total = 2 * g[0][0] * a * a + 4
        assert total.denominator == 1
        for beta in square_tuples(8, int(total)):
            if lead - sum(x * y for x, y in zip(wi, beta)) > bound:
                continue
            c = root.vector([a] + [Fraction(-x, 2) for x in beta])
            if contains(ns, c):
                assert norm(c) == -2
                out.append(c.root_coords())
    return sorted(out)


# (family, divisor, a_cap): not-nef divisors with many roots, nef ones with
# few or none, zero-weight slots, mixed weights and a half-integral grid.
# The caps stay small so that the unpruned scan is cheap; the pruning under
# test does not depend on the cap.
ORACLE_CASES = [
    ("L:2d=4", "L-N1-N2-N3", 2),
    ("L:2d=4", "L-Nhat", 1),
    ("L:2d=4", "L-2N1-N2", 2),
    ("L:2d=4", "L-N1-N2-N3-N4-N5", 1),
    ("L:2d=4", "2L-Nhat", 1),
    ("L:2d=4", "L", 1),
    ("L:2d=4", "L-N1", 1),
    ("L:2d=6", "L-N1-N2-N3-N4", 1),
    ("L:2d=6", "L-Nhat", 1),
    ("L:2d=6", "2L-3N1-N2", 1),
    ("L:2d=8", "L-N1-N2-N3-N4-N5-N6", 1),
    ("L:2d=8", "L", 1),
    ("L':2d=4", "L-Nhat", Fraction(3, 2)),
    ("L':2d=4", "(L-N3-N4-N5-N6-N7-N8)/2", Fraction(3, 2)),
    ("L':2d=8", "L-N1-N2-N3-N4-N5-N6", 1),
    ("L':2d=8", "(L-N1-N2-N3-N4)/2", 1),
    ("L':2d=8", "L", 1),
]


def test_oracle_obstructing_roots_matches_unpruned_scan():
    roots = strict_roots = 0
    for family, text, a_cap in ORACLE_CASES:
        ns = make(family)
        dv = parse_divisor(ns, text)
        for strict in (False, True):
            got = [c.root_coords() for c in oracle_obstructing_roots(ns, dv, strict, Fraction(a_cap))]
            assert got == unpruned_roots(ns, dv, strict, a_cap), (family, text, strict)
            roots += len(got)
            strict_roots += len(got) if strict else 0
    assert roots > 500 and strict_roots > 100
