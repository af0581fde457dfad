"""Oracles against plain scans written here, and integer certificates
against the box scan.

Both oracles skip work (elimination of the last coordinate, pruning of the
beta recursion); these tests check that they still return exactly what an
unpruned scan over the same candidate set returns.  `_brute_solve` then
backs every infeasibility certificate `solve_integral` returns.

`saturation` and `unimodular_inverse` are the Smith-form reference for
`is_primitive`'s Hermite test; `test_lattice`, `test_lattice_solver` and
`test_exactlin` import them from here.
"""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import lcm
from typing import Sequence

from k3evenset.acceptance import oracle_obstructing_roots
from k3evenset.exactlin import IntMatrix, smith_normal_form, solve_integral
from k3evenset.families import make, parse_divisor
from k3evenset.lattice import (
    FrameVector,
    IntegerLattice,
    contains,
    inner,
    integral_coords_matrix,
)


def unimodular_inverse(m: IntMatrix) -> IntMatrix:
    """Inverse of a unimodular integer matrix, over the integers.

    With L*V*R = I in Smith form, V^-1 = R*L; no rational arithmetic needed.
    """
    if not m.is_square():
        raise ValueError("inverse requires a square matrix")
    snf = smith_normal_form(m)
    if any(d != 1 for d in snf.diag):
        raise ValueError("matrix is not unimodular")
    return snf.right.mul(snf.left)


def saturation(
    lat: IntegerLattice, gens: Sequence[FrameVector]
) -> tuple[IntegerLattice, int]:
    """Primitive closure of the span of gens inside lat, plus the index.

    The generators must be lattice points of lat and linearly independent
    over Q; a dependency is rejected together with an integer relation
    among them.  With U*M*V = D the Smith form of the coordinate matrix, a
    row of U beyond the rank of M is such a relation; otherwise the rows of
    V^-1 give a basis of the saturation and the product of the invariant
    factors is the index of the span inside it.
    """
    if not gens:
        raise ValueError("saturation needs at least one generator")
    m = integral_coords_matrix(lat, gens)
    if m is None:
        raise ValueError(f"some generator is not a lattice point of {lat.name}")
    snf = smith_normal_form(m)
    k = len(gens)
    rank = sum(1 for d in snf.diag if d)
    if rank < k:
        raise ValueError(f"generators are dependent: relation {snf.left.row(rank)}")
    index = 1
    for d in snf.diag:
        index *= d
    vinv = unimodular_inverse(snf.right)
    rows = vinv.entries[:k]
    sat = IntegerLattice.framed(
        f"sat({lat.name})",
        lat,
        rows,
        [f"s{i+1}" for i in range(k)],
        even=lat.even,
    )
    return sat, index


def _brute_solve(a: IntMatrix, b, radius: int):
    """First x in [-radius, radius]^cols, in lexicographic order, with a x = b.

    An all-zero column leaves its coordinate free, so the first solution
    puts -radius there; those columns are dropped and put back at the end.
    In what is left, a row with a nonzero last entry fixes the last
    coordinate from the others, so only the first cols - 1 coordinates are
    scanned; the fixed value must be an integer inside the box.  Every
    equation is checked on the full candidate.
    """
    keep = [j for j in range(a.cols) if any(row[j] for row in a.entries)]
    rows = [[row[j] for j in keep] for row in a.entries]
    box = range(-radius, radius + 1)
    pivot = next((i for i, row in enumerate(rows) if row[-1] != 0), None) if keep else None
    for head in product(box, repeat=max(len(keep) - 1, 0)):
        if pivot is None:
            y = head
        else:
            row = rows[pivot]
            last, rem = divmod(b[pivot] - sum(r * yi for r, yi in zip(row, head)), row[-1])
            if rem or not -radius <= last <= radius:
                continue
            y = head + (last,)
        if all(sum(r * yi for r, yi in zip(row, y)) == bb for row, bb in zip(rows, b)):
            x = [-radius] * a.cols
            for j, v in zip(keep, y):
                x[j] = v
            return tuple(x)
    return None


def plain_solve(a, b, radius):
    for x in product(range(-radius, radius + 1), repeat=a.cols):
        if all(sum(r * xi for r, xi in zip(row, x)) == bb for row, bb in zip(a.entries, b)):
            return x
    return None


def test_brute_solve_matches_plain_scan():
    rng = random.Random(20061121)
    solved = zero_last = zero_middle = all_zero = 0
    for trial in range(3000):
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        radius = rng.randint(0, 4)
        entries = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        zero_cols = ()
        if trial % 5 == 0:
            zero_cols = (cols - 1,)
        elif trial % 5 == 1 and cols == 3:
            zero_cols = (1,)
        elif trial % 25 == 2:
            zero_cols = range(cols)
        for row in entries:
            for j in zero_cols:
                row[j] = 0
        if all(row[-1] == 0 for row in entries):
            zero_last += 1
        if cols == 3 and all(row[1] == 0 for row in entries):
            zero_middle += 1
        if not any(map(any, entries)):
            all_zero += 1
        a = IntMatrix(entries)
        b = [rng.randint(-6, 6) for _ in range(rows)]
        if trial % 50 == 2:  # half of the all-zero systems are homogeneous
            b = [0] * rows
        got = _brute_solve(a, b, radius)
        assert got == plain_solve(a, b, radius), (entries, b, radius)
        solved += got is not None
    assert solved > 500 and zero_last > 500 and zero_middle > 150 and all_zero > 100


def certificate_holds(a, b, u, t):
    """t >= 2 divides every entry of u A but not u b."""
    ua = [sum(ui * row[j] for ui, row in zip(u, a.entries)) for j in range(a.cols)]
    ub = sum(ui * bi for ui, bi in zip(u, b))
    return len(u) == a.rows and t >= 2 and all(v % t == 0 for v in ua) and ub % t != 0


def test_solve_integral_certificates_against_box_scan():
    rng = random.Random(20200611)
    systems = [(IntMatrix([[1], [1]]), [1, 2]), (IntMatrix([[0, 0]]), [1])]
    for trial in range(3000):
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        entries = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        if trial % 4 == 1:  # a zero column
            for row in entries:
                row[rng.randrange(cols)] = 0
        elif trial % 4 == 2:  # more rows than rank: repeat a row, scaled
            first = entries[0]
            entries = [first] + [[k * x for x in first] for k in rng.sample((-2, -1, 1, 2, 3), rows)]
        systems.append((IntMatrix(entries), [rng.randint(-5, 5) for _ in range(len(entries))]))
    solved = divisor_certs = rank_certs = zero_columns = 0
    for a, b in systems:
        x, cert = solve_integral(a, b)
        assert (x is None) != (cert is None), (a.entries, b)
        if x is not None:
            assert [sum(r * xi for r, xi in zip(row, x)) for row in a.entries] == b
            solved += 1
            continue
        assert certificate_holds(a, b, *cert), (a.entries, b, cert)
        assert _brute_solve(a, b, radius=25) is None, (a.entries, b, cert)
        u, _ = cert
        # u A = 0 comes from a row past the rank, otherwise from a divisor
        if any(sum(ui * row[j] for ui, row in zip(u, a.entries)) for j in range(a.cols)):
            divisor_certs += 1
        else:
            rank_certs += 1
        zero_columns += any(not any(col) for col in zip(*a.entries))
    assert solved > 600 and divisor_certs > 800 and rank_certs > 1000 and zero_columns > 500


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
    den = lcm(*(v.root_coords()[0].denominator for v in ns.basis_vectors()))
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
                assert inner(c, c) == -2
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
