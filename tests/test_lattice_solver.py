"""The per-lattice integer solver against plain Fraction Gauss elimination.

`coords_in`, `contains` and `integral_coords_matrix` all answer from one
cached solver per lattice, composed from its parent's solver and the
Hermite form of its frame; here they are checked on full-rank and
lower-rank framed lattices, and on the overlattice of every admissible
glue, against an elimination written in this file.  `is_primitive` is
checked against the last determinantal divisor.
"""

import random
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from operator import mul

import pytest

from k3evenset.exactlin import IntMatrix, det
from k3evenset.families import (
    GlueVector,
    admissible_glues,
    canonical_octet,
    k3_lattice,
    make,
    nikulin_sublattice,
    overlattice,
)
from k3evenset.lattice import (
    IntegerLattice,
    contains,
    coords_in,
    integral_coords_matrix,
    is_primitive,
)
from test_oracles import saturation


def gauss_coords(basis, xs):
    """For each x in xs, the coordinates c with sum c_i basis_i = x over Q,
    or None off the span.

    basis holds linearly independent rows; one elimination serves every x.
    """
    rank, dim, m = len(basis), len(xs[0]), len(xs)
    aug = [
        [Fraction(basis[j][i]) for j in range(rank)] + [Fraction(x[i]) for x in xs]
        for i in range(dim)
    ]
    for c in range(rank):
        p = next(i for i in range(c, dim) if aug[i][c] != 0)
        aug[c], aug[p] = aug[p], aug[c]
        piv = aug[c][c]
        aug[c] = [v / piv for v in aug[c]]
        for i in range(dim):
            if i != c and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [v - f * w for v, w in zip(aug[i], aug[c])]
    out = []
    for k in range(rank, rank + m):
        if any(aug[i][k] != 0 for i in range(rank, dim)):
            out.append(None)
        else:
            out.append(tuple(aug[i][k] for i in range(rank)))
    return out


def q_rank(rows):
    m = [[Fraction(v) for v in r] for r in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        p = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if p is None:
            continue
        m[rank], m[p] = m[p], m[rank]
        for i in range(rank + 1, len(m)):
            f = m[i][c] / m[rank][c]
            m[i] = [v - f * w for v, w in zip(m[i], m[rank])]
        rank += 1
    return rank


def basis_in_root(lat):
    return [v.root_coords() for v in lat.basis_vectors()]


def random_sublattice(rng, ambient, name):
    """Framed sublattice of ambient with independent random lattice-point rows."""
    root = ambient.root()
    amb, s = ambient.basis_in_root_scaled()
    while True:
        k = rng.randint(1, ambient.rank)
        coeffs = [[rng.randint(-2, 2) for _ in range(ambient.rank)] for _ in range(k)]
        rows = [[sum(c * b[j] for c, b in zip(cs, amb)) for j in range(root.rank)] for cs in coeffs]
        if q_rank(rows) == k:
            return IntegerLattice.framed(name, root, rows, [f"x{i}" for i in range(k)], s=s)


def solver_lattices():
    rng = random.Random(2020)
    ns6 = make("L:2d=6")
    nik = nikulin_sublattice(ns6)
    # the copy {(0, x, -x)} of E8(-2) inside U^3 + E8(-1)^2
    rows = [
        [0] * 6 + [int(i == j) for j in range(8)] + [-int(i == j) for j in range(8)]
        for i in range(8)
    ]
    anti = IntegerLattice.framed("E8(-2)^anti", k3_lattice(), rows, [f"w{i}" for i in range(1, 9)])
    lats = [
        ns6,
        make("L':2d=8"),
        make("M':2d'=8"),
        nik,
        anti,
        saturation(nik, canonical_octet(ns6))[0],
        saturation(ns6, [2 * ns6.root().basis_vector(0), ns6.root().basis_vector(1)])[0],
    ]
    for i in range(6):
        lats.append(random_sublattice(rng, make("L':2d=8"), f"rand{i}"))
    for i in range(3):
        lats.append(random_sublattice(rng, anti, f"randK3{i}"))
    return lats


def check_solver(lat, samples):
    """coords_in, contains and integral_coords_matrix on root-frame points
    against Gauss elimination; the samples must hold a lattice point and a
    point off the lattice."""
    root = lat.root()
    points = []
    for x, want in zip(samples, gauss_coords(basis_in_root(lat), samples)):
        v = root.vector(x)
        if want is None:
            assert all(coords_in(lat, v, k) is None for k in (1, 2, 6, 2**12 * 3**8 * 5**4 * 7**3))
        else:
            k = lcm(*(f.denominator for f in want))
            assert coords_in(lat, v, k) == tuple(int(k * f) for f in want)
            for j in (2, 3):
                if k % j == 0:
                    assert coords_in(lat, v, k // j) is None
        is_point = want is not None and all(f.denominator == 1 for f in want)
        assert (coords_in(lat, v) is not None) == is_point
        assert contains(lat, v) == is_point
        if is_point:
            points.append((v, [int(f) for f in want]))
    assert points
    got = integral_coords_matrix(lat, [v for v, _ in points])
    assert [list(row) for row in got.entries] == [c for _, c in points]
    off = next(root.vector(x) for x in samples if not contains(lat, root.vector(x)))
    assert integral_coords_matrix(lat, [points[0][0], off]) is None


def span_point(rng, lat):
    """A point on lat's span with random rational coordinates."""
    basis = basis_in_root(lat)
    c = [Fraction(rng.randint(-4, 4), rng.choice((1, 1, 1, 2, 3))) for _ in range(lat.rank)]
    return [sum(ci * b[j] for ci, b in zip(c, basis)) for j in range(len(basis[0]))]


def span_point_over(rng, lat, den):
    """(c_1 b_1 + ... + c_r b_r) / den on lat's span, each c_i in -4..4."""
    rows, s = lat.basis_in_root_scaled()
    c = [rng.randint(-4, 4) for _ in rows]
    return [Fraction(sum(map(mul, c, col)), s * den) for col in zip(*rows)]


def root_point(rng, lat):
    """A point anywhere in lat's root frame."""
    return [Fraction(rng.randint(-4, 4), rng.choice((1, 2))) for _ in range(lat.root().rank)]


@pytest.mark.parametrize("lat", solver_lattices(), ids=lambda lat: lat.name)
def test_solver_agrees_with_gauss_elimination(lat):
    rng = random.Random(lat.name)
    samples = []
    for _ in range(25):
        samples += [span_point(rng, lat), root_point(rng, lat)]
    check_solver(lat, samples)


def glue_overlattices():
    """(d, overlattice) for every admissible glue, d <= 12 and d = 30, 60."""
    for d in list(range(1, 13)) + [30, 60]:
        base = make(f"L:2d={2 * d}")
        for cls in admissible_glues(d):
            for g in cls:
                yield d, overlattice(base, g.glue_class(base.root()))


def random_rows(rng, count, width):
    while True:
        rows = [[rng.randint(-2, 2) for _ in range(width)] for _ in range(count)]
        if q_rank(rows) == count:
            return rows


def test_overlattice_solvers_agree_with_gauss_elimination():
    rng = random.Random(20062)
    seen = {}
    for i, (d, over) in enumerate(glue_overlattices()):
        seen[d] = seen.get(d, 0) + 1
        # on and off the full-rank overlattice: integral coordinates, and
        # halves, thirds and quarters of them
        check_solver(over, [span_point_over(rng, over, den) for den in (1, 1, 2, 3, 4)])
        if i % 3:
            continue
        # a sublattice framed on the overlattice: a chain of three frames,
        # with points off its span
        k = rng.randint(1, 8)
        sub = IntegerLattice.framed(
            "sub", over, random_rows(rng, k, 9), [f"x{j}" for j in range(k)]
        )
        samples = [span_point_over(rng, sub, den) for den in (1, 2)]
        check_solver(sub, samples + [root_point(rng, sub), root_point(rng, sub)])
    assert seen == {2: 56, 4: 70, 6: 56, 8: 70, 10: 56, 12: 70, 30: 56, 60: 70}


def last_determinantal_divisor(rows):
    """gcd of the maximal minors, the product of the Smith invariant factors."""
    g = 0
    for cols in combinations(range(len(rows[0])), len(rows)):
        g = gcd(g, det(IntMatrix([[r[c] for c in cols] for r in rows])))
    return g


def test_is_primitive_matches_smith_diagonal_oracle():
    rng = random.Random(20063)
    verdicts = set()
    for d, over in glue_overlattices():
        nik = nikulin_sublattice(make(f"L:2d={2 * d}"))
        rows = integral_coords_matrix(over, nik.basis_vectors()).entries
        assert last_determinantal_divisor(rows) == 1
        assert is_primitive(over, nik)
        k = rng.randint(1, 4)
        rows = random_rows(rng, k, 9)
        cases = [
            rows,  # a random sublattice, primitive or not
            [[2 * x for x in rows[0]]],  # 2 v
            [[3 * x for x in rows[0]]] + rows[1:],  # index 3 over a sublattice
        ]
        for case in cases:
            sub = IntegerLattice.framed(
                "sub", over, case, [f"x{j}" for j in range(len(case))]
            )
            want = last_determinantal_divisor(case) == 1
            assert is_primitive(over, sub) == want
            verdicts.add(want)
    assert verdicts == {True, False}


def test_dependent_frame_rows_raise_value_error():
    root = make("L:2d=6").root()
    n1 = [0, 1] + [0] * 7
    dep = IntegerLattice.framed("dep", root, [n1, [2 * x for x in n1]], ("a", "b"))
    v = root.basis_vector(1)
    with pytest.raises(ValueError, match="dependent"):
        coords_in(dep, v)
    with pytest.raises(ValueError, match="dependent"):
        contains(dep, v)
    with pytest.raises(ValueError, match="dependent"):
        integral_coords_matrix(dep, [v])
    too_many = IntegerLattice.framed("wide", make("U"), [[1, 0], [0, 1], [1, 1]], "abc")
    with pytest.raises(ValueError, match="dependent"):
        contains(too_many, make("U").basis_vector(0))
    # framed on an overlattice, whose own frame is a square Hermite form
    base = make("L:2d=8")
    over = overlattice(base, GlueVector(frozenset({1, 2, 3, 4})).glue_class(base.root()))
    r = [1, 0, 2, 0, 0, 1, 0, 0, 0]
    dep = IntegerLattice.framed("dep", over, [r, [3 * x for x in r]], ("a", "b"))
    with pytest.raises(ValueError, match="dependent"):
        coords_in(dep, over.basis_vector(0))
