"""The per-lattice integer solver against plain Fraction Gauss elimination.

`coords_in`, `contains` and `integral_coords_matrix` all answer from one
cached Smith solver; here they are checked on full-rank and lower-rank
framed lattices against an elimination written in this file.
"""

import random
from fractions import Fraction
from math import lcm

import pytest

from k3evenset.families import (
    anti_diagonal_e8,
    canonical_octet,
    k3_lattice,
    make,
    nikulin_sublattice,
)
from k3evenset.lattice import (
    IntegerLattice,
    contains,
    coords_in,
    integral_coords_matrix,
    saturation,
)


def gauss_coords(basis, x):
    """Coordinates c with sum c_i basis_i = x over Q, or None off the span.

    basis holds linearly independent rows.
    """
    rank, dim = len(basis), len(x)
    aug = [[Fraction(basis[j][i]) for j in range(rank)] + [Fraction(x[i])] for i in range(dim)]
    for c in range(rank):
        p = next(i for i in range(c, dim) if aug[i][c] != 0)
        aug[c], aug[p] = aug[p], aug[c]
        piv = aug[c][c]
        aug[c] = [v / piv for v in aug[c]]
        for i in range(dim):
            if i != c and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [v - f * w for v, w in zip(aug[i], aug[c])]
    if any(aug[i][rank] != 0 for i in range(rank, dim)):
        return None
    return tuple(aug[i][rank] for i in range(rank))


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
    k3 = k3_lattice()
    nik = nikulin_sublattice(ns6)
    lats = [
        ns6,
        make("L':2d=8"),
        make("M':2d'=8"),
        nik,
        anti_diagonal_e8(k3),
        saturation(nik, canonical_octet(ns6))[0],
        saturation(ns6, [2 * ns6.root().basis_vector(0), ns6.root().basis_vector(1)])[0],
    ]
    for i in range(6):
        lats.append(random_sublattice(rng, make("L':2d=8"), f"rand{i}"))
    for i in range(3):
        lats.append(random_sublattice(rng, anti_diagonal_e8(k3), f"randK3{i}"))
    return lats


@pytest.mark.parametrize("lat", solver_lattices(), ids=lambda lat: lat.name)
def test_solver_agrees_with_gauss_elimination(lat):
    rng = random.Random(lat.name)
    root = lat.root()
    basis = basis_in_root(lat)
    samples = []
    for _ in range(25):
        # on the span, with known (often integral) coordinates
        c = [Fraction(rng.randint(-4, 4), rng.choice((1, 1, 1, 2, 3))) for _ in range(lat.rank)]
        samples.append([sum(ci * b[j] for ci, b in zip(c, basis)) for j in range(root.rank)])
        # anywhere in the root frame
        samples.append([Fraction(rng.randint(-4, 4), rng.choice((1, 2))) for _ in range(root.rank)])
    points = []
    for x in samples:
        want = gauss_coords(basis, x)
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
