"""Smith and Hermite normal forms against sympy's independent implementation.

sympy is a test-only dependency; the module is skipped without it.
"""

import random

import pytest

sympy = pytest.importorskip("sympy")
from sympy import Matrix, ZZ  # noqa: E402
from sympy.matrices.normalforms import (  # noqa: E402
    hermite_normal_form,
    invariant_factors,
    smith_normal_decomp,
)

from k3evenset.exactlin import IntMatrix, row_hnf, smith_normal_form  # noqa: E402

# (rows, cols) of the matrices the lattice layer factors: scaled bases of
# rank-r lattices in a dim-dimensional frame, and their transposes.
SOLVER_SHAPES = [(9, 9), (9, 8), (9, 1), (9, 2), (22, 8), (22, 9), (22, 22), (8, 8)]


def random_matrix(rng, rows, cols, rank=None, bound=6):
    """Random integer matrix, of the given rank when rank is set."""
    if rank == 0:
        return [[0] * cols for _ in range(rows)]
    if rank is None:
        return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
    left = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(rows)]
    right = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rank)]
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left]


def shapes(rng, count):
    out = list(SOLVER_SHAPES)
    while len(out) < count:
        out.append((rng.randint(1, 22), rng.randint(1, 22)))
    return out


def check_snf(entries):
    m = IntMatrix(entries)
    snf = smith_normal_form(m)
    rows, cols = m.rows, m.cols
    assert snf.left.mul(m).mul(snf.right) == IntMatrix.diagonal(snf.diag, rows, cols)
    assert Matrix(snf.left.entries).det() in (1, -1)
    assert Matrix(snf.right.entries).det() in (1, -1)
    assert snf.diag == tuple(int(x) for x in invariant_factors(Matrix(entries), domain=ZZ))
    return snf


def test_smith_normal_form_matches_sympy_on_random_matrices():
    rng = random.Random(4275)
    for rows, cols in shapes(rng, 40):
        check_snf(random_matrix(rng, rows, cols))


def test_smith_normal_form_matches_sympy_on_low_rank_matrices():
    rng = random.Random(4045)
    for rows, cols in shapes(rng, 30):
        rank = rng.randint(0, min(rows, cols))
        entries = random_matrix(rng, rows, cols, rank)
        snf = check_snf(entries)
        assert sum(1 for d in snf.diag if d) == Matrix(entries).rank()


def test_smith_normal_form_diagonal_matches_sympy_decomposition():
    rng = random.Random(2006)
    for rows, cols in shapes(rng, 16):
        entries = random_matrix(rng, rows, cols)
        s, _, _ = smith_normal_decomp(Matrix(entries), domain=ZZ)
        want = tuple(abs(int(s[i, i])) for i in range(min(rows, cols)))
        assert smith_normal_form(IntMatrix(entries)).diag == want


def test_row_hnf_spans_the_same_lattice_as_sympy_hnf():
    rng = random.Random(185)
    for rows, cols in shapes(rng, 40):
        rank = rng.randint(1, min(rows, cols)) if rng.random() < 0.5 else None
        entries = random_matrix(rng, rows, cols, rank)
        if not any(map(any, entries)):
            continue
        hnf = row_hnf(entries)
        # sympy's form is the canonical basis of the column lattice, so two
        # row sets span the same lattice iff the forms of their transposes agree
        assert hermite_normal_form(Matrix(hnf).T) == hermite_normal_form(Matrix(entries).T)
        pivots = [next(j for j, x in enumerate(row) if x) for row in hnf]
        assert pivots == sorted(set(pivots))
        for i, (row, j) in enumerate(zip(hnf, pivots)):
            assert row[j] > 0
            assert all(0 <= hnf[k][j] < row[j] for k in range(i))
