import copy
import hashlib
import pickle
import random
from itertools import combinations

import pytest

from k3evenset.exactlin import (
    IntMatrix,
    Signature,
    det,
    row_hnf,
    signature,
    smith_normal_form,
    solve_integral,
)
from k3evenset.families import make
from test_oracles import unimodular_inverse


def gcd_minor_invariant_factors(m: IntMatrix) -> tuple:
    """Independent SNF oracle: d_k = gcd of all k x k minors, i_k = d_k/d_{k-1}."""
    from math import gcd

    out = []
    prev = 1
    n = min(m.rows, m.cols)
    for k in range(1, n + 1):
        g = 0
        for rows in combinations(range(m.rows), k):
            for cols in combinations(range(m.cols), k):
                sub = IntMatrix([[m[i, j] for j in cols] for i in rows])
                g = gcd(g, det(sub))
        if g == 0:
            out.append(0)
            continue
        out.append(g // prev)
        prev = g
    return tuple(out)


def test_det_hyperbolic_plane():
    assert det(make("U").gram) == -1


def test_det_nikulin_is_64():
    assert det(make("N").gram) == 64


def test_det_e8_minus_two():
    assert det(make("E8(-2)").gram) == 256


def test_det_rejects_non_square():
    with pytest.raises(ValueError):
        det(IntMatrix([[1, 2, 3], [4, 5, 6]]))


def test_snf_diag_examples():
    assert smith_normal_form(IntMatrix([[2, 0], [0, 2]])).diag == (2, 2)
    assert smith_normal_form(IntMatrix([[0, 1], [1, 0]])).diag == (1, 1)
    assert smith_normal_form(make("N").gram).diag == (1, 1, 2, 2, 2, 2, 2, 2)


def test_snf_nikulin_matches_gcd_minor_oracle():
    g = make("N").gram
    assert smith_normal_form(g).diag == gcd_minor_invariant_factors(g)


def test_snf_transforms_on_random_matrices():
    rng = random.Random(12345)
    for _ in range(250):
        n = rng.randint(1, 9)
        m = IntMatrix([[rng.randint(-20, 20) for _ in range(n)] for _ in range(n)])
        snf = smith_normal_form(m)
        assert snf.left.mul(m).mul(snf.right) == IntMatrix.diagonal(snf.diag, n, n)
        assert abs(det(snf.left)) == 1
        assert abs(det(snf.right)) == 1
        prod = 1
        for x in snf.diag:
            prod *= x
        assert abs(det(m)) == prod
        for i in range(len(snf.diag) - 1):
            if snf.diag[i]:
                assert snf.diag[i + 1] % snf.diag[i] == 0


def test_snf_rectangular():
    m = IntMatrix([[2, 4, 4], [-6, 6, 12]])
    snf = smith_normal_form(m)
    assert snf.left.mul(m).mul(snf.right) == IntMatrix.diagonal(snf.diag, 2, 3)
    assert snf.diag == (2, 6)


@pytest.mark.parametrize(
    "roundtrip", [lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy]
)
def test_intmatrix_and_snf_result_pickle_and_copy(roundtrip):
    m = IntMatrix([[2, 4, 4], [-6, 6, 12]])
    snf = smith_normal_form(m)
    for original in (m, snf):
        assert roundtrip(original) == original
    got = roundtrip(m)
    assert (got.rows, got.cols) == (2, 3)
    with pytest.raises(AttributeError, match="immutable"):
        got.entries = ((0,),)
    with pytest.raises(AttributeError, match="immutable"):
        roundtrip(snf).left.rows = 5


def test_signature_examples():
    assert signature(make("U").gram) == Signature(1, 1, 0)
    assert signature(make("N").gram) == Signature(0, 8, 0)
    assert signature(make("L:2d=8").gram) == Signature(1, 8, 0)
    assert signature(make("K3").gram) == Signature(3, 19, 0)


def test_signature_rejects_asymmetric():
    with pytest.raises(ValueError):
        signature(IntMatrix([[0, 1], [2, 0]]))


def test_signature_degenerate_counts_zeros():
    assert signature(IntMatrix([[0, 0], [0, 2]])) == Signature(1, 0, 1)


def test_signature_congruence_invariance():
    rng = random.Random(99)
    for _ in range(60):
        n = rng.randint(2, 6)
        a = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        g = IntMatrix([[a[i][j] + a[j][i] for j in range(n)] for i in range(n)])
        u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for _ in range(2 * n):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                c = rng.randint(-2, 2)
                for k in range(n):
                    u[i][k] += c * u[j][k]
        um = IntMatrix(u)
        assert signature(um.transpose().mul(g).mul(um)) == signature(g)


def test_solve_integral_identity():
    assert solve_integral(IntMatrix.identity(2), (3, 5)) == ((3, 5), None)


def test_solve_integral_parity_obstruction():
    x, (u, t) = solve_integral(IntMatrix([[2, 0], [0, 2]]), (1, 0))
    assert x is None and t == 2
    assert u[0] % 2 == 1  # u A = 2 u is even, u b = u_0 is odd


def test_solve_integral_brute_force_agreement():
    # a returned solution must solve the system exactly; a certificate (u, t)
    # must verify, and brute force over a box must find no integral point
    from itertools import product

    rng = random.Random(7)
    for _ in range(150):
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        a = IntMatrix([[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)])
        b = [rng.randint(-5, 5) for _ in range(rows)]
        got, cert = solve_integral(a, b)
        if got is not None:
            assert cert is None
            assert [
                sum(r * x for r, x in zip(row, got)) for row in a.entries
            ] == list(b)
        else:
            u, t = cert
            assert t >= 2
            assert all(sum(ui * row[j] for ui, row in zip(u, a.entries)) % t == 0 for j in range(cols))
            assert sum(ui * bi for ui, bi in zip(u, b)) % t != 0
            for x in product(range(-25, 26), repeat=cols):
                assert any(
                    sum(r * xi for r, xi in zip(row, x)) != bb
                    for row, bb in zip(a.entries, b)
                )


def test_solve_integral_dimension_mismatch():
    with pytest.raises(ValueError):
        solve_integral(IntMatrix.identity(2), (1, 2, 3))


def test_unimodular_inverse():
    m = IntMatrix([[1, 2], [1, 3]])
    inv = unimodular_inverse(m)
    assert m.mul(inv) == IntMatrix.identity(2)
    with pytest.raises(ValueError):
        unimodular_inverse(IntMatrix([[2, 0], [0, 1]]))


def test_row_hnf_is_canonical():
    a = [[2, 1, 0], [0, 3, 1]]
    b = [[2, 4, 1], [2, 1, 0]]  # same row lattice, different generators
    assert row_hnf(a) == row_hnf(b)
    assert row_hnf([[0, 0], [0, 0]]) == ()


def snf_pin_corpus():
    """5,000 seeded matrices: ranks 1-10, square and rectangular, singular,
    half of them built as products of two random factors of a given rank and
    every fifth one scaled by 2."""
    rng = random.Random(20061019)
    for i in range(5000):
        rows = rng.randint(1, 10)
        cols = rows if i % 3 == 0 else rng.randint(1, 10)
        rank = rng.randint(1, min(rows, cols))
        if i % 2:
            f = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(rows)]
            g = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rank)]
            m = [[sum(x * y for x, y in zip(r, c)) for c in zip(*g)] for r in f]
        else:
            m = [[rng.randint(-20, 20) for _ in range(cols)] for _ in range(rows)]
        if i % 5 == 4:
            m = [[2 * x for x in r] for r in m]
        yield m


def test_snf_transforms_are_pinned():
    # disc reads its generator lifts from the right transform, so both
    # transforms are output: a change of pivot rule or of the order of
    # operations must show here
    digest = hashlib.sha256()
    for m in snf_pin_corpus():
        snf = smith_normal_form(IntMatrix(m))
        digest.update(repr((snf.diag, snf.left.entries, snf.right.entries)).encode())
    assert digest.hexdigest() == (
        "2ab33c911e06964da452816ef6dd007a530909c771dfb0e7143dd20f555b1f5b"
    )


def test_row_hnf_transform():
    rng = random.Random(2006)
    for _ in range(300):
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        rank = rng.randint(1, min(rows, cols))
        f = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(rows)]
        g = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rank)]
        m = [[sum(x * y for x, y in zip(r, c)) for c in zip(*g)] for r in f]
        h, u = row_hnf(m, transform=True)
        assert h == row_hnf(m)
        assert abs(det(IntMatrix(u))) == 1
        zeros = ((0,) * cols,) * (rows - len(h))
        assert IntMatrix(u).mul(IntMatrix(m)).entries == h + zeros
