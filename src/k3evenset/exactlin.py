"""Exact integer linear algebra.

Everything here runs on Python's arbitrary-precision integers; neither
floating point nor ``fractions.Fraction`` is used anywhere.  The module
provides the arithmetic substrate for the lattice machinery: fraction-free
determinants, one Smith normal form with unimodular transforms, row Hermite
normal form, integral linear solving and one fraction-free symmetric
elimination, which gives exact signatures of symmetric forms and the
Fincke-Pohst factorisation of ``lattice.short_vectors``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence


class IntMatrix:
    """Immutable integer matrix stored row-major as nested tuples."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Iterable[Iterable[int]]):
        rows = tuple(tuple(map(int, row)) for row in entries)
        if not rows:
            raise ValueError("matrix must have at least one row")
        ncols = len(rows[0])
        if ncols == 0:
            raise ValueError("matrix must have at least one column")
        if any(len(row) != ncols for row in rows):
            raise ValueError("ragged rows")
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", ncols)
        object.__setattr__(self, "entries", rows)

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        return (
            isinstance(other, IntMatrix)
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"IntMatrix({list(map(list, self.entries))})"

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def diagonal(diag: Sequence[int], rows: int | None = None, cols: int | None = None) -> "IntMatrix":
        n = len(diag)
        rows = n if rows is None else rows
        cols = n if cols is None else cols
        return IntMatrix(
            [[diag[i] if i == j and i < n else 0 for j in range(cols)] for i in range(rows)]
        )

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i]

    def transpose(self) -> "IntMatrix":
        return IntMatrix(zip(*self.entries))

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        bt = other.transpose().entries
        return IntMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in bt] for row in self.entries]
        )

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_symmetric(self) -> bool:
        if not self.is_square():
            return False
        e = self.entries
        return all(e[i][j] == e[j][i] for i in range(self.rows) for j in range(i))


@dataclass(frozen=True)
class SNFResult:
    """Smith normal form ``left * M * right = diag`` with unimodular transforms."""

    diag: tuple[int, ...]
    left: IntMatrix
    right: IntMatrix


@dataclass(frozen=True)
class Signature:
    positive: int
    negative: int
    zero: int

    @property
    def rank(self) -> int:
        return self.positive + self.negative + self.zero


def det(m: IntMatrix) -> int:
    """Exact determinant by the fraction-free Bareiss algorithm."""
    if not m.is_square():
        raise ValueError("determinant requires a square matrix")
    n = m.rows
    a = [list(row) for row in m.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _snf_find_pivot(a, k, rows, cols):
    """Position of the smallest nonzero |entry| in the trailing block."""
    best = None
    best_abs = None
    for i in range(k, rows):
        for j in range(k, cols):
            v = a[i][j]
            if v != 0 and (best_abs is None or abs(v) < best_abs):
                best = (i, j)
                best_abs = abs(v)
    return best


def smith_normal_form(m: IntMatrix) -> SNFResult:
    """Smith normal form with transforms.

    Returns ``SNFResult(diag, left, right)`` with ``left * M * right`` equal to
    the diagonal matrix of ``diag``, ``|det left| = |det right| = 1`` and each
    invariant factor dividing the next.  Pivoting always picks the smallest
    nonzero entry in absolute value, which keeps coefficient growth tame at
    the ranks used here (at most 22).
    """
    rows, cols = m.rows, m.cols
    a = [list(row) for row in m.entries]
    left = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    right = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def row_op(i, j, q):  # row_i -= q*row_j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        left[i] = [x - q * y for x, y in zip(left[i], left[j])]

    def col_op(i, j, q):  # col_i -= q*col_j
        for r in range(rows):
            a[r][i] -= q * a[r][j]
        for r in range(cols):
            right[r][i] -= q * right[r][j]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        left[i], left[j] = left[j], left[i]

    def swap_cols(i, j):
        for r in range(rows):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        for r in range(cols):
            right[r][i], right[r][j] = right[r][j], right[r][i]

    n = min(rows, cols)
    for k in range(n):
        while True:
            pos = _snf_find_pivot(a, k, rows, cols)
            if pos is None:
                break
            pi, pj = pos
            if pi != k:
                swap_rows(k, pi)
            if pj != k:
                swap_cols(k, pj)
            dirty = False
            for i in range(k + 1, rows):
                if a[i][k] != 0:
                    row_op(i, k, a[i][k] // a[k][k])
                    if a[i][k] != 0:
                        dirty = True
            for j in range(k + 1, cols):
                if a[k][j] != 0:
                    col_op(j, k, a[k][j] // a[k][k])
                    if a[k][j] != 0:
                        dirty = True
            if dirty:
                continue
            # Pivot divides its cleared row and column; enforce divisibility
            # against the rest of the block by folding a bad row in.
            bad = None
            for i in range(k + 1, rows):
                for j in range(k + 1, cols):
                    if a[i][j] % a[k][k] != 0:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            row_op(k, bad, -1)
        if a[k][k] < 0:
            a[k] = [-x for x in a[k]]
            left[k] = [-x for x in left[k]]

    diag = tuple(a[i][i] for i in range(n))
    return SNFResult(diag, IntMatrix(left), IntMatrix(right))


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


def row_hnf(rows: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Hermite normal form of the row span (canonical basis of the row lattice).

    Row-style HNF: pivots positive, entries above each pivot reduced into
    [0, pivot).  Two integer row sets span the same lattice iff their HNFs
    are equal.
    """
    mat = [list(r) for r in rows]
    if not mat:
        return ()
    ncols = len(mat[0])
    top = 0
    for col in range(ncols):
        while True:
            pivots = [i for i in range(top, len(mat)) if mat[i][col] != 0]
            if not pivots:
                break
            pick = min(pivots, key=lambda i: abs(mat[i][col]))
            mat[top], mat[pick] = mat[pick], mat[top]
            done = True
            for i in range(top + 1, len(mat)):
                if mat[i][col] != 0:
                    q = mat[i][col] // mat[top][col]
                    mat[i] = [x - q * y for x, y in zip(mat[i], mat[top])]
                    if mat[i][col] != 0:
                        done = False
            if done:
                break
        if top < len(mat) and mat[top][col] != 0:
            if mat[top][col] < 0:
                mat[top] = [-x for x in mat[top]]
            for i in range(top):
                q = mat[i][col] // mat[top][col]
                if q:
                    mat[i] = [x - q * y for x, y in zip(mat[i], mat[top])]
            top += 1
    return tuple(tuple(r) for r in mat[:top])


def _symmetric_bareiss(
    g: Sequence[Sequence[int]],
) -> tuple[list[tuple[int, ...]], list[int], int]:
    """Fraction-free symmetric elimination (Bareiss LDL^T) of an integer matrix.

    Returns (rows, pivots, zero).  Each step divides exactly by the previous
    pivot, so pivots[k] = D_{k+1} is a leading minor of a matrix congruent to
    g, and rows[k] is its integer pivot row k from the diagonal on.  In the
    congruent basis the form is sum_k (R_k . x)^2 / (D_k D_{k+1}), D_0 = 1,
    with R_k = rows[k] read from column k; the last `zero` basis vectors,
    whose rows became null, get no square of their own.  A zero pivot is
    replaced by a later nonzero diagonal entry (symmetric swap) or by the
    hyperbolic step row/column k += row/column j, whose diagonal entry is
    2 g_kj; with every leading minor of g nonzero nothing is pivoted.
    """
    a = [list(row) for row in g]
    m = len(a)
    pivots: list[int] = []
    prev = 1
    k = 0
    while k < m:
        if a[k][k] == 0:
            i = next((i for i in range(k + 1, m) if a[i][i]), None)
            j = next((j for j in range(k + 1, m) if a[k][j]), None)
            if i is None and j is not None:
                # hyperbolic step: row/column k += row/column j
                a[k] = [x + y for x, y in zip(a[k], a[j])]
                for row in a:
                    row[k] += row[j]
            else:
                # symmetric swap with a nonzero diagonal entry, or of the
                # null row k with the last active one
                if i is None:
                    m -= 1
                    i = m
                a[k], a[i] = a[i], a[k]
                for row in a:
                    row[k], row[i] = row[i], row[k]
                if a[k][k] == 0:
                    continue
        p = a[k][k]
        for i in range(k + 1, m):
            ai, aik = a[i], a[i][k]
            for j in range(k + 1, m):
                ai[j] = (p * ai[j] - aik * a[k][j]) // prev
        pivots.append(p)
        prev = p
        k += 1
    return [tuple(a[k][k:]) for k in range(m)], pivots, len(a) - m


def signature(g: IntMatrix) -> Signature:
    """Signature of a symmetric integer matrix by integer symmetric elimination.

    Correctness rests on Sylvester's law of inertia: the elimination is a
    congruence, and its k-th diagonal entry D_k / D_{k-1} is positive exactly
    when consecutive pivots (1, D_1, D_2, ...) agree in sign.
    """
    if not g.is_symmetric():
        raise ValueError("signature requires a symmetric matrix")
    _, pivots, zero = _symmetric_bareiss(g.entries)
    pos = sum(1 for a, b in zip([1] + pivots, pivots) if (a > 0) == (b > 0))
    return Signature(pos, len(pivots) - pos, zero)


def solve_integral(a: IntMatrix, b: Sequence[int]) -> Optional[tuple[int, ...]]:
    """Integer solution of ``A x = b`` or None when no integral one exists.

    The decision goes through the Smith normal form: with ``L A R = D`` the
    system becomes ``D y = L b`` with ``x = R y``, and ``D y = c`` is solvable
    over the integers iff each diagonal entry divides its target and the
    targets beyond the rank vanish.
    """
    b = tuple(int(x) for x in b)
    if len(b) != a.rows:
        raise ValueError("dimension mismatch between matrix and vector")
    snf = smith_normal_form(a)
    c = [sum(l * x for l, x in zip(row, b)) for row in snf.left.entries]
    y = [0] * a.cols
    for i in range(a.rows):
        d = snf.diag[i] if i < len(snf.diag) else 0
        if d == 0:
            if c[i] != 0:
                return None
        else:
            if c[i] % d != 0:
                return None
            if i < a.cols:
                y[i] = c[i] // d
    x = [sum(r * v for r, v in zip(row, y)) for row in snf.right.entries]
    return tuple(x)
