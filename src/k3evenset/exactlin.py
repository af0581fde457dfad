"""Exact integer and rational linear algebra.

Everything here runs on Python's arbitrary-precision integers and on
``fractions.Fraction``; no floating point is used anywhere.  The module
provides the arithmetic substrate for the lattice machinery: fraction-free
determinants, Smith normal form with unimodular transforms, exact signatures
of symmetric forms by congruence reduction, and integral linear solving.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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
    def zero(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix([[0] * cols for _ in range(rows)])

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

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.entries)

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


def invariant_factors(m: IntMatrix) -> tuple[int, ...]:
    """Nontrivial invariant factors (the SNF diagonal without 1s and 0s kept)."""
    return smith_normal_form(m).diag


def smith_diagonal(m: IntMatrix) -> tuple[int, ...]:
    """Invariant factors only, without transform bookkeeping."""
    rows, cols = m.rows, m.cols
    a = [list(row) for row in m.entries]
    n = min(rows, cols)
    out = []
    for k in range(n):
        while True:
            pos = _snf_find_pivot(a, k, rows, cols)
            if pos is None:
                break
            pi, pj = pos
            a[k], a[pi] = a[pi], a[k]
            if pj != k:
                for r in range(rows):
                    a[r][k], a[r][pj] = a[r][pj], a[r][k]
            dirty = False
            p = a[k][k]
            for i in range(k + 1, rows):
                if a[i][k] != 0:
                    q = a[i][k] // p
                    a[i] = [x - q * y for x, y in zip(a[i], a[k])]
                    if a[i][k] != 0:
                        dirty = True
            for j in range(k + 1, cols):
                if a[k][j] != 0:
                    q = a[k][j] // p
                    for r in range(rows):
                        a[r][j] -= q * a[r][k]
                    if a[k][j] != 0:
                        dirty = True
            if dirty:
                continue
            bad = None
            for i in range(k + 1, rows):
                for j in range(k + 1, cols):
                    if a[i][j] % p != 0:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            a[k] = [x + y for x, y in zip(a[k], a[bad])]
        out.append(abs(a[k][k]))
    return tuple(out)


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


def signature(g: IntMatrix) -> Signature:
    """Signature of a symmetric integer matrix by rational congruence reduction.

    Correctness rests on Sylvester's law of inertia: symmetric pivoting steps
    are congruence transformations, so the diagonal sign counts agree with the
    eigenvalue sign counts.  A zero diagonal block with a nonzero off-diagonal
    entry is handled with the standard hyperbolic step (add one row/column
    into the other), which exposes a nonzero diagonal entry.
    """
    if not m_is_symmetric(g):
        raise ValueError("signature requires a symmetric matrix")
    n = g.rows
    a = [[Fraction(x) for x in row] for row in g.entries]
    pos = neg = zero = 0
    for k in range(n):
        if a[k][k] == 0:
            # look for a later index with nonzero diagonal to swap in
            swap = next((i for i in range(k + 1, n) if a[i][i] != 0), None)
            if swap is not None:
                _sym_swap(a, k, swap)
            else:
                off = next((j for j in range(k + 1, n) if a[k][j] != 0), None)
                if off is None:
                    zero += 1
                    continue
                _sym_add(a, k, off)  # hyperbolic step: row/col k += row/col off
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


def m_is_symmetric(g: IntMatrix) -> bool:
    return g.is_symmetric()


def _sym_swap(a, i, j):
    a[i], a[j] = a[j], a[i]
    for row in a:
        row[i], row[j] = row[j], row[i]


def _sym_add(a, i, j):
    a[i] = [x + y for x, y in zip(a[i], a[j])]
    for row in a:
        row[i] = row[i] + row[j]


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


# --- rational (Fraction) helpers used by the lattice layer ---------------

QMatrix = tuple[tuple[Fraction, ...], ...]


def qmat(rows: Iterable[Iterable]) -> QMatrix:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def qmat_solve(a: QMatrix, b: Sequence[Fraction]) -> Optional[tuple[Fraction, ...]]:
    """One rational solution of ``A x = b`` (column form), or None.

    Plain Gauss elimination with partial pivoting over Fraction; free
    variables are set to zero.
    """
    rows = [list(row) + [Fraction(bb)] for row, bb in zip(a, b)]
    nrows, ncols = len(rows), len(a[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        piv = rows[r][c]
        rows[r] = [x / piv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    for i in range(r, nrows):
        if rows[i][ncols] != 0:
            return None
    x = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        x[c] = rows[i][ncols]
    return tuple(x)


def qmat_inverse(a: QMatrix) -> QMatrix:
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("inverse requires a square matrix")
    aug = [list(row) + [Fraction(1 if i == j else 0) for j in range(n)] for i, row in enumerate(a)]
    for c in range(n):
        pr = next((i for i in range(c, n) if aug[i][c] != 0), None)
        if pr is None:
            raise ValueError("matrix is singular")
        aug[c], aug[pr] = aug[pr], aug[c]
        piv = aug[c][c]
        aug[c] = [x / piv for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return tuple(tuple(row[n:]) for row in aug)


def qmat_nullspace(a: QMatrix) -> list[tuple[Fraction, ...]]:
    """Basis of the right kernel of ``a`` over the rationals."""
    nrows, ncols = len(a), len(a[0])
    rows = [list(row) for row in a]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        piv = rows[r][c]
        rows[r] = [x / piv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, c in enumerate(pivots):
            v[c] = -rows[i][f]
        basis.append(tuple(v))
    return basis
