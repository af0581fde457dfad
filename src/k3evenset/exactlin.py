"""Exact integer linear algebra.

Everything here runs on Python's arbitrary-precision integers; neither
floating point nor ``fractions.Fraction`` is used anywhere.  The module
provides the arithmetic substrate for the lattice machinery: fraction-free
determinants, one Smith normal form with unimodular transforms (used where
invariant factors or transforms are the answer: discriminant groups and
integral solving), row Hermite normal form with an optional transform (from
which the lattice layer builds its coordinate solvers and primitivity
tests), and one fraction-free symmetric elimination, which gives exact
signatures of symmetric forms and the Fincke-Pohst factorisation of
``lattice.short_vectors``.
"""

from __future__ import annotations

from operator import mul
from typing import Iterable, NamedTuple, Optional, Sequence


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

    @classmethod
    def _trusted(cls, entries: Iterable[Iterable[int]]) -> "IntMatrix":
        """Matrix from nonempty, rectangular rows of ints, taken unchecked."""
        rows = tuple(map(tuple, entries))
        m = object.__new__(cls)
        object.__setattr__(m, "rows", len(rows))
        object.__setattr__(m, "cols", len(rows[0]))
        object.__setattr__(m, "entries", rows)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through __init__, not the blocked __setattr__
        return (IntMatrix, (self.entries,))

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
        return IntMatrix._trusted(zip(*self.entries))

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        cols = list(zip(*other.entries))
        return IntMatrix._trusted(
            [sum(map(mul, row, col)) for col in cols] for row in self.entries
        )

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_symmetric(self) -> bool:
        if not self.is_square():
            return False
        e = self.entries
        return all(e[i][j] == e[j][i] for i in range(self.rows) for j in range(i))


class SNFResult(NamedTuple):
    """Smith normal form ``left * M * right = diag`` with unimodular transforms."""

    diag: tuple[int, ...]
    left: IntMatrix
    right: IntMatrix


class Signature(NamedTuple):
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
        ak = a[k]
        p = ak[k]
        for i in range(k + 1, n):
            ai = a[i]
            aik = ai[k]
            for j in range(k + 1, n):
                ai[j] = (ai[j] * p - aik * ak[j]) // prev
        prev = p
    return sign * a[n - 1][n - 1]


def _snf_find_pivot(a, k, rows, cols):
    """Position of the first smallest nonzero |entry| in the trailing block.

    The scan goes row by row and stops at an entry of absolute value 1.
    """
    best = None
    best_abs = 0
    for i in range(k, rows):
        row = a[i]
        for j in range(k, cols):
            v = row[j]
            if v:
                v = abs(v)
                if best is None or v < best_abs:
                    best = (i, j)
                    best_abs = v
                    if v == 1:
                        return best
    return best


def smith_normal_form(m: IntMatrix) -> SNFResult:
    """Smith normal form with transforms.

    Returns ``SNFResult(diag, left, right)`` with ``left * M * right`` equal to
    the diagonal matrix of ``diag``, ``|det left| = |det right| = 1`` and each
    invariant factor dividing the next.  Pivoting always picks the smallest
    nonzero entry in absolute value, which keeps coefficient growth tame at
    the ranks used here (at most 22).

    Row i of ``left`` rides beside row i of M, so one pass does a row
    operation on both, and ``right`` is kept transposed, so a column
    operation is one row pass.  At step k the rows above k are zero from
    column k on, so column operations touch rows k and below only, and all
    their quotients come from row k, which they leave unchanged outside the
    column they clear.
    """
    rows, cols = m.rows, m.cols
    a = [list(row) + [1 if i == j else 0 for j in range(rows)] for i, row in enumerate(m.entries)]
    right_t = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    n = min(rows, cols)
    width = cols + rows
    for k in range(n):
        while True:
            pos = _snf_find_pivot(a, k, rows, cols)
            if pos is None:
                break
            pi, pj = pos
            if pi != k:
                a[k], a[pi] = a[pi], a[k]
            if pj != k:
                for r in range(k, rows):
                    row = a[r]
                    row[k], row[pj] = row[pj], row[k]
                right_t[k], right_t[pj] = right_t[pj], right_t[k]
            ak = a[k]
            p = ak[k]
            dirty = False
            for i in range(k + 1, rows):  # row_i -= q * row_k
                q = a[i][k] // p
                if q:
                    ai = a[i]
                    for j in range(k, width):
                        ai[j] -= q * ak[j]
                if a[i][k]:
                    dirty = True
            # col_j -= q_j * col_k for every j > k with a nonzero entry in row k
            quots = [(j, ak[j] // p) for j in range(k + 1, cols) if ak[j]]
            if quots:
                for r in range(k, rows):
                    row = a[r]
                    ark = row[k]
                    if ark:
                        for j, q in quots:
                            row[j] -= q * ark
                rk = right_t[k]
                for j, q in quots:
                    rj = right_t[j]
                    for c in range(cols):
                        rj[c] -= q * rk[c]
                if any(ak[j] for j, _ in quots):
                    dirty = True
            if dirty:
                continue
            if p == 1 or p == -1:
                break  # a unit divides the whole block
            # Pivot divides its cleared row and column; enforce divisibility
            # against the rest of the block by folding a bad row in.
            bad = next(
                (i for i in range(k + 1, rows) if any(a[i][j] % p for j in range(k + 1, cols))),
                None,
            )
            if bad is None:
                break
            a[k] = [x + y for x, y in zip(a[k], a[bad])]
        if a[k][k] < 0:
            a[k] = [-x for x in a[k]]

    diag = tuple(a[i][i] for i in range(n))
    left = IntMatrix._trusted(row[cols:] for row in a)
    return SNFResult(diag, left, IntMatrix._trusted(zip(*right_t)))


def row_hnf(rows: Sequence[Sequence[int]], transform: bool = False):
    """Hermite normal form of the row span (canonical basis of the row lattice).

    Row-style HNF: pivots positive, entries above each pivot reduced into
    [0, pivot).  Two integer row sets span the same lattice iff their HNFs
    are equal.  With ``transform`` the result is ``(H, U)``: U is unimodular
    with one row per input row, and ``U * rows`` is H followed by zero rows.
    The transform rides along as identity columns appended to the rows.
    """
    mat = [list(r) for r in rows]
    if not mat:
        return ((), ()) if transform else ()
    nrows, ncols = len(mat), len(mat[0])
    if transform:
        mat = [r + [1 if i == j else 0 for j in range(nrows)] for i, r in enumerate(mat)]
    width = len(mat[0])
    top = 0
    for col in range(ncols):
        while True:
            pick = None
            for i in range(top, nrows):
                v = abs(mat[i][col])
                if v and (pick is None or v < least):
                    pick, least = i, v
            if pick is None:
                break
            mat[top], mat[pick] = mat[pick], mat[top]
            pivot_row = mat[top]
            p = pivot_row[col]
            done = True
            for i in range(top + 1, nrows):
                row = mat[i]
                if row[col]:
                    q = row[col] // p
                    for j in range(col, width):
                        row[j] -= q * pivot_row[j]
                    if row[col]:
                        done = False
            if done:
                break
        if top < nrows and mat[top][col]:
            pivot_row = mat[top]
            if pivot_row[col] < 0:
                pivot_row = mat[top] = [-x for x in pivot_row]
            p = pivot_row[col]
            for i in range(top):
                row = mat[i]
                q = row[col] // p
                if q:
                    for j in range(col, width):
                        row[j] -= q * pivot_row[j]
            top += 1
    if not transform:
        return tuple(tuple(r) for r in mat[:top])
    return tuple(tuple(r[:ncols]) for r in mat[:top]), tuple(tuple(r[ncols:]) for r in mat)


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


def solve_integral(
    a: IntMatrix, b: Sequence[int]
) -> tuple[Optional[tuple[int, ...]], Optional[tuple[tuple[int, ...], int]]]:
    """Integer solution of ``A x = b``, or a certificate that none exists.

    Returns ``(x, None)`` with ``A x = b``, or ``(None, (u, t))``: an integer
    row u and t >= 2 dividing every entry of ``u A`` but not ``u b``, which
    proves that no integral x exists, as ``u b = (u A) x`` would be divisible
    by t (the integer Farkas lemma, Schrijver, *Theory of Linear and Integer
    Programming*, Cor. 4.1a, with y = u / t).  With ``L A R = D`` and
    ``c = L b``, u is row i of L and t = d_i when d_i does not divide c_i, as
    ``(L A)_i = d_i (R^-1)_i``; past the rank ``(L A)_i = 0``, so c_i != 0
    gives t = 2 |c_i|.
    """
    b = tuple(int(x) for x in b)
    if len(b) != a.rows:
        raise ValueError("dimension mismatch between matrix and vector")
    snf = smith_normal_form(a)
    left = snf.left.entries
    c = [sum(l * x for l, x in zip(row, b)) for row in left]
    y = [0] * a.cols
    for i in range(a.rows):
        d = snf.diag[i] if i < len(snf.diag) else 0
        if d == 0:
            if c[i] != 0:
                return None, (left[i], 2 * abs(c[i]))
        elif c[i] % d != 0:
            return None, (left[i], d)
        elif i < a.cols:
            y[i] = c[i] // d
    x = [sum(r * v for r, v in zip(row, y)) for row in snf.right.entries]
    return tuple(x), None
