"""Even integral lattices with named bases and exact integer frames.

A lattice either stands on its own (it is its own *root frame*) or carries a
frame: a parent lattice together with integer rows over one common
denominator s, so that row i divided by s expresses basis vector i in the
parent's coordinates.  All derived lattices of a construction (sublattices,
index-two overlattices, family members) live in one root frame, so
statements such as "(L - N1 - N2)/2 lies in L'_4 but not in L_4" are decided
by exact coordinate arithmetic and never by convention.  A vector is integer
numerators over one denominator, and every coordinate and membership answer
comes from `coords_in`, which reads one cached integer solver per lattice:
a framed lattice composes its parent's solver with the Hermite form of its
own frame, so no Smith form is taken; `is_primitive` reads a Hermite form
too.  `short_vectors` enumerates on the integer symmetric elimination of
`exactlin`.  A pairing is one integer dot product of the second vector with
the row G x of the first, cached on it (`gram_row`); `inner_scaled` returns
it over its denominator.  Fraction appears only in `vector()` input, in the
value `inner` returns and in the display and comparison accessors `coords()`
and `root_coords()`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import chain
from math import gcd, isqrt, lcm, prod
from operator import index, mul
from typing import Iterable, Optional, Sequence

from .exactlin import (
    IntMatrix,
    _symmetric_bareiss,
    det,
    row_hnf,
)

IntRows = tuple[tuple[int, ...], ...]


class IntegerLattice:
    """Even integral lattice with a named basis and an optional frame."""

    def __init__(
        self,
        name: str,
        gram: IntMatrix,
        basis_names: Sequence[str],
        even: bool = True,
    ):
        if not gram.is_symmetric():
            raise ValueError(f"{name}: Gram matrix must be symmetric")
        if even and any(gram[i, i] % 2 != 0 for i in range(gram.rows)):
            raise ValueError(f"{name}: lattice flagged even but Gram diagonal is odd")
        if len(basis_names) != gram.rows:
            raise ValueError(f"{name}: basis names do not match rank")
        self.name = name
        self.rank = gram.rows
        self.gram = gram
        self.basis_names = tuple(basis_names)
        self.even = even
        # (parent, integer rows, s): basis vector i is rows[i] / s in the parent
        self.frame: Optional[tuple[IntegerLattice, IntRows, int]] = None
        self._bir_scaled: tuple[IntRows, int] | None = None
        self._solver: tuple[IntRows, int, IntRows] | None = None
        self._discriminant_group = None  # filled by disc.discriminant_group
        self._basis_vectors: list | None = None

    @staticmethod
    def framed(
        name: str,
        parent: "IntegerLattice",
        rows: Iterable[Iterable[int]],
        basis_names: Sequence[str],
        even: bool = True,
        s: int = 1,
    ) -> "IntegerLattice":
        """Build a lattice whose basis vector i is rows[i] / s in the parent.

        The rows hold integers; rows and s are reduced by their common gcd,
        so the stored frame keeps the least common denominator.  The Gram
        matrix is transported from the parent and must come out integral
        (and even unless flagged otherwise).
        """
        if s <= 0:
            raise ValueError(f"{name}: frame denominator must be positive")
        ints = [tuple(map(index, r)) for r in rows]
        if any(len(r) != parent.rank for r in ints):
            raise ValueError(f"{name}: frame matrix has wrong shape")
        g = gcd(s, *chain.from_iterable(ints))
        if g > 1:
            ints = [tuple(x // g for x in r) for r in ints]
            s //= g
        try:
            gram = _transport_gram(ints, s, parent.gram)
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from None
        lat = IntegerLattice(name, gram, basis_names, even=even)
        lat.frame = (parent, tuple(ints), s)
        return lat

    def __repr__(self):
        return f"IntegerLattice({self.name!r}, rank={self.rank})"

    def root(self) -> "IntegerLattice":
        lat = self
        while lat.frame is not None:
            lat = lat.frame[0]
        return lat

    def basis_in_root_scaled(self) -> tuple[IntRows, int]:
        """(s * basis in root-frame coordinates as integer rows, s).

        Composed through the frame chain in integer arithmetic, with a final
        gcd reduction to keep the scale minimal.
        """
        if self._bir_scaled is None:
            if self.frame is None:
                self._bir_scaled = (_identity(self.rank), 1)
            else:
                parent, rint, s1 = self.frame
                pint, s2 = parent.basis_in_root_scaled()
                cols = list(zip(*pint))
                prod = [[sum(map(mul, row, col)) for col in cols] for row in rint]
                s = s1 * s2
                g = s
                for row in prod:
                    for x in row:
                        g = gcd(g, x)
                if g > 1:
                    prod = [[x // g for x in row] for row in prod]
                    s //= g
                self._bir_scaled = (tuple(tuple(r) for r in prod), s)
        return self._bir_scaled

    def _coord_solver(self) -> tuple[IntRows, int, IntRows]:
        """(P, t, K): a root vector x has coordinates P x / t, and lies on
        this lattice's span iff K x = 0.

        A root lattice reads x itself.  A framed lattice composes its
        parent's solver (Pp, tp, Kp), which gives parent coordinates
        y = Pp x / tp, with its own frame (R, s): coordinates c solve
        c R = s y.  With U R = H in Hermite form, z = c U^-1 solves z H = s y
        by forward substitution along the pivot columns of H, exactly over
        t = tp * (product of the pivots); each other column of H adds one
        consistency row to K, and c = z U.
        """
        if self._solver is None:
            if self.frame is None:
                self._solver = (_identity(self.rank), 1, ())
                return self._solver
            parent, rows, s = self.frame
            pp, tp, kp = parent._coord_solver()
            h, u = row_hnf(rows, transform=True)
            if len(h) < self.rank:
                raise ValueError(f"{self.name}: frame rows are linearly dependent")
            t = tp * prod(next(filter(None, row)) for row in h)
            # s y_j = sy[j] x / t; column j of z H = s y is, in increasing j,
            # either the pivot of the next row of H or a consistency row
            sy = [[s * (t // tp) * x for x in row] for row in pp]
            z: list[list[int]] = []
            k = list(kp)
            for j in range(parent.rank):
                acc = sy[j]
                for hrow, zi in zip(h, z):
                    if hrow[j]:
                        acc = [a - hrow[j] * b for a, b in zip(acc, zi)]
                if len(z) < len(h) and h[len(z)][j]:
                    z.append([a // h[len(z)][j] for a in acc])
                elif any(acc):
                    g = gcd(*acc)
                    k.append(tuple(a // g for a in acc))
            # c = z U; a frame already in Hermite form has U = 1
            p = z if u == _identity(self.rank) else [
                [sum(map(mul, col, zcol)) for zcol in zip(*z)] for col in zip(*u)
            ]
            g = gcd(t, *chain.from_iterable(p))
            self._solver = (
                tuple(tuple(x // g for x in row) for row in p),
                t // g,
                tuple(k),
            )
        return self._solver

    def _solve_scaled(self, xi: Sequence[int]) -> Optional[tuple[list[int], int]]:
        """(t * coordinates of the integer root vector xi, t), or None off-span."""
        p, t, k = self._coord_solver()
        if any(sum(map(mul, row, xi)) for row in k):
            return None
        return [sum(map(mul, row, xi)) for row in p], t

    def vector(self, coords: Iterable) -> "FrameVector":
        """Vector with the given rational coordinates in this lattice's basis."""
        coords = list(coords)
        if all(isinstance(x, int) for x in coords):
            return FrameVector(self, coords, 1)
        fracs = [Fraction(x) for x in coords]
        den = lcm(*(f.denominator for f in fracs))
        return FrameVector(self, [f.numerator * (den // f.denominator) for f in fracs], den)

    def basis_vector(self, i: int) -> "FrameVector":
        return self.basis_vectors()[i]

    def basis_vectors(self) -> list["FrameVector"]:
        if self._basis_vectors is None:
            self._basis_vectors = [
                FrameVector(self, [1 if j == i else 0 for j in range(self.rank)], 1)
                for i in range(self.rank)
            ]
        return self._basis_vectors

    def determinant(self) -> int:
        return det(self.gram)


class FrameVector:
    """Exact rational coordinate vector expressed in a lattice's basis."""

    __slots__ = ("lattice", "numerators", "denominator", "_root_scaled_cache", "_gram_row_cache")

    def __init__(self, lattice: IntegerLattice, numerators: Sequence[int], denominator: int):
        if denominator <= 0:
            raise ValueError("denominator must be positive")
        if len(numerators) != lattice.rank:
            raise ValueError("coordinate length does not match lattice rank")
        g = 0
        for n in numerators:
            g = gcd(g, n)
        g = gcd(g, denominator)
        if g > 1:
            numerators = [n // g for n in numerators]
            denominator //= g
        self.lattice = lattice
        self.numerators = tuple(int(n) for n in numerators)
        self.denominator = int(denominator)
        self._root_scaled_cache = None
        self._gram_row_cache = None

    def coords(self) -> tuple[Fraction, ...]:
        d = self.denominator
        return tuple(Fraction(n, d) for n in self.numerators)

    def root_scaled(self) -> tuple[tuple[int, ...], int]:
        """(integer root coordinates times den, den); not reduced."""
        if self._root_scaled_cache is None:
            b, s = self.lattice.basis_in_root_scaled()
            dim = len(b[0])
            out = [0] * dim
            for n, row in zip(self.numerators, b):
                if n:
                    for j in range(dim):
                        out[j] += n * row[j]
            self._root_scaled_cache = (tuple(out), self.denominator * s)
        return self._root_scaled_cache

    def gram_row(self) -> tuple[int, ...]:
        """G x for the root Gram G and x = root_scaled()[0]; it pairs this
        vector with any vector of a compatible frame, whose root has the
        same Gram."""
        if self._gram_row_cache is None:
            xi = self.root_scaled()[0]
            self._gram_row_cache = tuple(sum(map(mul, row, xi)) for row in self.root().gram.entries)
        return self._gram_row_cache

    def root_coords(self) -> tuple[Fraction, ...]:
        ints, den = self.root_scaled()
        return tuple(Fraction(n, den) for n in ints)

    def root(self) -> IntegerLattice:
        return self.lattice.root()

    def __add__(self, other: "FrameVector") -> "FrameVector":
        return _combine(self, other, 1)

    def __sub__(self, other: "FrameVector") -> "FrameVector":
        return _combine(self, other, -1)

    def __mul__(self, scalar) -> "FrameVector":
        num, den = _ratio(scalar)
        return FrameVector(self.lattice, [n * num for n in self.numerators], self.denominator * den)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "FrameVector":
        num, den = _ratio(scalar)
        if num == 0:
            raise ZeroDivisionError("division of a vector by zero")
        if num < 0:
            num, den = -num, -den
        return FrameVector(self.lattice, [n * den for n in self.numerators], self.denominator * num)

    def __neg__(self) -> "FrameVector":
        return self * -1

    def __eq__(self, other):
        if not isinstance(other, FrameVector):
            return NotImplemented
        if not frames_compatible(self.lattice, other.lattice):
            return False
        return self.root_coords() == other.root_coords()

    def __hash__(self):
        return hash(self.root_coords())

    def __repr__(self):
        terms = []
        for name, c in zip(self.lattice.basis_names, self.coords()):
            if c == 0:
                continue
            if c == 1:
                terms.append(f"+{name}")
            elif c == -1:
                terms.append(f"-{name}")
            else:
                terms.append(f"{'+' if c > 0 else '-'}{abs(c)}*{name}")
        body = "".join(terms).lstrip("+") or "0"
        return f"<{body} in {self.lattice.name}>"


def _combine(x: FrameVector, y: FrameVector, sign: int) -> FrameVector:
    """x + sign * y over the integers, in x's basis or else in the root frame."""
    if x.lattice is y.lattice:
        lat, a, da, b, db = x.lattice, x.numerators, x.denominator, y.numerators, y.denominator
    elif frames_compatible(x.lattice, y.lattice):
        lat = x.root()
        a, da = x.root_scaled()
        b, db = y.root_scaled()
    else:
        raise ValueError(
            f"vectors live in incompatible frames ({x.lattice.name} vs {y.lattice.name})"
        )
    return FrameVector(lat, [p * db + sign * q * da for p, q in zip(a, b)], da * db)


def _ratio(scalar) -> tuple[int, int]:
    """(numerator, denominator) of an exact scalar; integers stay integers."""
    if isinstance(scalar, int):
        return scalar, 1
    f = Fraction(scalar)
    return f.numerator, f.denominator


@cache
def _identity(n: int) -> IntRows:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _transport_gram(b: IntRows, s: int, parent_gram: IntMatrix) -> IntMatrix:
    """(B/s) * G * (B/s)^T computed over the integers, one triangle only."""
    g = parent_gram.entries
    gb = [[sum(map(mul, grow, row)) for grow in g] for row in b]
    s2 = s * s
    n = len(b)
    entries = [[0] * n for _ in range(n)]
    for i, bi in enumerate(b):
        for j in range(i, n):
            v = sum(map(mul, bi, gb[j]))
            if v % s2 != 0:
                raise ValueError("transported Gram matrix is not integral")
            entries[i][j] = entries[j][i] = v // s2
    return IntMatrix(entries)


def frames_compatible(a: IntegerLattice, b: IntegerLattice) -> bool:
    """True when both lattices live over structurally equal root frames."""
    ra, rb = a.root(), b.root()
    if ra is rb:
        return True
    return (
        ra.rank == rb.rank
        and ra.gram == rb.gram
        and ra.basis_names == rb.basis_names
    )


def inner_scaled(x: FrameVector, y: FrameVector) -> tuple[int, int]:
    """(n, den) with x . y = n / den and den > 0, not reduced, for two
    vectors sharing a frame; reads the cached gram_row() of x."""
    if not frames_compatible(x.lattice, y.lattice):
        raise ValueError(
            f"inner product across incompatible frames ({x.lattice.name} vs {y.lattice.name})"
        )
    yi, dy = y.root_scaled()
    return sum(map(mul, x.gram_row(), yi)), x.root_scaled()[1] * dy


def inner(x: FrameVector, y: FrameVector) -> Fraction:
    """Exact value of the bilinear form on two vectors sharing a frame."""
    return Fraction(*inner_scaled(x, y))


def coords_in(lat: IntegerLattice, x: FrameVector, k: int = 1) -> Optional[tuple[int, ...]]:
    """Integer coordinates of k*x in lat's basis, or None when k*x is not a
    lattice point of lat."""
    if not frames_compatible(lat, x.lattice):
        raise ValueError(
            f"vector in frame {x.lattice.root().name} cannot be read in {lat.root().name}"
        )
    xi, dx = x.root_scaled()
    solved = lat._solve_scaled(xi)
    if solved is None:
        return None
    c, t = solved
    den = dx * t
    if any(k * v % den for v in c):
        return None
    return tuple(k * v // den for v in c)


def contains_multiple(lat: IntegerLattice, x: FrameVector, k: int = 1) -> bool:
    """True iff k*x is an integral combination of lat's basis."""
    return coords_in(lat, x, k) is not None


def contains(lat: IntegerLattice, x: FrameVector) -> bool:
    """True iff x is an integral combination of lat's basis."""
    return contains_multiple(lat, x, 1)


def integral_coords_matrix(
    ambient: IntegerLattice, vectors: Sequence[FrameVector]
) -> Optional[IntMatrix]:
    """Integer coordinates of vectors in ambient's basis, or None."""
    if not vectors:
        raise ValueError("need at least one vector")
    rows = [coords_in(ambient, v) for v in vectors]
    return None if None in rows else IntMatrix(rows)


def is_primitive(ambient: IntegerLattice, sub: IntegerLattice) -> bool:
    """True iff ambient/sub is torsion free.

    The sub lattice must carry a frame reaching ambient's root; its basis is
    read in ambient coordinates as the rows of a k x n matrix M.  The
    quotient is torsion free exactly when M has an integral right inverse,
    that is when the n columns of M span Z^k: the Hermite form of the
    transpose of M is the identity.
    """
    if not frames_compatible(ambient, sub):
        raise ValueError("sublattice does not live over the ambient lattice's frame")
    m = integral_coords_matrix(ambient, sub.basis_vectors())
    if m is None:
        raise ValueError(f"{sub.name} is not a sublattice of {ambient.name}")
    return row_hnf(m.transpose().entries) == _identity(sub.rank)


def isometry_from_basis_map(
    a: IntegerLattice, b: IntegerLattice, basis_map: Iterable[Iterable]
) -> bool:
    """Verify that a rational matrix defines an isometry from a onto b.

    Row i gives the image of a's i-th basis vector in b's basis coordinates.
    The map is an isometry onto b iff all images are lattice points of b, the
    matrix is invertible over the integers, and it transports the Gram matrix
    of a to the Gram matrix of b exactly.
    """
    rows = [list(r) for r in basis_map]
    if a.rank != b.rank:
        raise ValueError("rank mismatch between the two lattices")
    if len(rows) != a.rank or any(len(r) != b.rank for r in rows):
        raise ValueError("basis map must be square of the common rank")
    if any(x != int(x) for r in rows for x in r):
        return False
    m = IntMatrix(rows)
    if det(m) not in (1, -1):
        return False
    return m.mul(b.gram).mul(m.transpose()) == a.gram


def same_lattice(a: IntegerLattice, b: IntegerLattice) -> bool:
    """True iff a and b are literally the same point set in a shared frame.

    Decided by comparing Hermite normal forms of the two basis matrices
    after scaling to a common integer denominator.
    """
    if not frames_compatible(a, b):
        return False
    if a.rank != b.rank:
        return False
    ia, sa = a.basis_in_root_scaled()
    ib, sb = b.basis_in_root_scaled()
    s = lcm(sa, sb)
    ma = [[x * (s // sa) for x in row] for row in ia]
    mb = [[x * (s // sb) for x in row] for row in ib]
    return row_hnf(ma) == row_hnf(mb)


def content(lat: IntegerLattice, x: FrameVector) -> int:
    """Largest k >= 1 with x/k still a lattice point of lat (x must be in lat)."""
    c = coords_in(lat, x)
    if c is None:
        raise ValueError(f"{x!r} is not a lattice point of {lat.name}")
    return gcd(*c)


# --- short vector enumeration (negative definite forms) ------------------


def short_vectors(lat: IntegerLattice, max_abs_norm: int) -> list[FrameVector]:
    """All nonzero x in a negative definite lattice with |x.x| <= max_abs_norm.

    Standard Fincke-Pohst enumeration on the positive definite form -G,
    factored without pivoting by the integer symmetric elimination:
    -x.x = sum_k (R_k . x)^2 / (D_k D_{k+1}).  Scaled by M, the lcm of the
    D_k D_{k+1}, every bound is an integer square root.  Coordinates are
    fixed from the last down, each ascending; both signs of every vector
    are returned.
    """
    n = lat.rank
    rows, pivots, zero = _symmetric_bareiss([[-x for x in row] for row in lat.gram.entries])
    if zero or any(p <= 0 for p in pivots):
        raise ValueError("short_vectors requires a negative definite lattice")
    dens = [a * b for a, b in zip([1] + pivots, pivots)]
    m = lcm(*dens)
    weights = [m // d for d in dens]
    results: list[FrameVector] = []
    x = [0] * n

    def recurse(i: int, remaining: int):
        if i < 0:
            if any(x):
                results.append(lat.vector(list(x)))
            return
        p, *tail = rows[i]
        c = sum(map(mul, tail, x[i + 1:]))
        w = weights[i]
        s = isqrt(remaining // w)
        # |p x_i + c| <= s
        for xi in range(-((s + c) // p), (s - c) // p + 1):
            t = p * xi + c
            x[i] = xi
            recurse(i - 1, remaining - w * t * t)
        x[i] = 0

    recurse(n - 1, m * max_abs_norm)
    return results


# --- JSON ------------------------------------------------------------------


def lattice_to_json(lat: IntegerLattice) -> dict:
    """JSON form with bit-exact integers rendered as decimal strings."""
    data = {
        "schema": "k3evenset/1",
        "name": lat.name,
        "rank": lat.rank,
        "gram": [[str(x) for x in row] for row in lat.gram.entries],
        "basis_names": list(lat.basis_names),
        "frame": None,
    }
    if lat.frame is not None:
        parent, rows, den = lat.frame
        data["frame"] = {
            "parent": parent.name,
            "matrix_num": [[str(x) for x in row] for row in rows],
            "matrix_den": str(den),
        }
    return data


def vector_to_json(v: FrameVector) -> dict:
    return {
        "lattice": v.lattice.name,
        "num": [str(n) for n in v.numerators],
        "den": str(v.denominator),
    }
