"""Even integral lattices with named bases and exact rational frames.

A lattice either stands on its own (it is its own *root frame*) or carries a
frame: a parent lattice together with a rational matrix whose rows express
this lattice's basis in the parent's coordinates.  All derived lattices of a
construction (sublattices, index-two overlattices, family members) live in
one root frame, so statements such as "(L - N1 - N2)/2 lies in L'_4 but not
in L_4" are decided by exact coordinate arithmetic and never by convention.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Optional, Sequence

from .exactlin import (
    IntMatrix,
    QMatrix,
    det,
    qmat,
    qmat_inverse,
    qmat_nullspace,
    qmat_solve,
    row_hnf,
    signature,
    smith_diagonal,
    smith_normal_form,
    unimodular_inverse,
)


class IntegerLattice:
    """Even integral lattice with a named basis and an optional frame."""

    def __init__(
        self,
        name: str,
        gram: IntMatrix,
        basis_names: Sequence[str],
        frame: Optional[tuple["IntegerLattice", QMatrix]] = None,
        even: bool = True,
        _trusted_frame: bool = False,
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
        if frame is not None:
            parent, rows = frame
            if not _trusted_frame:  # framed() passes rows already read by qmat
                rows = qmat(rows)
            if len(rows) != self.rank or any(len(r) != parent.rank for r in rows):
                raise ValueError(f"{name}: frame matrix has wrong shape")
            if not _trusted_frame:
                transported = _transport_gram(rows, parent.gram)
                if transported != gram:
                    raise ValueError(
                        f"{name}: Gram matrix does not match the form transported from {parent.name}"
                    )
            self.frame = (parent, rows)
        else:
            self.frame = None
        self._basis_in_root: QMatrix | None = None
        self._bir_scaled: tuple | None = None
        self._inv_scaled: tuple | None = None
        self._basis_vectors: list | None = None

    @staticmethod
    def framed(
        name: str,
        parent: "IntegerLattice",
        rows: Iterable[Iterable],
        basis_names: Sequence[str],
        even: bool = True,
    ) -> "IntegerLattice":
        """Build a lattice from basis rows in the parent's coordinates.

        The Gram matrix is transported from the parent and must come out
        integral (and even unless flagged otherwise).
        """
        rows = qmat(rows)
        try:
            gram = _transport_gram(rows, parent.gram)
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from None
        return IntegerLattice(
            name, gram, basis_names, frame=(parent, rows), even=even, _trusted_frame=True
        )

    def __repr__(self):
        return f"IntegerLattice({self.name!r}, rank={self.rank})"

    def root(self) -> "IntegerLattice":
        lat = self
        while lat.frame is not None:
            lat = lat.frame[0]
        return lat

    def basis_in_root_scaled(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """(s * basis_in_root as integer rows, s); the primary representation.

        Composed through the frame chain in integer arithmetic, with a final
        gcd reduction to keep the scale minimal.
        """
        if self._bir_scaled is None:
            if self.frame is None:
                ident = tuple(
                    tuple(1 if i == j else 0 for j in range(self.rank))
                    for i in range(self.rank)
                )
                self._bir_scaled = (ident, 1)
            else:
                parent, rows = self.frame
                rint, s1 = _scaled_int_rows(rows)
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

    def basis_in_root(self) -> QMatrix:
        """Rows express this lattice's basis in root-frame coordinates."""
        if self._basis_in_root is None:
            ints, s = self.basis_in_root_scaled()
            self._basis_in_root = tuple(
                tuple(Fraction(x, s) for x in row) for row in ints
            )
        return self._basis_in_root

    def _coord_inverse_scaled(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """(t * inverse of basis_in_root as integers, t); full rank only."""
        if self._inv_scaled is None:
            inv = qmat_inverse(self.basis_in_root())
            ints, t = _scaled_int_rows(inv)
            self._inv_scaled = (tuple(tuple(r) for r in ints), t)
        return self._inv_scaled

    def vector(self, coords: Iterable) -> "FrameVector":
        """Vector with the given rational coordinates in this lattice's basis."""
        return FrameVector.from_coords(self, coords)

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

    def signature(self):
        return signature(self.gram)

    def coords_from_root(self, root_coords: Sequence[Fraction]) -> Optional[tuple[Fraction, ...]]:
        """Coordinates in this basis of a root-frame vector, or None if off-span."""
        fracs = [Fraction(x) for x in root_coords]
        dim = len(self.basis_in_root_scaled()[0][0])
        if len(fracs) != dim:
            raise ValueError("root coordinate length mismatch")
        if self.rank == dim:
            # x * M^-1 = (den * x) * (t * M^-1) / (den * t), all in integers
            minv, t = self._coord_inverse_scaled()
            den = 1
            for f in fracs:
                den = lcm(den, f.denominator)
            xi = [f.numerator * (den // f.denominator) for f in fracs]
            return tuple(Fraction(sum(map(mul, xi, col)), den * t) for col in zip(*minv))
        return qmat_solve(_qtranspose(self.basis_in_root()), tuple(fracs))


class FrameVector:
    """Exact rational coordinate vector expressed in a lattice's basis."""

    __slots__ = ("lattice", "numerators", "denominator", "_root_scaled_cache")

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

    @staticmethod
    def from_coords(lattice: IntegerLattice, coords: Iterable) -> "FrameVector":
        fracs = [Fraction(x) for x in coords]
        den = 1
        for f in fracs:
            den = lcm(den, f.denominator)
        nums = [int(f * den) for f in fracs]
        return FrameVector(lattice, nums, den)

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

    def root_coords(self) -> tuple[Fraction, ...]:
        ints, den = self.root_scaled()
        return tuple(Fraction(n, den) for n in ints)

    def root(self) -> IntegerLattice:
        return self.lattice.root()

    def is_integral(self) -> bool:
        return self.denominator == 1

    def __add__(self, other: "FrameVector") -> "FrameVector":
        a, b, lat = _coerce_pair(self, other)
        return FrameVector.from_coords(lat, [x + y for x, y in zip(a, b)])

    def __sub__(self, other: "FrameVector") -> "FrameVector":
        a, b, lat = _coerce_pair(self, other)
        return FrameVector.from_coords(lat, [x - y for x, y in zip(a, b)])

    def __mul__(self, scalar) -> "FrameVector":
        s = Fraction(scalar)
        return FrameVector.from_coords(self.lattice, [c * s for c in self.coords()])

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "FrameVector":
        return self * (Fraction(1) / Fraction(scalar))

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


def _coerce_pair(x: FrameVector, y: FrameVector):
    if x.lattice is y.lattice:
        return x.coords(), y.coords(), x.lattice
    if not frames_compatible(x.lattice, y.lattice):
        raise ValueError(
            f"vectors live in incompatible frames ({x.lattice.name} vs {y.lattice.name})"
        )
    return x.root_coords(), y.root_coords(), x.root()


def _gram_as_q(g: IntMatrix) -> QMatrix:
    return qmat(g.entries)


def _qtranspose(m: QMatrix) -> QMatrix:
    return tuple(zip(*m))


def _scaled_int_rows(rows: QMatrix) -> tuple[list[list[int]], int]:
    """(s * rows as integers, s) for the common denominator s."""
    s = 1
    for r in rows:
        for x in r:
            s = lcm(s, x.denominator)
    return [[x.numerator * (s // x.denominator) for x in r] for r in rows], s


def _transport_gram(rows: QMatrix, parent_gram: IntMatrix) -> IntMatrix:
    """B * G * B^T computed over scaled integers (no Fraction arithmetic)."""
    b, s = _scaled_int_rows(rows)
    g = parent_gram.entries
    gb = [[sum(map(mul, grow, row)) for grow in g] for row in b]
    s2 = s * s
    entries = []
    for bi in b:
        out = []
        for gbj in gb:
            v = sum(map(mul, bi, gbj))
            if v % s2 != 0:
                raise ValueError("transported Gram matrix is not integral")
            out.append(v // s2)
        entries.append(out)
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


def inner(x: FrameVector, y: FrameVector) -> Fraction:
    """Exact value of the bilinear form on two vectors sharing a frame."""
    if not frames_compatible(x.lattice, y.lattice):
        raise ValueError(
            f"inner product across incompatible frames ({x.lattice.name} vs {y.lattice.name})"
        )
    xi, dx = x.root_scaled()
    yi, dy = y.root_scaled()
    g = x.root().gram.entries
    total = 0
    for i, a in enumerate(xi):
        if a:
            row = g[i]
            total += a * sum(row[j] * b for j, b in enumerate(yi) if b)
    return Fraction(total, dx * dy)


def norm(x: FrameVector) -> Fraction:
    return inner(x, x)


def coords_in(lat: IntegerLattice, x: FrameVector) -> Optional[tuple[Fraction, ...]]:
    """Coordinates of x in lat's basis, or None when x is off lat's span."""
    if not frames_compatible(lat, x.lattice):
        raise ValueError(
            f"vector in frame {x.lattice.root().name} cannot be read in {lat.root().name}"
        )
    return lat.coords_from_root(x.root_coords())


def contains_multiple(lat: IntegerLattice, x: FrameVector, k: int = 1) -> bool:
    """True iff k*x is an integral combination of lat's basis."""
    if not frames_compatible(lat, x.lattice):
        raise ValueError(
            f"vector in frame {x.lattice.root().name} cannot be read in {lat.root().name}"
        )
    if lat.rank == len(lat.basis_in_root_scaled()[0][0]):
        # full rank: integer divisibility test against the scaled inverse
        minv, t = lat._coord_inverse_scaled()
        xi, dx = x.root_scaled()
        den = dx * t
        n = lat.rank
        for j in range(n):
            val = k * sum(xi[m] * minv[m][j] for m in range(n))
            if val % den != 0:
                return False
        return True
    c = coords_in(lat, x)
    if c is None:
        return False
    return all((k * f).denominator == 1 for f in c)


def contains(lat: IntegerLattice, x: FrameVector) -> bool:
    """True iff x is an integral combination of lat's basis."""
    return contains_multiple(lat, x, 1)


def integral_coords_matrix(
    ambient: IntegerLattice, vectors: Sequence[FrameVector]
) -> Optional[IntMatrix]:
    """Integer coordinates of vectors in ambient's basis, or None.

    All solves share one Smith normal form of ambient's scaled basis matrix,
    so the whole computation stays in integer arithmetic.
    """
    if not vectors:
        raise ValueError("need at least one vector")
    for v in vectors:
        if not frames_compatible(ambient, v.lattice):
            raise ValueError("vector frame incompatible with the ambient lattice")
    b_int, s = ambient.basis_in_root_scaled()
    a = IntMatrix(b_int).transpose()  # columns = scaled basis vectors
    snf = smith_normal_form(a)
    left, right, diag = snf.left, snf.right, snf.diag
    rows_out = []
    for v in vectors:
        vi, dv = v.root_scaled()
        target = []
        for x in vi:
            val = x * s
            if val % dv != 0:
                return None
            target.append(val // dv)
        c = [sum(map(mul, row, target)) for row in left.entries]
        y = [0] * a.cols
        for i in range(a.rows):
            d = diag[i] if i < len(diag) else 0
            if d == 0:
                if c[i] != 0:
                    return None
            else:
                if c[i] % d != 0:
                    return None
                if i < a.cols:
                    y[i] = c[i] // d
        rows_out.append([sum(map(mul, row, y)) for row in right.entries])
    return IntMatrix(rows_out)


def saturation(
    lat: IntegerLattice, gens: Sequence[FrameVector]
) -> tuple[IntegerLattice, int]:
    """Primitive closure of the span of gens inside lat, plus the index.

    The generators must be lattice points of lat and linearly independent
    over Q; a dependency is rejected together with the offending rational
    relation.  With U*M*V = D the Smith form of the coordinate matrix, the
    rows of V^-1 give a basis of the saturation and the product of the
    invariant factors is the index of the span inside it.
    """
    if not gens:
        raise ValueError("saturation needs at least one generator")
    m = integral_coords_matrix(lat, gens)
    if m is None:
        raise ValueError(f"some generator is not a lattice point of {lat.name}")
    kernel = qmat_nullspace(qmat(list(zip(*m.entries))))
    if kernel:
        rel = kernel[0]
        raise ValueError(f"generators are dependent: relation {tuple(map(str, rel))}")
    snf = smith_normal_form(m)
    k = len(gens)
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


def is_primitive(ambient: IntegerLattice, sub: IntegerLattice) -> bool:
    """True iff ambient/sub is torsion free.

    The sub lattice must carry a frame reaching ambient's root; its basis is
    read in ambient coordinates and the quotient is torsion free exactly when
    all Smith invariant factors of that coordinate matrix equal one.
    """
    if not frames_compatible(ambient, sub):
        raise ValueError("sublattice does not live over the ambient lattice's frame")
    m = integral_coords_matrix(ambient, sub.basis_vectors())
    if m is None:
        raise ValueError(f"{sub.name} is not a sublattice of {ambient.name}")
    return all(d == 1 for d in smith_diagonal(m))


def isometry_from_basis_map(
    a: IntegerLattice, b: IntegerLattice, basis_map: Iterable[Iterable]
) -> bool:
    """Verify that a rational matrix defines an isometry from a onto b.

    Row i gives the image of a's i-th basis vector in b's basis coordinates.
    The map is an isometry onto b iff all images are lattice points of b, the
    matrix is invertible over the integers, and it transports the Gram matrix
    of a to the Gram matrix of b exactly.
    """
    rows = qmat(basis_map)
    if a.rank != b.rank:
        raise ValueError("rank mismatch between the two lattices")
    if len(rows) != a.rank or any(len(r) != b.rank for r in rows):
        raise ValueError("basis map must be square of the common rank")
    if any(x.denominator != 1 for r in rows for x in r):
        return False
    m = IntMatrix([[x.numerator for x in r] for r in rows])
    if det(m) not in (1, -1):
        return False
    return m.mul(b.gram).mul(m.transpose()) == a.gram


def isometry_images_to_map(b: IntegerLattice, images: Sequence[FrameVector]) -> QMatrix:
    """Basis-map matrix (rows in b's basis coordinates) from image vectors."""
    rows = []
    for v in images:
        c = coords_in(b, v)
        if c is None:
            raise ValueError(f"image {v!r} is outside the span of {b.name}")
        rows.append(c)
    return qmat(rows)


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
    if c is None or any(f.denominator != 1 for f in c):
        raise ValueError(f"{x!r} is not a lattice point of {lat.name}")
    g = 0
    for f in c:
        g = gcd(g, f.numerator)
    return g


# --- short vector enumeration (negative definite forms) ------------------


def _floor_sqrt(f: Fraction) -> int:
    """floor(sqrt(f)) for f >= 0, exact."""
    if f < 0:
        raise ValueError("negative radicand")
    from math import isqrt

    r = isqrt(f.numerator * f.denominator) // f.denominator
    while (r + 1) * (r + 1) <= f:
        r += 1
    while r * r > f:
        r -= 1
    return r


def short_vectors(lat: IntegerLattice, max_abs_norm: int) -> list[FrameVector]:
    """All nonzero x in a negative definite lattice with |x.x| <= max_abs_norm.

    Standard Fincke-Pohst enumeration on the positive definite form -G with
    an exact rational Cholesky-style decomposition.  Both signs of every
    vector are returned.
    """
    n = lat.rank
    g = lat.gram
    q = [[Fraction(-g[i, j]) for j in range(n)] for i in range(n)]
    # decompose: form = sum_i q[i][i] * (x_i + sum_{j>i} q[i][j] x_j)^2
    for i in range(n):
        if q[i][i] <= 0:
            raise ValueError("short_vectors requires a negative definite lattice")
        for j in range(i + 1, n):
            q[j][i] = q[i][j]
            q[i][j] = q[i][j] / q[i][i]
        for k in range(i + 1, n):
            for l in range(k, n):
                q[k][l] -= q[k][i] * q[i][l]
    results: list[FrameVector] = []
    x = [0] * n
    bound = Fraction(max_abs_norm)

    def recurse(i: int, remaining: Fraction):
        if i < 0:
            if any(x):
                results.append(lat.vector(list(x)))
            return
        c = sum(q[i][j] * x[j] for j in range(i + 1, n))
        half_width = _floor_sqrt(remaining / q[i][i])
        # x_i + c ranges over [-sqrt(remaining/qii), sqrt(remaining/qii)]
        for xi in range(int(-c) - half_width - 1, int(-c) + half_width + 2):
            t = q[i][i] * (xi + c) ** 2
            if t <= remaining:
                x[i] = xi
                recurse(i - 1, remaining - t)
        x[i] = 0

    recurse(n - 1, bound)
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
        parent, rows = lat.frame
        den = 1
        for r in rows:
            for x in r:
                den = lcm(den, x.denominator)
        data["frame"] = {
            "parent": parent.name,
            "matrix_num": [[str(int(x * den)) for x in row] for row in rows],
            "matrix_den": str(den),
        }
    return data


def lattice_from_json(data: dict, parent: Optional[IntegerLattice] = None) -> IntegerLattice:
    gram = IntMatrix([[int(x) for x in row] for row in data["gram"]])
    frame = None
    if data.get("frame"):
        if parent is None:
            raise ValueError("frame present but no parent lattice supplied")
        fr = data["frame"]
        if parent.name != fr["parent"]:
            raise ValueError(f"expected parent {fr['parent']}, got {parent.name}")
        den = int(fr["matrix_den"])
        rows = [[Fraction(int(x), den) for x in row] for row in fr["matrix_num"]]
        frame = (parent, qmat(rows))
    return IntegerLattice(data["name"], gram, data["basis_names"], frame=frame)


def vector_to_json(v: FrameVector) -> dict:
    return {
        "lattice": v.lattice.name,
        "num": [str(n) for n in v.numerators],
        "den": str(v.denominator),
    }
