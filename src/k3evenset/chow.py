"""Intersection numbers on complete intersections in products of projective spaces.

Computations happen in the truncated ring Z[h_1..h_k]/(h_i^{n_i + 1}): the
class of the complete intersection is the product of its hypersurface
classes, and the intersection number D_i.D_j is the coefficient of the top
monomial h_1^{n_1} ... h_k^{n_k} in h_i h_j times that product.
"""

from __future__ import annotations

import re
from math import prod
from typing import NamedTuple, Sequence

from .exactlin import IntMatrix

# Largest total dimension of a product of projective spaces: it bounds the
# total - 2 multidegrees of a surface; the K3 models here need at most 6.
MAX_TOTAL_DIM = 18
# Largest rank prod(n_i + 1) of the truncated ring, which bounds the size of
# every polynomial the products build: P1^12 and P3^6 reach it.
MAX_RING_RANK = 4096


class _SpaceFields(NamedTuple):
    dims: tuple[int, ...]


class MultiProjSpace(_SpaceFields):
    __slots__ = ()

    def __new__(cls, dims: tuple[int, ...]):
        self = super().__new__(cls, dims)
        if not self.dims or any(n <= 0 for n in self.dims):
            raise ValueError("each projective factor must have positive dimension")
        if self.total_dim > MAX_TOTAL_DIM:
            raise ValueError(
                f"{self.label()} has dimension {self.total_dim}; "
                f"at most {MAX_TOTAL_DIM} is supported"
            )
        rank = prod(n + 1 for n in self.dims)
        if rank > MAX_RING_RANK:
            raise ValueError(
                f"{self.label()} has a truncated Chow ring of rank {rank}; "
                f"at most {MAX_RING_RANK} is supported"
            )
        return self

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def label(self) -> str:
        return "x".join(f"P{n}" for n in self.dims)

    def surface_check(self, count: int) -> None:
        """Raise unless count hypersurfaces cut a surface out of this space."""
        expected = self.total_dim - 2
        if count != expected:
            raise ValueError(
                f"{count} hypersurfaces cut codimension {count} in {self.label()}; "
                f"a surface needs {expected}"
            )


class _IntersectionFields(NamedTuple):
    space: MultiProjSpace
    multidegrees: tuple[tuple[int, ...], ...]


class CompleteIntersection(_IntersectionFields):
    __slots__ = ()

    def __new__(cls, space: MultiProjSpace, multidegrees: tuple[tuple[int, ...], ...]):
        self = super().__new__(cls, space, multidegrees)
        k = len(self.space.dims)
        for deg in self.multidegrees:
            if len(deg) != k:
                raise ValueError(f"multidegree {deg} does not match {k} factors")
            if any(d < 0 for d in deg):
                raise ValueError(f"negative degree in {deg}")
            if all(d == 0 for d in deg):
                raise ValueError("a hypersurface cannot have multidegree zero")
        return self

    def codimension_check(self):
        self.space.surface_check(len(self.multidegrees))

    def label(self) -> str:
        degs = "+".join("(" + ",".join(map(str, d)) + ")" for d in self.multidegrees)
        return f"{self.space.label()}: {degs}"


Poly = dict[tuple[int, ...], int]


def _poly_one(k: int) -> Poly:
    return {(0,) * k: 1}


def _poly_linear(k: int, coeffs: Sequence[int]) -> Poly:
    out: Poly = {}
    for i, c in enumerate(coeffs):
        if c:
            e = [0] * k
            e[i] = 1
            out[tuple(e)] = c
    return out


def _poly_mul(a: Poly, b: Poly, caps: Sequence[int] | None) -> Poly:
    out: Poly = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            if caps is not None and any(x > cap for x, cap in zip(e, caps)):
                continue
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def intersection_matrix(ci: CompleteIntersection) -> IntMatrix:
    """Gram matrix of the restricted hyperplane classes D_1..D_k."""
    ci.codimension_check()
    dims = ci.space.dims
    k = len(dims)
    caps = tuple(dims)
    surface_class = _poly_one(k)
    for deg in ci.multidegrees:
        surface_class = _poly_mul(surface_class, _poly_linear(k, deg), caps)
    top = tuple(dims)
    entries = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            hihj = _poly_mul(
                _poly_linear(k, [1 if t == i else 0 for t in range(k)]),
                _poly_linear(k, [1 if t == j else 0 for t in range(k)]),
                caps,
            )
            total = _poly_mul(surface_class, hihj, caps)
            entries[i][j] = entries[j][i] = total.get(top, 0)
    return IntMatrix(entries)


def intersection_matrix_untruncated(ci: CompleteIntersection) -> IntMatrix:
    """Same matrix computed without ring truncation, for cross-checking.

    The full product over Z is expanded and exactly one coefficient is read
    off; exponents above the factor dimensions are simply never equal to the
    top monomial, so the answer agrees with the truncated computation.
    """
    ci.codimension_check()
    dims = ci.space.dims
    k = len(dims)
    surface_class = _poly_one(k)
    for deg in ci.multidegrees:
        surface_class = _poly_mul(surface_class, _poly_linear(k, deg), None)
    top = tuple(dims)
    entries = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            want = list(top)
            want[i] -= 1
            want[j] -= 1
            if min(want) < 0:
                entries[i][j] = entries[j][i] = 0
                continue
            entries[i][j] = entries[j][i] = surface_class.get(tuple(want), 0)
    return IntMatrix(entries)


def ci_is_k3(ci: CompleteIntersection) -> bool:
    """Adjunction: the degrees in each factor must sum to n_j + 1."""
    ci.codimension_check()
    for j, n in enumerate(ci.space.dims):
        if sum(deg[j] for deg in ci.multidegrees) != n + 1:
            return False
    return True


_CI_RE = re.compile(r"^\s*((?:P\d+)(?:x(?:P\d+))*)\s*:\s*(.+?)\s*$")
_DEG_RE = re.compile(r"\(([0-9,\s]+)\)(?:\^(\d+))?")


def parse_ci(text: str) -> CompleteIntersection:
    """Parse the CLI grammar, e.g. "P4xP2: (2,0)+(1,1)^3".

    Each multidegree and then the summed repetition count are checked
    before the repeated multidegrees are built.
    """
    m = _CI_RE.match(text)
    if not m:
        raise ValueError(f"cannot parse complete intersection {text!r}")
    dims = tuple(int(p[1:]) for p in m.group(1).split("x"))
    space = MultiProjSpace(dims)
    rest = m.group(2).replace(" ", "")
    parts: list[tuple[tuple[int, ...], int]] = []
    pos = 0
    first = True
    while pos < len(rest):
        if not first:
            if rest[pos] != "+":
                raise ValueError(f"expected '+' at position {pos} in {text!r}")
            pos += 1
        dm = _DEG_RE.match(rest, pos)
        if not dm:
            raise ValueError(f"cannot parse multidegree at position {pos} in {text!r}")
        tup = tuple(int(x) for x in dm.group(1).replace(" ", "").split(",") if x != "")
        parts.append((tup, int(dm.group(2)) if dm.group(2) else 1))
        pos = dm.end()
        first = False
    count = sum(rep for _, rep in parts)
    if not count:
        raise ValueError(f"no multidegrees in {text!r}")
    CompleteIntersection(space, tuple(tup for tup, rep in parts if rep))
    space.surface_check(count)
    return CompleteIntersection(space, tuple(tup for tup, rep in parts for _ in range(rep)))
