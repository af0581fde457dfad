"""Discriminant groups A_L = L^v / L with generator lifts.

The group is the cokernel of the Gram matrix.  With U*G*V = D in Smith form,
A_L is the direct sum of Z/d_i over the nontrivial invariant factors, and a
generator of the Z/d_i summand lifts to the rational vector G^-1 * (column i
of U^-1) = V * D^-1 * e_i, i.e. column i of V divided by d_i, expressed in
the lattice's own basis.  No matrix is inverted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactlin import det, smith_normal_form
from .lattice import FrameVector, IntegerLattice, inner


@dataclass(frozen=True)
class DiscriminantGroup:
    """Invariant factors (each dividing the next), generator lifts, order."""

    invariant_factors: tuple[int, ...]
    lifts: tuple[FrameVector, ...]
    order: int


def discriminant_group(lat: IntegerLattice) -> DiscriminantGroup:
    g = lat.gram
    d = det(g)
    if d == 0:
        raise ValueError(f"{lat.name}: degenerate lattice has no discriminant group")
    snf = smith_normal_form(g)
    factors = []
    lifts = []
    order = 1
    for i, di in enumerate(snf.diag):
        if di <= 1:
            continue
        factors.append(di)
        order *= di
        # generator of the Z/d_i summand: G^-1 U^-1 e_i = V D^-1 e_i, with the
        # coordinates reduced into [0, 1) for a canonical representative
        lifts.append(lat.vector([Fraction(row[i] % di, di) for row in snf.right.entries]))
    return DiscriminantGroup(tuple(factors), tuple(lifts), order)


def discriminant_form(lat: IntegerLattice, x: FrameVector) -> Fraction:
    """Value of the discriminant quadratic form x.x mod 2Z, reduced into [0, 2).

    The vector must lie in the dual lattice: its pairing with every basis
    vector of lat has to be integral.
    """
    for i in range(lat.rank):
        p = inner(x, lat.basis_vector(i))
        if p.denominator != 1:
            raise ValueError(f"{x!r} is not in the dual lattice of {lat.name}")
    q = inner(x, x)
    return q - 2 * ((q / 2).numerator // (q / 2).denominator)


def groups_isomorphic(g1: DiscriminantGroup, g2: DiscriminantGroup) -> bool:
    """Finite abelian groups are isomorphic iff their factor lists agree."""
    return g1.invariant_factors == g2.invariant_factors


def group_from_factors(factors: tuple[int, ...]) -> tuple[int, ...]:
    """Canonical invariant-factor form of a direct sum of cyclic groups.

    Accepts arbitrary cyclic orders and returns the ascending divisibility
    chain, dropping trivial factors.  Used by tests to spell groups such as
    Z/2d + (Z/2)^6 independently of the SNF code path.
    """
    from math import gcd

    parts: list[int] = [f for f in factors if f > 1]
    changed = True
    while changed:
        changed = False
        parts.sort()
        for i in range(len(parts)):
            for j in range(i + 1, len(parts)):
                a, b = parts[i], parts[j]
                if b % a != 0:
                    g = gcd(a, b)
                    l = a * b // g
                    parts[i], parts[j] = g, l
                    changed = True
        parts = [p for p in parts if p > 1]
    return tuple(sorted(parts))


def disc_report_json(group: DiscriminantGroup) -> dict:
    from .lattice import vector_to_json

    return {
        "schema": "k3evenset/1",
        "invariant_factors": [str(f) for f in group.invariant_factors],
        "order": str(group.order),
        "lifts": [vector_to_json(v) for v in group.lifts],
    }
