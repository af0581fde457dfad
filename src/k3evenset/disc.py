"""Discriminant groups A_L = L^v / L with generator lifts.

The group is the cokernel of the Gram matrix.  With U*G*V = D in Smith form,
A_L is the direct sum of Z/d_i over the nontrivial invariant factors, and a
generator of the Z/d_i summand lifts to the rational vector G^-1 * (column i
of U^-1) = V * D^-1 * e_i, i.e. column i of V divided by d_i, expressed in
the lattice's own basis.  No matrix is inverted.  Each lift is built as
integer numerators over d_i; the form reads the pairing `inner_scaled`,
since a dual vector's square need not be an integer as `inner` requires.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .exactlin import smith_normal_form
from .lattice import FrameVector, IntegerLattice, inner_scaled, vector_to_json


class DiscriminantGroup(NamedTuple):
    """Invariant factors (each dividing the next), generator lifts, order."""

    invariant_factors: tuple[int, ...]
    lifts: tuple[FrameVector, ...]
    order: int


def discriminant_group(lat: IntegerLattice) -> DiscriminantGroup:
    """The discriminant group of lat, computed once and cached on lat."""
    if lat._discriminant_group is None:
        lat._discriminant_group = _smith_group(lat)
    return lat._discriminant_group


def _smith_group(lat: IntegerLattice) -> DiscriminantGroup:
    snf = smith_normal_form(lat.gram)
    if 0 in snf.diag:
        raise ValueError(f"{lat.name}: degenerate lattice has no discriminant group")
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
        lifts.append(FrameVector(lat, [row[i] % di for row in snf.right.entries], di))
    return DiscriminantGroup(tuple(factors), tuple(lifts), order)


def discriminant_form(lat: IntegerLattice, x: FrameVector) -> tuple[int, int]:
    """Value (n, den) of the discriminant quadratic form x.x mod 2Z: in
    lowest terms, with 0 <= n/den < 2.

    The vector must lie in the dual lattice: its pairing with every basis
    vector of lat has to be integral.
    """
    for b in lat.basis_vectors():
        p, den = inner_scaled(x, b)
        if p % den:
            raise ValueError(f"{x!r} is not in the dual lattice of {lat.name}")
    n, den = inner_scaled(x, x)
    g = gcd(n, den)
    return n // g % (2 * den // g), den // g


def group_from_factors(factors: tuple[int, ...]) -> tuple[int, ...]:
    """Canonical invariant-factor form of a direct sum of cyclic groups.

    Accepts arbitrary cyclic orders and returns the ascending divisibility
    chain, dropping trivial factors.  Spells the classification lemma's groups
    such as Z/2d + (Z/2)^6 independently of the SNF code path.
    """
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
    return {
        "schema": "k3evenset/1",
        "invariant_factors": [str(f) for f in group.invariant_factors],
        "order": str(group.order),
        "lifts": [vector_to_json(v) for v in group.lifts],
    }
