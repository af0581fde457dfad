from fractions import Fraction

import pytest

from k3evenset.disc import (
    disc_report_json,
    discriminant_form,
    discriminant_group,
    group_from_factors,
)
from k3evenset.exactlin import IntMatrix, smith_normal_form
from k3evenset.families import GlueVector, families_for, make, overlattice
from k3evenset.lattice import IntegerLattice, contains, inner, inner_scaled


def test_group_of_nikulin():
    g = discriminant_group(make("N"))
    assert g.invariant_factors == (2,) * 6
    assert g.order == 64


def test_group_of_l6():
    g = discriminant_group(make("L:2d=6"))
    assert g.invariant_factors == (2, 2, 2, 2, 2, 2, 6)
    assert g.order == 384


def test_group_of_l8_prime():
    g = discriminant_group(make("L':2d=8"))
    assert g.invariant_factors == (2, 2, 2, 2, 8)
    assert g.order == 128


def test_group_formula_canonicalization():
    assert group_from_factors((6, 2, 2)) == (2, 2, 6)
    assert group_from_factors((4, 6)) == (2, 12)
    assert group_from_factors((1, 1, 3)) == (3,)


def test_degenerate_lattice_rejected():
    degenerate = IntegerLattice("deg", IntMatrix([[0, 0], [0, 2]]), ("a", "b"))
    with pytest.raises(ValueError):
        discriminant_group(degenerate)


def test_order_equals_abs_det_and_lift_invariants():
    for label in ("L:2d=6", "L':2d=8", "M:2d'=4", "M':2d'=8", "N"):
        lat = make(label)
        g = discriminant_group(lat)
        assert g.order == abs(lat.determinant())
        for factor, lift in zip(g.invariant_factors, g.lifts):
            assert contains(lat, factor * lift)
            # lift lies in the dual lattice: inner raises on a pairing outside Z
            for b in lat.basis_vectors():
                assert isinstance(inner(lift, b), int)
            # canonical representative has coordinates in [0, 1)
            assert all(0 <= n < lift.denominator for n in lift.numerators)
    # each lift is the Fraction construction column i of V over d_i, for
    # every family with d <= 12 and an overlattice
    base = make("L:2d=8")
    lattices = [make(f.label()) for d in range(1, 13) for f in families_for(d)]
    lattices.append(overlattice(base, GlueVector(frozenset({1, 2, 3, 4})).glue_class(base.root())))
    for lat in lattices:
        snf = smith_normal_form(lat.gram)
        right = snf.right.entries
        nontrivial = [(i, di) for i, di in enumerate(snf.diag) if di > 1]
        lifts = discriminant_group(lat).lifts
        assert len(lifts) == len(nontrivial)
        for lift, (i, di) in zip(lifts, nontrivial):
            old = lat.vector([Fraction(row[i] % di, di) for row in right])
            assert lift.lattice is lat
            assert (lift.numerators, lift.denominator) == (old.numerators, old.denominator)


def test_overlattice_group_order_drops_by_four():
    base = make("L:2d=8")
    order = discriminant_group(base).order
    over = overlattice(base, GlueVector(frozenset({1, 2, 3, 4})).glue_class(base.root()))
    assert discriminant_group(over).order * 4 == order
    assert discriminant_group(over).invariant_factors == (2, 2, 2, 2, 8)


def test_discriminant_form_values():
    ns2 = make("L:2d=2")
    half_l = ns2.root().vector([Fraction(1, 2)] + [0] * 8)
    assert discriminant_form(ns2, half_l) == (1, 2)
    assert discriminant_form(ns2, ns2.root().basis_vector(0)) == (0, 1)
    nik = make("N")
    x = nik.root().vector([Fraction(1, 2), Fraction(1, 2), 0, 0, 0, 0, 0, 0])
    assert discriminant_form(nik, x) == (1, 1)  # (N1+N2)^2/4 = -1 = 1 mod 2Z
    ns6 = make("L:2d=6")
    assert discriminant_form(ns6, ns6.root().vector([Fraction(1, 2)] + [0] * 8)) == (3, 2)


def test_discriminant_form_matches_fraction_reduction():
    # on every generator lift and every sum of two, the pair is the lowest-terms
    # value of x.x mod 2 that Fraction arithmetic gives
    for label in ("L:2d=6", "L:2d=8", "L':2d=8", "M:2d'=6", "M':2d'=8", "N"):
        lat = make(label)
        lifts = discriminant_group(lat).lifts
        for x in lifts + tuple(a + b for a in lifts for b in lifts):
            want = Fraction(*inner_scaled(x, x)) % 2
            assert discriminant_form(lat, x) == (want.numerator, want.denominator)


def test_discriminant_form_shift_invariance():
    nik = make("N")
    x = nik.root().vector([Fraction(1, 2), Fraction(1, 2), 0, 0, 0, 0, 0, 0])
    shifted = x + nik.basis_vector(2)
    assert discriminant_form(nik, shifted) == discriminant_form(nik, x)


def test_discriminant_form_rejects_non_dual_vector():
    nik = make("N")
    bad = nik.root().vector([Fraction(1, 2)] + [0] * 7)
    with pytest.raises(ValueError):
        discriminant_form(nik, bad)


def test_groups_isomorphic():
    # finite abelian groups are isomorphic iff their invariant factors agree
    a_l8 = discriminant_group(make("L:2d=8"))
    a_m8p = discriminant_group(make("M':2d'=8"))
    assert a_l8.invariant_factors == a_m8p.invariant_factors
    a_l6 = discriminant_group(make("L:2d=6"))
    a_m6 = discriminant_group(make("M:2d'=6"))
    assert a_l6.invariant_factors != a_m6.invariant_factors


def test_report_json_shape():
    data = disc_report_json(discriminant_group(make("L:2d=6")))
    assert data["invariant_factors"] == ["2", "2", "2", "2", "2", "2", "6"]
    assert data["order"] == "384"
    assert len(data["lifts"]) == 7


def test_group_is_computed_once_per_lattice(monkeypatch):
    import k3evenset.disc as disc

    lat = IntegerLattice("A", IntMatrix([[2, 1], [1, 4]]), ("a", "b"))
    calls = []
    snf = disc.smith_normal_form
    monkeypatch.setattr(disc, "smith_normal_form", lambda m: calls.append(m) or snf(m))
    first = discriminant_group(lat)
    assert discriminant_group(lat) is first
    assert first.invariant_factors == (7,)
    assert len(calls) == 1
