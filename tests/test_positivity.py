from fractions import Fraction

import pytest

from k3evenset.families import canonical_octet, make, parse_divisor, split_root_l
from k3evenset.lattice import IntegerLattice, contains, inner, short_vectors
from k3evenset.positivity import (
    _family_frame,
    _orthogonal_witnesses,
    _twice_root_coords,
    classify_positivity,
    enumerate_obstructing_roots,
    hyperelliptic_test,
    is_even_set,
    isotropic_classes,
    pencil_decomposition,
    riemann_roch_h0,
)


def divisor(family, text):
    ns = make(family)
    return ns, parse_divisor(ns, text)


def _criterion3_cases(dmax=12):
    """The (family, divisor) pairs of the criterion-3 positivity suite."""
    cases = [(f"L:2d={2 * d}", "L-Nhat") for d in range(3, dmax + 1)]
    cases += [("L:2d=4", f"{m}L-Nhat") for m in ("", "2", "3")]
    for d in range(2, dmax + 1):
        for r in range(1, min(d, 9)):
            cases.append((f"L:2d={2 * d}", "L-" + "-".join(f"N{i}" for i in range(1, r + 1))))
    return cases


def _root_fractions(v):
    ints, den = v.root_scaled()
    return tuple(Fraction(n, den) for n in ints)


def test_integer_sort_key_orders_as_root_coords():
    # every vector the root search ranks: the octet members and roots that
    # obstruct, and the fixed-curve candidates of pencil_decomposition
    groups = []
    for family, text in _criterion3_cases() + [("L':2d=4", "L"), ("L':2d=8", "L")]:
        ns, dv = divisor(family, text)
        octet = [n for n in canonical_octet(ns) if inner(dv, n) <= 0]
        groups.append(octet + enumerate_obstructing_roots(ns, dv))
        if classify_positivity(ns, dv).status == "pseudo_ample":
            groups.append(_orthogonal_witnesses(ns, dv))
    pd = pencil_decomposition(*divisor("L':2d=4", "L"))
    groups.append(list(pd.fixed_part))
    assert sum(map(len, groups)) > 500
    for vectors in groups:
        for v in vectors:
            twice = [2 * c for c in _root_fractions(v)]
            assert all(t.denominator == 1 for t in twice)
            assert _twice_root_coords(v) == tuple(twice)
        by_int = sorted(vectors, key=_twice_root_coords)
        by_fraction = sorted(vectors, key=_root_fractions)
        assert [id(v) for v in by_int] == [id(v) for v in by_fraction]


def test_search_grid_comes_from_the_basis():
    assert _family_frame(make("L:2d=6")) == (3, 1)
    assert _family_frame(make("L':2d=8")) == (4, 2)


def test_search_refuses_a_basis_outside_half_integers():
    # basis L/2, L/3 + N2: the point -L/2 + 2(L/3 + N2) has a = 1/6, which
    # a grid of step 1/2 or 1/3 would miss
    lat = IntegerLattice.framed(
        "thirds", split_root_l(18), [[3] + [0] * 8, [2, 0, 6] + [0] * 6], ("u", "v"),
        even=False, s=6,
    )
    assert lat.gram.entries == ((9, 6), (6, 2))
    with pytest.raises(ValueError, match="denominator 6"):
        _family_frame(lat)
    with pytest.raises(ValueError, match="denominator 6"):
        classify_positivity(lat, 2 * lat.basis_vector(0))


def test_search_rejects_m_families():
    ns = make("M:2d'=4")
    with pytest.raises(ValueError, match="family-specific"):
        classify_positivity(ns, ns.basis_vector(0))


def test_l_minus_nhat_ample_for_d_at_least_3():
    for d in (3, 4, 7, 12):
        ns, dv = divisor(f"L:2d={2*d}", "L-Nhat")
        report = classify_positivity(ns, dv)
        assert report.status == "ample", d
        assert report.witness is None
        assert report.exhaustive


def test_l_minus_nhat_nef_not_big_at_d_2():
    ns, dv = divisor("L:2d=4", "L-Nhat")
    report = classify_positivity(ns, dv)
    assert report.status == "nef"
    assert report.self_intersection == 0


def test_m_l_minus_nhat_ample_at_d_2():
    for m in (2, 3):
        ns, dv = divisor("L:2d=4", f"{m}L-Nhat")
        assert classify_positivity(ns, dv).status == "ample"


def test_l_is_pseudo_ample_with_n_witness():
    ns, dv = divisor("L:2d=6", "L")
    report = classify_positivity(ns, dv)
    assert report.status == "pseudo_ample"
    # lexicographically smallest coefficient vector among the N_i is N8
    assert report.witness == ns.root().basis_vector(8)


def test_l_minus_four_n_pseudo_ample():
    ns, dv = divisor("L:2d=10", "L-N1-N2-N3-N4")
    assert classify_positivity(ns, dv).status == "pseudo_ample"


def test_mixed_weight_divisors_are_certified():
    # the Cauchy-Schwarz bound uses sum q_i^2, whose leading term d D^2 / 2
    # is positive for every divisor of positive square
    cases = [
        ("L:2d=12", "2L-3N1-N2-N3-N4-N5-N6-N7-N8", "ample"),
        ("L:2d=20", "2L-4N1-N2-N3-N4-N5-N6-N7-N8", "ample"),
        ("L:2d=40", "2L-5N1-2N2-N3-N4-N5-N6-N7-N8", "ample"),
        ("L:2d=6", "3L-3N1-N2-N3-N4-N5", "pseudo_ample"),
    ]
    for label, text, status in cases:
        ns, dv = divisor(label, text)
        report = classify_positivity(ns, dv)
        assert report.status == status, (label, text)
        assert report.search_bound == (0, 1)
    assert report.witness == ns.root().basis_vector(8)
    assert isotropic_classes(ns, dv, [1, 2]) == []


def test_lprime_l_minus_nhat_ample_even_d_at_least_4():
    for d in (4, 6, 8, 12):
        ns, dv = divisor(f"L':2d={2*d}", "L-Nhat")
        assert classify_positivity(ns, dv).status == "ample", d


def test_lprime4_l_minus_nhat_not_nef():
    # the effective section class C2 = (L-N3-..-N8)/2 meets L-Nhat in -1;
    # the blanket d=2 nef claim holds in L_4 but not in the glued L'_4
    ns, dv = divisor("L':2d=4", "L-Nhat")
    report = classify_positivity(ns, dv)
    assert report.status == "not_nef"
    witness = report.witness
    assert inner(witness, witness) == -2
    assert inner(dv, witness) < 0
    c2 = parse_divisor(ns, "(L-N3-N4-N5-N6-N7-N8)/2")
    assert inner(dv, c2) == -1


def test_lprime_half_classes_nef_or_pseudo_ample():
    ns, dv = divisor("L':2d=4", "L1")
    assert classify_positivity(ns, dv).status == "nef"
    ns, dv = divisor("L':2d=12", "L2")
    assert classify_positivity(ns, dv).status == "nef"
    ns, dv = divisor("L':2d=12", "L1")
    assert classify_positivity(ns, dv).status == "pseudo_ample"


def test_lprime_divisor_at_boundary_d_r_plus_4():
    # stated as nef at d = r + 4; the computed certificate is pseudo ample
    # (D^2 = 8 > 0 with the orthogonal N_j as witnesses), which implies nef
    ns, dv = divisor("L':2d=12", "L-N1-N2")
    report = classify_positivity(ns, dv)
    assert report.status == "pseudo_ample"
    assert report.self_intersection == 8


def test_enumerate_returns_sound_witnesses():
    ns, dv = divisor("L:2d=6", "L-Nhat")
    assert enumerate_obstructing_roots(ns, dv) == []
    ns, dv = divisor("L':2d=4", "L-Nhat")
    for c in enumerate_obstructing_roots(ns, dv):
        assert inner(c, c) == -2
        assert contains(ns, c)
        assert inner(dv, c) <= -1


def test_enumerate_rejects_negative_square():
    ns, dv = divisor("L:2d=6", "N1")
    with pytest.raises(ValueError, match="negative self-intersection"):
        enumerate_obstructing_roots(ns, dv)


def test_enumerate_rejects_divisor_outside_lattice():
    ns = make("L:2d=6")
    half = ns.root().vector([Fraction(1, 2)] + [0] * 8)
    with pytest.raises(ValueError, match="not a lattice point"):
        enumerate_obstructing_roots(ns, half)


def test_even_set_on_l_families():
    for label in ("L:2d=4", "L:2d=6", "L':2d=8", "L':2d=12"):
        ns = make(label)
        assert is_even_set(ns, canonical_octet(ns))


def test_even_set_fails_without_glue():
    root = split_root_l(3)
    assert not is_even_set(root, canonical_octet(make("L:2d=6")))


def test_even_set_rejects_bad_octets():
    ns = make("L:2d=6")
    octet = canonical_octet(ns)
    with pytest.raises(ValueError, match="exactly eight"):
        is_even_set(ns, octet[:7])
    bad = octet[:7] + [ns.root().basis_vector(0)]
    with pytest.raises(ValueError, match="square"):
        is_even_set(ns, bad)
    overlapping = octet[:7] + [octet[0]]
    with pytest.raises(ValueError, match="meet"):
        is_even_set(ns, overlapping)


def test_even_set_refusal_messages():
    ns = make("L':2d=8")
    octet = canonical_octet(ns)
    with pytest.raises(ValueError) as square:
        is_even_set(ns, octet[:3] + [ns.root().basis_vector(0)] + octet[4:])
    assert str(square.value) == "class #4 has square 8, not -2"
    with pytest.raises(ValueError) as meet:
        is_even_set(ns, octet[:5] + [-octet[1]] + octet[6:])
    assert str(meet.value) == "classes #2 and #6 meet: product 2"


def test_even_set_unsatisfiable_in_m_even_dprime():
    # E8(-2) has no (-2)-vectors and the parity of 2d'a^2+2 rules out the rest
    assert short_vectors(make("E8(-2)"), 2) == []
    lat = make("M:2d'=4")
    g = lat.gram
    assert all(g[i, i] % 4 == 0 for i in range(1, 9))
    assert all(g[i, j] % 2 == 0 for i in range(1, 9) for j in range(1, 9))


def test_even_set_false_in_m2_on_explicit_octet():
    # for odd d' the M family does contain disjoint (-2)-octets; the half sum
    # still fails to be integral, consistent with the non-coexistence corollary
    e8 = make("E8(-1)")
    roots = short_vectors(e8, 2)
    octet = []
    for v in roots:
        if all(inner(v, w) == -1 for w in octet):
            octet.append(v)
        if len(octet) == 8:
            break
    assert len(octet) == 8, "E8 contains an A8 frame"
    m2 = make("M:2d'=2")
    root = m2.root()
    # reuse the coordinate tuples: the same coordinates in the E8(-2) block
    # give vectors of twice the norm, so each M + w has square 2 - 4 = -2
    assert all(v.denominator == 1 for v in octet)
    classes = [root.vector([1, *v.numerators]) for v in octet]
    for i, c in enumerate(classes):
        assert inner(c, c) == -2
        for j in range(i):
            assert inner(c, classes[j]) == 0
    assert not is_even_set(m2, classes)


def test_pencil_decomposition_cone_case():
    ns, dv = divisor("L':2d=4", "L")
    pd = pencil_decomposition(ns, dv)
    assert pd is not None
    assert pd.a == 2
    assert pd.pencil == parse_divisor(ns, "(L-N1-N2)/2")
    n1 = ns.root().basis_vector(1)
    n2 = ns.root().basis_vector(2)
    assert set(pd.fixed_part) == {n1, n2}
    total = pd.a * pd.pencil + pd.fixed_part[0] + pd.fixed_part[1]
    assert total == dv


def test_pencil_decomposition_none_for_l6():
    ns, dv = divisor("L:2d=6", "L-Nhat")
    assert pencil_decomposition(ns, dv) is None


def test_pencil_decomposition_isotropic():
    ns, dv = divisor("L:2d=4", "L-Nhat")
    pd = pencil_decomposition(ns, dv)
    assert pd.a == 1 and pd.fixed_part == () and pd.pencil == dv
    doubled = 2 * dv
    pd2 = pencil_decomposition(ns, doubled)
    assert pd2.a == 2 and pd2.pencil == dv


def test_pencil_decomposition_rejects_non_nef():
    ns, dv = divisor("L':2d=4", "L-Nhat")
    with pytest.raises(ValueError, match="nef divisors"):
        pencil_decomposition(ns, dv)


def test_hyperelliptic_genus2_case():
    ns, dv = divisor("L:2d=6", "L-Nhat")
    v = hyperelliptic_test(ns, dv)
    assert v.kind == "double_cover" and v.witness_kind == "genus2"


def test_hyperelliptic_quadric_case():
    ns, dv = divisor("L':2d=8", "L-Nhat")
    v = hyperelliptic_test(ns, dv)
    assert v.kind == "double_cover" and v.witness_kind == "elliptic_pencil"
    assert v.witness == parse_divisor(ns, "(L-N1-N2-N3-N4)/2")
    assert inner(v.witness, dv) == 2


def test_hyperelliptic_membership_branch_at_d_4():
    # the elliptic classes (L-N1-..-N4)/2 live in L'_8 only: the L_8 model
    # is a birational quartic, the L'_8 model a double cover of a quadric
    ns8, dv8 = divisor("L:2d=8", "L-Nhat")
    assert hyperelliptic_test(ns8, dv8).kind == "birational"
    ns8p, dv8p = divisor("L':2d=8", "L-Nhat")
    assert hyperelliptic_test(ns8p, dv8p).kind == "double_cover"


def test_hyperelliptic_birational_for_large_d():
    for label in ("L:2d=10", "L:2d=12", "L':2d=12", "L':2d=16", "L':2d=24"):
        ns, dv = divisor(label, "L-Nhat")
        assert hyperelliptic_test(ns, dv).kind == "birational", label


def test_hyperelliptic_rejects_non_pseudo_ample():
    ns, dv = divisor("L:2d=4", "L-Nhat")  # isotropic
    with pytest.raises(ValueError, match="pseudo ample"):
        hyperelliptic_test(ns, dv)


def test_isotropic_classes_in_lprime8():
    ns, dv = divisor("L':2d=8", "L-Nhat")
    found = isotropic_classes(ns, dv, [2])
    e1 = parse_divisor(ns, "(L-N1-N2-N3-N4)/2")
    e2 = parse_divisor(ns, "(L-N5-N6-N7-N8)/2")
    assert e1 in found and e2 in found
    for e in found:
        assert inner(e, e) == 0 and inner(e, dv) == 2


def test_isotropic_classes_below_the_largest_dot():
    # E.L = 4 needs a = 1, where 2 d p a = 4 < t = 6: the scan must keep
    # grid points left of 2 d p a = t without testing the square
    ns, dv = divisor("L:2d=4", "L")
    found = isotropic_classes(ns, dv, [4, 6])
    assert found == isotropic_classes(ns, dv, [4])
    # the 28 classes L - N_i - N_j and L - Nhat
    assert len(found) == 29
    assert parse_divisor(ns, "L-Nhat") in found
    for e in found:
        assert inner(e, e) == 0 and inner(e, dv) == 4


def test_riemann_roch_values():
    cases = [
        ("L:2d=6", "2L-N1-N2-N3-N4-N5-N6-N7-N8", 6),
        ("L:2d=8", "L-Nhat", 4),
        ("L:2d=4", "L-Nhat", 2),
        ("L:2d=4", "2L-2Nhat", 3),
        ("L:2d=8", "2L-N1-N2-N3-N4-N5-N6-N7-N8", 10),
    ]
    for label, text, expect in cases:
        ns, dv = divisor(label, text)
        h0, flag = riemann_roch_h0(ns, dv)
        assert h0 == expect, (label, text)
    ns, dv = divisor("L:2d=4", "L-Nhat")
    _, flag = riemann_roch_h0(ns, dv)
    assert "pencil" in flag


def test_riemann_roch_rejects_negative():
    ns, dv = divisor("L:2d=6", "N1")
    with pytest.raises(ValueError, match="per-divisor"):
        riemann_roch_h0(ns, dv)


def test_report_json_shape():
    ns, dv = divisor("L:2d=6", "L-Nhat")
    data = classify_positivity(ns, dv).to_json()
    assert data["schema"] == "k3evenset/1"
    assert data["status"] == "ample"
    assert data["d2"] == "2"
    assert data["exhaustive"] is True
    assert "a_max" in data and "/" in data["a_max"]
    assert data["assumptions"]


@pytest.mark.parametrize("text", ["-L", "-2L+N1"])
def test_isotropic_classes_rejects_nonpositive_l_coefficient(text):
    ns = make("L:2d=6")
    dv = parse_divisor(ns, text)
    with pytest.raises(ValueError, match="positive L-coefficient"):
        isotropic_classes(ns, dv, [2])
