import random
from fractions import Fraction

import pytest

from k3evenset.disc import discriminant_group
from k3evenset.exactlin import IntMatrix, signature
from k3evenset.families import (
    canonical_octet,
    k3_lattice,
    make,
    nikulin_sublattice,
    parse_divisor,
)
from k3evenset.lattice import (
    FrameVector,
    IntegerLattice,
    contains,
    content,
    coords_in,
    frames_compatible,
    inner,
    inner_scaled,
    is_primitive,
    isometry_from_basis_map,
    lattice_to_json,
    same_lattice,
    short_vectors,
)
from test_oracles import saturation


def nhat_vector(ns):
    root = ns.root()
    return root.vector([0] + [Fraction(1, 2)] * 8)


def test_even_lattice_flag_rejects_odd_diagonal():
    with pytest.raises(ValueError):
        IntegerLattice("odd", IntMatrix([[1]]), ("x",))


def test_gram_must_be_symmetric():
    with pytest.raises(ValueError):
        IntegerLattice("bad", IntMatrix([[0, 1], [2, 0]]), ("x", "y"))


def test_inner_nikulin_values():
    ns = make("L:2d=6")
    root = ns.root()
    nhat = nhat_vector(ns)
    assert inner(nhat, nhat) == -4
    assert inner(nhat, root.basis_vector(3)) == -1
    lvec = root.basis_vector(0)
    assert inner(lvec, lvec) == 6


def test_inner_is_bilinear_and_even():
    rng = random.Random(5)
    ns = make("L:2d=8")
    for _ in range(40):
        coords = [rng.randint(-3, 3) for _ in range(9)]
        x = ns.vector(coords)
        assert type(inner(x, x)) is int
        assert inner(x, x) % 2 == 0
        y = ns.vector([rng.randint(-3, 3) for _ in range(9)])
        assert inner(x, y) == inner(y, x)
        z = x + y
        assert inner(z, z) == inner(x, x) + 2 * inner(x, y) + inner(y, y)
    # against a Fraction sum over the Gram: dual lifts with non-integral
    # pairings and random rational vectors, each x paired with every y (its
    # cached G x row is reused), and y read in ns, in its root and in a
    # structurally equal but distinct root
    ns = make("L:2d=6")
    root = ns.root()
    twin = IntegerLattice(root.name, root.gram, root.basis_names)
    assert twin is not root and frames_compatible(ns, twin)
    coords = [fractions_of(v) for v in discriminant_group(ns).lifts]
    coords += [[Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3))) for _ in range(9)] for _ in range(8)]
    non_integral = 0
    for cx in coords:
        x = ns.vector(cx)
        rx = _root_coords_by_fractions(ns, cx)
        for cy in coords:
            want = _gram_sum(ns.gram, cx, cy)
            ry = _root_coords_by_fractions(ns, cy)
            assert _gram_sum(root.gram, rx, ry) == want
            for y in (ns.vector(cy), root.vector(ry), twin.vector(ry)):
                assert Fraction(*inner_scaled(x, y)) == want
                assert_inner(x, y, want)
            assert_inner(twin.vector(rx), ns.vector(cy), want)
            non_integral += want.denominator > 1
        assert x.gram_row() is x.gram_row()
    assert non_integral > 100


def assert_inner(x, y, want):
    """inner(x, y) is the int want, or raises when want is not an integer."""
    if want.denominator == 1:
        got = inner(x, y)
        assert type(got) is int and got == want
    else:
        with pytest.raises(ValueError, match=f"= {want} is not an integer"):
            inner(x, y)


def test_inner_raises_on_a_half_integral_square():
    # (L + N1 + N2)/2 in the split frame of L:2d=6 has square (6 - 4)/4 = 1/2
    ns = make("L:2d=6")
    v = parse_divisor(ns, "(L+N1+N2)/2")
    assert Fraction(*inner_scaled(v, v)) == Fraction(1, 2)
    with pytest.raises(ValueError, match=r"^<1/2\*L\+1/2\*N1\+1/2\*N2 in Lsplit:2d=6> \. .* = 1/2 is not an integer$"):
        inner(v, v)


def _root_coords_by_fractions(lat, coords):
    """Root-frame coordinates, by walking the frame chain in Fractions."""
    coords = [Fraction(c) for c in coords]
    while lat.frame is not None:
        parent, rows, s = lat.frame
        coords = [sum(c * row[j] for c, row in zip(coords, rows)) / s for j in range(parent.rank)]
        lat = parent
    return coords


def _gram_sum(gram, a, b):
    n = len(a)
    return sum(Fraction(a[i]) * gram[i, j] * b[j] for i in range(n) for j in range(n))


def test_inner_rejects_frame_mismatch():
    a = make("L:2d=6").root().basis_vector(0)
    b = make("L:2d=8").root().basis_vector(0)
    with pytest.raises(ValueError):
        inner(a, b)


def test_contains_examples():
    ns6 = make("L:2d=6")
    nik = nikulin_sublattice(ns6)
    nhat = nhat_vector(ns6)
    assert contains(nik, nhat)
    assert not contains(nik, nhat / 2)
    ns4 = make("L:2d=4")
    ns4p = make("L':2d=4")
    v = parse_divisor(ns4, "(L-N1-N2)/2")
    assert not contains(ns4, v)
    assert contains(ns4p, v)


def test_contains_stable_under_reexpression():
    ns = make("L':2d=8")
    v = parse_divisor(ns, "(L-N1-N2-N3-N4)/2")
    in_basis = coords_in(ns, v)
    w = ns.vector(in_basis)
    assert v == w
    assert contains(ns, w)


def test_saturation_of_octet_in_nikulin():
    ns = make("L:2d=6")
    nik = nikulin_sublattice(ns)
    sat, index = saturation(nik, canonical_octet(ns))
    assert index == 2
    assert same_lattice(sat, nik)


def test_saturation_primitive_and_imprimitive_vectors():
    ns = make("L:2d=6")
    lvec = ns.root().basis_vector(0)
    sat, index = saturation(ns, [lvec])
    assert index == 1
    sat2, index2 = saturation(ns, [2 * lvec])
    assert index2 == 2
    assert same_lattice(sat, sat2)


def test_saturation_idempotent():
    ns = make("L:2d=6")
    nik = nikulin_sublattice(ns)
    sat, _ = saturation(nik, canonical_octet(ns))
    sat2, index = saturation(sat, sat.basis_vectors())
    assert index == 1
    assert same_lattice(sat, sat2)


def test_saturation_rejects_dependent_generators():
    ns = make("L:2d=6")
    root = ns.root()
    with pytest.raises(ValueError, match="dependent"):
        saturation(ns, [root.basis_vector(1), 2 * root.basis_vector(1)])


def test_is_primitive_matches_saturation_index():
    ns = make("L:2d=6")
    nik = nikulin_sublattice(ns)
    assert is_primitive(ns, nik)
    sat, index = saturation(ns, nik.basis_vectors())
    assert index == 1


def test_anti_diagonal_e8_primitive_in_k3():
    # the copy {(0, x, -x)} of E8(-2) inside U^3 + E8(-1)^2
    k3 = k3_lattice()
    rows = [
        [0] * 6 + [int(i == j) for j in range(8)] + [-int(i == j) for j in range(8)]
        for i in range(8)
    ]
    anti = IntegerLattice.framed("E8(-2)^anti", k3, rows, [f"w{i}" for i in range(1, 9)])
    assert anti.gram == make("E8(-2)").gram
    assert is_primitive(k3, anti)


def test_imprimitive_sublattice_detected():
    ns = make("L:2d=6")
    doubled = IntegerLattice.framed("2L", ns.root(), [[2] + [0] * 8], ("x",))
    assert not is_primitive(ns, doubled)


def test_isometry_identity_and_swap():
    ns = make("L:2d=6")
    identity = [[1 if i == j else 0 for j in range(9)] for i in range(9)]
    assert isometry_from_basis_map(ns, ns, identity)
    swap = [row[:] for row in identity]
    swap[0], swap[1] = swap[1], swap[0]  # L <-> N1: 6 != -2
    assert not isometry_from_basis_map(ns, ns, swap)


def test_isometry_requires_unimodular_integral_map():
    ns = make("L:2d=6")
    doubled = [[2 if i == j else 0 for j in range(9)] for i in range(9)]
    assert not isometry_from_basis_map(ns, ns, doubled)
    halves = [[Fraction(1, 2) if i == j else 0 for j in range(9)] for i in range(9)]
    assert not isometry_from_basis_map(ns, ns, halves)


def test_isometry_consistency_det_and_signature():
    # a successful basis map forces equal determinants and signatures
    a = make("L':2d=8")
    b = make("L':2d=8")
    identity = [[1 if i == j else 0 for j in range(9)] for i in range(9)]
    assert isometry_from_basis_map(a, b, identity)
    assert a.determinant() == b.determinant()
    assert signature(a.gram) == signature(b.gram)


def test_short_vectors_counts_e8_roots():
    roots = short_vectors(make("E8(-1)"), 2)
    assert len(roots) == 240
    assert all(inner(v, v) == -2 for v in roots)


def test_short_vectors_e8_minus_two_has_no_roots():
    assert short_vectors(make("E8(-2)"), 2) == []
    assert len(short_vectors(make("E8(-2)"), 4)) == 240


def test_short_vectors_requires_negative_definite():
    with pytest.raises(ValueError):
        short_vectors(make("U"), 2)


def test_content():
    ns = make("L:2d=6")
    lvec = ns.root().basis_vector(0)
    assert content(ns, lvec) == 1
    assert content(ns, 3 * lvec) == 3


def test_vector_normalization():
    ns = make("L:2d=6")
    v = FrameVector(ns, [2, 4, 0, 0, 0, 0, 0, 0, 6], 4)
    assert v.numerators == (1, 2, 0, 0, 0, 0, 0, 0, 3)
    assert v.denominator == 2
    with pytest.raises(ValueError):
        FrameVector(ns, [1] * 9, 0)


def test_json_round_trip():
    # the frame in the JSON form rebuilds the lattice over its parent
    ns = make("L':2d=8")
    data = lattice_to_json(ns)
    assert data["schema"] == "k3evenset/1"
    assert all(isinstance(x, str) for row in data["gram"] for x in row)
    frame = data["frame"]
    assert frame["parent"] == ns.root().name
    rows = [[int(x) for x in row] for row in frame["matrix_num"]]
    back = IntegerLattice.framed(
        data["name"], ns.root(), rows, data["basis_names"], s=int(frame["matrix_den"])
    )
    assert [[str(x) for x in row] for row in back.gram.entries] == data["gram"]
    assert back.basis_names == ns.basis_names
    assert same_lattice(back, ns)


def fractions_of(v):
    """The coordinates of v in its own basis, as Fractions."""
    return [Fraction(n, v.denominator) for n in v.numerators]


def fraction_root(v):
    """Root coordinates of v computed in Fraction arithmetic from its frame."""
    coords = fractions_of(v)
    lat = v.lattice
    while lat.frame is not None:
        parent, rows, s = lat.frame
        coords = [
            sum(c * Fraction(r[j], s) for c, r in zip(coords, rows)) for j in range(parent.rank)
        ]
        lat = parent
    return coords


SCALARS = [3, -2, 0, Fraction(1, 2), Fraction(-3, 4), Fraction(5, 3)]


def test_frame_vector_arithmetic_against_fractions():
    rng = random.Random(31)
    ns, nsp = make("L:2d=8"), make("L':2d=8")

    def rand_vec(lat):
        return lat.vector([Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3))) for _ in range(9)])

    for _ in range(40):
        x, y = rand_vec(ns), rand_vec(ns)
        # same lattice: the result stays in the lattice's own basis
        for got, op in ((x + y, lambda a, b: a + b), (x - y, lambda a, b: a - b)):
            assert got.lattice is ns
            assert fractions_of(got) == [op(a, b) for a, b in zip(fractions_of(x), fractions_of(y))]
        # L against L' over a shared root: the result lives in the root frame
        z = rand_vec(nsp)
        for got, op in ((x + z, lambda a, b: a + b), (z - x, lambda a, b: b - a)):
            assert got.lattice is ns.root()
            assert fractions_of(got) == [
                op(a, b) for a, b in zip(fraction_root(x), fraction_root(z))
            ]
        for k in SCALARS:
            assert fractions_of(k * x) == [k * c for c in fractions_of(x)]
            assert fractions_of(x * k) == [c * k for c in fractions_of(x)]
            if k:
                assert fractions_of(x / k) == [c / k for c in fractions_of(x)]
        assert fractions_of(-z) == [-c for c in fractions_of(z)]
    with pytest.raises(ZeroDivisionError):
        x / 0
    with pytest.raises(ValueError, match="incompatible frames"):
        x + make("M:2d'=8").basis_vector(0)
    for op in (lambda: 0.5 * x, lambda: x * 0.5, lambda: x / 2.0, lambda: ns.vector([0.5] + [0] * 8)):
        with pytest.raises(TypeError, match="is not an exact rational"):
            op()


def fraction_repr(v):
    """FrameVector's repr, built from Fraction coordinates."""
    terms = []
    for name, c in zip(v.lattice.basis_names, fractions_of(v)):
        if c == 0:
            continue
        if c == 1:
            terms.append(f"+{name}")
        elif c == -1:
            terms.append(f"-{name}")
        else:
            terms.append(f"{'+' if c > 0 else '-'}{abs(c)}*{name}")
    body = "".join(terms).lstrip("+") or "0"
    return f"<{body} in {v.lattice.name}>"


def test_repr_eq_and_hash_against_fractions():
    # repr prints each coordinate as str(Fraction) does; two vectors are equal,
    # and hash alike, exactly when their Fraction root coordinates agree
    rng = random.Random(47)
    ns, nsp = make("L:2d=8"), make("L':2d=8")
    vectors = [ns.vector([0] * 9)]
    for _ in range(60):
        lat = rng.choice((ns, nsp, ns.root()))
        den = rng.choice((1, 2, 3, 4, 6))
        vectors.append(lat.vector([Fraction(rng.randint(-7, 7), den) for _ in range(9)]))
    # the same points read in another basis of the shared root
    vectors += [v + ns.root().vector([0] * 9) for v in vectors[:20]]
    for v in vectors:
        assert repr(v) == fraction_repr(v)
        for w in vectors:
            same = fraction_root(v) == fraction_root(w)
            assert (v == w) is same
            if same:
                assert hash(v) == hash(w)
    assert ns.basis_vector(0) != make("L:2d=6").basis_vector(0)


def test_framed_reduces_a_non_minimal_denominator():
    root = make("L:2d=8").root()
    rows = [[1, 1, 1, 1, 1, 0, 0, 0, 0], [0, 2, 0, 0, 0, 0, 0, 0, 0]]
    minimal = IntegerLattice.framed("m", root, rows, ("a", "b"), s=2)
    for k in (2, 3, 10):
        scaled = [[k * x for x in row] for row in rows]
        other = IntegerLattice.framed("m", root, scaled, ("a", "b"), s=2 * k)
        assert other.frame == minimal.frame
        assert other.gram == minimal.gram
        assert lattice_to_json(other) == lattice_to_json(minimal)
    integral = IntegerLattice.framed("i", root, [[4] + [0] * 8], ("x",), s=2)
    assert integral.frame[1:] == (((2,) + (0,) * 8,), 1)
    with pytest.raises(TypeError):
        IntegerLattice.framed("f", root, [[Fraction(1, 2)] + [0] * 8], ("x",))
