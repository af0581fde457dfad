import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations

import pytest

from k3evenset import acceptance, families
from k3evenset.acceptance import criterion_glue_classification
from k3evenset.disc import disc_report_json, discriminant_group
from k3evenset.exactlin import Signature, det, signature
from k3evenset.families import (
    GlueVector,
    NSFamily,
    admissible_glues,
    canonical_octet,
    families_for,
    glue_equivalent,
    glue_indices,
    glue_pairings,
    make,
    nikulin_sublattice,
    overlattice,
    parse_divisor,
    parse_family,
    validate_glue,
)
from k3evenset.lattice import contains, inner, is_primitive, lattice_to_json, same_lattice
from k3evenset.positivity import classify_positivity


def test_parse_family_grammar():
    f = parse_family("L:2d=8")
    assert f.kind == "L" and f.parameter == 4
    f = parse_family("L':2d=8")
    assert f.kind == "L'" and f.parameter == 4
    f = parse_family("M:2d'=4")
    assert f.kind == "M" and f.parameter == 2
    assert parse_family("M':2d'=8").label() == "M':2d'=8"
    for bad in ("L,2d=8", "L:2d'=8", "M:2d=4", "L:2d=7", "L:2d=0", "X:2d=4"):
        with pytest.raises(ValueError):
            parse_family(bad)


def test_lprime_requires_even_d():
    with pytest.raises(ValueError, match="2 mod 4"):
        parse_family("L':2d=6")


def test_mprime_requires_even_dprime():
    with pytest.raises(ValueError, match="parity"):
        NSFamily("M'", 3)


def test_families_for_lists_the_kinds_that_exist():
    # criteria 1 and 8 check every family families_for gives
    assert [str(f) for f in families_for(3)] == ["L:2d=6", "M:2d'=6"]
    assert [str(f) for f in families_for(4)] == ["L:2d=8", "L':2d=8", "M:2d'=8", "M':2d'=8"]


def test_make_l4():
    lat = make("L:2d=4")
    assert lat.rank == 9
    assert det(lat.gram) == 256
    assert signature(lat.gram) == Signature(1, 8, 0)


def test_make_e8():
    lat = make("E8(-1)")
    assert det(lat.gram) == 1
    assert signature(lat.gram) == Signature(0, 8, 0)


def test_make_l4_prime():
    lat = make("L':2d=4")
    assert lat.rank == 9
    assert abs(det(lat.gram)) == 64
    assert all(lat.gram[i, i] % 2 == 0 for i in range(9))


def test_make_is_memoized():
    assert make("L:2d=6") is make("L:2d=6")


def test_make_keys_families_by_canonical_label():
    lat = make("L:2d=04")
    assert lat is make("L:2d=4") is make(" L:2d=4") is make(NSFamily("L", 2))
    assert make("M':2d'=8") is make("M':2d'=008")
    assert make("E8(-2)") is make("E8(-2)")
    with pytest.raises(ValueError, match="malformed family 'E8'"):
        make("E8")
    with pytest.raises(ValueError, match="positive even integer"):
        make("L:2d=05")


def test_family_roots_shared():
    assert make("L:2d=8").root() is make("L':2d=8").root()


def brute_force_glues(d):
    """Independent oracle: test every support by direct pairing arithmetic.

    Supports of size 0 and 8 are excluded up front: there v/2 = 0 or Nhat
    already lies in N, so the adjoined class would divide L itself.
    """
    base = make(f"L:2d={2*d}")
    root = base.root()
    good = []
    for size in range(2, 8, 2):
        for s in combinations(range(1, 9), size):
            glue = root.vector(
                [Fraction(1, 2)]
                + [Fraction(1, 2) if i in s else Fraction(0) for i in range(1, 9)]
            )
            try:
                validate_glue(base, glue)
            except ValueError:
                continue
            good.append(frozenset(s))
    return good


@pytest.mark.parametrize("d,count", [(1, 0), (2, 56), (3, 0), (4, 70), (5, 0), (6, 56), (8, 70)])
def test_admissible_glue_counts(d, count):
    classes = admissible_glues(d)
    total = sum(len(c) for c in classes)
    assert total == count
    assert len(classes) == (1 if count else 0)
    assert sorted(g.support for cls in classes for g in cls) == sorted(brute_force_glues(d))


def test_admissible_glues_are_shared_tuples():
    classes = admissible_glues(6)
    assert admissible_glues(6) is classes
    assert type(classes) is tuple
    assert all(type(cls) is tuple for cls in classes)


def test_glue_sizes_per_parity():
    sizes = {len(g.support) for cls in admissible_glues(2) for g in cls}
    assert sizes == {2, 6}
    sizes = {len(g.support) for cls in admissible_glues(4) for g in cls}
    assert sizes == {4}


def test_glue_equivalent_complement_and_permutation():
    assert glue_equivalent(2, GlueVector(frozenset({1, 2})), GlueVector(frozenset({3, 4, 5, 6, 7, 8})))
    assert glue_equivalent(2, GlueVector(frozenset({1, 2})), GlueVector(frozenset({5, 6})))
    assert glue_equivalent(4, GlueVector(frozenset({1, 2, 3, 4})), GlueVector(frozenset({1, 2, 3, 5})))


def test_glue_equivalent_pairwise_sample():
    glues = [g for cls in admissible_glues(2) for g in cls]
    sample = glues[::11]
    for a in sample:
        for b in sample:
            assert glue_equivalent(2, a, b)


def test_glue_equivalent_rejects_inadmissible():
    with pytest.raises(ValueError):
        glue_equivalent(3, GlueVector(frozenset({1, 2})), GlueVector(frozenset({3, 4})))


def test_complement_gives_same_point_set():
    base = make("L:2d=8")
    root = base.root()
    o1 = overlattice(base, GlueVector(frozenset({1, 2, 3, 4})).glue_class(root))
    o2 = overlattice(base, GlueVector(frozenset({5, 6, 7, 8})).glue_class(root))
    assert same_lattice(o1, o2)


def test_overlattice_matches_make_lprime():
    for d in (2, 4, 6, 8):
        base = make(f"L:2d={2*d}")
        glue = GlueVector(frozenset(glue_indices(NSFamily("L", d)))).glue_class(base.root())
        over = overlattice(base, glue)
        assert same_lattice(over, make(f"L':2d={2*d}"))
        assert abs(det(over.gram)) * 4 == abs(det(base.gram))


def test_overlattice_rejects_parity_failure():
    base = make("L:2d=6")
    glue = GlueVector(frozenset({1, 2})).glue_class(base.root())
    with pytest.raises(ValueError, match="evenness failure"):
        overlattice(base, glue)


def test_overlattice_rejects_existing_point():
    base = make("L:2d=6")
    with pytest.raises(ValueError, match="already in lattice"):
        overlattice(base, base.root().basis_vector(0))


def test_overlattice_rejects_non_half_point():
    base = make("L:2d=6")
    bad = base.root().vector([Fraction(1, 3)] + [0] * 8)
    with pytest.raises(ValueError):
        overlattice(base, bad)


def test_nikulin_sublattice_primitive_in_families():
    for label in ("L:2d=6", "L':2d=8"):
        ns = make(label)
        nik = nikulin_sublattice(ns)
        assert nik.gram == make("N").gram
        assert is_primitive(ns, nik)


def test_parse_divisor():
    ns = make("L:2d=6")
    d = parse_divisor(ns, "L-Nhat")
    assert inner(d, d) == 2
    d = parse_divisor(ns, "2L-Nhat")
    assert inner(d, d) == 20
    d = parse_divisor(ns, "L-N1-N2-N3-N4")
    assert inner(d, d) == -2
    nsp = make("L':2d=8")
    d = parse_divisor(nsp, "(L-N1-N2-N3-N4)/2")
    assert inner(d, d) == 0
    assert contains(nsp, d)
    l1 = parse_divisor(nsp, "L1")
    assert l1 == d


def test_parse_divisor_l1_l2_split_by_parity():
    ns12 = make("L':2d=12")  # d = 6, d/2 odd: L1 = (L-N1-N2)/2
    l1 = parse_divisor(ns12, "L1")
    assert inner(l1, l1) == 2
    ns16 = make("L':2d=16")  # d = 8, d/2 even: L1 = (L-N1-..-N4)/2
    l1 = parse_divisor(ns16, "L1")
    assert inner(l1, l1) == 2


def test_parse_divisor_errors():
    ns = make("L:2d=6")
    for bad in ("", "L+", "Q", "L-N9", "L N1"):
        with pytest.raises(ValueError):
            parse_divisor(ns, bad)
    with pytest.raises(ValueError, match="L' families"):
        parse_divisor(ns, "L1")


def test_canonical_overlattice_frame_is_pinned():
    # recorded before frames took integer rows over one denominator
    base = make("L:2d=8")
    glue = GlueVector(frozenset(glue_indices(NSFamily("L", 4)))).glue_class(base.root())
    two = [["2" if j == i else "0" for j in range(9)] for i in range(1, 9)]
    assert lattice_to_json(overlattice(base, glue))["frame"] == {
        "parent": "L:2d=8",
        "matrix_num": [["1", "1", "1", "1", "1", "0", "0", "0", "0"]] + two,
        "matrix_den": "2",
    }


def test_validate_glue_messages_and_doubled_coordinates():
    base = make("L:2d=8")
    root = base.root()
    glue = GlueVector(frozenset({1, 2, 3, 4})).glue_class(root)
    assert validate_glue(base, glue) == (1, 1, 1, 1, 1, 0, 0, 0, 0)
    with pytest.raises(ValueError, match="2 \\* glue must lie in the lattice"):
        validate_glue(base, root.vector([Fraction(1, 3)] + [0] * 8))
    with pytest.raises(ValueError, match="outside the rational span"):
        validate_glue(nikulin_sublattice(base), root.vector([Fraction(1, 2)] + [0] * 8))


@pytest.mark.parametrize(
    "family, support, message",
    [
        ("L:2d=6", (1, 2, 3, 4), "evenness failure: adjoined square -1/2 is not in 2Z"),
        ("M':2d'=8", (1, 2, 3, 4), "integrality failure: glue pairs non-integrally (5/2) with gM"),
        ("L':2d=8", (1, 2, 3, 4), "glue already in lattice"),
    ],
)
def test_validate_glue_failure_messages(family, support, message):
    base = make(family)
    glue = GlueVector(frozenset(support)).glue_class(base.root())
    with pytest.raises(ValueError) as exc:
        validate_glue(base, glue)
    assert str(exc.value) == message


def test_glue_pairings_match_inner():
    # inner is the oracle: every integer pairing, read as a fraction, must
    # equal the Fraction value of the bilinear form
    rng = random.Random(20061)
    bases = [make(f) for f in ("L:2d=6", "L:2d=8", "L':2d=8", "L':2d=12", "M:2d'=4", "M':2d'=8")]
    dens = {2: 0, 3: 0, 4: 0}
    for _ in range(300):
        base = rng.choice(bases)
        home = rng.choice((base, base.root()))
        den = rng.choice((2, 3, 4))
        glue = home.vector([Fraction(rng.randint(-7, 7), den) for _ in range(home.rank)])
        if glue.denominator in dens:
            dens[glue.denominator] += 1
        pairings, p_den, sq, sq_den = glue_pairings(base, glue)
        for p, b in zip(pairings, base.basis_vectors()):
            assert Fraction(p, p_den) == inner(glue, b)
        assert Fraction(sq, sq_den) == inner(glue, glue)
    assert all(n > 0 for n in dens.values())


def _count_fractions(monkeypatch, work):
    calls = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        calls.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    result = work()
    monkeypatch.undo()
    return result, calls


@pytest.mark.parametrize("d", [3, 4, 12, 13])
def test_admissible_glues_builds_no_fraction(monkeypatch, d):
    admissible_glues.cache_clear()  # count a cold classification, not a memo hit
    classes, calls = _count_fractions(monkeypatch, lambda: admissible_glues(d))
    assert sum(len(c) for c in classes) == (70 if d % 4 == 0 else 0)
    assert calls == []


def test_criterion_glue_classification_builds_no_fraction(monkeypatch):
    result, calls = _count_fractions(monkeypatch, lambda: criterion_glue_classification(12))
    assert result.failures == []
    assert calls == []


def test_discriminant_group_of_a_fresh_lattice_builds_no_fraction(monkeypatch):
    base = make("L:2d=8")
    over = overlattice(base, GlueVector(frozenset({1, 2, 3, 4})).glue_class(base.root()))
    group, calls = _count_fractions(monkeypatch, lambda: discriminant_group(over))
    assert group.invariant_factors == (2, 2, 2, 2, 8)
    assert calls == []


@pytest.mark.parametrize("text, status", [("L-Nhat", "ample"), ("L-N1-N2", "pseudo_ample")])
def test_classify_positivity_builds_only_its_search_bound(monkeypatch, text, status):
    # pairings, the root search and the witness order stay in integers; the
    # one Fraction built is the reported a_max
    ns = make("L:2d=12")
    divisor = parse_divisor(ns, text)
    report, calls = _count_fractions(monkeypatch, lambda: classify_positivity(ns, divisor))
    assert report.status == status
    assert len(calls) == 1 and Fraction(*calls[0]) == report.search_bound


def test_parse_divisor_builds_no_fraction(monkeypatch):
    ns = make("L':2d=12")
    texts = ("L-Nhat", "(L-N1-N2)/2", "2L-3N1-N2", "L1")
    vectors, calls = _count_fractions(
        monkeypatch, lambda: [parse_divisor(ns, t) for t in texts]
    )
    assert calls == []
    h = Fraction(1, 2)
    want = [
        [1] + [-h] * 8,
        [h, -h, -h] + [0] * 6,
        [2, -3, -1] + [0] * 6,
        [h, -h, -h] + [0] * 6,  # d = 6: L1 = (L - N1 - N2)/2
    ]
    assert [list(v.root_coords()) for v in vectors] == want


def _family_layer_records():
    """Every valid family label with 2d <= 120 as its lattice and discriminant
    JSON, each invalid one as its parity message, then the family errors the
    CLI shows.  Labels are spelled here, not by the package's formatter."""

    def error(work):
        with pytest.raises(ValueError) as exc:
            work()
        return str(exc.value)

    for two_d in range(2, 121, 2):
        for kind, key in (("L", "2d"), ("L'", "2d"), ("M", "2d'"), ("M'", "2d'")):
            label = f"{kind}:{key}={two_d}"
            try:
                lat = make(parse_family(label))
            except ValueError as exc:
                yield label, str(exc)
                continue
            yield label, lattice_to_json(lat), disc_report_json(discriminant_group(lat))
    for label in ("L:2d'=4", "L':2d'=8", "M:2d=4", "M':2d=8"):
        yield label, error(lambda: parse_family(label))
    for label in ("M:2d'=4", "M':2d'=8"):
        yield label, error(lambda: canonical_octet(make(label)))
        yield label, error(lambda: parse_divisor(make(label), "L"))
    for sym in ("L1", "L2"):
        yield sym, error(lambda: parse_divisor(make("L:2d=8"), sym))


def test_family_layer_digest_is_pinned():
    # recorded before the four family constructors became one descriptor
    digest = hashlib.sha256()
    records = 0
    for record in _family_layer_records():
        digest.update(json.dumps(record, sort_keys=True).encode())
        records += 1
    assert records == 250
    assert digest.hexdigest() == "78f7ecbc9588026aff1a6a754993073ac5f977a7c88fd600999c437dbda50804"


def test_criterion_2_validates_each_glue_once(monkeypatch):
    calls = {"validate_glue": 0, "overlattice": 0}

    def counted(name):
        original = getattr(families, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        for module in (families, acceptance):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, wrapper)

    counted("validate_glue")
    counted("overlattice")
    result = criterion_glue_classification(12)
    assert result.failures == []
    # one per glue (378), plus those glue_equivalent compares
    assert calls["overlattice"] >= 378
    assert calls["validate_glue"] == calls["overlattice"]
