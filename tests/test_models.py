import json

import pytest

from k3evenset.chow import intersection_matrix, parse_ci
from k3evenset.families import make, parse_divisor, parse_family
from k3evenset.lattice import inner
from k3evenset.models import (
    _CONFIGURATIONS,
    FiberConfiguration,
    _verify_configuration,
    families_distinct,
    model_descriptor,
    polarization_pair_gram,
    sufficient_condition_lattices,
    table1_golden,
    verify_table1,
)


def test_descriptor_l2_polarization_l():
    d = model_descriptor("L:2d=2", "L")
    assert d.map_kind == "double_cover"
    assert d.target == "P2"
    assert d.images == ("node",) * 8


def test_descriptor_l8_both_polarizations():
    d = model_descriptor("L:2d=8", "L-Nhat")
    assert d.map_kind == "birational_embedding"
    assert d.target == "P3" and d.degree == 4
    assert d.images == ("line",) * 8
    d = model_descriptor("L:2d=8", "L")
    assert d.map_kind == "contraction_to_nodes"
    assert d.target == "P5" and d.degree == 8


def test_descriptor_l12_mixed_images():
    d = model_descriptor("L:2d=12", "L-N1-N2-N3-N4")
    assert d.images == ("conic",) * 4 + ("node",) * 4
    assert d.target == "P3" and d.degree == 4


def test_descriptor_cone_and_quadric_targets():
    d = model_descriptor("L':2d=4", "L")
    assert d.map_kind == "double_cover" and d.target == "cone"
    d = model_descriptor("L':2d=8", "L-Nhat")
    assert d.map_kind == "double_cover" and d.target == "quadric"


def test_descriptor_elliptic_fibration():
    d = model_descriptor("L':2d=4", "L1")
    assert d.map_kind == "elliptic_fibration"
    assert d.target == "P1"
    assert d.fibers == FiberConfiguration(12, 6)
    d = model_descriptor("L':2d=12", "L2")
    assert d.fibers == FiberConfiguration(20, 2)


def test_descriptor_l8_elliptic_class_fibers():
    # the elliptic pencil L-N1-..-N4 in L_8 has four I2 fibers and sixteen I1
    d = model_descriptor("L:2d=8", "L-N1-N2-N3-N4")
    assert d.map_kind == "elliptic_fibration"
    assert d.fibers == FiberConfiguration(16, 4)


def test_descriptor_product_rows():
    d = model_descriptor("L':2d=16", "L1xL2")
    assert d.map_kind == "product_embedding"
    assert d.target == "P2xP2"
    assert d.pair_gram == ((2, 4), (4, 2))
    d = model_descriptor("L':2d=12", "L2xL1")
    assert d.target == "P1xP2"
    assert d.pair_gram == ((0, 3), (3, 2))


def test_descriptor_rejects_non_nef_polarization():
    with pytest.raises(ValueError, match="not nef"):
        model_descriptor("L':2d=4", "L-Nhat")


def test_descriptor_rejects_m_side():
    with pytest.raises(ValueError, match="even-set side"):
        model_descriptor("M:2d'=4", "L")


def test_descriptor_is_computed_once_per_pair():
    d = model_descriptor("L:2d=08", "L")
    assert model_descriptor(parse_family("L:2d=8"), "L") is d
    for _ in range(2):
        with pytest.raises(ValueError, match="not nef"):
            model_descriptor("L':2d=4", "L-Nhat")


def _scribble(data):
    """Edit every list and dict inside JSON-shaped data in place."""
    if isinstance(data, dict):
        for value in data.values():
            _scribble(value)
        data["scribbled"] = True
    elif isinstance(data, list):
        for value in data:
            _scribble(value)
        data.append("scribbled")


def test_edited_answers_do_not_change_later_answers():
    snapshot = json.dumps(verify_table1(), sort_keys=True)
    _scribble(verify_table1())
    assert json.dumps(verify_table1(), sort_keys=True) == snapshot
    product = model_descriptor("L':2d=16", "L1xL2")
    hash(product)  # no list or dict inside the shared descriptor
    data = product.to_json()
    before = json.dumps(data, sort_keys=True)
    _scribble(data)
    assert json.dumps(product.to_json(), sort_keys=True) == before


def test_table1_full_regeneration():
    reports = verify_table1()
    assert len({r["family"] for r in reports}) == 11
    bad = [r for r in reports if not r["ok"]]
    assert bad == []


def test_table1_row_fetch_and_unknown():
    rows = verify_table1("L':2d=12")
    assert [r["polarization"] for r in rows] == ["(partner)", "L-Nhat", "L2xL1"]
    assert all(r["ok"] for r in rows)
    with pytest.raises(ValueError, match="not tabulated"):
        verify_table1("L:2d=14")


def test_half_polarizations_sum_to_l_minus_nhat():
    for label, triple in (
        ("L':2d=12", (2, 0, 3)),
        ("L':2d=16", (2, 2, 4)),
        ("L':2d=24", (4, 4, 6)),
    ):
        ns = make(label)
        l1 = parse_divisor(ns, "L1")
        l2 = parse_divisor(ns, "L2")
        total = l1 + l2
        assert total == parse_divisor(ns, "L-Nhat")
        assert (inner(l1, l1), inner(l2, l2), inner(l1, l2)) == triple


def test_chow_cross_check_against_pair_grams():
    cases = [
        ("P4xP2: (2,0)+(1,1)^3", "L:2d=6", "L", "L-Nhat"),
        ("P2xP2: (1,1)+(2,2)", "L':2d=16", "L1", "L2"),
        ("P1xP2: (2,3)", "L':2d=12", "L2", "L1"),
        ("P3xP3: (1,1)^4", "L':2d=24", "L1", "L2"),
    ]
    for text, fam, a, b in cases:
        assert intersection_matrix(parse_ci(text)) == polarization_pair_gram(fam, a, b)


def test_correspondence_pairs_and_involution():
    assert parse_family("L:2d=2").partner().label() == "M':2d'=4"
    assert parse_family("M:2d'=8").partner().label() == "L':2d=16"
    assert parse_family("L':2d=4").partner().label() == "M:2d'=2"
    for fam in (row["family"] for row in table1_golden()["rows"]):
        assert parse_family(fam).partner().partner().label() == fam


def test_families_distinct_reports():
    rep = families_distinct("L:2d=6", "M:2d'=6")
    assert rep.kind == "distinct_by_group"
    rep = families_distinct("L:2d=8", "M':2d'=8")
    assert rep.kind == "same_group_but_constraint"
    assert "d = 4" in rep.detail and "boundary" in rep.detail
    rep = families_distinct("L:2d=6", "M':2d'=6")
    assert rep.kind == "same_group_but_constraint"
    assert "parity" in rep.detail
    rep = families_distinct("L:2d=6", "L:2d=6")
    assert rep.kind == "compatible"
    rep = families_distinct("L:2d=4", "M':2d'=4")
    assert rep.kind == "same_group_but_constraint"
    assert "excluded" in rep.detail


@pytest.mark.parametrize("label", ["L':2d=6", "M':2d'=6"])
def test_families_distinct_reports_the_family_parity_message(label):
    with pytest.raises(ValueError) as exc:
        parse_family(label)
    assert families_distinct(label, label).detail == str(exc.value)
    if label.startswith("M"):
        detail = families_distinct("L:2d=6", label).detail
        assert detail == f"same-group candidate excluded: {exc.value}"


def test_sufficient_conditions_all_verified():
    results = sufficient_condition_lattices()
    assert len(results) == 9
    assert all(r.verified for r in results)
    by_name = {r.name: r.family for r in results}
    assert by_name["cone"] == "L':2d=4"
    assert by_name["ci_P4xP2"] == "L:2d=6"
    assert by_name["quadrics_P5"] == "L:2d=8"
    assert by_name["quadric_cones_P5"] == "L':2d=8"
    assert by_name["double_covers_P2"] == "L:2d=10"
    assert by_name["mixed_P3"] == "L:2d=12"
    assert by_name["bidegree_2_3_P1xP2"] == "L':2d=12"
    assert by_name["wehler_P2xP2"] == "L':2d=16"
    assert by_name["ci_P3xP3"] == "L':2d=24"


def test_configuration_lattices_carry_stated_intersection_data():
    results = {r.name: r for r in sufficient_condition_lattices()}
    cone = results["cone"].lattice
    # E'^2 = 0, E'.G0 = E'.G1 = 1, C2.E' = 1
    names = cone.basis_names
    idx = {n: i for i, n in enumerate(names)}
    assert cone.gram[idx["E'"], idx["E'"]] == 0
    assert cone.gram[idx["E'"], idx["G0"]] == 1
    assert cone.gram[idx["C2"], idx["E'"]] == 1
    ci = results["ci_P4xP2"].lattice
    idx = {n: i for i, n in enumerate(ci.basis_names)}
    assert ci.gram[idx["A1"], idx["A1"]] == 6
    assert ci.gram[idx["A2"], idx["A2"]] == 2
    assert ci.gram[idx["A1"], idx["A2"]] == 6


def _bumped(values: tuple, i: int, by: int) -> tuple:
    return values[:i] + (values[i] + by,) + values[i + 1 :]


def _perturbations(c):
    """Each stated number of a configuration row, changed on its own."""
    for i in range(3):
        yield f"squares[{i}]", c._replace(squares=_bumped(c.squares, i, 2))
    for i in range(7):
        yield f"x_curves[{i}]", c._replace(x_curves=_bumped(c.x_curves, i, 1))
        yield f"y_curves[{i}]", c._replace(y_curves=_bumped(c.y_curves, i, 1))
    if c.adjoined is not None:
        name, doubled = c.adjoined
        for i in range(len(doubled)):
            yield f"adjoined[{i}]", c._replace(adjoined=(name, _bumped(doubled, i, 2)))


@pytest.mark.parametrize("config", _CONFIGURATIONS, ids=lambda c: c.name)
def test_every_stated_number_reaches_the_isometry_check(config):
    assert _verify_configuration(config).verified
    for field, changed in _perturbations(config):
        try:
            verified = _verify_configuration(changed).verified
        except ValueError:  # the changed numbers give no even integral lattice
            verified = False
        assert not verified, field


def test_descriptor_json_shape():
    data = model_descriptor("L:2d=6", "L-Nhat").to_json()
    assert data == {
        "polarization": "L-Nhat",
        "map_kind": "double_cover",
        "target": "P2",
        "target_dim": 2,
        "degree": 1,
        "h0": 3,
        "images": ["line"] * 8,
    }


def test_partner_family_of_invalid_parse():
    with pytest.raises(ValueError):
        families_distinct("L:2d", "M:2d'=4")


@pytest.mark.parametrize("bad", ["L:2d=7", "M:2d=4", "L:2d=0"])
def test_families_distinct_rejects_what_parse_family_rejects(bad):
    with pytest.raises(ValueError):
        families_distinct(bad, "L:2d=6")
    with pytest.raises(ValueError):
        families_distinct("L:2d=6", bad)
