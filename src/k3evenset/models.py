"""Projective-model descriptors, the model table with each family's X/Y
correspondence partner, the exclusion reports and the sufficient-condition
configuration lattices.

Everything structured here is recomputed from lattice data: dimensions via
Riemann-Roch, map kinds via the positivity and hyperelliptic engines, image
types of the even-set curves from the intersection numbers D.N_i (0 means
contracted to a node, 1 a line, 2 a conic).  The golden copy of the table
stores the same structured fields plus display text, and regeneration must
match it exactly.
"""

from __future__ import annotations

import json
from functools import cache
from importlib import resources
from typing import NamedTuple, Optional

from .exactlin import IntMatrix
from .lattice import FrameVector, IntegerLattice, inner, isometry_from_basis_map
from .families import (
    NSFamily,
    canonical_octet,
    discriminant_factors,
    make,
    parse_divisor,
    parse_family,
    parse_family_syntax,
    parity_violation,
)
from .disc import discriminant_group
from .positivity import (
    STATUS_AMPLE,
    STATUS_NOT_NEF,
    HyperellipticVerdict,
    classify_positivity,
    hyperelliptic_test,
    pencil_decomposition,
    riemann_roch_h0,
)


class FiberConfiguration(NamedTuple):
    """Counts of singular fibers of an elliptic K3 fibration (types I1, I2)."""

    i1: int
    i2: int


class ProjectiveModelDescriptor(NamedTuple):
    """Immutable throughout (tuples, not lists), so one descriptor can be shared."""

    family: NSFamily
    polarization: str
    map_kind: str
    target: str
    target_dim: object  # int, or (int, int) for product models
    degree: Optional[int] = None
    h0: Optional[int] = None
    pair_gram: Optional[tuple] = None
    images: Optional[tuple] = None
    fibers: Optional[FiberConfiguration] = None

    def to_json(self) -> dict:
        out = {
            "polarization": self.polarization,
            "map_kind": self.map_kind,
            "target": self.target,
            "target_dim": _json_copy(self.target_dim),
        }
        if self.degree is not None:
            out["degree"] = self.degree
        if self.h0 is not None:
            out["h0"] = self.h0
        if self.pair_gram is not None:
            out["pair_gram"] = _json_copy(self.pair_gram)
        if self.images is not None:
            out["images"] = _json_copy(self.images)
        if self.fibers is not None:
            out["fibers"] = {"I1": self.fibers.i1, "I2": self.fibers.i2}
        return out


def _json_copy(value):
    """value as JSON data, tuples as lists, in new containers only."""
    if isinstance(value, dict):
        return {k: _json_copy(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_copy(v) for v in value]
    return value


_IMAGE_NAMES = {0: "node", 1: "line", 2: "conic"}


def _image_type(value: int) -> str:
    return _IMAGE_NAMES.get(value, str(value))


def _single_images(ns: IntegerLattice, divisor: FrameVector) -> tuple:
    return tuple(_image_type(inner(divisor, n)) for n in canonical_octet(ns))


def double_cover_target(
    ns: IntegerLattice, divisor: FrameVector, verdict: HyperellipticVerdict
) -> str:
    """Name the 2:1 target: P2, a quadric, or a cone.

    Keyed exactly on the lattice data: D^2 = 2 maps to the plane; the shape
    D = 2E + Gamma_0 + Gamma_1 is the double cover of a cone; D = E_1 + E_2
    with two free pencils meeting twice is the double cover of a quadric.
    `verdict` is the divisor's `hyperelliptic_test` result.
    """
    d2 = inner(divisor, divisor)
    if d2 == 2:
        return "P2"
    pd = pencil_decomposition(ns, divisor)
    if pd is not None and len(pd.fixed_part) == 2:
        return "cone"
    if verdict.witness_kind == "elliptic_pencil":
        e1 = verdict.witness
        e2 = divisor - e1
        if inner(e2, e2) == 0 and inner(e1, e2) == 2:
            if classify_positivity(ns, e2).status != STATUS_NOT_NEF:
                return "quadric"
    return "unknown"


def model_descriptor(family: NSFamily | str, polarization: str) -> ProjectiveModelDescriptor:
    """Projective-model data of one polarization, from lattice computations only.

    The data is fixed by (family, polarization), so it is computed once per
    pair and the descriptor is shared; a refused pair raises on every call.
    """
    if isinstance(family, str):
        family = parse_family(family)
    return _model_descriptor(family, polarization)


@cache
def _model_descriptor(family: NSFamily, polarization: str) -> ProjectiveModelDescriptor:
    if family.side != "L":
        raise ValueError(f"{family}: model descriptors are computed on the even-set side")
    ns = make(family)
    if "x" in polarization:
        return _product_descriptor(family, ns, polarization)
    divisor = parse_divisor(ns, polarization)
    report = classify_positivity(ns, divisor)
    if report.status == STATUS_NOT_NEF:
        raise ValueError(
            f"{family}: polarization {polarization} is not nef (witness {report.witness!r})"
        )
    h0, _ = riemann_roch_h0(ns, divisor)
    d2 = report.self_intersection
    if d2 == 0:
        contracted = sum(1 for n in canonical_octet(ns) if inner(divisor, n) == 0)
        fibers = FiberConfiguration(i1=24 - 2 * contracted, i2=contracted)
        return ProjectiveModelDescriptor(
            family=family,
            polarization=polarization,
            map_kind="elliptic_fibration",
            target="P1",
            target_dim=h0 - 1,
            h0=h0,
            fibers=fibers,
        )
    verdict = hyperelliptic_test(ns, divisor)
    if verdict.kind == "double_cover":
        return ProjectiveModelDescriptor(
            family=family,
            polarization=polarization,
            map_kind="double_cover",
            target=double_cover_target(ns, divisor, verdict),
            target_dim=h0 - 1,
            degree=d2 // 2,
            h0=h0,
            images=_single_images(ns, divisor),
        )
    kind = "birational_embedding" if report.status == STATUS_AMPLE else "contraction_to_nodes"
    return ProjectiveModelDescriptor(
        family=family,
        polarization=polarization,
        map_kind=kind,
        target=f"P{h0 - 1}",
        target_dim=h0 - 1,
        degree=d2,
        h0=h0,
        images=_single_images(ns, divisor),
    )


def _product_descriptor(
    family: NSFamily, ns: IntegerLattice, polarization: str
) -> ProjectiveModelDescriptor:
    first_name, second_name = polarization.split("x", 1)
    first = parse_divisor(ns, first_name)
    second = parse_divisor(ns, second_name)
    h0s = [riemann_roch_h0(ns, v)[0] for v in (first, second)]
    dims = tuple(h - 1 for h in h0s)
    images = tuple(
        (_image_type(inner(first, n)), _image_type(inner(second, n)))
        for n in canonical_octet(ns)
    )
    return ProjectiveModelDescriptor(
        family=family,
        polarization=polarization,
        map_kind="product_embedding",
        target=f"P{dims[0]}xP{dims[1]}",
        target_dim=dims,
        pair_gram=_pair_gram(first, second),
        images=images,
    )


def polarization_pair_gram(family: NSFamily | str, first: str, second: str) -> IntMatrix:
    """Gram matrix of two named polarizations, for the Chow cross-checks."""
    if isinstance(family, str):
        family = parse_family(family)
    ns = make(family)
    return IntMatrix(_pair_gram(parse_divisor(ns, first), parse_divisor(ns, second)))


def _pair_gram(a: FrameVector, b: FrameVector) -> tuple[tuple[int, ...], ...]:
    """The 2x2 Gram matrix of two divisors, as integers."""
    return tuple(tuple(inner(u, v) for v in (a, b)) for u in (a, b))


# --- the model table ---------------------------------------------------------


@cache
def table1_golden() -> dict:
    """The packaged golden table, parsed once per process and shared: never edit it."""
    with resources.files("k3evenset.data").joinpath("table1_golden.json").open() as fh:
        return json.load(fh)


def _golden_rows(family: NSFamily | str | None) -> list[dict]:
    """The shared golden rows of one family (a label is parsed), or all for None."""
    rows = table1_golden()["rows"]
    if family is None:
        return rows
    label = (parse_family(family) if isinstance(family, str) else family).label()
    rows = [r for r in rows if r["family"] == label]
    if not rows:
        raise ValueError(f"{label} is not tabulated")
    return rows


def verify_table1(family: NSFamily | str | None = None) -> list[dict]:
    """Compare regenerated rows against the golden table.

    Returns one report per (family, polarization): {"family", "polarization",
    "ok", "computed", "expected"}; also checks the partner family and its
    ambient dimension through the correspondence.
    """
    reports = []
    for row in _golden_rows(family):
        fam = parse_family(row["family"])
        partner = fam.partner()
        partner_dim = partner.parameter + 1  # h0(M) - 1 = d' + 1
        reports.append(
            {
                "family": row["family"],
                "polarization": "(partner)",
                "ok": partner.label() == row["partner"]
                and partner_dim == row["partner_target_dim"],
                "computed": {"partner": partner.label(), "target_dim": partner_dim},
                "expected": {
                    "partner": row["partner"],
                    "target_dim": row["partner_target_dim"],
                },
            }
        )
        for entry in row["models"]:
            computed = model_descriptor(fam, entry["polarization"]).to_json()
            expected = {k: _json_copy(v) for k, v in entry.items() if k != "text"}
            reports.append(
                {
                    "family": row["family"],
                    "polarization": entry["polarization"],
                    "ok": computed == expected,
                    "computed": computed,
                    "expected": expected,
                }
            )
    return reports


# --- exclusion ---------------------------------------------------------------


class DistinctnessReport(NamedTuple):
    kind: str  # "compatible" | "distinct_by_group" | "same_group_but_constraint"
    detail: str


def families_distinct(f1, f2) -> DistinctnessReport:
    """Can two family descriptors denote isometric lattices?

    Comparison is by discriminant groups, which isometric lattices share.
    When the groups agree the report surfaces the corollary's separating
    constraint on the L_{2d} / M'_{2d} pair (d = 0 mod 4) verbatim rather
    than resolving the boundary case.
    """
    (k1, p1), (k2, p2) = parse_family_syntax(str(f1)), parse_family_syntax(str(f2))
    bad1, bad2 = parity_violation(k1, p1), parity_violation(k2, p2)
    if (k1, p1) == (k2, p2):
        if bad1:
            return DistinctnessReport("same_group_but_constraint", bad1)
        return DistinctnessReport("compatible", "identical families")
    g1 = discriminant_factors(k1, p1)
    g2 = discriminant_factors(k2, p2)
    for kind, parameter, bad, g in ((k1, p1, bad1, g1), (k2, p2, bad2, g2)):
        if bad is None:
            family = NSFamily(kind, parameter)
            if discriminant_group(make(family)).invariant_factors != g:
                raise RuntimeError(f"computed group of {family} deviates from the lemma")
    if g1 != g2:
        return DistinctnessReport(
            "distinct_by_group", f"invariant factors {list(g1)} vs {list(g2)}"
        )
    bad = bad1 or bad2
    if bad is not None:
        return DistinctnessReport(
            "same_group_but_constraint",
            f"same-group candidate excluded: {bad}",
        )
    # only the (L_{2d}, M'_{2d}) pair reaches this point
    d = p1
    if d % 4 == 0:
        detail = (
            f"M' needs d = 0 mod 4; here d = {d} "
            "- compatibility boundary case reported verbatim"
        )
    else:
        detail = f"M' needs d = 0 mod 4; here d = {d} - excluded by the corollary's constraint"
    return DistinctnessReport("same_group_but_constraint", detail)


# --- sufficient-condition configurations (geometric data to lattices) --------


class ConfigurationResult(NamedTuple):
    name: str
    description: str
    lattice: IntegerLattice
    family: str
    verified: bool


class _Configuration(NamedTuple):
    """One proposition's configuration: classes X and Y and seven (-2)-curves.

    The raw lattice has basis `basis`, in which X and Y are named `x` and `y`
    and the remaining names are the curves R_1..R_7, in order; R_i maps to
    N_i.  Images are coordinates in the family basis (L or g, N1..N7, Nhat).
    Where the even-set divisibility is part of the geometric conclusion, the
    adjoined class (name, twice its coordinates over `basis`) replaces Y, and
    `y_image` is its image.
    """

    name: str
    description: str
    family: str
    basis: tuple
    x: str
    y: str
    squares: tuple  # (X^2, Y^2, X.Y)
    x_curves: tuple  # X.R_i, i = 1..7
    y_curves: tuple  # Y.R_i
    x_image: tuple
    y_image: tuple
    adjoined: Optional[tuple] = None


_R = tuple(f"R{i}" for i in range(1, 8))

_CONFIGURATIONS = (
    _Configuration(
        "cone", "double cover of a cone branched in a conic and a sextic meeting in six points",
        "L':2d=4", ("E'", "G0", "G1", "G2", "G3", "G4", "G5", "G6", "C2"), "E'", "C2",
        (0, -2, 1), (1, 1, 0, 0, 0, 0, 0), (0, 0, 1, 1, 1, 1, 1),
        (1, 0, 0, 0, 0, 0, 0, 0, 0), (1, 1, 1, 0, 0, 0, 0, 0, -1),  # g, g + N1 + N2 - Nhat
    ),
    _Configuration(
        "ci_P4xP2", "complete intersection of type (2,0)+(1,1)^3 in P4xP2",
        "L:2d=6", ("A1", "A2") + _R, "A1", "A2",
        (6, 2, 6), (0, 0, 0, 0, 0, 0, 0), (1, 1, 1, 1, 1, 1, 1),
        (1, 0, 0, 0, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0, 0, 0, -1),  # L, L - Nhat
    ),
    _Configuration(
        "quadrics_P5", "complete intersection of three quadrics in P5 with an even set of nodes",
        "L:2d=8", ("A1", "A2") + _R, "A1", "A2",
        (8, 4, 8), (0, 0, 0, 0, 0, 0, 0), (1, 1, 1, 1, 1, 1, 1),
        (1, 0, 0, 0, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0, 0, 0, -1),  # L, L - Nhat
    ),
    _Configuration(
        "quadric_cones_P5",
        "c.i. of a smooth quadric and two quadrics singular along disjoint planes",
        "L':2d=8", ("C1", "C2") + _R, "C1", "C2",
        (0, 0, 2), (1, 1, 1, 1, 0, 0, 0), (0, 0, 0, 0, 1, 1, 1),
        (1, 0, 0, 0, 0, 0, 0, 0, 0), (1, 1, 1, 1, 1, 0, 0, 0, -1),  # g, g + N1..N4 - Nhat
    ),
    _Configuration(
        "double_covers_P2",
        "two 2:1 maps to P2, each contracting four curves and sending four to conics",
        "L:2d=10", ("A1", "A2") + _R, "A1", "A2",
        (2, 2, 10), (0, 0, 0, 0, 2, 2, 2), (2, 2, 2, 2, 0, 0, 0),
        (1, 1, 1, 1, 1, 0, 0, 0, -2), (0, 0, 0, 0, 0, 0, 0, 0, 1),  # L + N1..N4 - 2Nhat, Nhat
        ("delta", (-1, 1, 2, 2, 2, 2, 0, 0, 0)),  # (A2 - A1)/2 + R1 + R2 + R3 + R4
    ),
    _Configuration(
        "mixed_P3", "two maps to P3, each contracting four curves and sending four to conics",
        "L:2d=12", ("A1", "A2") + _R, "A1", "A2",
        (4, 4, 12), (0, 0, 0, 0, 2, 2, 2), (2, 2, 2, 2, 0, 0, 0),
        (1, 1, 1, 1, 1, 0, 0, 0, -2), (0, 0, 0, 0, 0, 0, 0, 0, 1),  # L + N1..N4 - 2Nhat, Nhat
        ("delta", (-1, 1, 2, 2, 2, 2, 0, 0, 0)),  # (A2 - A1)/2 + R1 + R2 + R3 + R4
    ),
    _Configuration(
        "bidegree_2_3_P1xP2",
        "surface of bidegree (2,3) in P1xP2 with two contracted curves and six sections",
        "L':2d=12", ("D1", "D2") + _R, "D1", "D2",
        (0, 2, 3), (0, 0, 1, 1, 1, 1, 1), (1, 1, 0, 0, 0, 0, 0),
        (1, 1, 1, 0, 0, 0, 0, 0, -1), (1, 0, 0, 0, 0, 0, 0, 0, 0),  # g + N1 + N2 - Nhat, g
    ),
    _Configuration(
        "wehler_P2xP2", "c.i. of a (1,1) and a (2,2) hypersurface in P2xP2 (Wehler surface)",
        "L':2d=16", ("D1", "D2") + _R, "D1", "D2",
        (2, 2, 4), (0, 0, 0, 0, 1, 1, 1), (1, 1, 1, 1, 0, 0, 0),
        (1, 1, 1, 1, 1, 0, 0, 0, -1), (1, 0, 0, 0, 0, 0, 0, 0, 0),  # g + N1..N4 - Nhat, g
    ),
    _Configuration(
        "ci_P3xP3", "c.i. of four (1,1) hypersurfaces in P3xP3",
        "L':2d=24", ("D1", "D2") + _R, "D1", "D2",
        (4, 4, 6), (0, 0, 0, 0, 1, 1, 1), (1, 1, 1, 1, 0, 0, 0),
        (1, 1, 1, 1, 1, 0, 0, 0, -1), (1, 0, 0, 0, 0, 0, 0, 0, 0),  # g + N1..N4 - Nhat, g
    ),
)


def _verify_configuration(c: _Configuration) -> ConfigurationResult:
    """Build one configuration's lattice and check its basis map into the family."""
    x2, y2, xy = c.squares
    curves = [n for n in c.basis if n not in (c.x, c.y)]
    pairing = {c.x: {c.x: x2, c.y: xy}, c.y: {c.x: xy, c.y: y2}}
    image = {c.x: c.x_image}
    for i, (r, xr, yr) in enumerate(zip(curves, c.x_curves, c.y_curves), 1):
        pairing[c.x][r], pairing[c.y][r] = xr, yr
        pairing[r] = {c.x: xr, c.y: yr, r: -2}
        image[r] = tuple(int(j == i) for j in range(9))
    gram = IntMatrix([[pairing[a].get(b, 0) for b in c.basis] for a in c.basis])
    if c.adjoined is None:
        names = c.basis
        lattice = IntegerLattice(c.name, gram, names)
        image[c.y] = c.y_image
    else:
        adjoined, doubled = c.adjoined
        names = (adjoined,) + tuple(n for n in c.basis if n != c.y)
        rows = [doubled] + [[2 * (b == n) for b in c.basis] for n in names[1:]]
        raw = IntegerLattice(c.name + "-raw", gram, c.basis)
        lattice = IntegerLattice.framed(c.name, raw, rows, names, s=2)
        image[adjoined] = c.y_image
    verified = isometry_from_basis_map(lattice, make(c.family), [image[n] for n in names])
    return ConfigurationResult(c.name, c.description, lattice, c.family, verified)


def sufficient_condition_lattices() -> list[ConfigurationResult]:
    """Build each geometric configuration and verify its claimed lattice.

    Every configuration is spanned by the polarization classes and the
    visible rational curves with the intersection numbers the corresponding
    proposition states (`_CONFIGURATIONS`); where the even-set divisibility
    itself is part of the geometric conclusion (the two double-plane and the
    mixed cases) the half-sum class is adjoined as configuration data.
    Verification is an explicit basis map into the claimed family, checked
    exactly.
    """
    return [_verify_configuration(c) for c in _CONFIGURATIONS]
