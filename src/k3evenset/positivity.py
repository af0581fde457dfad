"""Ample/nef certification by exhaustive (-2)-root obstruction search.

The families under study live in a split frame with orthogonal reference
basis (L, N1..N8), Gram diag(2d, -2, ..., -2).  Candidate irreducible curve
classes other than the N_i themselves are modeled, following the reduction
used in all the ampleness proofs, as C = a*L + sum b_i N_i with a > 0 and
b_i <= 0; the N_i enter every classification separately.

Completeness of the search is proof-backed rather than heuristic.  For a
divisor D = p*L + sum q_i N_i (q_i <= 0, Q = sum q_i^2) and a root C (so
sum b_i^2 = d a^2 + 1), the obstruction D.C <= 0 forces

    (d p a)^2 <= Q (d a^2 + 1)

by Cauchy-Schwarz, and D.C <= -1 (the strict test; intersection numbers of
lattice points are integers) forces

    (2 d p a + 1)^2 <= 4 Q (d a^2 + 1).

Each is a quadratic inequality in a whose admissible solutions are scanned
exactly over the family's coordinate grid; the largest one is the reported
search bound a_max.  The leading coefficient d^2 p^2 - d Q equals d D^2 / 2,
so the bound is finite for every divisor of positive square.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Optional, Sequence

from .lattice import FrameVector, IntegerLattice, contains, content, inner, vector_to_json
from .families import canonical_octet

STATUS_AMPLE = "ample"
STATUS_PSEUDO_AMPLE = "pseudo_ample"
STATUS_NEF = "nef"
STATUS_NOT_NEF = "not_nef"

_MODEL_ASSUMPTION = (
    "candidate irreducible classes besides the N_i have a > 0 and b_i <= 0; "
    "the N_i are checked separately"
)


@dataclass(frozen=True)
class RootConstraintProfile:
    """Coordinate grid and sign constraints for the root search.

    Denominators are derived from the lattice's basis matrix (the L' glue is
    what makes them 2), never hard-coded per family.
    """

    a_denominator: int
    b_denominators: tuple[int, ...]


@dataclass(frozen=True)
class PositivityReport:
    divisor: FrameVector
    self_intersection: int
    status: str
    witness: Optional[FrameVector]
    search_bound: Fraction
    exhaustive: bool
    assumptions: tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "schema": "k3evenset/1",
            "divisor": vector_to_json(self.divisor),
            "d2": str(self.self_intersection),
            "status": self.status,
            "witness": vector_to_json(self.witness) if self.witness else None,
            "a_max": f"{self.search_bound.numerator}/{self.search_bound.denominator}",
            "exhaustive": self.exhaustive,
            "assumptions": list(self.assumptions),
        }


def _family_frame(ns: IntegerLattice) -> int:
    """d = L^2 / 2 of the L-type split frame ns lives in."""
    root = ns.root()
    if not root.name.startswith("Lsplit") or root.rank != 9:
        raise ValueError(
            f"{ns.name}: root search bounds are family-specific; expected an L-type split frame"
        )
    return root.gram[0, 0] // 2


def derive_profile(ns: IntegerLattice) -> RootConstraintProfile:
    """Read the admissible coordinate denominators off the basis matrix."""
    _family_frame(ns)
    dens = _denominators(ns)
    return RootConstraintProfile(a_denominator=dens[0], b_denominators=tuple(dens[1:]))


def _denominators(ns: IntegerLattice) -> list[int]:
    """Least denominator of each root coordinate over ns's basis vectors."""
    b, s = ns.basis_in_root_scaled()
    return [max(s // gcd(x, s) for x in col) for col in zip(*b)]


def _split_divisor(dvec: FrameVector) -> tuple[Fraction, tuple[Fraction, ...]]:
    rc = dvec.root_coords()
    return rc[0], tuple(rc[1:])


def _grid_values(limit_check, denominator: int) -> list[Fraction]:
    """Positive grid points satisfying a check whose feasible set is an
    initial segment of the positive axis."""
    out = []
    k = 1
    while True:
        a = Fraction(k, denominator)
        if not limit_check(a):
            break
        out.append(a)
        k += 1
    return out


def _candidate_a_values(
    d: int, p: Fraction, qs: Sequence[Fraction], a_den: int, strict: bool
) -> tuple[list[Fraction], Fraction]:
    """Admissible a grid values under the Cauchy-Schwarz bound, plus a_max."""
    qq = sum(q * q for q in qs)
    lead = d * d * p * p - qq * d  # = d * D^2 / 2
    if lead < 0:
        raise ValueError(
            "search bound degenerates (divisor of negative square); "
            "cannot certify completeness"
        )
    if not strict:
        # (d p a)^2 <= Q (d a^2 + 1)  <=>  lead * a^2 <= Q
        if lead == 0:
            raise ValueError(
                "non-strict obstruction search is unbounded for an isotropic divisor"
            )

        def check(a: Fraction) -> bool:
            return lead * a * a <= qq

    else:
        # (2 d p a + 1)^2 <= 4 Q (d a^2 + 1)
        # <=> 4*lead*a^2 + 4*d*p*a + (1 - 4 Q) <= 0
        # For lead > 0 this holds on an interval whose left end is negative,
        # for lead = 0 it is the half-line a <= (4 Q - 1)/(4 d p);
        # either way the feasible a > 0 form an initial grid segment.
        c0 = 1 - 4 * qq

        def check(a: Fraction) -> bool:
            return 4 * lead * a * a + 4 * d * p * a + c0 <= 0

    values = _grid_values(check, a_den)
    a_max = values[-1] if values else Fraction(0)
    return values, a_max


def _beta_solutions(
    target: int,
    q2: Sequence[int],
    dc_base: int,
    dc_cap: int,
) -> Iterable[tuple[int, ...]]:
    """Nonnegative integer 8-tuples beta with sum beta_i^2 = target.

    beta_i = -2 b_i.  Branches are pruned with the exact feasibility test for
    2*(D.C) = dc_base + sum (2 q_i) beta_i <= dc_cap: the unassigned slots
    can lower the partial value by at most sqrt(sum (2q)^2 * remaining).
    """
    n = len(q2)
    suffix_q2sq = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix_q2sq[i] = suffix_q2sq[i + 1] + q2[i] * q2[i]
    beta = [0] * n

    def feasible(i: int, remaining: int, partial: int) -> bool:
        m = partial - dc_cap
        if m <= 0:
            return True
        return suffix_q2sq[i] * remaining >= m * m

    def rec(i: int, remaining: int, partial: int):
        if i == n:
            if remaining == 0 and partial <= dc_cap:
                yield tuple(beta)
            return
        if not feasible(i, remaining, partial):
            return
        b = 0
        while b * b <= remaining:
            beta[i] = b
            yield from rec(i + 1, remaining - b * b, partial + q2[i] * b)
            b += 1
        beta[i] = 0

    yield from rec(0, target, dc_base)


def _obstructing_roots(
    ns: IntegerLattice, divisor: FrameVector, strict: Optional[bool]
) -> tuple[Fraction, Fraction, list[FrameVector]]:
    """(D^2, a_max, obstructing roots): the set-up and search shared by
    enumerate_obstructing_roots and classify_positivity; strict None means
    strict exactly for an isotropic divisor."""
    d = _family_frame(ns)
    if not contains(ns, divisor):
        raise ValueError(f"divisor {divisor!r} is not a lattice point of {ns.name}")
    d2 = inner(divisor, divisor)
    if d2 < 0:
        raise ValueError(f"divisor has negative self-intersection {d2}")
    if strict is None:
        strict = d2 == 0
    if d2 == 0 and not strict:
        raise ValueError("non-strict root enumeration is infinite for isotropic divisors")
    p, qs = _split_divisor(divisor)
    a_values, a_max = _candidate_a_values(d, p, qs, _denominators(ns)[0], strict)
    if any(q > 0 for q in qs) or p <= 0:
        raise ValueError(
            "divisor must have positive L-coefficient and non-positive N-coefficients"
        )
    return d2, a_max, _candidates(ns, d, p, qs, a_values, 4, -2 if strict else 0)


def enumerate_obstructing_roots(
    ns: IntegerLattice, divisor: FrameVector, strict: Optional[bool] = None
) -> list[FrameVector]:
    """Complete list of profile roots C with C^2 = -2 obstructing a divisor.

    For divisor self-intersection > 0 the obstruction is D.C <= 0; on an
    isotropic divisor only the strict test D.C < 0 is finite, so that case
    short-circuits to it (the N_i are classify_positivity's business either
    way).  Results are canonically sorted by coefficient vector.
    """
    return _obstructing_roots(ns, divisor, strict)[2]


def _candidates(
    ns: IntegerLattice, d: int, p: Fraction, qs, a_values, square: int, dc_cap: int
) -> list[FrameVector]:
    """Classes C = a L - sum (beta_i / 2) N_i of ns with C^2 = -square / 2 and
    2 (D.C) <= dc_cap, for a on the grid a_values, built as integers over 2;
    sorted by root coordinates."""
    root = ns.root()
    q2 = [int(2 * q) for q in qs]
    out = []
    for a in a_values:
        a2, rest = divmod(2 * a.numerator, a.denominator)
        # 2*(D.C) = 4 d p a + sum (2 q_i) beta_i
        dc_base, rest_dc = divmod(4 * d * p.numerator * a.numerator, p.denominator * a.denominator)
        if rest or rest_dc:
            raise RuntimeError("non-integral scaled intersection base")
        for beta in _beta_solutions(d * a2 * a2 + square, q2, dc_base, dc_cap):
            c = FrameVector(root, [a2] + [-b for b in beta], 2)
            if contains(ns, c):
                out.append(c)
    out.sort(key=lambda c: c.root_coords())
    return out


def classify_positivity(ns: IntegerLattice, divisor: FrameVector) -> PositivityReport:
    """Certify a divisor as ample / pseudo ample / nef / not nef."""
    d2, a_max, roots = _obstructing_roots(ns, divisor, None)
    obstructors: list[tuple[FrameVector, Fraction]] = []
    for n_i in canonical_octet(ns):
        v = inner(divisor, n_i)
        if v <= 0:
            obstructors.append((n_i, v))
    for c in roots:
        obstructors.append((c, inner(divisor, c)))
    negative = [c for c, v in obstructors if v < 0]
    orthogonal = [c for c, v in obstructors if v == 0]
    assumptions = (_MODEL_ASSUMPTION,) + (
        ("isotropic divisor: nef test runs the strict obstruction search",)
        if d2 == 0
        else ()
    )

    def lex_min(vectors: list[FrameVector]) -> FrameVector:
        return min(vectors, key=lambda c: c.root_coords())

    if negative:
        status, witness = STATUS_NOT_NEF, lex_min(negative)
    elif d2 == 0:
        status, witness = STATUS_NEF, (lex_min(orthogonal) if orthogonal else None)
    elif orthogonal:
        status, witness = STATUS_PSEUDO_AMPLE, lex_min(orthogonal)
    else:
        status, witness = STATUS_AMPLE, None
    return PositivityReport(
        divisor=divisor,
        self_intersection=int(d2),
        status=status,
        witness=witness,
        search_bound=a_max,
        exhaustive=True,
        assumptions=assumptions,
    )


def is_even_set(ns: IntegerLattice, octet: Sequence[FrameVector]) -> bool:
    """True iff half the sum of eight disjoint (-2)-classes lies in ns."""
    if len(octet) != 8:
        raise ValueError("an even set candidate needs exactly eight classes")
    for i, c in enumerate(octet):
        if not contains(ns, c):
            raise ValueError(f"class #{i + 1} is not a lattice point of {ns.name}")
        if inner(c, c) != -2:
            raise ValueError(f"class #{i + 1} has square {inner(c, c)}, not -2")
    for i in range(8):
        for j in range(i + 1, 8):
            if inner(octet[i], octet[j]) != 0:
                raise ValueError(
                    f"classes #{i + 1} and #{j + 1} meet: product {inner(octet[i], octet[j])}"
                )
    total = octet[0]
    for c in octet[1:]:
        total = total + c
    return contains(ns, total / 2)


def isotropic_classes(
    ns: IntegerLattice, divisor: FrameVector, dots: Sequence[int]
) -> list[FrameVector]:
    """Isotropic classes E with x > 0, y_i <= 0, E in ns and E.D in dots.

    Complete for divisors of positive square (the bound degenerates on the
    isotropic boundary, where such families are genuinely infinite) and
    positive L-coefficient (with p <= 0 the grid check never fails).
    """
    d = _family_frame(ns)
    d2 = inner(divisor, divisor)
    if d2 <= 0:
        raise ValueError("isotropic search requires a divisor of positive square")
    dots = sorted(set(int(t) for t in dots))
    if not dots or dots[0] <= 0:
        raise ValueError("requested intersection values must be positive")
    t = dots[-1]
    profile = derive_profile(ns)
    p, qs = _split_divisor(divisor)
    if p <= 0:
        raise ValueError("isotropic search requires a divisor with positive L-coefficient")
    qq = sum(q * q for q in qs)
    # feasible region: {2 d p x <= t} union {(2 d p x - t)^2 <= 4 Q d x^2},
    # Q = sum q_i^2; d^2 p^2 - d Q = d D^2 / 2 > 0 makes it an initial segment
    # of the positive axis, since the quadratic is non-positive at x = t/(2dp)
    def check(x: Fraction) -> bool:
        lhs = 2 * d * p * x - t
        if lhs < 0:
            return True
        return lhs * lhs <= 4 * qq * d * x * x

    x_values = _grid_values(check, profile.a_denominator)
    return [e for e in _candidates(ns, d, p, qs, x_values, 0, 2 * t) if inner(divisor, e) in dots]


@dataclass(frozen=True)
class PencilDecomposition:
    """D = a*E + (sum of the fixed-part curves); empty fixed part when D = aE."""

    a: int
    pencil: FrameVector
    fixed_part: tuple[FrameVector, ...]


def pencil_decomposition(
    ns: IntegerLattice, divisor: FrameVector
) -> Optional[PencilDecomposition]:
    """Free-pencil structure D = aE (+ Gamma or + Gamma_0 + Gamma_1), if any.

    On an isotropic nef divisor this is D = kE with k the divisibility of D.
    Otherwise the search looks for a free pencil E with E.D = 1 (single
    (-2)-curve attached, the dichotomy for linear systems with a fixed
    component) or E.D = 2 (the double-cover-of-a-cone shape with two
    vertex curves); both residuals are checked exactly.
    """
    report = classify_positivity(ns, divisor)
    if report.status == STATUS_NOT_NEF:
        raise ValueError("pencil decomposition is defined for nef divisors only")
    d2 = report.self_intersection
    if d2 == 0:
        k = content(ns, divisor)
        return PencilDecomposition(k, divisor / k, ())
    # single fixed curve: a is forced by (D - aE)^2 = -2 with E.D = 1
    if (d2 + 2) % 2 == 0:
        a = (d2 + 2) // 2
        for e in isotropic_classes(ns, divisor, [1]):
            if not content(ns, e) == 1:
                continue
            if classify_positivity(ns, e).status != STATUS_NEF:
                continue
            gamma = divisor - a * e
            if inner(gamma, gamma) == -2 and inner(divisor, gamma) == a - 2:
                return PencilDecomposition(a, e, (gamma,))
    # two vertex curves: (D - aE)^2 = -4 with E.D = 2
    if (d2 + 4) % 4 == 0:
        a = (d2 + 4) // 4
        candidates = None
        for e in isotropic_classes(ns, divisor, [2]):
            if not content(ns, e) == 1:
                continue
            if classify_positivity(ns, e).status != STATUS_NEF:
                continue
            residual = divisor - a * e
            if inner(residual, residual) != -4:
                continue
            if candidates is None:
                candidates = _orthogonal_witnesses(ns, divisor)
            for g0 in candidates:
                if inner(e, g0) != 1:
                    continue
                g1 = residual - g0
                if (
                    inner(g1, g1) == -2
                    and inner(g0, g1) == 0
                    and inner(e, g1) == 1
                    and contains(ns, g1)
                ):
                    pair = sorted((g0, g1), key=lambda c: c.root_coords())
                    return PencilDecomposition(a, e, tuple(pair))
    return None


def _orthogonal_witnesses(ns: IntegerLattice, divisor: FrameVector) -> list[FrameVector]:
    """All roots orthogonal to a pseudo-ample divisor (candidates for fixed curves)."""
    out = [n_i for n_i in canonical_octet(ns) if inner(divisor, n_i) == 0]
    for c in enumerate_obstructing_roots(ns, divisor, strict=False):
        if inner(divisor, c) == 0:
            out.append(c)
    out.sort(key=lambda c: c.root_coords())
    return out


@dataclass(frozen=True)
class HyperellipticVerdict:
    kind: str  # "double_cover" or "birational"
    witness: Optional[FrameVector] = None
    witness_kind: Optional[str] = None  # "genus2" | "elliptic_pencil" | "half_polarization"


def hyperelliptic_test(ns: IntegerLattice, divisor: FrameVector) -> HyperellipticVerdict:
    """Saint-Donat's dichotomy for a base-point-free pseudo-ample divisor.

    D^2 = 2 is always a double plane.  Otherwise phi_D is 2:1 exactly when
    some irreducible elliptic curve E has E.D = 2 or D = 2B with B of genus
    two; both are bounded lattice searches here.
    """
    report = classify_positivity(ns, divisor)
    if report.status not in (STATUS_AMPLE, STATUS_PSEUDO_AMPLE):
        raise ValueError("hyperelliptic test requires a pseudo ample divisor")
    d2 = report.self_intersection
    if d2 == 2:
        return HyperellipticVerdict("double_cover", witness=None, witness_kind="genus2")
    for e in isotropic_classes(ns, divisor, [2]):
        if classify_positivity(ns, e).status == STATUS_NEF and content(ns, e) == 1:
            return HyperellipticVerdict("double_cover", witness=e, witness_kind="elliptic_pencil")
    half = divisor / 2
    if contains(ns, half) and inner(half, half) == 2:
        return HyperellipticVerdict("double_cover", witness=half, witness_kind="half_polarization")
    return HyperellipticVerdict("birational")


def riemann_roch_h0(ns: IntegerLattice, divisor: FrameVector) -> tuple[int, str]:
    """h^0 of an effective nef divisor by Riemann-Roch on a K3 surface.

    For D^2 > 0 without fixed part, h^0 = D^2/2 + 2.  For D^2 = 0 the class
    is k times a free elliptic pencil and h^0 = k + 1 (the primitive case
    gives 2).
    """
    if not contains(ns, divisor):
        raise ValueError(f"divisor {divisor!r} is not a lattice point of {ns.name}")
    d2 = inner(divisor, divisor)
    if d2 < 0:
        raise ValueError(
            f"D^2 = {d2} < 0: dimension counts for negative classes need per-divisor analysis"
        )
    if d2 == 0:
        k = content(ns, divisor)
        return k + 1, "free elliptic pencil assumption"
    if d2.numerator % 2 != 0:
        raise ValueError("odd self-intersection cannot occur in an even lattice")
    return int(d2) // 2 + 2, "valid under nef+big with no fixed part"


def curve_data(
    ns: IntegerLattice, curve: FrameVector, polarization: FrameVector
) -> tuple[int, int]:
    """(degree, genus) of a curve class against a polarization."""
    for v, label in ((curve, "curve"), (polarization, "polarization")):
        if not contains(ns, v):
            raise ValueError(f"{label} {v!r} is not a lattice point of {ns.name}")
    c2 = inner(curve, curve)
    if c2.denominator != 1 or c2.numerator % 2 != 0:
        raise ValueError(f"curve square {c2} is odd: class is outside the even lattice")
    degree = inner(curve, polarization)
    return int(degree), int(c2) // 2 + 1
