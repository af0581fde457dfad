"""Ample/nef certification by exhaustive (-2)-root obstruction search.

The families under study live in a split frame with orthogonal reference
basis (L, N1..N8), Gram diag(2d, -2, ..., -2).  Candidate irreducible curve
classes other than the N_i themselves are modeled, following the reduction
used in all the ampleness proofs, as C = a*L + sum b_i N_i with a > 0 and
b_i <= 0; the N_i enter every classification separately.

Completeness of every search rests on one inequality.  For a divisor
D = p*L + sum q_i N_i (Q = sum q_i^2) and a class C of square -2c, so that
sum b_i^2 = d a^2 + c, the intersection number is D.C = 2 d p a - 2 sum q_i b_i,
and Cauchy-Schwarz turns D.C <= m into

    2 d p a - m < 0   or   (2 d p a - m)^2 <= 4 Q (d a^2 + c).

Roots (c = 1) obstruct a divisor of positive square when D.C <= 0 (m = 0)
and an isotropic divisor when D.C <= -1 (m = -1: intersection numbers of
lattice points are integers); isotropic classes (c = 0) with E.D <= t take
m = t.  The scan walks a = k / a_den for k = 1, 2, ... and stops at the
first k that fails; the last k it keeps gives the reported bound a_max.
It terminates because the quadratic (2 d p a - m)^2 - 4 Q (d a^2 + c) has
leading coefficient 4 d (d p^2 - Q) = 2 d D^2: positive when D^2 > 0, and
when D^2 = 0 the remaining linear term -4 d p m a grows for p > 0 and
m = -1.  So every search checks D^2 and the sign of p before it scans.  The
kept k form an initial segment: for m <= 0 the quadratic is non-positive
at a = 0 (or never is, when Q = 0), and for m = t it is at 2 d p a = t.
Candidates are built with 2a and 2b_i integral, which covers every lattice
point only when the lattice's root coordinates lie in Z/2; other lattices
are refused.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import itemgetter
from typing import Iterable, NamedTuple, Optional, Sequence

from .lattice import (
    FrameVector,
    IntegerLattice,
    contains,
    content,
    inner,
    inner_scaled,
    vector_to_json,
)
from .families import canonical_octet, l_frame_d

STATUS_AMPLE = "ample"
STATUS_PSEUDO_AMPLE = "pseudo_ample"
STATUS_NEF = "nef"
STATUS_NOT_NEF = "not_nef"

_MODEL_ASSUMPTION = (
    "candidate irreducible classes besides the N_i have a > 0 and b_i <= 0; "
    "the N_i are checked separately"
)


class PositivityReport(NamedTuple):
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


def _family_frame(ns: IntegerLattice) -> tuple[int, int]:
    """(d, a_den): d = L^2 / 2 of the L-type split frame ns lives in, and
    a_den the least common denominator of the L-coordinates of ns's basis.

    Raises unless the reduced basis denominator is 1 or 2, which is what
    puts every root coordinate of ns in Z/2.
    """
    d = l_frame_d(ns)
    if d is None:
        raise ValueError(
            f"{ns.name}: root search bounds are family-specific; expected an L-type split frame"
        )
    b, s = ns.basis_in_root_scaled()
    if s > 2:
        raise ValueError(
            f"{ns.name}: root search needs root coordinates in Z/2; "
            f"the basis has denominator {s}"
        )
    return d, s // gcd(s, *(row[0] for row in b))


def _twice_root_coords(v: FrameVector) -> tuple[int, ...]:
    """(2p, 2q_1, ..., 2q_8), integers, for a lattice point of a lattice
    _family_frame accepts; as a sort key it orders such points exactly as
    root_coords() does."""
    ints, den = v.root_scaled()
    return tuple(2 * x // den for x in ints)


def _a_grid(d: int, p2: int, q2: Sequence[int], a_den: int, c: int, m: int) -> int:
    """The last k of the scan a = k / a_den under the module's bound for
    D.C <= m on classes of square -2c, with p2 = 2p and q2_i = 2q_i; the
    bound is multiplied through by a_den^2 to stay in integers."""
    qq = sum(q * q for q in q2)
    shift = m * a_den
    ca = c * a_den * a_den
    k = 1
    while True:
        lhs = d * p2 * k - shift
        if lhs >= 0 and lhs * lhs > qq * (d * k * k + ca):
            return k - 1
        k += 1


def _beta_solutions(
    target: int,
    q2: Sequence[int],
    dc_base: int,
    dc_cap: int,
) -> Iterable[tuple[tuple[int, ...], int]]:
    """(beta, 2*(D.C)) for nonnegative integer 8-tuples beta with
    sum beta_i^2 = target.

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
                yield tuple(beta), partial
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


def _candidates(
    ns: IntegerLattice, d: int, p2: int, q2: Sequence[int], a_den: int, c: int, m: int
) -> tuple[int, list[tuple[FrameVector, int]]]:
    """(last k of the a-grid, [(C, 2 D.C)]) for the classes
    C = (2a L - sum beta_i N_i) / 2 of ns with C^2 = -2c and D.C <= m,
    sorted by root coordinates."""
    root = ns.root()
    k_max = _a_grid(d, p2, q2, a_den, c, m)
    found = []
    for k in range(1, k_max + 1):
        a2 = 2 * k // a_den
        for beta, dc in _beta_solutions(d * a2 * a2 + 4 * c, q2, d * p2 * a2, 2 * m):
            key = (a2, *(-b for b in beta))
            cand = FrameVector(root, key, 2)
            if contains(ns, cand):
                found.append((key, cand, dc))
    # every key is 2 * root_coords over the same denominator
    found.sort(key=itemgetter(0))
    return k_max, [(cand, dc) for _, cand, dc in found]


def _obstructing_roots(
    ns: IntegerLattice, divisor: FrameVector
) -> tuple[int, Fraction, list[tuple[FrameVector, int]]]:
    """(D^2, a_max, [(C, 2 D.C)]): the checks and search shared by
    enumerate_obstructing_roots and classify_positivity."""
    d, a_den = _family_frame(ns)
    if not contains(ns, divisor):
        raise ValueError(f"divisor {divisor!r} is not a lattice point of {ns.name}")
    n, den = inner_scaled(divisor, divisor)
    d2 = n // den  # exact: divisor is a point of the even lattice ns
    if d2 < 0:
        raise ValueError(f"divisor has negative self-intersection {d2}")
    p2, *q2 = _twice_root_coords(divisor)
    if p2 <= 0 or any(q > 0 for q in q2):
        raise ValueError(
            "divisor must have positive L-coefficient and non-positive N-coefficients"
        )
    k_max, roots = _candidates(ns, d, p2, q2, a_den, 1, -1 if d2 == 0 else 0)
    return d2, Fraction(k_max, a_den), roots


def enumerate_obstructing_roots(ns: IntegerLattice, divisor: FrameVector) -> list[FrameVector]:
    """Complete list of roots C with C^2 = -2 obstructing a divisor.

    For divisor self-intersection > 0 the obstruction is D.C <= 0; on an
    isotropic divisor only the strict test D.C < 0 is finite, so that case
    runs it (the N_i are classify_positivity's business either way).
    Results are canonically sorted by coefficient vector.
    """
    return [c for c, _ in _obstructing_roots(ns, divisor)[2]]


def classify_positivity(ns: IntegerLattice, divisor: FrameVector) -> PositivityReport:
    """Certify a divisor as ample / pseudo ample / nef / not nef."""
    d2, a_max, roots = _obstructing_roots(ns, divisor)
    obstructors = []
    for n_i in canonical_octet(ns):
        v = inner_scaled(divisor, n_i)[0]  # the sign of D.N_i
        if v <= 0:
            obstructors.append((n_i, v))
    obstructors += roots
    negative = [c for c, v in obstructors if v < 0]
    orthogonal = [c for c, v in obstructors if v == 0]
    assumptions = (_MODEL_ASSUMPTION,) + (
        ("isotropic divisor: nef test runs the strict obstruction search",)
        if d2 == 0
        else ()
    )

    def lex_min(vectors: list[FrameVector]) -> FrameVector:
        return min(vectors, key=_twice_root_coords)

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
        self_intersection=d2,
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

    Complete for lattice points D of positive square (on the isotropic
    boundary such families are genuinely infinite) and positive
    L-coefficient (with p <= 0 the scan would never stop).
    """
    d, a_den = _family_frame(ns)
    if not contains(ns, divisor):
        raise ValueError(f"divisor {divisor!r} is not a lattice point of {ns.name}")
    d2 = inner(divisor, divisor)
    if d2 <= 0:
        raise ValueError("isotropic search requires a divisor of positive square")
    dots = sorted(set(int(t) for t in dots))
    if not dots or dots[0] <= 0:
        raise ValueError("requested intersection values must be positive")
    p2, *q2 = _twice_root_coords(divisor)
    if p2 <= 0:
        raise ValueError("isotropic search requires a divisor with positive L-coefficient")
    wanted = {2 * t for t in dots}
    return [e for e, dc in _candidates(ns, d, p2, q2, a_den, 0, dots[-1])[1] if dc in wanted]


class PencilDecomposition(NamedTuple):
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
                    pair = sorted((g0, g1), key=_twice_root_coords)
                    return PencilDecomposition(a, e, tuple(pair))
    return None


def _orthogonal_witnesses(ns: IntegerLattice, divisor: FrameVector) -> list[FrameVector]:
    """All roots orthogonal to a pseudo-ample divisor (candidates for fixed curves)."""
    out = [n_i for n_i in canonical_octet(ns) if inner(divisor, n_i) == 0]
    out += [c for c, dc in _obstructing_roots(ns, divisor)[2] if dc == 0]
    out.sort(key=_twice_root_coords)
    return out


class HyperellipticVerdict(NamedTuple):
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
