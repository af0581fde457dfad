"""The acceptance suite: every headline claim, recomputed and compared.

Each criterion returns a CriterionResult with the computed-vs-expected
details; `run_all` drives the whole battery.  The CLI's verify-paper
subcommand renders these, and the test suite asserts them one by one.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt

from .exactlin import IntMatrix, det, signature, smith_normal_form, solve_integral
from .lattice import contains, is_primitive, short_vectors
from .disc import discriminant_group, group_from_factors
from .families import (
    admissible_glues,
    canonical_octet,
    make,
    nikulin_sublattice,
    overlattice,
    parse_divisor,
)
from .positivity import (
    classify_positivity,
    derive_profile,
    enumerate_obstructing_roots,
    is_even_set,
    riemann_roch_h0,
)
from .chow import intersection_matrix, intersection_matrix_untruncated, parse_ci, ci_is_k3
from .models import (
    families_distinct,
    ns_correspondence,
    polarization_pair_gram,
    sufficient_condition_lattices,
    verify_table1,
)

TIME_LIMITS = {1: 1.0, 2: 1.0, 3: 10.0, 4: 1.0, 5: 5.0, 6: 1.0, 7: 1.0, 8: 30.0}


@dataclass
class CriterionResult:
    number: int
    title: str
    ok: bool
    elapsed: float
    time_limit: float
    failures: list = field(default_factory=list)

    @property
    def within_time(self) -> bool:
        return self.elapsed < self.time_limit

    @property
    def passed(self) -> bool:
        return self.ok and self.within_time

    def to_json(self) -> dict:
        return {
            "criterion": self.number,
            "title": self.title,
            "ok": self.ok,
            "elapsed_s": round(self.elapsed, 3),
            "time_limit_s": self.time_limit,
            "within_time": self.within_time,
            "passed": self.passed,
            "failures": self.failures,
        }


def _timed(number, title, body) -> CriterionResult:
    failures: list = []
    t0 = time.perf_counter()
    body(failures)
    elapsed = time.perf_counter() - t0
    return CriterionResult(number, title, not failures, elapsed, TIME_LIMITS[number], failures)


# --- criterion 1: discriminant groups ----------------------------------------


def criterion_discriminant_groups(dmax: int = 12) -> CriterionResult:
    def body(failures):
        for d in range(1, dmax + 1):
            cases = [(f"L:2d={2*d}", (2 * d,) + (2,) * 6)]
            if d % 2 == 0:
                cases.append((f"L':2d={2*d}", (2 * d,) + (2,) * 4))
            cases.append((f"M:2d'={2*d}", (2 * d,) + (2,) * 8))
            if d % 2 == 0:
                cases.append((f"M':2d'={2*d}", (2 * d,) + (2,) * 6))
            for label, factors in cases:
                got = discriminant_group(make(label)).invariant_factors
                want = group_from_factors(factors)
                if got != want:
                    failures.append(f"{label}: {got} != {want}")

    return _timed(1, "discriminant-group table for all families, d <= 12", body)


# --- criterion 2: glue classification -----------------------------------------


def criterion_glue_classification(dmax: int = 12) -> CriterionResult:
    def body(failures):
        for d in range(1, dmax + 1):
            classes = admissible_glues(d)
            total = sum(len(c) for c in classes)
            if d % 2 == 1:
                if total != 0:
                    failures.append(f"d={d}: expected no glue, found {total}")
                continue
            want = 56 if d % 4 == 2 else 70
            if total != want or len(classes) != 1:
                failures.append(
                    f"d={d}: {total} glues in {len(classes)} classes, expected {want} in 1"
                )
                continue
            base = make(f"L:2d={2*d}")
            nik = nikulin_sublattice(base)
            for glue in classes[0]:
                over = overlattice(base, glue.glue_class(base.root()))
                # saturation index 1 inside the overlattice, i.e. primitivity
                if not is_primitive(over, nik):
                    failures.append(f"d={d} {glue.sorted_support()}: N not primitive")
                    break

    return _timed(2, "glue vectors: 56/70 per parity, one class, N primitive", body)


# --- criterion 3: positivity suite --------------------------------------------


def oracle_obstructing_roots(ns, divisor, strict: bool, a_cap: Fraction) -> list:
    """Wide brute-force root scan, independent of the bounded search.

    Enumerates every candidate C = a L + sum b_i N_i with a on the grid up
    to a_cap and beta_i = -2 b_i nonnegative integers with
    sum beta_i^2 = 4 d a^2 + 4.  It prunes only on the exact square budget
    and on the coarse bound |decrease| <= max|2q| * (isqrt(nz*R) + 1), where
    nz counts the unassigned slots with q_i != 0 (zero-weight slots cannot
    lower the partial sum; with nz = 0 the test is exact).  The last slot is
    closed by an integer square root instead of a scan.
    """
    root = ns.root()
    d = root.gram[0, 0] // 2
    profile = derive_profile(ns)
    rc = divisor.root_coords()
    p, qs = rc[0], rc[1:]
    q2 = [int(2 * q) for q in qs]
    maxq2 = max((abs(q) for q in q2), default=0)
    nonzero_after = [sum(1 for q in q2[i:] if q) for i in range(8)]
    cap = -2 if strict else 0
    found = []
    k = 1
    while True:
        a = Fraction(k, profile.a_denominator)
        if a > a_cap:
            break
        k += 1
        target = int(4 * d * a * a + 4)
        base = 4 * d * p * a
        if base.denominator != 1:
            raise RuntimeError("non-integral base in oracle")
        base = base.numerator
        beta = [0] * 8

        def rec(i, remaining, partial):
            if i == 7:
                b = isqrt(remaining)
                if b * b == remaining and partial + q2[7] * b <= cap:
                    beta[7] = b
                    c = root.vector([a] + [Fraction(-x, 2) for x in beta])
                    if contains(ns, c):
                        found.append(c)
                return
            nz = nonzero_after[i]
            if partial - cap > (maxq2 * (isqrt(nz * remaining) + 1) if nz else 0):
                return
            b = 0
            while b * b <= remaining:
                beta[i] = b
                rec(i + 1, remaining - b * b, partial + q2[i] * b)
                b += 1
            beta[i] = 0

        rec(0, target, base)
    found.sort(key=lambda c: c.root_coords())
    return found


def _cross_validate(ns, divisor, failures, label):
    report = classify_positivity(ns, divisor)
    strict = report.self_intersection == 0
    fast = enumerate_obstructing_roots(ns, divisor, strict=strict)
    a_cap = 3 * max(report.search_bound, Fraction(1))
    slow = oracle_obstructing_roots(ns, divisor, strict, a_cap)
    if [c.root_coords() for c in fast] != [c.root_coords() for c in slow]:
        failures.append(f"{label}: oracle disagrees with bounded search")
    return report


def criterion_positivity(dmax: int = 12) -> CriterionResult:
    def body(failures):
        for d in range(3, dmax + 1):
            ns = make(f"L:2d={2*d}")
            rep = _cross_validate(ns, parse_divisor(ns, "L-Nhat"), failures, f"L{2*d}:L-Nhat")
            if rep.status != "ample":
                failures.append(f"L:2d={2*d}: L-Nhat is {rep.status}, expected ample")
        ns4 = make("L:2d=4")
        rep = _cross_validate(ns4, parse_divisor(ns4, "L-Nhat"), failures, "L4:L-Nhat")
        if rep.status != "nef":
            failures.append(f"L:2d=4: L-Nhat is {rep.status}, expected nef (not big)")
        for m in (2, 3):
            rep = _cross_validate(
                ns4, parse_divisor(ns4, f"{m}L-Nhat"), failures, f"L4:{m}L-Nhat"
            )
            if rep.status != "ample":
                failures.append(f"L:2d=4: {m}L-Nhat is {rep.status}, expected ample")
        for d in range(2, dmax + 1):
            ns = make(f"L:2d={2*d}")
            for r in range(1, min(d, 9)):
                if r >= d:
                    continue
                name = "L-" + "-".join(f"N{i}" for i in range(1, r + 1))
                rep = _cross_validate(ns, parse_divisor(ns, name), failures, f"L{2*d}:{name}")
                # pseudo ample means big and nef; for r < 8 some N_j is
                # orthogonal, for r = 8 the divisor is outright ample
                want = ("pseudo_ample",) if r < 8 else ("pseudo_ample", "ample")
                if rep.status not in want:
                    failures.append(
                        f"L:2d={2*d}: {name} is {rep.status}, expected pseudo ample"
                    )

    return _timed(3, "positivity suite with brute-force cross-validation", body)


# --- criterion 4: Chow matrices -----------------------------------------------


def criterion_chow(dmax: int = 12) -> CriterionResult:
    def body(failures):
        cases = [
            ("P4xP2: (2,0)+(1,1)^3", [[6, 6], [6, 2]], ("L:2d=6", "L", "L-Nhat")),
            ("P2xP2: (1,1)+(2,2)", [[2, 4], [4, 2]], ("L':2d=16", "L1", "L2")),
            ("P1xP2: (2,3)", [[0, 3], [3, 2]], ("L':2d=12", "L2", "L1")),
            ("P3xP3: (1,1)^4", [[4, 6], [6, 4]], ("L':2d=24", "L1", "L2")),
        ]
        for text, expect, (fam, a, b) in cases:
            ci = parse_ci(text)
            if not ci_is_k3(ci):
                failures.append(f"{text}: fails the K3 degree condition")
            m = intersection_matrix(ci)
            if list(map(list, m.entries)) != expect:
                failures.append(f"{text}: got {m.entries}, expected {expect}")
            if m != intersection_matrix_untruncated(ci):
                failures.append(f"{text}: truncated and full expansions disagree")
            lat = polarization_pair_gram(fam, a, b)
            if lat != m:
                failures.append(
                    f"{text}: lattice pair ({fam}:{a},{b}) gives {lat.entries}"
                )

    return _timed(4, "Chow matrices match the lattice-side polarization pairs", body)


# --- criterion 5: the model table ----------------------------------------------


def criterion_table1(dmax: int = 12) -> CriterionResult:
    def body(failures):
        for report in verify_table1():
            if not report["ok"]:
                failures.append(
                    f"{report['family']} {report['polarization']}: "
                    f"{report['computed']} != {report['expected']}"
                )
        spots = [
            ("L:2d=4", "L-Nhat", 2),
            ("L:2d=4", "2L-2Nhat", 3),
            ("L:2d=8", "L-Nhat", 4),
            ("L:2d=6", "2L-N1-N2-N3-N4-N5-N6-N7-N8", 6),
            ("L:2d=8", "2L-N1-N2-N3-N4-N5-N6-N7-N8", 10),
        ]
        for fam, div, expect in spots:
            ns = make(fam)
            h0, _ = riemann_roch_h0(ns, parse_divisor(ns, div))
            if h0 != expect:
                failures.append(f"h0({fam}, {div}) = {h0}, expected {expect}")

    return _timed(5, "model table regeneration and h0 spot values", body)


# --- criterion 6: correspondence and exclusion ----------------------------------


def criterion_correspondence(dmax: int = 12) -> CriterionResult:
    def body(failures):
        golden_pairs = {
            "L:2d=2": "M':2d'=4",
            "L:2d=4": "M':2d'=8",
            "L':2d=4": "M:2d'=2",
            "L:2d=6": "M':2d'=12",
            "L:2d=8": "M':2d'=16",
            "L':2d=8": "M:2d'=4",
            "L:2d=10": "M':2d'=20",
            "L:2d=12": "M':2d'=24",
            "L':2d=12": "M:2d'=6",
            "L':2d=16": "M:2d'=8",
            "L':2d=24": "M:2d'=12",
        }
        for fam, expect in golden_pairs.items():
            got = ns_correspondence(fam)
            if got.label() != expect:
                failures.append(f"{fam} -> {got.label()}, expected {expect}")
            back = ns_correspondence(got)
            if back.label() != fam:
                failures.append(f"correspondence not involutive at {fam}")
        # the only same-group pair is (L_{2d}, M'_{2d}); everything else separates
        kinds = ["L", "L'", "M", "M'"]
        for d1 in range(1, dmax + 1):
            for d2 in range(1, dmax + 1):
                for k1 in kinds:
                    for k2 in kinds:
                        if (k1, d1) >= (k2, d2):
                            continue
                        label1 = f"{k1}:2d={2*d1}" if k1 in ("L", "L'") else f"{k1}:2d'={2*d1}"
                        label2 = f"{k2}:2d={2*d2}" if k2 in ("L", "L'") else f"{k2}:2d'={2*d2}"
                        rep = families_distinct(label1, label2)
                        same_group_expected = {k1, k2} == {"L", "M'"} and d1 == d2
                        if same_group_expected and rep.kind != "same_group_but_constraint":
                            failures.append(f"{label1} vs {label2}: expected same-group report")
                        if not same_group_expected and rep.kind == "same_group_but_constraint":
                            failures.append(f"{label1} vs {label2}: unexpected same-group report")
        boundary = families_distinct("L:2d=8", "M':2d'=8")
        if "d = 4" not in boundary.detail or "0 mod 4" not in boundary.detail:
            failures.append(f"boundary case detail missing: {boundary.detail}")

    return _timed(6, "NS(X)/NS(Y) correspondence and same-group exclusion", body)


# --- criterion 7: sufficient conditions -----------------------------------------


def criterion_sufficient_conditions(dmax: int = 12) -> CriterionResult:
    def body(failures):
        results = sufficient_condition_lattices()
        expected = {
            "cone": "L':2d=4",
            "ci_P4xP2": "L:2d=6",
            "quadrics_P5": "L:2d=8",
            "quadric_cones_P5": "L':2d=8",
            "double_covers_P2": "L:2d=10",
            "mixed_P3": "L:2d=12",
            "bidegree_2_3_P1xP2": "L':2d=12",
            "wehler_P2xP2": "L':2d=16",
            "ci_P3xP3": "L':2d=24",
        }
        seen = {}
        for r in results:
            seen[r.name] = r
            if not r.verified:
                failures.append(f"{r.name}: isometry onto {r.family} failed")
        for name, fam in expected.items():
            if name not in seen:
                failures.append(f"missing configuration {name}")
            elif seen[name].family != fam:
                failures.append(f"{name}: targets {seen[name].family}, expected {fam}")

    return _timed(7, "sufficient-condition configurations verify isometric", body)


# --- criterion 8: property suites ------------------------------------------------


def criterion_properties(dmax: int = 12, matrices: int = 1000) -> CriterionResult:
    def body(failures):
        rng = random.Random(20080514)
        for trial in range(matrices):
            n = rng.randint(1, 9)
            m = IntMatrix(
                [[rng.randint(-20, 20) for _ in range(n)] for _ in range(n)]
            )
            snf = smith_normal_form(m)
            if snf.left.mul(m).mul(snf.right) != IntMatrix.diagonal(snf.diag, n, n):
                failures.append(f"trial {trial}: L*M*R != diag")
                break
            if abs(det(snf.left)) != 1 or abs(det(snf.right)) != 1:
                failures.append(f"trial {trial}: transforms not unimodular")
                break
            dm = det(m)
            prod = 1
            for x in snf.diag:
                prod *= x
            if abs(dm) != prod:
                failures.append(f"trial {trial}: |det| != product of invariant factors")
                break
            for i in range(len(snf.diag) - 1):
                if snf.diag[i] and snf.diag[i + 1] % snf.diag[i] != 0:
                    failures.append(f"trial {trial}: divisibility chain broken")
                    break
        # signature invariance under random unimodular congruence
        rng2 = random.Random(977)
        for trial in range(50):
            n = rng2.randint(2, 6)
            a = [[rng2.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            g = IntMatrix([[a[i][j] + a[j][i] for j in range(n)] for i in range(n)])
            u = _random_unimodular(rng2, n)
            if signature(g) != signature(u.transpose().mul(g).mul(u)):
                failures.append(f"signature trial {trial}: congruence invariance broken")
                break
        # solve_integral: solutions verified exactly; None confirmed by brute force
        rng3 = random.Random(41)
        for trial in range(200):
            rows = rng3.randint(1, 3)
            cols = rng3.randint(1, 3)
            a = IntMatrix(
                [[rng3.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
            )
            b = [rng3.randint(-5, 5) for _ in range(rows)]
            got = solve_integral(a, b)
            if got is not None:
                ax = [sum(r * x for r, x in zip(row, got)) for row in a.entries]
                if ax != list(b):
                    failures.append(f"solve trial {trial}: returned non-solution")
                    break
            elif _brute_solve(a, b, radius=25) is not None:
                failures.append(f"solve trial {trial}: missed an integral solution")
                break
        # evenness of every constructed lattice, even-set behaviour
        for d in range(1, dmax + 1):
            labels = [f"L:2d={2*d}", f"M:2d'={2*d}"]
            if d % 2 == 0:
                labels += [f"L':2d={2*d}", f"M':2d'={2*d}"]
            for label in labels:
                lat = make(label)
                if any(lat.gram[i, i] % 2 for i in range(lat.rank)):
                    failures.append(f"{label}: odd diagonal")
            ns = make(f"L:2d={2*d}")
            if not is_even_set(ns, canonical_octet(ns)):
                failures.append(f"L:2d={2*d}: canonical octet not even")
            if d % 2 == 0:
                nsp = make(f"L':2d={2*d}")
                if not is_even_set(nsp, canonical_octet(nsp)):
                    failures.append(f"L':2d={2*d}: canonical octet not even")
        if short_vectors(make("E8(-2)"), 2):
            failures.append("E8(-2) contains vectors of square -2")
        m_roots_even = [
            v
            for d in range(2, dmax + 1, 2)
            for v in _m_family_roots(d)
        ]
        if m_roots_even:
            failures.append("an M family with even d' contains (-2)-classes")

    return _timed(8, "property suites: random-matrix invariants, evenness, even sets", body)


def _m_family_roots(dprime: int) -> list:
    """(-2)-vectors of M_{2d'}: nonexistent since E8(-2) norms are 0 mod 4
    and 2 d' a^2 + 2 is 2 mod 4 for even d'."""
    lat = make(f"M:2d'={2*dprime}")
    g = lat.gram
    for i in range(1, 9):
        if g[i, i] % 4 != 0:
            return [("bad-diagonal", i)]
        for j in range(1, 9):
            if i != j and g[i, j] % 2 != 0:
                return [("bad-pairing", i, j)]
    # with the E8(-2) part in 4Z, a root needs 2 d' a^2 + 2 in 4Z: impossible
    return [] if (2 * dprime) % 4 == 0 else [("parity", dprime)]


def _random_unimodular(rng, n: int) -> IntMatrix:
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        for k in range(n):
            m[i][k] += c * m[j][k]
    return IntMatrix(m)


def _brute_solve(a: IntMatrix, b, radius: int):
    """First x in [-radius, radius]^cols, in lexicographic order, with a x = b.

    A row with a nonzero last entry fixes the last coordinate from the
    others, so only the first cols - 1 coordinates are scanned; the fixed
    value must be an integer inside the box.  Only an all-zero last column
    scans the last coordinate too.  Every equation is checked on the full
    candidate.
    """
    from itertools import product

    box = range(-radius, radius + 1)
    pivot = next((i for i, row in enumerate(a.entries) if row[-1] != 0), None)
    for head in product(box, repeat=a.cols if pivot is None else a.cols - 1):
        if pivot is None:
            x = head
        else:
            row = a.entries[pivot]
            last, rem = divmod(b[pivot] - sum(r * xi for r, xi in zip(row, head)), row[-1])
            if rem or not -radius <= last <= radius:
                continue
            x = head + (last,)
        if all(
            sum(r * xi for r, xi in zip(row, x)) == bb for row, bb in zip(a.entries, b)
        ):
            return x
    return None


CRITERIA = [
    criterion_discriminant_groups,
    criterion_glue_classification,
    criterion_positivity,
    criterion_chow,
    criterion_table1,
    criterion_correspondence,
    criterion_sufficient_conditions,
    criterion_properties,
]


def run_all(dmax: int = 12) -> list[CriterionResult]:
    return [c(dmax) for c in CRITERIA]
