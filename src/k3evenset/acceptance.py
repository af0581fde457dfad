"""The acceptance suite: every headline claim, recomputed and compared.

Each criterion returns a CriterionResult with the computed-vs-expected
details; `run_all` drives the whole battery.  The CLI's verify-paper
subcommand renders these, and the test suite asserts them one by one.

Criterion 8's 1,000 SNF trials run in two stripes, the odd trials in a
forked child, where os.fork exists, at least 2 CPUs are usable and no
other thread runs; otherwise they run in one process.  Either way the
output is identical.  Only criterion 8 forks: it runs last, while a fork
earlier in the battery would leave every page copy-on-write and slow
criteria 3-7 with page faults.
"""

from __future__ import annotations

import os
import random
import threading
import time
from fractions import Fraction
from math import isqrt, lcm
from typing import NamedTuple

from .exactlin import IntMatrix, det, signature, smith_normal_form, solve_integral
from .lattice import contains, is_primitive, short_vectors
from .disc import discriminant_group
from .families import (
    KINDS,
    canonical_octet,
    discriminant_factors,
    families_for,
    family_label,
    glue_classes,
    make,
    nikulin_sublattice,
    overlattice,
    parse_divisor,
    parse_family,
)
from .positivity import (
    classify_positivity,
    enumerate_obstructing_roots,
    is_even_set,
    riemann_roch_h0,
)
from .chow import intersection_matrix, intersection_matrix_untruncated, parse_ci, ci_is_k3
from .models import (
    families_distinct,
    polarization_pair_gram,
    sufficient_condition_lattices,
    verify_table1,
)

TIME_LIMITS = {1: 1.0, 2: 1.0, 3: 10.0, 4: 1.0, 5: 5.0, 6: 1.0, 7: 1.0, 8: 30.0}


class CriterionResult(NamedTuple):
    number: int
    title: str
    ok: bool
    elapsed: float
    time_limit: float
    failures: list

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
            for family in families_for(d):
                got = discriminant_group(make(family)).invariant_factors
                want = discriminant_factors(family.kind, d)
                if got != want:
                    failures.append(f"{family}: {got} != {want}")

    return _timed(1, "discriminant-group table for all families, d <= 12", body)


# --- criterion 2: glue classification -----------------------------------------


def criterion_glue_classification(dmax: int = 12) -> CriterionResult:
    def body(failures):
        for d in range(1, dmax + 1):
            # each glue is validated once, by building its overlattice below
            classes = glue_classes(d)
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

    Enumerates every candidate C = a L + sum b_i N_i with a a multiple of
    1 / (lcm of the L-coordinate denominators of ns's basis) up to a_cap and
    beta_i = -2 b_i nonnegative integers with
    sum beta_i^2 = 4 d a^2 + 4.  It prunes only on the exact square budget
    and on the coarse bound |decrease| <= max|2q| * (isqrt(nz*R) + 1), where
    nz counts the unassigned slots with q_i != 0 (zero-weight slots cannot
    lower the partial sum; with nz = 0 the test is exact).  The last slot is
    closed by an integer square root instead of a scan.
    """
    root = ns.root()
    d = root.gram[0, 0] // 2
    a_den = lcm(*(v.root_coords()[0].denominator for v in ns.basis_vectors()))
    rc = divisor.root_coords()
    p, qs = rc[0], rc[1:]
    q2 = [int(2 * q) for q in qs]
    maxq2 = max((abs(q) for q in q2), default=0)
    nonzero_after = [sum(1 for q in q2[i:] if q) for i in range(8)]
    cap = -2 if strict else 0
    found = []
    k = 1
    while True:
        a = Fraction(k, a_den)
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
    fast = enumerate_obstructing_roots(ns, divisor)
    a_cap = 3 * max(report.search_bound, Fraction(1))
    slow = oracle_obstructing_roots(ns, divisor, report.self_intersection == 0, a_cap)
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
            got = parse_family(fam).partner()
            if got.label() != expect:
                failures.append(f"{fam} -> {got.label()}, expected {expect}")
            back = got.partner()
            if back.label() != fam:
                failures.append(f"correspondence not involutive at {fam}")
        # the only same-group pair is (L_{2d}, M'_{2d}); everything else separates
        for d1 in range(1, dmax + 1):
            for d2 in range(1, dmax + 1):
                for k1 in KINDS:
                    for k2 in KINDS:
                        if (k1, d1) >= (k2, d2):
                            continue
                        label1 = family_label(k1, d1)
                        label2 = family_label(k2, d2)
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
        failures.extend(_snf_failures(_snf_trials(matrices)))
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
        # solve_integral: solutions verified exactly; "no solution" by its
        # certificate, which rules out an integral x anywhere, not only in a box
        rng3 = random.Random(41)
        for trial in range(200):
            rows = rng3.randint(1, 3)
            cols = rng3.randint(1, 3)
            a = IntMatrix(
                [[rng3.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
            )
            b = [rng3.randint(-5, 5) for _ in range(rows)]
            got, cert = solve_integral(a, b)
            if got is not None:
                ax = [sum(r * x for r, x in zip(row, got)) for row in a.entries]
                if ax != list(b):
                    failures.append(f"solve trial {trial}: returned non-solution")
                    break
            elif not _certifies_no_solution(a, b, cert):
                failures.append(f"solve trial {trial}: infeasibility certificate fails")
                break
        # evenness of every constructed lattice, even-set behaviour
        for d in range(1, dmax + 1):
            for family in families_for(d):
                lat = make(family)
                if any(lat.gram[i, i] % 2 for i in range(lat.rank)):
                    failures.append(f"{family}: odd diagonal")
                if family.side == "L" and not is_even_set(lat, canonical_octet(lat)):
                    failures.append(f"{family}: canonical octet not even")
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


def _snf_trials(matrices: int) -> list[IntMatrix]:
    """The random square matrices of the SNF property trials, in trial order."""
    rng = random.Random(20080514)
    trials = []
    for _ in range(matrices):
        n = rng.randint(1, 9)
        trials.append(IntMatrix([[rng.randint(-20, 20) for _ in range(n)] for _ in range(n)]))
    return trials


def _snf_check(trial: int, m: IntMatrix):
    """(message, stops) for a failing SNF trial, None for a passing one.

    A failure of L*M*R, unimodularity or the determinant stops the suite; a
    broken divisibility chain is reported and the trials go on.
    """
    n = m.rows
    snf = smith_normal_form(m)
    if snf.left.mul(m).mul(snf.right) != IntMatrix.diagonal(snf.diag, n, n):
        return f"trial {trial}: L*M*R != diag", True
    if abs(det(snf.left)) != 1 or abs(det(snf.right)) != 1:
        return f"trial {trial}: transforms not unimodular", True
    prod = 1
    for x in snf.diag:
        prod *= x
    if abs(det(m)) != prod:
        return f"trial {trial}: |det| != product of invariant factors", True
    for i in range(len(snf.diag) - 1):
        if snf.diag[i] and snf.diag[i + 1] % snf.diag[i] != 0:
            return f"trial {trial}: divisibility chain broken", False
    return None


def _snf_stripe(trials: list, start: int, step: int) -> list:
    """(trial, outcome) for each failing or raising trial of start, start+step, ...

    An outcome is the (message, stops) of _snf_check or the exception the
    trial raised; the stripe ends at its first outcome that stops the suite.
    """
    out = []
    for trial in range(start, len(trials), step):
        try:
            found = _snf_check(trial, trials[trial])
        except Exception as exc:
            out.append((trial, exc))
            break
        if found:
            out.append((trial, found))
            if found[1]:
                break
    return out


def _merge_stripes(*stripes) -> list[str]:
    """The serial suite's failure messages: outcomes in trial order, cut after
    the first that stops it; an exception is raised where it would have been."""
    failures = []
    for _, outcome in sorted((e for s in stripes for e in s), key=lambda e: e[0]):
        if isinstance(outcome, BaseException):
            raise outcome
        message, stops = outcome
        failures.append(message)
        if stops:
            break
    return failures


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _snf_failures(trials: list) -> list[str]:
    """Failure messages of the SNF trials, equal to one serial pass over them.

    With fork, two usable CPUs and no other thread (a fork copies no thread,
    and the locks they hold stay held), a forked child checks the odd trials
    and pickles its outcomes back over a pipe while this process checks the
    even ones.  Whatever happens, the child is reaped before this returns.
    """
    if (
        len(trials) < 2
        or not hasattr(os, "fork")
        or _usable_cpus() < 2
        or threading.active_count() > 1
    ):
        return _merge_stripes(_snf_stripe(trials, 0, 1))
    import pickle
    import signal

    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare: check every trial here
        os.close(r)
        os.close(w)
        return _merge_stripes(_snf_stripe(trials, 0, 1))
    if pid == 0:  # the child never returns: it reports and exits
        status = 1
        try:
            os.close(r)
            outcomes = _snf_stripe(trials, 1, 2)
            try:
                payload = pickle.dumps(outcomes)
            except Exception:  # an exception that does not pickle goes as its text
                trial, exc = outcomes[-1]
                outcomes[-1] = (trial, RuntimeError(f"{type(exc).__name__}: {exc}"))
                payload = pickle.dumps(outcomes)
            with os.fdopen(w, "wb") as pipe:
                pipe.write(payload)
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    with os.fdopen(r, "rb") as pipe:
        try:
            mine = _snf_stripe(trials, 0, 2)
            payload = pipe.read()
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
    status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if status != 0 or not payload:
        raise RuntimeError(
            f"criterion 8: the forked SNF stripe exited with status {status} without reporting"
        )
    return _merge_stripes(mine, pickle.loads(payload))


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


def _certifies_no_solution(a: IntMatrix, b, cert) -> bool:
    """True when cert = (u, t) proves A x = b has no integral solution:
    t >= 2, every entry of u A is 0 mod t and u b is not."""
    u, t = cert or ((), 0)
    if t < 2 or len(u) != a.rows:
        return False
    if any(sum(ui * row[j] for ui, row in zip(u, a.entries)) % t for j in range(a.cols)):
        return False
    return sum(ui * bi for ui, bi in zip(u, b)) % t != 0


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
    if dmax < 1:
        raise ValueError(f"dmax must be a positive integer, got {dmax}")
    return [c(dmax) for c in CRITERIA]
