"""Acceptance gate: one test per headline criterion, with its stated budget.

Each test prints a single pass/fail line (visible with pytest -s or in the
captured output) and asserts both exactness and the wall-time limit.
"""

import pytest

from k3evenset import acceptance
from k3evenset.acceptance import (
    criterion_chow,
    criterion_correspondence,
    criterion_discriminant_groups,
    criterion_glue_classification,
    criterion_positivity,
    criterion_properties,
    criterion_sufficient_conditions,
    criterion_table1,
    run_all,
)


def check(result):
    mark = "PASS" if result.passed else "FAIL"
    print(
        f"[{mark}] criterion {result.number}: {result.title} "
        f"({result.elapsed:.2f}s / limit {result.time_limit:.0f}s)"
    )
    assert result.failures == [], result.failures
    assert result.within_time, (
        f"criterion {result.number} took {result.elapsed:.2f}s, "
        f"limit {result.time_limit}s"
    )


def test_criterion_1_discriminant_groups():
    check(criterion_discriminant_groups())


def test_criterion_2_glue_classification():
    check(criterion_glue_classification())


def test_criterion_2_beyond_dmax_12():
    # correctness only: the glue classification and primitivity of N hold
    # up to d = 32 (the time limit is for the default dmax)
    result = criterion_glue_classification(32)
    assert result.ok
    assert result.failures == []


def test_criterion_3_positivity_suite():
    check(criterion_positivity())


def test_criterion_4_chow_matrices():
    check(criterion_chow())


def test_criterion_5_table1_regeneration():
    check(criterion_table1())


def test_criterion_6_correspondence_and_exclusion():
    check(criterion_correspondence())


def test_criterion_7_sufficient_conditions():
    check(criterion_sufficient_conditions())


def test_criterion_8_property_suites():
    check(criterion_properties())


@pytest.mark.parametrize("forge", ["mod-b", "t=1"])
def test_criterion_8_rejects_forged_certificates(monkeypatch, forge):
    # call each solvable system with b != 0 unsolvable; whatever (u, t) comes
    # with that claim, u b = (u A) x makes the check fail
    real = acceptance.solve_integral
    forged = 0

    def lying_solve(a, b):
        nonlocal forged
        x, cert = real(a, b)
        i = next((i for i, v in enumerate(b) if v), None)
        if x is None or i is None:
            return x, cert
        forged += 1
        u = tuple(int(k == i) for k in range(a.rows))
        # u b = b_i is nonzero mod |b_i| + 1, so only u A can expose the lie
        return None, (u, abs(b[i]) + 1 if forge == "mod-b" else 1)

    monkeypatch.setattr(acceptance, "solve_integral", lying_solve)
    result = criterion_properties(dmax=1, matrices=1)
    assert forged >= 1
    assert any("infeasibility certificate fails" in f for f in result.failures)
    assert not result.passed


def test_verify_paper_aggregate_matches_cli_contract():
    results = run_all()
    assert len(results) == 8
    assert all(r.passed for r in results)
