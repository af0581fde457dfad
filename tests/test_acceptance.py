"""Acceptance gate: one test per headline criterion, with its stated budget.

Each test prints a single pass/fail line (visible with pytest -s or in the
captured output) and asserts both exactness and the wall-time limit.
"""

import json
import os
import threading
import time

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
from k3evenset.exactlin import IntMatrix, smith_normal_form


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


# --- criterion 8's SNF trials in two stripes --------------------------------------

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
SNF_TRIALS = 100


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forked(monkeypatch):
    """Count the forks of criterion 8 and let it fork even on one CPU."""
    monkeypatch.setattr(acceptance, "_usable_cpus", lambda: 2)
    real_fork, children = os.fork, []

    def fork():
        pid = real_fork()
        if pid:
            children.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    yield children
    assert_no_child_left()


def trial_index(parity, after=-1, chain=False):
    """A trial of the given parity after `after` whose matrix is unique, has at
    least 3 rows and, with `chain`, has two distinct nonzero invariant factors
    at its end (so swapping them breaks only the divisibility chain)."""
    trials = acceptance._snf_trials(SNF_TRIALS)
    for k in range(after + 1, SNF_TRIALS):
        m = trials[k]
        diag = smith_normal_form(m).diag
        if (
            k % 2 == parity
            and m.rows >= 3
            and sum(t == m for t in trials) == 1
            and (not chain or 0 < diag[-2] < diag[-1])
        ):
            return k
    raise AssertionError("no such trial")


def corrupt_snf(monkeypatch, faults):
    """Make smith_normal_form wrong on chosen trials: {trial: fault}, where a
    fault is "lmr" (a wrong diagonal), "chain" (the last two invariant
    factors swapped along with their transforms) or an exception to raise."""
    real = acceptance.smith_normal_form
    trials = acceptance._snf_trials(SNF_TRIALS)
    by_matrix = {trials[k]: fault for k, fault in faults.items()}

    def snf(m):
        fault = by_matrix.get(m)
        got = real(m)
        if fault == "lmr":
            return got._replace(diag=(got.diag[0] + 1,) + got.diag[1:])
        if fault == "chain":
            n = m.rows
            swap = list(range(n - 2)) + [n - 1, n - 2]
            right = got.right.transpose()
            return got._replace(
                diag=tuple(got.diag[i] for i in swap),
                left=IntMatrix([got.left.row(i) for i in swap]),
                right=IntMatrix([right.row(i) for i in swap]).transpose(),
            )
        if isinstance(fault, BaseException):
            raise fault
        return got

    monkeypatch.setattr(acceptance, "smith_normal_form", snf)


def one_process(monkeypatch):
    monkeypatch.setattr(acceptance, "_usable_cpus", lambda: 1)


def fault_cases():
    odd, even = trial_index(1), trial_index(0)
    c_even, c_odd = trial_index(0, chain=True), trial_index(1, chain=True)
    late = trial_index(1, after=max(c_even, c_odd))
    chain_late = trial_index(0, after=odd, chain=True)
    return [
        ({odd: "lmr"}, [f"trial {odd}: L*M*R != diag"]),
        ({even: "lmr"}, [f"trial {even}: L*M*R != diag"]),
        (
            {c_even: "chain", c_odd: "chain", late: "lmr"},
            [f"trial {k}: divisibility chain broken" for k in sorted((c_even, c_odd))]
            + [f"trial {late}: L*M*R != diag"],
        ),
        # a stop in one stripe cuts the later failures of the other
        ({odd: "lmr", chain_late: "chain"}, [f"trial {odd}: L*M*R != diag"]),
    ]


@needs_fork
@pytest.mark.parametrize("case", range(4))
def test_criterion_8_stripes_report_the_serial_failures(monkeypatch, forked, case):
    faults, want = fault_cases()[case]
    corrupt_snf(monkeypatch, faults)
    striped = criterion_properties(dmax=1, matrices=SNF_TRIALS).failures
    assert len(forked) == 1
    one_process(monkeypatch)
    serial = criterion_properties(dmax=1, matrices=SNF_TRIALS).failures
    assert len(forked) == 1
    assert striped == serial == want


@needs_fork
@pytest.mark.parametrize("parity", [0, 1])
def test_criterion_8_exception_in_a_stripe_is_raised(monkeypatch, forked, parity):
    k = trial_index(parity)
    corrupt_snf(monkeypatch, {k: ValueError(f"bad trial {k}")})
    with pytest.raises(ValueError, match=f"^bad trial {k}$"):
        criterion_properties(dmax=1, matrices=SNF_TRIALS)
    assert len(forked) == 1


@needs_fork
def test_criterion_8_exception_that_does_not_pickle_keeps_its_text(monkeypatch, forked):
    class Local(Exception):
        pass

    k = trial_index(1)
    corrupt_snf(monkeypatch, {k: Local("no pickle")})
    with pytest.raises(RuntimeError, match="^Local: no pickle$"):
        criterion_properties(dmax=1, matrices=SNF_TRIALS)


@needs_fork
def test_criterion_8_child_that_dies_without_reporting_raises(monkeypatch, forked):
    parent, real = os.getpid(), acceptance.smith_normal_form

    def snf(m):
        if os.getpid() != parent:
            os._exit(3)
        return real(m)

    monkeypatch.setattr(acceptance, "smith_normal_form", snf)
    with pytest.raises(RuntimeError, match="exited with status 3 without reporting"):
        criterion_properties(dmax=1, matrices=SNF_TRIALS)


@needs_fork
def test_criterion_8_interrupt_in_the_parent_stripe_kills_the_child(monkeypatch, forked):
    class Interrupt(BaseException):
        pass

    parent = os.getpid()

    def snf(m):
        if os.getpid() == parent:
            raise Interrupt
        time.sleep(60)  # a child left running holds the test up this long
        os._exit(0)

    monkeypatch.setattr(acceptance, "smith_normal_form", snf)
    t0 = time.monotonic()
    with pytest.raises(Interrupt):
        criterion_properties(dmax=1, matrices=SNF_TRIALS)
    assert time.monotonic() - t0 < 30
    assert len(forked) == 1


def fork_fails():
    raise BlockingIOError(11, "Resource temporarily unavailable")


def without_elapsed(results):
    return json.dumps([{k: v for k, v in r.to_json().items() if k != "elapsed_s"} for r in results])


@needs_fork
@pytest.mark.parametrize("fallback", ["no fork", "fork fails", "one CPU", "another thread"])
def test_criterion_8_one_process_fallback_gives_identical_results(monkeypatch, forked, fallback):
    forked_out = without_elapsed([criterion_properties(), *run_all()])
    assert len(forked) == 2
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(60,))
    if fallback == "no fork":
        monkeypatch.delattr(os, "fork")
    elif fallback == "fork fails":
        monkeypatch.setattr(os, "fork", fork_fails)
    elif fallback == "one CPU":
        one_process(monkeypatch)
    else:
        thread.start()
    try:
        assert without_elapsed([criterion_properties(), *run_all()]) == forked_out
    finally:
        release.set()
        if thread.is_alive():
            thread.join(10)
    assert not thread.is_alive()
    assert len(forked) == 2
