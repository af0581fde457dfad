import random

import pytest

from k3evenset.chow import (
    CompleteIntersection,
    MultiProjSpace,
    ci_is_k3,
    intersection_matrix,
    intersection_matrix_untruncated,
    parse_ci,
)


DISPLAYED_CASES = [
    ("P4xP2: (2,0)+(1,1)^3", [[6, 6], [6, 2]]),
    ("P2xP2: (1,1)+(2,2)", [[2, 4], [4, 2]]),
    ("P1xP2: (2,3)", [[0, 3], [3, 2]]),
    ("P3xP3: (1,1)^4", [[4, 6], [6, 4]]),
]


@pytest.mark.parametrize("text,expected", DISPLAYED_CASES)
def test_displayed_matrices(text, expected):
    ci = parse_ci(text)
    m = intersection_matrix(ci)
    assert [list(r) for r in m.entries] == expected
    assert m.is_symmetric()


@pytest.mark.parametrize("text,expected", DISPLAYED_CASES)
def test_truncated_matches_untruncated(text, expected):
    ci = parse_ci(text)
    assert intersection_matrix(ci) == intersection_matrix_untruncated(ci)


def test_single_factor_quartic():
    ci = parse_ci("P3: (4)")
    assert [list(r) for r in intersection_matrix(ci).entries] == [[4]]
    assert ci_is_k3(ci)


def test_k3_condition():
    assert ci_is_k3(parse_ci("P4xP2: (2,0)+(1,1)^3"))
    assert ci_is_k3(parse_ci("P2xP2: (1,2)+(2,1)"))
    assert not ci_is_k3(parse_ci("P3: (3)"))


def test_codimension_bookkeeping():
    with pytest.raises(ValueError, match="codimension"):
        intersection_matrix(parse_ci("P4xP2: (2,0)+(1,1)"))


def test_ci_validation():
    with pytest.raises(ValueError):
        CompleteIntersection(MultiProjSpace((2, 2)), ((1, 1), (0, 0)))
    with pytest.raises(ValueError):
        CompleteIntersection(MultiProjSpace((2, 2)), ((1,),))
    with pytest.raises(ValueError):
        MultiProjSpace(())


def test_parse_errors():
    for bad in ("P4xP2", "P4xP2: ", "P4xP2: (2,0)(1,1)", "4x2: (1,1)"):
        with pytest.raises(ValueError):
            parse_ci(bad)


def test_parse_repetition_and_spaces():
    ci = parse_ci("P3xP3: (1,1)^4")
    assert len(ci.multidegrees) == 4
    ci = parse_ci("P4xP2: (2, 0) + (1, 1)^3")
    assert ci.multidegrees[0] == (2, 0)


def random_k3_ci(rng, max_factors: int = 3, max_dim: int = 4) -> CompleteIntersection | None:
    """Random complete intersection satisfying the K3 degree condition.

    Returns None when the random dimensions admit no valid distribution.
    """
    k = rng.randint(1, max_factors)
    dims = tuple(rng.randint(1, max_dim) for _ in range(k))
    nhyp = sum(dims) - 2
    if nhyp < 1:
        return None
    cols = []
    for n in dims:
        # composition of n+1 into nhyp nonnegative parts
        total = n + 1
        parts = [0] * nhyp
        for _ in range(total):
            parts[rng.randrange(nhyp)] += 1
        cols.append(parts)
    degs = tuple(tuple(col[i] for col in cols) for i in range(nhyp))
    if any(all(d == 0 for d in deg) for deg in degs):
        return None
    return CompleteIntersection(MultiProjSpace(dims), degs)


def test_random_k3_instances_have_even_diagonal():
    rng = random.Random(424242)
    produced = 0
    while produced < 60:
        ci = random_k3_ci(rng)
        if ci is None:
            continue
        produced += 1
        assert ci_is_k3(ci)
        m = intersection_matrix(ci)
        assert m.is_symmetric()
        for i in range(m.rows):
            assert m[i, i] % 2 == 0, ci.label()
        assert m == intersection_matrix_untruncated(ci)
