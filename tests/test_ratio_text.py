"""`ratio_text` prints an integer pair exactly as `str(Fraction(n, den))` does."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from k3evenset.lattice import ratio_text  # noqa: E402


@given(st.integers(), st.integers(min_value=1))
def test_ratio_text_matches_fraction(n, den):
    assert ratio_text(n, den) == str(Fraction(n, den))


@pytest.mark.parametrize("n, den, text", [(0, 7, "0"), (4, 2, "2"), (-6, 4, "-3/2"), (3, 12, "1/4")])
def test_ratio_text_examples(n, den, text):
    assert ratio_text(n, den) == text
