"""The CLI's JSON writer against the standard library's encoder.

`cli._json_text` must give the bytes of `json.dumps(v, indent=2,
sort_keys=True)` for every value a report can hold.  hypothesis is a
test-only dependency; the module is skipped without it.
"""

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from k3evenset.cli import _json_text  # noqa: E402

# quotes, backslashes, control characters, non-ASCII and astral characters
SPECIAL = '"\\/\x00\x01\x08\x0c\x1f\x7f\n\r\t é 　\U0001d11e\U0001f600'
texts = st.text(st.one_of(st.sampled_from(SPECIAL), st.characters()), max_size=12)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**200), max_value=-1),
    st.integers(min_value=2**64, max_value=2**200),
    st.floats(allow_nan=False, allow_infinity=False),
    texts,
)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(texts, inner, max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(values)
@example({})
@example([[], (), {"": {}}, {"a": [[], {}, ()]}])
def test_json_text_equals_json_dumps(value):
    assert _json_text(value) == json.dumps(value, indent=2, sort_keys=True)
