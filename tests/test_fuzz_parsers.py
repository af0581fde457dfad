"""Fuzzing of the input parsers and the parse-only CLI subcommands.

Every input must give a result or a ValueError (library) or exit status 2
with a message (CLI); any other exception is a traceback and fails the test.
hypothesis is a test-only dependency; the module is skipped without it.
"""

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from k3evenset.chow import parse_ci  # noqa: E402
from k3evenset.cli import build_parser, main  # noqa: E402
from k3evenset.families import make, parse_divisor, parse_family  # noqa: E402

FUZZ = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])

KINDS = ["L", "L'", "M", "M'", "X", "l", ""]
KEYS = ["2d", "2d'", "d", "2D", ""]
numbers = st.one_of(
    st.integers(-3, 130).map(str),
    st.text("0123456789-+ ", min_size=0, max_size=5),
)
family_texts = st.one_of(
    st.builds(lambda k, key, n: f"{k}:{key}={n}", st.sampled_from(KINDS), st.sampled_from(KEYS), numbers),
    st.text(max_size=12),
)

DIVISOR_TOKENS = [
    "L", "Nhat", "L1", "L2", "M", "e3", "N0", "N9",
    *(f"N{i}" for i in range(1, 9)),
    "+", "-", "2", "3", "10", "*", "/2", "/3", "(", ")", " ", "Q", ".",
]
divisor_texts = st.one_of(
    st.lists(st.sampled_from(DIVISOR_TOKENS), max_size=12).map("".join),
    st.text(max_size=16),
)

# The repetition counts include a huge one: parse_ci checks the summed count
# against the codimension before it builds the repeated multidegrees.
ci_texts = st.one_of(
    st.builds(
        lambda dims, degs: "x".join(f"P{n}" for n in dims) + ": " + "+".join(degs),
        st.lists(st.integers(-1, 6), min_size=0, max_size=3),
        st.lists(
            st.builds(
                lambda ds, rep: "(" + ",".join(map(str, ds)) + ")" + rep,
                st.lists(st.integers(-2, 4), max_size=4),
                st.sampled_from(["", "^0", "^1", "^2", "^3", "^", "^1000000000000"]),
            ),
            max_size=4,
        ),
    ),
    st.text("Px0123456789:(),^+ -", max_size=24),
    st.text(max_size=16),
)

support_texts = st.one_of(
    st.lists(st.integers(-1, 10).map(str), max_size=9).map(",".join),
    st.text("0123456789, -", max_size=12),
)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def assert_result_or_usage_error(code, err):
    assert code in (0, 2), code
    if code == 2:
        assert err.strip(), "exit status 2 without a message"


@FUZZ
@given(family_texts)
def test_parse_family_fuzz(text):
    try:
        family = parse_family(text)
    except ValueError:
        return
    assert parse_family(family.label()) == family


@FUZZ
@given(st.sampled_from(["L:2d=6", "L':2d=8", "L':2d=12", "M:2d'=4"]), divisor_texts)
def test_parse_divisor_fuzz(label, text):
    ns = make(label)
    try:
        v = parse_divisor(ns, text)
    except ValueError:
        return
    assert v.lattice is ns.root()


@FUZZ
@given(ci_texts)
def test_parse_ci_fuzz(text):
    try:
        ci = parse_ci(text)
    except ValueError:
        return
    assert parse_ci(ci.label()) == ci


@FUZZ
@given(st.sampled_from(["disc", "correspond", "evenset"]), family_texts)
def test_family_subcommands_fuzz(cmd, text):
    code, _, err = run_cli([cmd, text])
    assert_result_or_usage_error(code, err)


@FUZZ
@given(family_texts, st.one_of(st.none(), support_texts))
def test_overlattice_support_fuzz(text, support):
    argv = ["overlattice", text] + ([] if support is None else ["--support", support])
    code, _, err = run_cli(argv)
    assert_result_or_usage_error(code, err)


# Unicode digits that int() reads (Arabic-Indic, fullwidth, mathematical
# bold) and Unicode spaces that str.strip() removes
UNICODE_DIGITS = ["\u0661", "\u0662", "\u0663", "\u0664", "\u0666", "\uff18", "\U0001d7d0"]
UNICODE = UNICODE_DIGITS + ["\xa0", "\u2003", "\u3000"]
mixed_digits = st.text(st.sampled_from(list("0123468") + UNICODE), min_size=1, max_size=3)
mixed_spaces = st.text(st.sampled_from([" ", "\t"] + UNICODE[-3:]), max_size=2)
mixed_labels = st.builds(
    lambda pre, kind, n, post: f"{pre}{kind}={n}{post}",
    mixed_spaces, st.sampled_from(["L:2d", "L':2d", "M:2d'", "M':2d'"]), mixed_digits, mixed_spaces,
)
mixed_divisors = st.lists(
    st.sampled_from(["L", "Nhat", "N1", "N2", "L1", "-", "+", "2", "/2", "(", ")", " "] + UNICODE),
    min_size=1, max_size=8,
).map("".join)
# one multidegree makes a surface only in P3, so the dimension is 3 or a
# spelling of it, and the repetition count is 1 or a spelling of it
mixed_cis = st.builds(
    lambda pre, dim, deg, rep: f"{pre}P{dim}: ({deg}){rep}",
    mixed_spaces,
    st.sampled_from(["3", "03", "\u0663"]),
    mixed_digits,
    st.sampled_from(["", "^1", "^01", "^\u0661", "^\uff11"]),
)
# four indices, the admissible support size for L:2d=16
mixed_supports = st.lists(
    st.sampled_from(["1", "2", "3", "4", "6", "7", "8", "01", "+2", " 3"] + UNICODE_DIGITS),
    min_size=4, max_size=4,
).map(",".join)


@FUZZ
@given(mixed_labels)
def test_accepted_family_label_is_ascii(text):
    try:
        parse_family(text)
    except ValueError:
        return
    assert text.isascii()


@FUZZ
@given(st.sampled_from(["L:2d=6", "L':2d=12"]), mixed_divisors)
def test_accepted_divisor_is_ascii(label, text):
    try:
        parse_divisor(make(label), text)
    except ValueError:
        return
    assert text.isascii()


@FUZZ
@given(mixed_cis)
def test_accepted_ci_is_ascii(text):
    try:
        parse_ci(text)
    except ValueError:
        return
    assert text.isascii()


@FUZZ
@given(mixed_supports)
def test_accepted_support_is_ascii(support):
    code, _, err = run_cli(["overlattice", "L:2d=16", "--support", support])
    assert_result_or_usage_error(code, err)
    if code == 0:
        assert support.isascii()


@FUZZ
@given(mixed_spaces, mixed_digits, mixed_spaces)
def test_accepted_integer_arguments_are_ascii(pre, digits, post):
    # glues d and verify-paper --dmax: parsing only, since --dmax would run the suite
    text = pre + digits + post
    for argv in (["glues", text], ["verify-paper", "--dmax", text]):
        try:
            with redirect_stderr(io.StringIO()):
                args = build_parser().parse_args(argv)
        except SystemExit as exc:
            assert exc.code == 2
            continue
        assert text.isascii() and text.isdigit()
        assert (args.d if argv[0] == "glues" else args.dmax) == int(text)


def test_jobs_flag_is_gone():
    code, _, err = run_cli(["--jobs", "2", "glues", "4"])
    assert code == 2
    assert err.startswith("usage:")
