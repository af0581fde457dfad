import argparse
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import k3evenset
from k3evenset.cli import _glued_overlattice, _json_text, build_parser, main
from k3evenset.families import admissible_glues
from k3evenset.models import _model_descriptor


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


FRESH_ENV = dict(os.environ, PYTHONPATH=str(Path(k3evenset.__file__).parents[1]))


def run_fresh(argv):
    """(exit code, stdout, stderr) of the CLI in a new interpreter."""
    proc = subprocess.run(
        [sys.executable, "-m", "k3evenset.cli", *argv],
        capture_output=True, text=True, timeout=30, env=FRESH_ENV,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_disc_text(capsys):
    code, out, _ = run_cli(capsys, "disc", "L:2d=6")
    assert code == 0
    assert "Z/6" in out and "384" in out


def test_disc_json_schema_and_factors(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "disc", "L:2d=6")
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "k3evenset/1"
    assert data["invariant_factors"] == ["2", "2", "2", "2", "2", "2", "6"]


def test_disc_rejects_bad_family(capsys):
    code, _, err = run_cli(capsys, "disc", "L:2d=7")
    assert code == 2
    assert "error" in err


def test_glues_counts(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "glues", "4")
    data = json.loads(out)
    assert code == 0
    assert data["count"] == 70
    assert len(data["classes"]) == 1


def test_overlattice_default_support(capsys):
    code, out, _ = run_cli(capsys, "overlattice", "L:2d=8")
    assert code == 0
    assert "Z/8" in out


def test_overlattice_inadmissible(capsys):
    code, _, err = run_cli(capsys, "overlattice", "L:2d=6", "--support", "1,2")
    assert code == 2
    assert "evenness failure" in err


@pytest.mark.parametrize("family", ["M:2d'=4", "M':2d'=8", "L':2d=8"])
def test_overlattice_refuses_other_families(capsys, family):
    code, out, err = run_cli(capsys, "overlattice", family)
    assert code == 2
    assert out == ""
    assert err == f"error: overlattice extends an L family, not {family}\n"


def test_overlattice_refuses_twice_nhat(capsys):
    code, out, err = run_cli(capsys, "overlattice", "L:2d=8", "--support", "1,2,3,4,5,6,7,8")
    assert code == 2
    assert out == ""
    assert err == "error: support 1..8 gives v = 2*Nhat, and v/2 already lies in N\n"


@pytest.mark.parametrize("support", ["", "1,,2", "a,b"])
def test_overlattice_rejects_non_integer_support(capsys, support):
    code, out, err = run_cli(capsys, "overlattice", "L:2d=8", "--support", support)
    assert code == 2
    assert out == ""
    assert err == f"error: support must be comma-separated indices in 1..8, got {support!r}\n"


@pytest.mark.parametrize("support, index", [("1,1,2,2", 1), ("1,1,2,3", 1), ("3,5,6,5", 5)])
def test_overlattice_rejects_repeated_support_index(capsys, support, index):
    code, out, err = run_cli(capsys, "overlattice", "L:2d=4", "--support", support)
    assert code == 2
    assert out == ""
    assert err == f"error: support repeats index {index}, got {support!r}\n"


def test_ample(capsys):
    code, out, _ = run_cli(capsys, "ample", "L:2d=6", "--divisor", "L-Nhat")
    assert code == 0
    assert "ample" in out
    code, out, _ = run_cli(capsys, "--format", "json", "ample", "L:2d=6", "--divisor", "L")
    data = json.loads(out)
    assert data["report"]["status"] == "pseudo_ample"


def test_ample_mixed_weight_divisor(capsys):
    # D^2 = 16 > 0; a bound on D.C from max|q_i|^2 * |support| instead of
    # sum q_i^2 used to refuse this divisor
    code, out, _ = run_cli(
        capsys, "--format", "json", "ample", "L:2d=12", "--divisor", "2L-3N1-N2-N3-N4-N5-N6-N7-N8"
    )
    assert code == 0
    assert json.loads(out)["report"]["status"] == "ample"


def test_ample_rejects_bad_divisor(capsys):
    code, _, err = run_cli(capsys, "ample", "L:2d=6", "--divisor", "L-N9")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["ample", "L:2d=4", "--divisor", "Nhat-L"],
        ["ample", "L':2d=8", "--divisor=-L1"],
        ["hyperelliptic", "L:2d=4", "--divisor", "Nhat-L"],
    ],
)
def test_isotropic_divisor_with_negative_l_coefficient_exits(argv):
    # the strict test holds for every a when p < 0, so the sign check must
    # come before the scan; a separate process with a timeout keeps a
    # regression from hanging the suite
    assert run_fresh(argv) == (
        2,
        "",
        "error: divisor must have positive L-coefficient and non-positive N-coefficients\n",
    )


def test_evenset(capsys):
    code, out, _ = run_cli(capsys, "evenset", "L:2d=6")
    assert code == 0
    assert "an even set" in out


def test_hyperelliptic(capsys):
    code, out, _ = run_cli(capsys, "hyperelliptic", "L':2d=8", "--divisor", "L-Nhat")
    assert code == 0
    assert "double_cover" in out


def test_chow(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "chow", "P4xP2: (2,0)+(1,1)^3")
    data = json.loads(out)
    assert code == 0
    assert data["matrix"] == [[6, 6], [6, 2]]
    assert data["k3"] is True


def test_chow_huge_repetition_count(capsys):
    # the count is checked against the codimension before the multidegrees
    # are built, so this exits at once instead of filling memory
    code, _, err = run_cli(capsys, "chow", "P2: (1)^1000000000000")
    assert code == 2
    assert "codimension" in err


def test_chow_huge_projective_dimension(capsys):
    # a dimension above the bound is refused before any multidegree is read
    code, _, err = run_cli(capsys, "chow", "P1000002: (1)^1000000")
    assert code == 2
    assert "P1000002 has dimension 1000002" in err


def test_chow_ring_too_large(capsys):
    # (1,...,1)^14 on P1^16 is a K3 surface, but its truncated ring has rank
    # 2^16; the product is refused before any polynomial is built
    code, out, err = run_cli(capsys, "chow", "P1" + "xP1" * 15 + ": (" + ",".join("1" * 16) + ")^14")
    assert code == 2
    assert out == ""
    assert "rank 65536; at most 4096" in err


def test_table1_single_row(capsys):
    code, out, _ = run_cli(capsys, "table1", "L:2d=8")
    assert code == 0
    assert "birational_embedding" in out


def test_table1_unknown_family(capsys):
    code, _, err = run_cli(capsys, "table1", "L:2d=14")
    assert code == 2


@pytest.mark.parametrize("label", ["L:2d=04", " L:2d=4"])
def test_table1_reads_its_label_through_parse_family(capsys, label):
    assert run_cli(capsys, "table1", label) == run_cli(capsys, "table1", "L:2d=4")
    code, out, _ = run_cli(capsys, "--format", "json", "table1", label)
    assert code == 0
    assert {r["family"] for r in json.loads(out)["rows"]} == {"L:2d=4"}


@pytest.mark.parametrize("cmd", ["table1", "disc"])
@pytest.mark.parametrize(
    "label, message",
    [
        ("L:2d=7", "family subscript must be a positive even integer, got 7"),
        ("L':2d=6", "no overlattice exists for L':2d=6: L^2 = 2 mod 4"),
        ("L:2d'=4", "L families use the parameter 2d, not 2d'"),
        ("", "malformed family ''; expected e.g. L:2d=8, L':2d=8, M:2d'=4, M':2d'=8"),
    ],
)
def test_table1_gives_the_family_parser_message(capsys, cmd, label, message):
    assert run_cli(capsys, cmd, label) == (2, "", f"error: {message}\n")


def test_correspond(capsys):
    code, out, _ = run_cli(capsys, "correspond", "L:2d=6")
    assert code == 0
    assert "M':2d'=12" in out


def test_json_output_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "--format", "json", "glues", "2")
    _, out2, _ = run_cli(capsys, "--format", "json", "glues", "2")
    assert out1 == out2


def _memo_hits():
    return admissible_glues.cache_info().hits + _model_descriptor.cache_info().hits


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize(
    "argv", [["glues", "6"], ["glues", "60"], ["table1", "L':2d=12"], ["table1"]], ids=" ".join
)
def test_second_call_answers_from_the_memo_byte_identically(capsys, fmt, argv):
    admissible_glues.cache_clear()
    _model_descriptor.cache_clear()
    first = run_cli(capsys, "--format", fmt, *argv)
    hits = _memo_hits()
    second = run_cli(capsys, "--format", fmt, *argv)
    assert _memo_hits() > hits
    assert first[0] == 0
    assert second == first


@pytest.mark.parametrize(
    "argv, message",
    [(["glues", "0"], "d must be positive"), (["table1", "L:2d=14"], "L:2d=14 is not tabulated")],
)
def test_refused_input_exits_2_on_every_repeat(capsys, argv, message):
    for _ in range(3):
        assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


OVERLATTICE_16 = ["overlattice", "L:2d=16", "--support"]


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_repeated_overlattice_query_answers_from_the_memo(capsys, fmt):
    _glued_overlattice.cache_clear()
    first = run_cli(capsys, "--format", fmt, *OVERLATTICE_16, "1,6,7,8")
    assert first[0] == 0
    assert _glued_overlattice.cache_info()[:2] == (0, 1)  # (hits, misses)
    assert run_cli(capsys, "--format", fmt, *OVERLATTICE_16, "1,6,7,8") == first
    assert _glued_overlattice.cache_info()[:2] == (1, 1)
    # the key is the support as a set, so the input order does not matter
    assert run_cli(capsys, "--format", fmt, *OVERLATTICE_16, "8,7,6,1") == first
    assert _glued_overlattice.cache_info()[:2] == (2, 1)
    assert _glued_overlattice.cache_info().currsize == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        ([*OVERLATTICE_16, "1,1,2,2"], "support repeats index 1, got '1,1,2,2'"),
        (
            [*OVERLATTICE_16, "1,2,3,4,5,6,7,8"],
            "support 1..8 gives v = 2*Nhat, and v/2 already lies in N",
        ),
        ([*OVERLATTICE_16, "1,2,3"], "support size must be even"),
        ([*OVERLATTICE_16, "1,2"], "evenness failure: adjoined square 3 is not in 2Z"),
        (["overlattice", "L':2d=8"], "overlattice extends an L family, not L':2d=8"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else "",
)
def test_refused_overlattice_raises_on_every_call_and_is_not_kept(capsys, argv, message):
    _glued_overlattice.cache_clear()
    for _ in range(3):
        assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")
    assert _glued_overlattice.cache_info().currsize == 0


@pytest.mark.parametrize("support", ["1,+2,3,4", "01,2,3,4", "1, 2,3,4", "0,1,2,3", "1,2,3,\u0664"])
def test_overlattice_support_tokens_are_ascii_indices(capsys, support):
    code, out, err = run_cli(capsys, "overlattice", "L:2d=16", "--support", support)
    assert (code, out) == (2, "")
    assert err == f"error: support must be comma-separated indices in 1..8, got {support!r}\n"


EXPECTED_FAMILIES = "; expected e.g. L:2d=8, L':2d=8, M:2d'=4, M':2d'=8"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["disc", "L:2d=\u0666"], "malformed family 'L:2d=\u0666'" + EXPECTED_FAMILIES),
        (["disc", "\u3000L:2d=6"], "malformed family '\\u3000L:2d=6'" + EXPECTED_FAMILIES),
        (["ample", "L:2d=8", "--divisor", "\u0662L-Nhat"], "cannot parse divisor '\u0662L-Nhat' at position 0"),
        (["chow", "P\u0663: (4)"], "cannot parse complete intersection 'P\u0663: (4)'"),
        (["chow", "P3: (4)^\u0661"], "expected '+' at position 3 in 'P3: (4)^\u0661'"),
    ],
    ids=["family digit", "family space", "divisor", "ci dimension", "ci repetition"],
)
def test_non_ascii_digits_and_spaces_exit_2(capsys, argv, message):
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("bad", [{1, 2}, Fraction(1, 2), {1: "a"}, {"a": 1, 2: "b"}, [b"x"]], ids=repr)
def test_json_text_refuses_other_types(bad):
    with pytest.raises(TypeError):
        _json_text({"value": bad})


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_json_text_refuses_non_finite_floats(bad):
    with pytest.raises(ValueError, match="not JSON compliant"):
        _json_text([bad])


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize(
    # a report larger than the stdout buffer fails inside its print; a small
    # one fails when main flushes it
    "argv", [["--format", "json", "table1"], ["correspond", "L:2d=6"]], ids=" ".join
)
def test_closed_stdout_exits_141_without_a_traceback(argv, unbuffered):
    # the read end is closed before the child starts, so its first write fails
    env = {k: v for k, v in FRESH_ENV.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "k3evenset.cli", *argv],
            stdout=write, stderr=subprocess.PIPE, text=True, timeout=30, env=env,
        )
    finally:
        os.close(write)
    assert proc.returncode == 141
    assert "Traceback" not in proc.stderr
    assert proc.stderr == ""


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("dmax", ["0", "-3"])
def test_verify_paper_rejects_empty_range(capsys, dmax):
    # 0 is refused by run_all, a sign by the argument's digit-only type
    try:
        code, out, err = run_cli(capsys, "verify-paper", "--dmax", dmax)
    except SystemExit as exc:
        code, (out, err) = exc.code, capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "dmax" in err


@pytest.mark.parametrize("text", ["\u0666", "\uff16", " 6 ", "6 ", "+6", "-6", "6.0", "x", ""])
@pytest.mark.parametrize("argv", [["glues", "{}"], ["verify-paper", "--dmax", "{}"]])
def test_integer_arguments_take_ascii_digits_only(capsys, argv, text):
    # int() would read Unicode digits, a sign and surrounding spaces
    with pytest.raises(SystemExit) as exc:
        main([a.format(text) for a in argv])
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    assert err.startswith("usage:") and f"invalid int value: {text!r}" in err


def test_main_builds_one_parser_and_matches_fresh_processes(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    build_parser.cache_clear()
    calls = [
        ["glues", "x"],
        ["--format", "json", "glues", "4"],
        ["--format", "text", "overlattice", "L:2d=8"],
    ]
    warm = []
    try:
        for argv in calls:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            warm.append((code, captured.out, captured.err))
            if len(warm) == 1:
                first = len(built)
                assert first > 0  # the first call builds the parser and its subparsers
        assert len(built) == first
    finally:
        build_parser.cache_clear()
    assert [code for code, _, _ in warm] == [2, 0, 0]
    assert [run_fresh(argv) for argv in calls] == warm


WATCHED = ("dataclasses", "fractions", "decimal")


def loaded_modules(code):
    """The package modules, and those of WATCHED that are loaded, after
    running code in a new interpreter."""
    report = (
        "\nimport json, sys\n"
        f"print(json.dumps([m for m in sys.modules if m in {WATCHED!r} or m.startswith('k3evenset')]))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code + report],
        capture_output=True, text=True, timeout=30, env=FRESH_ENV, check=True,
    )
    return set(json.loads(proc.stdout.splitlines()[-1]))


CORE = {"k3evenset", "k3evenset.exactlin", "k3evenset.lattice", "k3evenset.disc", "k3evenset.families"}


def test_cli_import_loads_only_the_core_modules():
    # subcommand modules load on first use; no record pulls in dataclasses,
    # and no exact number type but the int: neither fractions nor decimal
    assert loaded_modules("import k3evenset.cli") == CORE | {"k3evenset.cli"}


@pytest.mark.parametrize(
    "argv, extra",
    [
        (["disc", "L:2d=6"], set()),
        (["chow", "P3: (4)"], {"k3evenset.chow"}),
        (["ample", "L:2d=6", "--divisor", "L-Nhat"], {"k3evenset.positivity"}),
        (["hyperelliptic", "L':2d=8", "--divisor", "L1+L2"], {"k3evenset.positivity"}),
        (["table1", "L:2d=4"], {"k3evenset.positivity", "k3evenset.models", "k3evenset.data"}),
    ],
)
def test_cold_call_loads_only_its_subcommand_modules(argv, extra):
    loaded = loaded_modules(f"from k3evenset.cli import main\nmain({argv!r})")
    assert loaded == CORE | {"k3evenset.cli"} | extra
