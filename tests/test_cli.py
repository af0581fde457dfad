import json

import pytest

from k3evenset.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_table1_single_row(capsys):
    code, out, _ = run_cli(capsys, "table1", "L:2d=8")
    assert code == 0
    assert "birational_embedding" in out


def test_table1_unknown_family(capsys):
    code, _, err = run_cli(capsys, "table1", "L:2d=14")
    assert code == 2


def test_correspond(capsys):
    code, out, _ = run_cli(capsys, "correspond", "L:2d=6")
    assert code == 0
    assert "M':2d'=12" in out


def test_json_output_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "--format", "json", "glues", "2")
    _, out2, _ = run_cli(capsys, "--format", "json", "glues", "2")
    assert out1 == out2


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
