"""Self-test of the benchmark: every output check accepts the program's real
output and rejects a deliberately corrupted copy of it.

    python3 bench/selftest.py

Named so that the project's pytest run does not collect it.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
import unittest
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import queries  # noqa: E402
from checks import CheckError, check_output  # noqa: E402


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    from k3evenset import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(["--format", "json", *argv])
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


class Corruptions(unittest.TestCase):
    def assert_guarded(self, q: dict, corrupt, reason: str) -> None:
        """The genuine output passes; corrupt(out) makes the check fail for `reason`."""
        rc, stdout, stderr = run_cli(q["argv"])
        check_output(q, rc, stdout, stderr)
        bad = copy.deepcopy(json.loads(stdout))
        corrupt(bad)
        with self.assertRaisesRegex(CheckError, reason):
            check_output(q, rc, json.dumps(bad), stderr)

    def test_disc(self):
        q = {"cmd": "disc", "argv": ["disc", "L':2d=8"], "kind": "L'", "param": 4}
        self.assert_guarded(q, lambda o: o["invariant_factors"].__setitem__(0, "4"), "invariant factors \\(")
        self.assert_guarded(q, lambda o: o.__setitem__("order", "256"), "det Gram")

    def test_glues_69(self):
        q = {"cmd": "glues", "argv": ["glues", "4"], "d": 4}

        def drop(o):
            o["classes"][0].pop()
            o["count"] = 69

        self.assert_guarded(q, drop, "69 glues, expected 70")
        self.assert_guarded(q, lambda o: o["classes"].append([o["classes"][0].pop()]), "2 classes")
        self.assert_guarded(q, lambda o: o["classes"][0].__setitem__(0, [1, 2]), "inadmissible")
        self.assert_guarded(q, lambda o: o["classes"][0].__setitem__(0, o["classes"][0][1]), "repeated")

    def test_overlattice(self):
        q = {"cmd": "overlattice", "argv": ["overlattice", "L:2d=8"], "d": 4}
        self.assert_guarded(q, lambda o: o["lattice"]["gram"][0].__setitem__(0, "16"), "det base")
        self.assert_guarded(q, lambda o: o["lattice"]["gram"][0].__setitem__(0, "7"), "even rank-9")
        self.assert_guarded(q, lambda o: o["discriminant"].__setitem__("order", "64"), "not .det")

    def test_ample_witness_square_minus_4(self):
        q = queries.divisor_query("ample", "L", 3, [1] + [0] * 8, "L", "pseudo_ample")

        def add_root(o):  # N_j + N_k: square -4, still orthogonal to L
            num = o["report"]["witness"]["num"]
            num[num.index("0", 1)] = o["report"]["witness"]["den"]

        def half_root(o):  # (N1 + N2 + N3 + N4)/2: a root, but not in L_{2d}
            w = o["report"]["witness"]
            w["num"], w["den"] = ["0", "1", "1", "1", "1", "0", "0", "0", "0"], "2"

        self.assert_guarded(q, add_root, "witness square -4")
        self.assert_guarded(q, half_root, "outside the lattice")
        def set_witness(num, den="1"):
            return lambda o: o["report"]["witness"].update(num=num, den=den)

        self.assert_guarded(q, lambda o: o["report"].__setitem__("d2", "4"), "D.2 = 4")
        self.assert_guarded(q, lambda o: o["report"]["divisor"]["num"].__setitem__(0, "2"), "read back")
        self.assert_guarded(q, lambda o: o["report"]["witness"].__setitem__("lattice", "L:2d=6"), "frame")
        self.assert_guarded(q, lambda o: o["report"]["witness"]["num"].pop(), "nine coordinates")
        self.assert_guarded(q, lambda o: o["report"].__setitem__("witness", None), "missing vector")
        # L - N1 - N2 - N3 - N4 is a root of L_6 with D.w = 6
        self.assert_guarded(q, set_witness(["1", "-1", "-1", "-1", "-1", "0", "0", "0", "0"]), "> 0")
        self.assert_guarded(q, lambda o: o["report"].__setitem__("status", "not_nef"), "contradicts")

    def test_ample_verdicts(self):
        q = queries.divisor_query("ample", "L", 6, [1] + [Fraction(-1, 2)] * 8, "L-Nhat", "ample")
        self.assert_guarded(q, lambda o: o["report"].__setitem__("status", "big"), "unknown status")
        self.assert_guarded(q, lambda o: o["report"].__setitem__("status", "nef"), "nef but not big")
        self.assert_guarded(q, lambda o: o["report"].__setitem__("witness", o["report"]["divisor"]), "with a witness")
        nef = queries.divisor_query("ample", "L", 2, [1] + [Fraction(-1, 2)] * 8, "L-Nhat")
        self.assert_guarded(nef, lambda o: o["report"].__setitem__("status", "ample"), "D.2 = 0")
        q["expect"] = "pseudo_ample"
        rc, stdout, stderr = run_cli(q["argv"])
        with self.assertRaisesRegex(CheckError, "the paper gives pseudo_ample"):
            check_output(q, rc, stdout, stderr)

    def test_hyperelliptic(self):
        q = queries.divisor_query("hyperelliptic", "L'", 4, [1] + [Fraction(-1, 2)] * 8, "L-Nhat")

        def double(o):  # 2E: still isotropic, but 2E.D = 4
            self.assertEqual(o["witness_kind"], "elliptic_pencil")
            o["witness"]["num"] = [str(2 * int(x)) for x in o["witness"]["num"]]

        def plus_l(o):  # E + L is a lattice point with (E + L)^2 != 0
            o["witness"]["num"][0] = str(int(o["witness"]["num"][0]) + int(o["witness"]["den"]))

        self.assert_guarded(q, double, "E.D != 2")
        self.assert_guarded(q, plus_l, "E.2 != 0")
        self.assert_guarded(q, lambda o: o["witness"].__setitem__("den", str(4 * int(o["witness"]["den"]))), "outside")
        self.assert_guarded(q, lambda o: o.__setitem__("kind", "birational"), "with a witness")
        self.assert_guarded(q, lambda o: o.__setitem__("kind", "3:1"), "unknown verdict")
        self.assert_guarded(q, lambda o: o.__setitem__("witness_kind", "genus2"), "genus-2")
        half = queries.divisor_query("hyperelliptic", "L'", 6, [1, -1, -1] + [0] * 6, "L-N1-N2")
        self.assert_guarded(half, lambda o: o["witness"]["num"].__setitem__(3, "2"), "B.2 != 2")
        self.assert_guarded(half, lambda o: o["witness"]["num"].__setitem__(1, "1"), "D != 2B")
        plane = queries.divisor_query("hyperelliptic", "L", 1, [1] + [0] * 8, "L")
        self.assert_guarded(plane, lambda o: o.update(kind="birational", witness_kind=None), "double plane")

    def test_chow_matrix_entry(self):
        q = {"cmd": "chow", "argv": ["chow", "P4xP2: (2,0)+(1,1)+(1,1)+(1,1)"],
             "dims": [4, 2], "degrees": [[2, 0], [1, 1], [1, 1], [1, 1]]}
        self.assert_guarded(q, lambda o: o["matrix"][1].__setitem__(1, 3), "matrix")
        self.assert_guarded(q, lambda o: o.__setitem__("k3", False), "not K3")

    def test_evenset_false(self):
        q = {"cmd": "evenset", "argv": ["evenset", "L:2d=6"]}
        self.assert_guarded(q, lambda o: o.__setitem__("even", False), "not even")

    def test_table1(self):
        q = {"cmd": "table1", "argv": ["table1", "L:2d=6"], "family": "L:2d=6"}
        self.assert_guarded(q, lambda o: o["rows"][1].__setitem__("ok", False), "does not verify")
        self.assert_guarded(q, lambda o: o["rows"].pop(), "3 table rows")
        self.assert_guarded(q, lambda o: o["rows"][0].__setitem__("family", "L:2d=8"), "unexpected row")
        self.assert_guarded(
            q, lambda o: o["rows"][0]["computed"].__setitem__("partner", "M':2d'=6"), "partner M'"
        )

    def test_correspond_wrong_partner(self):
        q = {"cmd": "correspond", "argv": ["correspond", "M:2d'=10"], "kind": "M", "param": 5}
        self.assert_guarded(q, lambda o: o.__setitem__("partner", "L':2d=10"), "expected L':2d=20")
        self.assert_guarded(q, lambda o: o.pop("schema"), "schema")

    def test_exit_status_and_traceback(self):
        q = {"cmd": "malformed", "argv": ["disc", "L:2d=7"]}
        rc, stdout, stderr = run_cli(q["argv"])
        check_output(q, rc, stdout, stderr)
        with self.assertRaisesRegex(CheckError, "not 2"):
            check_output(q, 0, stdout, stderr)
        with self.assertRaisesRegex(CheckError, "no error message"):
            check_output(q, rc, stdout, "")
        with self.assertRaisesRegex(CheckError, "traceback"):
            check_output(q, rc, stdout, "Traceback (most recent call last):\n")
        with self.assertRaisesRegex(CheckError, "exit status 2"):
            check_output({"cmd": "disc"}, rc, stdout, stderr)

    def test_verify_paper_failure_list(self):
        ok = [{"number": n, "failures": []} for n in range(1, 9)]
        checks.check_criteria(ok)
        bad = copy.deepcopy(ok)
        bad[1]["failures"].append("d=4: 69 glues in 1 classes, expected 70 in 1")
        with self.assertRaisesRegex(CheckError, "criterion 2"):
            checks.check_criteria(bad)
        with self.assertRaisesRegex(CheckError, "missing"):
            checks.check_criteria(ok[:7])


class IndependentMath(unittest.TestCase):
    def test_invariant_factors(self):
        self.assertEqual(checks.invariant_factors((6, 2, 2)), (2, 2, 6))
        self.assertEqual(checks.invariant_factors((12, 8)), (4, 24))
        self.assertEqual(checks.invariant_factors((3, 5)), (15,))

    def test_family_determinants(self):
        for d in range(1, 13):
            self.assertEqual(abs(checks.det(checks.family_gram("L", d))), 2 * d * 2 ** 6)
            self.assertEqual(abs(checks.det(checks.family_gram("M", d))), 2 * d * 2 ** 8)
            if d % 2 == 0:
                self.assertEqual(abs(checks.det(checks.family_gram("L'", d))), 2 * d * 2 ** 4)
                self.assertEqual(abs(checks.det(checks.family_gram("M'", d))), 2 * d * 2 ** 6)

    def test_correspondence_is_an_involution(self):
        for kind in ("L", "L'", "M", "M'"):
            for param in range(2, 40, 2):
                self.assertEqual(checks.correspondence(*checks.correspondence(kind, param)), (kind, param))

    def test_chow_reference_case(self):
        self.assertEqual(checks.chow_matrix([4, 2], [[2, 0], [1, 1], [1, 1], [1, 1]]), [[6, 6], [6, 2]])


class Generator(unittest.TestCase):
    def test_seeded(self):
        self.assertEqual(queries.query_round(7, 50, 2), queries.query_round(7, 50, 2))
        self.assertNotEqual(queries.query_round(7, 50), queries.query_round(8, 50))

    def test_bound_fault_queries_are_valid_input(self):
        for q in queries.bound_fault_queries():
            d, c = q["d"], [Fraction(x) for x in q["coeffs"]]
            self.assertGreater(checks.split_pair(d, c, c), 0)
            self.assertTrue(checks.in_l_family("L", d, c))


if __name__ == "__main__":
    unittest.main()
