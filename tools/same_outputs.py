"""Check that two source trees give byte-identical CLI outputs.

    python3 tools/same_outputs.py OLD_SRC NEW_SRC

Each SRC is a directory that holds the `k3evenset` package, such as a
checkout's `src/`.  For each tree one fresh interpreter imports
`k3evenset.cli` from that directory and calls `cli.main` in-process on every
record, capturing the exit code, stdout and stderr; then it answers the whole
record list a second time, so that answers a process keeps from its first
pass (glue classes, table-1 descriptors) are checked too.  The records are
built here from `bench/` (which this script only imports):

* `bench/queries.py` seeds 1-8, one pass of the query mix plus 4 malformed
  queries each, and the 4 bound-fault queries;
* `table1`, `glues 1` ... `glues 60`, and `disc` of L, L', M and M' with the
  label parameter 2, 4, ..., 40;
* fixed records (`FIXED`) whose answers print a rational: the adjoined
  squares 1/2, -3/2 and 1 of refused overlattices, and witnesses with
  coefficients 1/2;
* each of the above with `--format json` and with `--format text`;
* `verify-paper --format json`, compared without its `elapsed_s` fields;
* each `overlattice --support` record again, with its indices reversed,
  whose answers must equal those of the record it reverses.

Prints the first (argv, stream) whose second answer differs from the first
in one tree, whose reversed support changes the answer, or that differs
between the trees, and exits 1; or prints `identical: N records, each
answered twice` and exits 0.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
BENCH = TOOLS.parent / "bench"
STREAMS = ("exit", "stdout", "stderr")
USAGE = "usage: python3 tools/same_outputs.py OLD_SRC NEW_SRC"
VERIFY_PAPER = ["--format", "json", "verify-paper"]
FIXED = [
    ["overlattice", "L:2d=6", "--support", "1,2"],
    ["overlattice", "L:2d=6", "--support", "1,2,3,4,5,6"],
    ["overlattice", "L:2d=8", "--support", "1,2"],
    ["hyperelliptic", "L':2d=12", "--divisor", "2L1"],
    ["hyperelliptic", "L':2d=8", "--divisor", "L1+L2"],
]


def records() -> list[list[str]]:
    sys.dont_write_bytecode = True  # leave bench/ as it is
    sys.path.insert(0, str(BENCH))
    from checks import family_label
    from queries import bound_fault_queries, query_round
    from worker import QUERY_ROUND

    argvs = []
    for seed in range(1, 9):
        argvs += [q["argv"] for q in query_round(seed, QUERY_ROUND, 4)]
    argvs += [q["argv"] for q in bound_fault_queries()]
    argvs.append(["table1"])
    argvs += [["glues", str(d)] for d in range(1, 61)]
    argvs += [["disc", family_label(k, p)] for k in ("L", "L'", "M", "M'") for p in range(1, 21)]
    argvs += FIXED
    out = [["--format", fmt, *argv] for fmt in ("json", "text") for argv in argvs]
    return out + [VERIFY_PAPER]


def reversed_supports(argvs: list) -> list[tuple[int, list[str]]]:
    """(i, twin) for each record i with a --support of several indices: twin
    is the same query with the indices in reverse order."""
    twins = []
    for i, argv in enumerate(argvs):
        if "--support" in argv:
            at = argv.index("--support") + 1
            indices = argv[at].split(",")
            if len(indices) > 1:
                twins.append((i, [*argv[:at], ",".join(reversed(indices)), *argv[at + 1:]]))
    return twins


def _drop_elapsed(data):
    if isinstance(data, dict):
        return {k: _drop_elapsed(v) for k, v in data.items() if k != "elapsed_s"}
    if isinstance(data, list):
        return [_drop_elapsed(v) for v in data]
    return data


def answer(cli, argv: list[str]) -> list:
    """[exit code, stdout, stderr] of one in-process `cli.main` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
        except Exception as exc:  # a crash inside the program is an output too
            rc = f"{type(exc).__name__}: {exc}"
    stdout = out.getvalue()
    if argv == VERIFY_PAPER and stdout:
        stdout = json.dumps(_drop_elapsed(json.loads(stdout)), indent=2)
    return [rc, stdout, err.getvalue()]


def child() -> None:
    """Answer the records read from stdin twice; write both passes as JSON."""
    import k3evenset.cli as cli

    src = Path(sys.argv[1]).resolve()
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"k3evenset was imported from {cli.__file__}, not from {src}")
    argvs = json.load(sys.stdin)
    json.dump([[answer(cli, argv) for argv in argvs] for _ in range(2)], sys.stdout)


def first_difference(argvs: list, old: list, new: list, what: str, labels=("old", "new")):
    """A report of the first (argv, stream) whose answers differ, or None."""
    for args, a, b in zip(argvs, old, new):
        for stream, x, y in zip(STREAMS, a, b):
            if x != y:
                return f"{what}: {args} {stream}\n--- {labels[0]}\n{x}\n--- {labels[1]}\n{y}"
    return None


def run_tree(src: Path, argvs: list) -> list:
    """The two passes of answers of the tree at src."""
    code = f"import sys; sys.path.insert(0, {str(TOOLS)!r}); import same_outputs as s; s.child()"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-B", "-c", code, str(src)],
        input=json.dumps(argvs), capture_output=True, text=True, env=env,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{src}: the run failed\n{proc.stderr}")
    return json.loads(proc.stdout)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(USAGE, file=sys.stderr)
        return 2
    srcs = [Path(a).resolve() for a in argv]
    for src in srcs:
        if not (src / "k3evenset" / "cli.py").is_file():
            print(f"{src}: no k3evenset package here", file=sys.stderr)
            return 2
    argvs = records()
    twins = reversed_supports(argvs)
    start = len(argvs)
    argvs += [twin for _, twin in twins]
    old, new = (run_tree(src, argvs) for src in srcs)
    diffs = [
        first_difference(argvs, *passes, f"{src}: the second answer differs", ("first", "second"))
        for src, passes in zip(srcs, (old, new))
    ]
    for src, passes in zip(srcs, (old, new)):
        for answers in passes:
            given = [answers[i] for i, _ in twins]
            diffs.append(first_difference(
                argvs[start:], given, answers[start:], f"{src}: the reversed support differs",
                ("given", "reversed"),
            ))
    diffs.append(first_difference(argvs, old[0], new[0], "differs"))
    for diff in diffs:
        if diff is not None:
            print(diff)
            return 1
    print(f"identical: {len(argvs)} records, each answered twice")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
