"""One measured process of the benchmark, started by run.py in a fresh interpreter.

    worker.py verify-paper --t0 T [--trace]
    worker.py query-stream --t0 T --seed N --seconds S [--trace]
    worker.py cli-cold     --t0 T --seed N --seconds S [--trace]
    worker.py cli-call OUT ARGS...      (one traced CLI call, for cli-cold --trace)

The first thing timed is set-up: from T (time.monotonic() in the parent just
before this process was started) until k3evenset.cli is imported and the
inputs are built.  The last line of stdout is a JSON object with the
timings, counts and check failures; run.py turns it into metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

QUERY_ROUND = 100  # warm queries per round (one pass of the mix), plus the bound-fault queries
CLI_ROUND = 18  # cold calls per round, plus CLI_MALFORMED usage errors
CLI_MALFORMED = 2
MAX_REPORTED = 20  # check failures carried back to run.py
TRACE_ROUNDS = 3  # query-stream --trace: untraced rounds, then as many traced ones


def import_cli():
    import k3evenset.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"k3evenset was imported from {cli.__file__}, not from {SRC}")
    return cli


class Ledger:
    """Attempted and failed operations, and the outputs that failed a check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong_outputs = 0
        self.errors: list[str] = []

    def wrong(self, msg: str) -> None:
        self.wrong_outputs += 1
        if len(self.errors) < MAX_REPORTED:
            self.errors.append(msg)


def run_rounds(seconds: float, one_round) -> list:
    """Whole rounds until the next one would end after `seconds`; at least one."""
    start = time.perf_counter()
    rounds = []
    while True:
        rounds.append(one_round())
        elapsed = time.perf_counter() - start
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds


# --- verify-paper ------------------------------------------------------------


def verify_paper(args) -> dict:
    import_cli()
    from k3evenset import acceptance

    from checks import CheckError, check_criteria
    from tracer import OracleClock, Tracer

    setup_s = time.monotonic() - args.t0
    tracer = clock = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    else:
        clock = OracleClock()
    criteria = []
    t_round = time.perf_counter()
    for number, criterion in enumerate(acceptance.CRITERIA, 1):
        t = time.perf_counter()
        if tracer:
            tracer.context = f"criterion{number}"
            result = tracer.span(f"acceptance.criterion{number}", criterion, 12)
            tracer.context = None
        else:
            result = criterion(12)
        criteria.append(
            {"number": result.number, "seconds": time.perf_counter() - t, "failures": result.failures}
        )
    round_s = time.perf_counter() - t_round
    ledger = Ledger()
    ledger.attempted = len(criteria)
    try:
        check_criteria(criteria)
    except CheckError as exc:
        ledger.wrong(str(exc))
    out = {
        "setup_s": setup_s,
        "rounds": [
            {
                "round_s": round_s,
                "oracle_s": clock.seconds if clock else None,
                "op_s": [c["seconds"] for c in criteria],
            }
        ],
        "criteria": [{"number": c["number"], "seconds": c["seconds"]} for c in criteria],
    }
    return finish(out, ledger, tracer)


# --- query-stream ----------------------------------------------------------------


def query_stream(args) -> dict:
    cli = import_cli()
    from checks import CheckError, check_output
    from queries import bound_fault_queries, query_round
    from tracer import Tracer

    queries = query_round(args.seed, QUERY_ROUND) + bound_fault_queries()
    setup_s = time.monotonic() - args.t0
    ledger = Ledger()

    def call(q):
        out, err = io.StringIO(), io.StringIO()
        t = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(["--format", "json", *q["argv"]])
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
        return rc, time.perf_counter() - t, out.getvalue(), err.getvalue()

    def one_round():
        times, round_s = [], 0.0
        for q in queries:
            ledger.attempted += 1
            try:
                rc, dt, stdout, stderr = call(q)
            except Exception as exc:  # a crash inside the program: a failed query
                ledger.failed += 1
                ledger.wrong(f"{q['argv']}: {type(exc).__name__}: {exc}")
                continue
            round_s += dt
            if q["cmd"] != "malformed" and rc != 0:
                ledger.failed += 1
                continue
            times.append(dt)
            try:
                check_output(q, rc, stdout, stderr)
            except (CheckError, KeyError, ValueError, TypeError) as exc:
                ledger.wrong(f"{q['argv']}: {exc}")
        return {"round_s": round_s, "op_s": times}

    tracer = None
    if args.trace:
        one_round()  # warm the lattice caches so traced and untraced rounds start alike
        rounds = [one_round() for _ in range(TRACE_ROUNDS)]
        tracer = Tracer()
        tracer.install()
        rounds += [one_round() for _ in range(TRACE_ROUNDS)]
    else:
        rounds = run_rounds(args.seconds, one_round)
    return finish({"setup_s": setup_s, "rounds": rounds}, ledger, tracer)


# --- cli-cold ----------------------------------------------------------------------


def cli_cold(args) -> dict:
    import_cli()
    from checks import CheckError, check_output
    from queries import query_round
    from tracer import merge

    queries = query_round(args.seed, CLI_ROUND, CLI_MALFORMED)
    setup_s = time.monotonic() - args.t0
    ledger = Ledger()
    out_dir = ROOT / ".bench_out"
    summaries: list[dict] = []
    spans: list[list] = []  # one list per traced call

    def one_round(traced: bool):
        times, round_s = [], 0.0
        for i, q in enumerate(queries):
            ledger.attempted += 1
            if traced:
                trace_file = out_dir / f"cli-call-{os.getpid()}-{i}.json"
                cmd = [sys.executable, str(BENCH / "worker.py"), "cli-call", str(trace_file)]
            else:
                cmd = [sys.executable, "-m", "k3evenset.cli"]
            t = time.perf_counter()
            proc = subprocess.run(
                cmd + ["--format", "json", *q["argv"]], capture_output=True, text=True, timeout=60
            )
            dt = time.perf_counter() - t
            round_s += dt
            if traced:
                summary = json.loads(trace_file.read_text())
                trace_file.unlink()
                spans.append(summary.pop("spans"))
                summaries.append(summary)
            if q["cmd"] != "malformed" and proc.returncode != 0:
                ledger.failed += 1
                continue
            times.append(dt)
            try:
                check_output(q, proc.returncode, proc.stdout, proc.stderr)
            except (CheckError, KeyError, ValueError, TypeError) as exc:
                ledger.wrong(f"{q['argv']}: {exc}")
        return {"round_s": round_s, "op_s": times}

    if args.trace:
        out_dir.mkdir(exist_ok=True)
        rounds = [one_round(False), one_round(True)]
        write_spans(spans, 0)
        out = {"setup_s": setup_s, "rounds": rounds, "trace": summarize(merge(summaries))}
        return finish(out, ledger, None)
    rounds = run_rounds(args.seconds, lambda: one_round(False))
    return finish({"setup_s": setup_s, "rounds": rounds}, ledger, None)


def cli_call(argv: list[str]) -> int:
    """Run one CLI call with the tracer installed; spans go to argv[0]."""
    out_file, cli_argv = Path(argv[0]), argv[1:]
    cli = import_cli()
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        rc = cli.main(cli_argv)
    except SystemExit as exc:
        rc = exc.code
    out_file.write_text(json.dumps({**tracer.summary(), "spans": tracer.spans}))
    return rc


# --- reporting -------------------------------------------------------------------


def summarize(merged: dict) -> dict:
    """JSON-friendly per-layer metrics of a merged trace."""
    from tracer import layer_metrics

    return {name: list(pair) for name, pair in layer_metrics(merged).items()}


def finish(out: dict, ledger: Ledger, tracer) -> dict:
    out.update(
        attempted=ledger.attempted,
        failed=ledger.failed,
        wrong=ledger.wrong_outputs,
        errors=ledger.errors,
    )
    if tracer is not None:
        from tracer import merge

        out["trace"] = summarize(merge([tracer.summary()]))
        write_spans(tracer.spans, tracer.dropped)
    return out


def write_spans(spans: list, dropped: int) -> None:
    """Spans as (id, name, start, end, parent id), seconds from trace start."""
    path = Path(os.environ["BENCH_SPANS"])
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({"fields": ["id", "name", "start", "end", "parent"],
                                "spans": spans, "dropped": dropped}))


def main() -> int:
    if len(sys.argv) > 1 and sys.argv[1] == "cli-call":
        return cli_call(sys.argv[2:])
    p = argparse.ArgumentParser()
    p.add_argument("workload", choices=("verify-paper", "query-stream", "cli-cold"))
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args()
    run = {"verify-paper": verify_paper, "query-stream": query_stream, "cli-cold": cli_cold}
    print(json.dumps(run[args.workload](args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
