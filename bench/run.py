"""k3evenset benchmark: one command, three workloads, independent output checks.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads (see bench/README.md):

  verify-paper  the eight acceptance criteria at dmax=12 in run_all order,
                one fresh interpreter per round
  query-stream  seeded queries through cli.main in one warm process
  cli-cold      seeded queries, each `python -m k3evenset.cli` in its own process

Every workload is a closed loop with one caller and no threads.  A run does
whole rounds of the same operations until the next round would end after
S seconds (at least one round).  With --trace 0 the last stdout line holds
the end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
traced round and the tracing overhead against an untraced round of the same
run.  Spans of a traced run are written to .bench_out/.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("verify-paper", "query-stream", "cli-cold")
DEADLINE_S = 170  # a run must end within 180 s


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (q in [0, 1])."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def spawn(workload: str, args, trace: bool, started: float) -> dict:
    """Start one worker in a fresh interpreter and return its report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    env["BENCH_SPANS"] = str(OUT / f"spans-{workload}-seed{args.seed}.json")
    timeout = max(1.0, DEADLINE_S - (time.monotonic() - started))
    t0 = time.monotonic()
    cmd = [
        sys.executable, str(BENCH / "worker.py"), workload, "--t0", repr(t0),
        "--seed", str(args.seed), "--seconds", str(args.seconds),
    ] + (["--trace"] if trace else [])
    # own process group, so that a timeout also stops the CLI processes of cli-cold
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"{workload} worker did not finish within {DEADLINE_S} s of the run's start")
    if proc.returncode != 0:
        sys.stderr.write(stderr)
        raise SystemExit(f"{workload} worker exited with status {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def collect(args, trace: bool, started: float) -> list[dict]:
    """Worker reports for one run; verify-paper needs a fresh process per round."""
    if args.workload != "verify-paper":
        return [spawn(args.workload, args, trace, started)]
    if trace:
        return [spawn("verify-paper", args, False, started), spawn("verify-paper", args, True, started)]
    reports: list[dict] = []
    t = time.monotonic()
    while True:
        reports.append(spawn("verify-paper", args, False, started))
        elapsed = time.monotonic() - t
        if elapsed * (len(reports) + 1) / len(reports) > args.seconds:
            return reports


def end_to_end(reports: list[dict]) -> dict[str, tuple[float, str]]:
    rounds = [r for rep in reports for r in rep["rounds"]]
    ops = [t for r in rounds for t in r["op_s"]]
    round_s = percentile([r["round_s"] for r in rounds], 0.5)
    system = [r["round_s"] - (r.get("oracle_s") or 0.0) for r in rounds]
    return {
        "setup_s": (reports[0]["setup_s"], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "MB"),
        "round_s": (round_s, "s"),
        "system_s": (percentile(system, 0.5), "s"),
        "op_p50_ms": (1000 * percentile(ops, 0.5), "ms"),
        "op_p90_ms": (1000 * percentile(ops, 0.9), "ms"),
    }


def per_layer(reports: list[dict]) -> dict[str, tuple[float, str]]:
    """Layer metrics of the traced rounds; overhead against the untraced rounds.

    Every traced run times the same number of untraced rounds first and
    traced rounds second; the overhead is the difference of their medians.
    """
    out = {name: tuple(pair) for name, pair in reports[-1]["trace"].items()}
    rounds = [r["round_s"] for rep in reports for r in rep["rounds"]]
    half = len(rounds) // 2
    out["trace.overhead_s"] = (percentile(rounds[half:], 0.5) - percentile(rounds[:half], 0.5), "s")
    return out


def main() -> int:
    started = time.monotonic()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (SRC / "k3evenset" / "cli.py").is_file():
        print(f"error: no k3evenset sources under {SRC}", file=sys.stderr)
        return 2
    # build: byte-compile once, so that timed imports never compile
    if not compileall.compile_dir(str(SRC), quiet=2):
        print("error: k3evenset does not compile", file=sys.stderr)
        return 2
    reports = collect(args, bool(args.trace), started)
    metrics = per_layer(reports) if args.trace else end_to_end(reports)
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    wrong = sum(r["wrong"] for r in reports)
    detail = {
        "workload": args.workload,
        "rounds": sum(len(r["rounds"]) for r in reports),
        "wrong": wrong,
        "errors": [e for r in reports for e in r["errors"]][:20],
    }
    if args.workload == "verify-paper" and not args.trace:
        detail["criteria_s"] = {
            f"criterion{c['number']}_s": percentile(
                [x["seconds"] for rep in reports for x in rep["criteria"] if x["number"] == c["number"]], 0.5
            )
            for c in reports[0]["criteria"]
        }
        detail["oracle_s"] = percentile([r["rounds"][0]["oracle_s"] for r in reports], 0.5)
    print(json.dumps(detail))
    print(
        json.dumps(
            {
                "correct": wrong == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
