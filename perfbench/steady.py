"""Steadiness report: run workloads N times in fresh processes and compare spreads to bounds.

From the repository root::

    python3 perfbench/steady.py --workload serve-dense --runs 5
    python3 perfbench/steady.py --workload all --runs 10 --out set-a.json
    python3 perfbench/steady.py --compare set-a.json set-b.json

Run ``i`` uses seed ``first_seed + i``.  For every end-to-end metric the
report prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``), the spread ``(q3 - q1) / median``
and the metric's bound from ``BENCHMARK.json``.  A metric whose spread
exceeds its bound is flagged; so is one whose spread is above a third of
its bound, the margin the benchmark aims to keep.  The exit code is 1 when
any run fails or any spread exceeds its bound.

``--compare`` reads two saved reports of the same code and flags every
metric whose median moved by more than its bound, in either direction,
from the first set to the second; the exit code is 1 if any did.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(workload: str, seed: int, seconds: int) -> dict:
    command = [
        sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    started = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    wall_s = time.perf_counter() - started
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} exited {done.returncode}:\n{done.stdout[-2000:]}{done.stderr[-2000:]}"
        )
    host = next(json.loads(line[len("# host "):]) for line in lines if line.startswith("# host "))
    return {"seed": seed, "host": host, "wall_s": wall_s, **json.loads(lines[-1])}


def summarize(values, bound: float) -> dict:
    """Median, quartiles and spread of one metric's values."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else float("inf")
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "values": values}


def report(workload: str, runs: list, spec: dict) -> dict:
    rows = {}
    for metric in spec["end_to_end"]:
        values = [run["metrics"][metric["name"]]["value"] for run in runs]
        rows[metric["name"]] = {"unit": metric["unit"], **summarize(values, metric["bound"])}
    return {"workload": workload, "runs": len(runs), "seeds": [r["seed"] for r in runs],
            "host": runs[0]["host"], "wall_s": [r["wall_s"] for r in runs], "metrics": rows}


def print_report(summary: dict) -> int:
    """Print one workload's table; return how many metrics exceed their bound."""
    print(f"\n{summary['workload']}  ({summary['runs']} runs, seeds {summary['seeds']})")
    print(f"host {json.dumps(summary['host'])}")
    print(f"wall seconds per run: max {max(summary['wall_s']):.1f}, "
          f"mean {statistics.fmean(summary['wall_s']):.1f}")
    print(f"{'metric':14s} {'unit':10s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound':>6s}")
    over = 0
    for name, row in summary["metrics"].items():
        flag = ""
        if row["spread"] > row["bound"]:
            flag = "  OVER BOUND"
            over += 1
        elif row["spread"] > row["bound"] / 3:
            flag = "  above bound/3"
        print(f"{name:14s} {row['unit']:10s} {row['median']:12.6g} {row['q1']:12.6g} "
              f"{row['q3']:12.6g} {row['spread']:8.4f} {row['bound']:6.2f}{flag}")
    return over


def compare(first: dict, second: dict) -> int:
    """Print median shifts between two reports; return how many exceed their bound."""
    print(f"{'workload':12s} {'metric':14s} {'median 1':>12s} {'median 2':>12s} "
          f"{'shift':>8s} {'bound':>6s}")
    over = 0
    later = {summary["workload"]: summary for summary in second["workloads"]}
    for summary in first["workloads"]:
        other = later.get(summary["workload"])
        if other is None:
            print(f"{summary['workload']:12s} missing from the second report")
            over += 1
            continue
        for name, row in summary["metrics"].items():
            median = other["metrics"][name]["median"]
            shift = (median - row["median"]) / row["median"]
            flag = "  OVER BOUND" if abs(shift) > row["bound"] else ""
            over += bool(flag)
            print(f"{summary['workload']:12s} {name:14s} {row['median']:12.6g} "
                  f"{median:12.6g} {shift:+8.4f} {row['bound']:6.2f}{flag}")
    return over


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="a workload name, or 'all'")
    parser.add_argument("--compare", nargs=2, metavar="REPORT",
                        help="compare the medians of two saved reports instead of running")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--out", help="also write the report as JSON to this path")
    args = parser.parse_args(argv)
    if args.compare:
        first, second = (json.loads(Path(path).read_text()) for path in args.compare)
        return 1 if compare(first, second) else 0
    if not args.workload:
        parser.error("give --workload or --compare")
    if args.runs < 2:
        parser.error("--runs must be at least 2 for quartiles")
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    seconds = args.seconds or spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    if any(w not in names for w in workloads):
        parser.error(f"unknown workload; choices: {names + ['all']}")
    summaries = []
    over = 0
    for workload in workloads:
        runs = [
            _run(workload, args.first_seed + i, seconds) for i in range(args.runs)
        ]
        summary = report(workload, runs, spec)
        summaries.append(summary)
        over += print_report(summary)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"run_seconds": seconds, "workloads": summaries}, handle, indent=1)
            handle.write("\n")
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
