"""Run the benchmark: one workload per process, or every workload in turn.

From the repository root::

    python3 perfbench/run.py --workload serve-dense --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 10

A single-workload run prints its metrics by name and unit, then, as the last
line of standard output, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` reports its per-layer
metrics, prints the per-layer self-time table and writes the spans as a
Chrome trace under ``.perfbench/``.  The exit code is 1 when an answer check
fails and 2 when the program cannot be imported.

``--all`` runs every workload in its own fresh process and prints one table.
An untraced run times two more cold set-ups of its workload, each in a
fresh ``--setup-only`` process, and reports the median of the three as
``setup_s``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

#: The start of the process, but for the standard-library imports above:
#: ``setup_s`` counts from here, so it includes importing the program.
STARTED = time.perf_counter()

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"


def _import_program():
    """Put the checkout's ``src`` first on the path and import the program."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"error: no program sources at {src}; run from a full checkout\n")
        raise SystemExit(2)
    sys.path[:0] = [str(src), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.stderr.write(f"error: imported repro from {repro.__file__}, not from {src}\n")
        raise SystemExit(2)


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def fingerprint(kernel: str) -> dict:
    """Host facts that change which code path runs or how fast it is."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "cpu_count": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "kernel": kernel,
    }


def result_line(outcome, spec: dict, trace: bool) -> dict:
    """The contract's last line; fails loudly if a declared metric is missing."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in outcome.metrics]
    extra = sorted(set(outcome.metrics) - {m["name"] for m in declared})
    if missing or extra:
        raise RuntimeError(f"metric set differs from BENCHMARK.json: missing {missing}, extra {extra}")
    return {
        "correct": not outcome.problems,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {
            m["name"]: {"value": float(outcome.metrics[m["name"]]), "unit": m["unit"]}
            for m in declared
        },
    }


def run_one(args) -> int:
    sys.path.insert(0, str(ROOT))
    from perfbench.speed import SetupSpeed

    setup_speed = SetupSpeed()
    _import_program()
    from perfbench import workloads

    import_s = time.perf_counter() - STARTED - setup_speed.spent
    OUT_DIR.mkdir(exist_ok=True)
    if args.setup_only:
        setup_s = workloads.cold_setup_s(args.workload, args.seed, OUT_DIR, args.size, import_s)
        print(json.dumps({"raw_setup_s": setup_s, "setup_s": setup_speed.scaled(setup_s)}))
        return 0
    spec = load_spec()
    outcome = workloads.run(
        args.workload, args.seed, args.seconds, bool(args.trace), OUT_DIR, args.size,
        import_s, setup_speed,
    )
    line = result_line(outcome, spec, bool(args.trace))
    host = fingerprint(outcome.kernel)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    print(f"# workload {args.workload}  seed {args.seed}")
    print(f"# host {json.dumps(host)}")
    for key, value in outcome.notes.items():
        print(f"# {key}: {value}")
    if outcome.recorder is not None:
        chrome = OUT_DIR / f"{args.workload}-seed{args.seed}.trace.json"
        outcome.recorder.write_chrome(chrome)
        print(f"# spans: {len(outcome.recorder.spans)} written to {os.path.relpath(chrome, ROOT)}")
        print(f"# {'per-layer self time':34s} {'calls':>9s} {'self s':>10s} {'span s':>10s}")
        table = outcome.recorder.layer_table()
        rows = [
            (metric, table[span]["calls"], outcome.metrics[metric], table[span]["total_s"])
            for metric, span in workloads.SELF_TIME_METRICS.items()
            if span in table
        ]
        for metric, calls, self_s, total_s in sorted(rows, key=lambda row: -row[2]):
            print(f"# {metric:34s} {calls:9d} {self_s:10.4f} {total_s:10.4f}")
    for name, metric in line["metrics"].items():
        print(f"{name:36s} {metric['value']:>16.6g} {metric['unit']}")
    for problem in outcome.problems[:20]:
        print(f"# CHECK FAILED: {problem}")
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump(
            {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
             "trace": args.trace, "host": host, "notes": outcome.notes,
             "problems": outcome.problems, **line},
            handle, indent=1, default=str,
        )
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def run_all(args) -> int:
    """Every workload in its own process; one table of every metric."""
    spec = load_spec()
    status = 0
    rows = []
    for workload in [w["name"] for w in spec["workloads"]]:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--size", args.size,
        ]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            status = 1
            sys.stderr.write(done.stdout + done.stderr)
            print(f"{workload}: FAILED (exit {done.returncode})")
            if not lines or not lines[-1].startswith("{"):
                continue
        result = json.loads(lines[-1])
        rows.append((workload, result))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = [w for w, _ in rows]
    print(f"{'metric':36s} {'unit':10s} " + " ".join(f"{n:>14s}" for n in names))
    for metric in declared:
        values = " ".join(
            f"{r['metrics'][metric['name']]['value']:>14.6g}" for _, r in rows
        )
        print(f"{metric['name']:36s} {metric['unit']:10s} {values}")
    print(f"{'correct':36s} {'':10s} " + " ".join(f"{str(r['correct']):>14s}" for _, r in rows))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="workload name from BENCHMARK.json")
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny sizes are for the self-tests")
    parser.add_argument("--setup-only", action="store_true",
                        help="only time one cold set-up and print it (used by untraced runs)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.all:
        return run_all(args)
    names = [w["name"] for w in load_spec()["workloads"]]
    if args.workload not in names:
        parser.error(f"give --all or --workload with one of {names}")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
