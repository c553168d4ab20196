"""Self-tests of the benchmark: its declared metrics, tiny runs and answer checks.

Run from the repository root with ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import checks, run, speed, steady, workloads  # noqa: E402
from repro import graphs  # noqa: E402
from repro.core.lca import BatchQueryResult  # noqa: E402
from repro.core.registry import create  # noqa: E402
from repro.service.shards import OracleShard  # noqa: E402
from repro.service.trace import TraceOp  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
CONTEXT = json.loads((ROOT / "perfbench" / "context.json").read_text())


def _tiny(workload: str, trace: int):
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    return done, done.stdout.strip().splitlines()


def test_metric_names_and_units_follow_the_grammar():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for metric in metrics:
        assert NAME.fullmatch(metric["name"]), metric["name"]
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_workloads_and_context_agree_with_the_spec():
    declared = [w["name"] for w in SPEC["workloads"]]
    assert declared == list(workloads.WORKLOADS) == list(CONTEXT["workloads"])
    layer = {m["name"] for m in SPEC["per_layer"]}
    end = {m["name"] for m in SPEC["end_to_end"]}
    for entry in CONTEXT["workloads"].values():
        for metric, moves in entry["predicts"].items():
            assert metric in layer, metric
            assert {part.strip() for part in moves.split(",")} <= end, moves


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_workload_runs_at_tiny_size(workload, trace):
    done, lines = _tiny(workload, trace)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        assert result["metrics"]["ok_frac"]["value"] == 1.0
        saved = json.loads((ROOT / ".perfbench" / f"{workload}-seed3-trace0.json").read_text())
        setups = saved["notes"]["scaled_setup_s"]
        assert len(setups) == workloads.SETUP_RUNS
        assert sorted(setups)[len(setups) // 2] == result["metrics"]["setup_s"]["value"]


def test_without_the_program_sources_the_command_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-dense", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert not done.stdout.strip().endswith("}")


def _flip(result: BatchQueryResult, position: int = 0) -> BatchQueryResult:
    answers = list(result.answers)
    answers[position] = not answers[position]
    return BatchQueryResult(result.edges, answers, result.probe_totals)


def test_cold_sample_check_catches_one_flipped_answer():
    graph = graphs.gnp_graph(60, 0.4, seed=2).to_backend("csr")
    lca = create("spanner3", graph, seed=2).set_query_mode("cached")
    edges = graph.edge_list()[:30]
    served = lca.query_batch(edges)
    reads = [(u, v, a, p) for (u, v), a, p in zip(edges, served.answers, served.probe_totals)]
    assert checks.cold_sample_mismatches(create("spanner3", graph, seed=2), reads) == []
    u, v, answer, probes = reads[7]
    reads[7] = (u, v, not answer, probes)
    problems = checks.cold_sample_mismatches(create("spanner3", graph, seed=2), reads)
    assert len(problems) == 1 and f"({u}, {v})" in problems[0]


def test_churn_replay_catches_one_flipped_answer():
    def fresh():
        return graphs.gnp_graph(50, 0.4, seed=4).to_backend("csr")

    stream = workloads._ChurnOps(fresh(), seed=4, period=5).take(60)
    served_graph = fresh()
    lca = create("spanner3", served_graph, seed=4).set_query_mode("cached")
    served = []
    for op in stream:
        if isinstance(op, TraceOp):
            served_graph.apply_mutation(op.op, op.u, op.v)
        else:
            result = lca.query_batch([op])
            served.append((op[0], op[1], result.answers[0], result.probe_totals[0]))

    def replay(reads):
        graph = fresh()
        reference = create("spanner3", graph, seed=4).set_kernel("python")
        reference.set_query_mode("cached")
        table = checks.ClassTable(workloads.SPANNER3_CLASSES)
        return checks.replay_churn(graph, reference, stream, reads, table)

    assert replay(served) == []
    u, v, answer, probes = served[20]
    served[20] = (u, v, not answer, probes)
    assert len(replay(served)) == 1


def test_materialize_check_catches_one_flipped_answer():
    graph = graphs.gnp_graph(40, 0.4, seed=5).to_backend("csr")
    spanner = create("spanner3", graph, seed=5).materialize(mode="batched")
    reads = [(u, v, spanner.contains(u, v), 0) for u, v in graph.edge_list()[:10]]
    assert checks.answer_mismatches(spanner.contains, reads) == []
    u, v, answer, probes = reads[3]
    reads[3] = (u, v, not answer, probes)
    assert len(checks.answer_mismatches(spanner.contains, reads)) == 1


@pytest.mark.parametrize("workload", ["serve-dense", "serve-churn"])
def test_command_fails_when_the_service_flips_one_answer(workload, monkeypatch, tmp_path, capsys):
    original = OracleShard.serve_batch
    calls = []

    def flipped(self, edges, validate=True):
        result = original(self, edges, validate)
        calls.append(len(edges))
        return _flip(result) if len(calls) == 100 else result

    monkeypatch.setattr(OracleShard, "serve_batch", flipped)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    # A stride of 1 puts every served read in the cold sample.
    monkeypatch.setitem(workloads.SIZES["tiny"]["serve-dense"], "stride", 1)
    code = run.main(["--workload", workload, "--seed", "2", "--seconds", "0.2",
                     "--size", "tiny"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1


def _report(values_by_metric):
    return {
        "workload": "serve-dense", "runs": 4, "seeds": [1, 2, 3, 4], "host": {},
        "wall_s": [1.0] * 4,
        "metrics": {
            name: {"unit": "s", **steady.summarize(values, 0.25)}
            for name, values in values_by_metric.items()
        },
    }


def test_steadiness_report_flags_every_metric_over_its_bound_setup_too(capsys):
    steady_values = [1.0, 1.01, 0.99, 1.0]
    noisy = [1.0, 2.0, 0.5, 1.5]
    assert steady.print_report(_report({"ops_per_s": steady_values})) == 0
    assert steady.print_report(_report({"setup_s": noisy, "ops_per_s": noisy})) == 2
    assert capsys.readouterr().out.count("OVER BOUND") == 2


def test_compare_flags_a_median_that_moved_beyond_its_bound(capsys):
    first = {"workloads": [_report({"setup_s": [1.0, 1.0, 1.0, 1.0],
                                    "ops_per_s": [1.0, 1.0, 1.0, 1.0]})]}
    second = {"workloads": [_report({"setup_s": [1.3, 1.3, 1.3, 1.3],
                                     "ops_per_s": [1.1, 1.1, 1.1, 1.1]})]}
    assert steady.compare(first, first) == 0
    assert steady.compare(first, second) == 1
    assert "setup_s" in [line.split()[1] for line in capsys.readouterr().out.splitlines()
                         if line.endswith("OVER BOUND")]


def test_permuted_reads_give_every_orientation_once_per_pass():
    graph = graphs.gnp_graph(30, 0.3, seed=6).to_backend("csr")
    reads = workloads._PermutedReads(graph, seed=6)
    orientations = {o for u, v in graph.edge_list() for o in ((u, v), (v, u))}
    for _ in range(2):
        taken = []
        while chunk := reads.take(7):
            taken.extend(chunk)
        assert sorted(taken) == sorted(orientations)
        reads.next_pass()


def test_timed_blocks_scale_by_the_calibrations_around_them(monkeypatch):
    loops = iter([2e-3, 2e-3, 1e-3, 3e-3])
    monkeypatch.setattr(speed, "loop_seconds", lambda runs=3: next(loops))
    host = speed.HostSpeed()
    host.begin()
    assert host.scale() == pytest.approx(speed.NOMINAL_LOOP_S / 2e-3)
    host.begin()
    assert host.scale() == pytest.approx(speed.NOMINAL_LOOP_S / 2e-3)
    assert host.median_loop_ms() == pytest.approx(2.0)
    monkeypatch.setattr(speed, "loop_seconds", lambda runs=3: 4e-3 if runs == speed.SETUP_LOOPS else 0)
    assert speed.SetupSpeed().scaled(8.0) == pytest.approx(8.0 * speed.NOMINAL_LOOP_S / 4e-3)
