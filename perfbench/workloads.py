"""The four benchmark workloads: set-up, timed phase, answer checks, metrics.

Every workload is closed loop with one client: each engine cycle ingests
one batch of arrivals (``arrival_burst == batch_size``, ``max_inflight ==
1``) and completes it before the next, on the serial executor in one
process.  Op streams are generated from the benchmark seed, outside every
timed region, and handed to the program through ``TraceWorkload``; the
graphs and LCA seeds are fixed instances (:data:`GRAPH_SEED`,
:data:`LCA_SEED`).

``setup_s`` is the median of :data:`SETUP_RUNS` cold set-ups, each in a
fresh process: the program import (timed by ``run.py`` from the start of
the process) plus the set-up, so one-time costs on first use show in it.
The first is the set-up whose state the timed phase then uses.  The
timed phase runs the op stream in chunks (one ``ServiceEngine.run`` per
chunk, or one materialization round) until ``seconds`` of chunk time have
accumulated.

``ops_per_s`` is the work of all untraced chunks over their summed time,
and the read latency percentiles pool all their reads.  Every timed
block (each chunk, each construction's materialization, each block of cold
reads) is scaled to the nominal host speed of :mod:`perfbench.speed`,
measured by a calibration loop right before and after it, because the
host's speed drifts by up to half over tens of seconds with the same
program work.  Each set-up is scaled by longer calibrations right before the program
import and right after the set-up (:class:`perfbench.speed.SetupSpeed`).
The raw times are printed as notes.  Consecutive pairs of chunks take turns
on the CPUs the process may use (:func:`_pin`), so the sums cover all of
them.

In a traced run every second chunk is traced, so traced and untraced
chunks see the same cache warmth and their throughput ratio is the
tracing overhead; per-layer numbers cover the traced set-up and the traced
chunks.
"""

from __future__ import annotations

import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from array import array
from bisect import bisect_right
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro import graphs
from repro.core.probes import nearest_rank_percentile
from repro.core.registry import create
from repro.kernels import engine as kernel_engine
from repro.kernels import spanner3 as kernel_spanner3
from repro.obs.profiler import EPOCH_INVALIDATED, ProbeProfiler
from repro.scale import build_stream_family, load_csr_snapshot, save_csr_snapshot
from repro.service import ServiceConfig, ServiceEngine
from repro.service.shards import OracleShard
from repro.service.trace import TraceOp
from repro.service.workload import TraceWorkload
from repro.spannerk import KSquaredParams, KSquaredSpannerLCA

from . import checks
from .spans import SpanRecorder
from .speed import HostSpeed, SetupSpeed

clock = time.perf_counter

#: The CPUs this process may run on; timed chunks take turns on them.
CPUS = sorted(os.sched_getaffinity(0))

#: Every workload runs on one fixed graph instance and one fixed LCA random
#: tape, so that runs on different ``--seed`` values do the same program work
#: up to the order of the requests.  Drawing a new instance per seed moves
#: the numbers by more than any bound: at n = 2e5 the mean probe cost of
#: hub-hub reads ranges from 11k to 18k over five LCA seeds alone.
GRAPH_SEED = 11
LCA_SEED = 7

#: Fewest batch stamps that must lie beyond ``read_p99_ms`` in a full-size run.
MIN_TAIL_BATCHES = 10

#: Cold set-ups per untraced run; ``setup_s`` is their median.  The first is
#: the run's own; the others run one after another in fresh processes once
#: the run's timed phase and checks are over and its state is freed.
SETUP_RUNS = 3

#: Workload sizes.  "full" is what the benchmark measures; "tiny" is for
#: the self-tests and finishes in about a second per workload.
SIZES: Dict[str, Dict[str, dict]] = {
    "full": {
        # Every degree exceeds sqrt(n), so every read takes the center rule.
        # A pass over the 2m = 100k edge orientations takes 6-9 s here.
        "serve-dense": dict(n=1000, p=0.1, shards=4, batch=16, warmup=4096,
                            chunk=1024, stride=499),
        # Batch size 1: a read behind a write pays the kernel rebuild, and
        # p99 needs >= 1000 batch stamps at a few hundred ops/s.
        "serve-churn": dict(n=400, p=0.15, shards=2, batch=1, warmup=100,
                            chunk=200, write_period=50),
        # read_p50/p99 time spannerk cold reads, latency_reads after each
        # round (800: with 400, read_p99_ms spread 0.13 over five seeds).  About half the spanner3 and spanner5 cold reads end at a
        # 3-5 probe rule and the rest scan hundreds of probes, so their
        # medians sit on a tenfold cliff; spannerk's spread smoothly.
        # spanner3's G(400, 0.25) has mean degree 100 > n^{3/4} = 89, so
        # most of its edges are super and the rest high.
        "materialize": dict(s3_n=400, s3_p=0.25, s5_n=300, s5_p=0.05, sk_n=200,
                            latency_reads=800, sample=300),
        # The warm-up prefix holds about 160 hub-hub reads, so every shard
        # builds its scan tables (about 3 s) in set-up whatever the seed;
        # about 20 are not always enough.
        "serve-scale": dict(n=200_000, shards=2, batch=16, warmup=8192, chunk=4096,
                            memo_cap=512, hub_period=50, stride=999),
    },
    "tiny": {
        "serve-dense": dict(n=120, p=0.3, shards=2, batch=8, warmup=64, chunk=128,
                            stride=64),
        "serve-churn": dict(n=80, p=0.3, shards=2, batch=1, warmup=20, chunk=40,
                            write_period=20),
        "materialize": dict(s3_n=80, s3_p=0.4, s5_n=60, s5_p=0.1, sk_n=40,
                            latency_reads=20, sample=30),
        "serve-scale": dict(n=3000, shards=2, batch=8, warmup=64, chunk=256,
                            memo_cap=64, hub_period=20, stride=128),
    },
}

WORKLOADS = tuple(SIZES["full"])

#: Public program functions timed in traced runs: ``(owner, attribute, span)``.
LAYER_TARGETS = [
    (OracleShard, "serve_batch", "core.query_batch"),
    (OracleShard, "apply_mutation", "graphs.mutation"),
    (kernel_engine.NumpyKernel, "view", "kernels.view"),
    (kernel_engine.NumpyKernel, "prefix_tables", "kernels.prefix_tables"),
    (kernel_engine.NumpyKernel, "scan_tables", "kernels.scan_tables"),
    (kernel_spanner3, "build_scan_tables", "kernels.scan_tables_build"),
    (kernel_engine.NumpyKernel, "materialize_spanner3", "kernels.materialize_spanner3"),
    (kernel_engine.NumpyKernel, "explore_many", "kernels.explore_many"),
    (kernel_engine.NumpyKernel, "cluster_row", "kernels.cluster_row"),
    (kernel_engine.NumpyKernel, "minimum_bucket_edge", "kernels.minimum_bucket_edge"),
]

#: Per-layer metrics read straight off the span table as self seconds.
SELF_TIME_METRICS = {
    "graphs.build_s": "graphs.build",
    "graphs.mutation_s": "graphs.mutation",
    "scale.stream_build_s": "scale.stream_build",
    "scale.snapshot_save_s": "scale.snapshot_save",
    "scale.snapshot_load_s": "scale.snapshot_load",
    "core.lca_init_s": "core.lca_init",
    "core.query_batch_s": "core.query_batch",
    "core.materialize_s.spanner3": "core.materialize.spanner3",
    "core.materialize_s.spanner5": "core.materialize.spanner5",
    "core.materialize_s.spannerk": "core.materialize.spannerk",
    "kernels.scan_tables_s": "kernels.scan_tables",
    "kernels.view_s": "kernels.view",
    "kernels.prefix_tables_s": "kernels.prefix_tables",
    "kernels.materialize_spanner3_s": "kernels.materialize_spanner3",
    "kernels.explore_many_s": "kernels.explore_many",
    "kernels.cluster_row_s": "kernels.cluster_row",
    "kernels.minimum_bucket_edge_s": "kernels.minimum_bucket_edge",
    "service.self_s": "service.run",
}

SPANNER3_CLASSES = ("low", "high", "super")
SPANNER5_CLASSES = ("low", "medium", "super")
SPANNERK_PHASES = ("bfs", "voronoi", "neighbor-scan")

#: The construction whose cold single-edge reads give ``materialize`` its
#: read latency (see the "materialize" sizes).
LATENCY_CONSTRUCTION = "spannerk"

#: Per-layer metrics only the serving workloads measure (zero on materialize).
SERVE_ONLY = (
    "core.reads_per_call", "core.memo_hit_rate", "core.epoch_invalidations",
    "core.memo_evictions", "core.memo_resident", "service.batches",
    "service.batch_size_mean", "service.queue_depth_max", "service.shard_imbalance",
    "service.shed",
)

#: Per-layer metrics only ``materialize`` measures (zero on the serving workloads).
MATERIALIZE_ONLY = (
    tuple(
        f"spanner5.{kind}.{edge_class}"
        for edge_class in SPANNER5_CLASSES
        for kind in ("reads", "probes_mean", "probes_max", "probe_bound_ratio")
    )
    + tuple(f"{name}.edge_bound_ratio" for name in ("spanner3", "spanner5", "spannerk"))
    + tuple(f"spannerk.probes.{phase}" for phase in SPANNERK_PHASES)
)


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: Run facts printed before the result line (sample sizes, rates, ...).
    notes: Dict[str, object] = field(default_factory=dict)
    #: The resolved probe kernel ("numpy" or "python").
    kernel: str = ""
    #: The spans of a traced run (None untraced).
    recorder: Optional[SpanRecorder] = None
    #: The run's own cold set-up: ``(raw, scaled)`` seconds.
    setup: tuple = (0.0, 0.0)


def _rss_mb() -> float:
    """Current resident set size of this process."""
    with open("/proc/self/statm", encoding="ascii") as handle:
        resident_pages = int(handle.read().split()[1])
    return resident_pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _pin(turn: int) -> None:
    """Move this process to CPU ``turn`` (cyclically), or back to all of them with -1."""
    os.sched_setaffinity(0, CPUS if turn < 0 else {CPUS[turn % len(CPUS)]})


def _maybe_span(recorder: Optional[SpanRecorder], name: str):
    return nullcontext() if recorder is None else recorder.span(name)


def _span_metrics(recorder: SpanRecorder) -> Dict[str, float]:
    """Span-derived per-layer metrics (zero for layers the run never entered)."""
    table = recorder.layer_table()

    def row(name):
        return table.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    out = {metric: row(span)["self_s"] for metric, span in SELF_TIME_METRICS.items()}
    out["graphs.mutations"] = row("graphs.mutation")["calls"]
    out["core.query_batch_calls"] = row("core.query_batch")["calls"]
    out["kernels.scan_tables_calls"] = row("kernels.scan_tables")["calls"]
    out["kernels.scan_tables_builds"] = row("kernels.scan_tables_build")["calls"]
    # A table build is scan-table work: fold it into the lookup's self time.
    out["kernels.scan_tables_s"] += row("kernels.scan_tables_build")["self_s"]
    return out


# --------------------------------------------------------------------------- #
# Op streams
# --------------------------------------------------------------------------- #
class _ChurnOps:
    """Uniform reads over the current edge set with one write every ``period`` ops.

    Writes alternate at random between deleting a current edge and inserting
    a current non-edge, so each is valid against the state all earlier ops
    produce (the engine applies writes in stream order and never sheds
    them).  The fixed cadence gives every chunk the same write load, so the
    per-chunk throughput does not swing with a random write count.
    """

    def __init__(self, graph, seed: int, period: int) -> None:
        self._rng = random.Random(f"serve-churn:{seed}")
        self._edges = [(u, v) if u < v else (v, u) for u, v in graph.edges()]
        self._edge_set = set(self._edges)
        self._n = graph.num_vertices
        self._period = period
        self._position = 0

    def _write(self) -> TraceOp:
        rng = self._rng
        if rng.random() < 0.5:
            while True:
                u, v = rng.randrange(self._n), rng.randrange(self._n)
                key = (u, v) if u < v else (v, u)
                if u != v and key not in self._edge_set:
                    self._edge_set.add(key)
                    self._edges.append(key)
                    return TraceOp("add", *key)
        position = rng.randrange(len(self._edges))
        key = self._edges[position]
        self._edges[position] = self._edges[-1]
        self._edges.pop()
        self._edge_set.discard(key)
        return TraceOp("remove", *key)

    def take(self, count: int) -> list:
        rng = self._rng
        ops = []
        for _ in range(count):
            self._position += 1
            if self._position % self._period == 0:
                ops.append(self._write())
            else:
                u, v = self._edges[rng.randrange(len(self._edges))]
                ops.append((u, v) if rng.random() < 0.5 else (v, u))
        return ops


class _PermutedReads:
    """Passes over every edge orientation, each in a new seeded random order.

    No read repeats within a pass, so the whole-answer memo never hits and
    throughput does not drift upward as answers accumulate; per-vertex
    state is shared.  :meth:`take` returns nothing at the end of a pass;
    the run then drops every shard's memo (see ``ServeSpec.next_pass``) and
    starts the next pass, so each pass does the same work.
    """

    def __init__(self, graph, seed: int) -> None:
        self._edges = graph.edge_list()
        self._rng = random.Random(f"serve-dense:{seed}")
        self._order = array("q")
        self.next_pass()

    def next_pass(self) -> None:
        self._order = array("q", range(2 * len(self._edges)))
        self._rng.shuffle(self._order)

    def take(self, count: int) -> list:
        ops = []
        edges = self._edges
        order = self._order
        while order and len(ops) < count:
            slot = order.pop()
            u, v = edges[slot >> 1]
            ops.append((v, u) if slot & 1 else (u, v))
        return ops


class _ScaleOps:
    """Uniform edge reads, and every ``hub_period``-th read between two hubs.

    A hub has degree above the LCA's low-degree threshold (sqrt n), so a
    hub-hub read takes the expensive center rule; uniform reads almost all
    take the 1-probe low-degree rule.  Sampling walks cumulative degrees
    and ``neighbor_at``, so no Python edge list of the big graph is built.
    """

    def __init__(self, graph, seed: int, hub_period: int, threshold: int) -> None:
        self._rng = random.Random(f"serve-scale:{seed}")
        self._graph = graph
        self._hub_period = hub_period
        self._position = 0
        cumulative = array("q", [0])
        for v in range(graph.num_vertices):
            cumulative.append(cumulative[-1] + graph.degree(v))
        self._cumulative = cumulative
        hubs = {v for v in range(graph.num_vertices) if graph.degree(v) > threshold}
        self.hub_edges = sorted(
            (h, w)
            for h in hubs
            for w in (graph.neighbor_at(h, i) for i in range(graph.degree(h)))
            if w in hubs and h < w
        )

    def take(self, count: int) -> list:
        rng = self._rng
        cumulative = self._cumulative
        ops = []
        for _ in range(count):
            self._position += 1
            if self.hub_edges and self._position % self._hub_period == 0:
                u, v = self.hub_edges[rng.randrange(len(self.hub_edges))]
            else:
                entry = rng.randrange(cumulative[-1])
                u = bisect_right(cumulative, entry) - 1
                v = self._graph.neighbor_at(u, entry - cumulative[u])
            ops.append((u, v) if rng.random() < 0.5 else (v, u))
        return ops


# --------------------------------------------------------------------------- #
# Serving workloads
# --------------------------------------------------------------------------- #
@dataclass
class ServeSpec:
    """How one serving workload builds its graph, LCAs and op stream."""

    name: str
    size: dict
    #: ``(recorder, workdir) -> graph``; records its own build spans.
    build: Callable
    #: ``graph -> SpannerLCA`` for shard replicas.
    make_lca: Callable
    #: ``(graph, seed, lca) -> op source`` with ``take(count)``.
    make_ops: Callable
    #: ``() -> graph`` rebuilding the starting graph: set for workloads with
    #: writes, whose whole stream is replayed; the others replay a strided
    #: sample of reads in cold mode (see :mod:`perfbench.checks`).
    rebuild: Optional[Callable] = None
    #: Whether the op source runs out after each pass over the edges; the
    #: shards' memos are then dropped and ``ops.next_pass()`` starts anew.
    passes: bool = False


@dataclass
class _ServeState:
    graph: object
    engine: ServiceEngine
    ops: object
    setup_s: float
    warm_ops: list
    warm_reads: list
    close: Callable = lambda: None


def _dense_spec(size: dict) -> ServeSpec:
    def build(recorder, workdir):
        with _maybe_span(recorder, "graphs.build"):
            return graphs.gnp_graph(size["n"], size["p"], seed=GRAPH_SEED).to_backend("csr")

    return ServeSpec(
        name="serve-dense",
        size=size,
        build=build,
        make_lca=lambda graph: create("spanner3", graph, seed=LCA_SEED),
        make_ops=lambda graph, seed, lca: _PermutedReads(graph, seed),
        passes=True,
    )


def _churn_spec(size: dict) -> ServeSpec:
    def rebuild():
        return graphs.gnp_graph(size["n"], size["p"], seed=GRAPH_SEED).to_backend("csr")

    def build(recorder, workdir):
        with _maybe_span(recorder, "graphs.build"):
            return rebuild()

    return ServeSpec(
        name="serve-churn",
        size=size,
        build=build,
        make_lca=lambda graph: create("spanner3", graph, seed=LCA_SEED),
        make_ops=lambda graph, seed, lca: _ChurnOps(graph, seed, size["write_period"]),
        rebuild=rebuild,
    )


def _scale_spec(size: dict) -> ServeSpec:
    def build(recorder, workdir):
        with _maybe_span(recorder, "scale.stream_build"):
            built = build_stream_family("power-law-stream", size["n"], seed=GRAPH_SEED)
        path = Path(workdir) / f"serve-scale-{os.getpid()}.csr"
        with _maybe_span(recorder, "scale.snapshot_save"):
            save_csr_snapshot(built, path)
        del built
        with _maybe_span(recorder, "scale.snapshot_load"):
            return load_csr_snapshot(path)

    return ServeSpec(
        name="serve-scale",
        size=size,
        build=build,
        make_lca=lambda graph: create("spanner3", graph, seed=LCA_SEED).set_memo_cap(
            size["memo_cap"]
        ),
        make_ops=lambda graph, seed, lca: _ScaleOps(
            graph, seed, size["hub_period"], lca.params.low_threshold
        ),
    )


def _config(size: dict) -> ServiceConfig:
    return ServiceConfig(
        num_shards=size["shards"],
        routing="hash",
        batch_size=size["batch"],
        max_inflight=1,
        executor="serial",
        record=True,
    )


def _batch_ids(ops: list, burst: int, base: int) -> List[int]:
    """The batch each read of a closed-loop chunk was served in.

    A cycle ingests ``burst`` consecutive ops; its reads form one batch,
    split wherever a write sits between them (writes are barriers).  All
    reads are admitted, so this reproduces the engine's batching exactly.
    """
    ids = []
    batch = base
    for position, op in enumerate(ops):
        if position % burst == 0:
            batch += 1
        if isinstance(op, TraceOp) and op.is_mutation:
            batch += 1
            continue
        ids.append(batch)
    return ids


def _setup_serve(spec: ServeSpec, seed: int, recorder, workdir) -> _ServeState:
    size = spec.size
    started = clock()
    graph = spec.build(recorder, workdir)

    def factory(g):
        with _maybe_span(recorder, "core.lca_init"):
            return spec.make_lca(g)

    engine = ServiceEngine(graph, factory, _config(size))
    program_s = clock() - started
    ops = spec.make_ops(graph, seed, engine.pool.shards[0].lca)
    warm_ops = ops.take(size["warmup"])
    workload = TraceWorkload(graph, edges=warm_ops)
    started = clock()
    if recorder is None:
        engine.run(workload, clock=clock)
    else:
        with recorder.wrapped(LAYER_TARGETS), recorder.span("service.run"):
            engine.run(workload, clock=clock)
    program_s += clock() - started
    warm_reads = [(r.u, r.v, r.in_spanner, r.probe_total) for r in engine.records]

    def close():
        handle = getattr(graph, "mapped_handle", None)
        if handle is not None:
            graph.detach()
            Path(handle.path).unlink(missing_ok=True)

    return _ServeState(graph, engine, ops, program_s, warm_ops, warm_reads, close)


class _ServeLog:
    """Compact per-read aggregates of the timed phase.

    Latencies and batch ids go into typed arrays and only a strided sample
    of reads is kept as objects, so the benchmark adds next to nothing to
    the heap the program's garbage collector walks.
    """

    def __init__(self, stride: int, classify=None, table=None) -> None:
        self.stride = stride
        self.classify = classify
        self.table = table
        self.latency = array("d")   # scaled to the nominal host speed
        self.raw_latency = array("d")
        self.batch = array("q")
        self.reads = 0
        self.kept = 0
        self.probe_sum = 0
        self.probe_max = 0
        self.sample: list = []   # every ``stride``-th read

    def add(self, records, batch_ids, timed_latency: bool, scale: float) -> None:
        classify = self.classify
        for record, batch in zip(records, batch_ids):
            probes = record.probe_total
            if classify is not None:
                self.table.add(classify(record.u, record.v), probes)
            self.probe_sum += probes
            if probes > self.probe_max:
                self.probe_max = probes
            if record.in_spanner:
                self.kept += 1
            if self.reads % self.stride == 0:
                self.sample.append((record.u, record.v, record.in_spanner, probes))
            self.reads += 1
            if timed_latency:
                self.latency.append(record.latency_s * scale)
                self.raw_latency.append(record.latency_s)
                self.batch.append(batch)


class _TraceTotals:
    """Service-layer counts summed over the traced chunks."""

    def __init__(self) -> None:
        self.served = self.batches = self.hits = self.misses = self.shed = 0
        self.depth = 0
        self.imbalance: List[float] = []
        self.evictions = 0

    def add(self, report) -> None:
        self.served += report.served
        self.batches += report.batches
        self.hits += sum(s.cache_hits for s in report.shard_reports)
        self.misses += sum(s.cache_misses for s in report.shard_reports)
        self.shed += report.rejected
        self.depth = max(self.depth, report.max_queue_depth_seen)
        self.imbalance.append(report.shard_imbalance())


def run_serve(
    spec: ServeSpec, seed: int, seconds: float, trace: bool, workdir, import_s: float,
    setup_speed: SetupSpeed,
) -> Outcome:
    size = spec.size
    outcome = Outcome()
    recorder = SpanRecorder() if trace else None
    state = _setup_serve(spec, seed, recorder, workdir)
    setup_s = import_s + state.setup_s
    outcome.setup = (setup_s, setup_speed.scaled(setup_s))
    speed = HostSpeed()
    engine = state.engine
    graph = state.graph
    shards = [s for rs in engine.pool.replica_sets for s in rs.replicas]
    lca0 = shards[0].lca
    replay = spec.rebuild is not None
    ops_log: list = list(state.warm_ops) if replay else []
    table = checks.ClassTable(SPANNER3_CLASSES)
    if replay:
        # Degrees change under writes: the replay classifies at read time.
        log = _ServeLog(1)
    else:
        classify_edge, degree = lca0.params.classify_edge, graph.degree
        log = _ServeLog(
            size["stride"], table=table,
            classify=lambda u, v: classify_edge(degree(u), degree(v)),
        )
    totals = _TraceTotals()
    profiler = ProbeProfiler()
    gc.collect()

    # ---- timed phase ---------------------------------------------------
    rss_before = _rss_mb()
    rates = {False: [], True: []}  # traced? -> scaled ops per second of each chunk
    timed = [0, 0.0, 0.0]  # untraced ops, scaled seconds, raw seconds
    elapsed = 0.0
    chunk_index = 0
    batch_base = 0
    while elapsed < seconds or chunk_index < (2 if trace else 1):
        ops = state.ops.take(size["chunk"])
        if not ops:
            if not spec.passes:
                break
            for shard in shards:
                if shard.lca.oracle_cache is not None:
                    shard.lca.oracle_cache.clear()
            state.ops.next_pass()
            continue
        _pin(chunk_index // 2)
        workload = TraceWorkload(graph, edges=ops)
        traced = trace and chunk_index % 2 == 1
        speed.begin()
        if traced:
            evicted_before = _evictions(shards)
            with recorder.wrapped(LAYER_TARGETS), recorder.span("service.run"):
                started = clock()
                report = engine.run(workload, clock=clock, profiler=profiler)
                took = clock() - started
            totals.evictions += _evictions(shards) - evicted_before
            totals.add(report)
        else:
            started = clock()
            report = engine.run(workload, clock=clock)
            took = clock() - started
        scale = speed.scale()
        elapsed += took
        rates[traced].append(len(ops) / (took * scale))
        ids = _batch_ids(ops, size["batch"], batch_base)
        log.add(engine.records, ids, timed_latency=not traced, scale=scale)
        if not traced:
            timed[0] += len(ops)
            timed[1] += took * scale
            timed[2] += took
        batch_base = ids[-1] if ids else batch_base + 1
        if replay:
            ops_log.extend(ops)
        outcome.failed += report.rejected
        outcome.attempted += len(ops)
        chunk_index += 1
        del workload, report, ops
    _pin(-1)
    rss_after = _rss_mb()
    peak_rss = _peak_rss_mb()
    outcome.notes["timed_s"] = elapsed

    # ---- answer checks (outside the timed phase) ------------------------
    if replay:
        reference = spec.make_lca(spec.rebuild())
        reference.set_kernel("python").set_query_mode("cached")
        problems = checks.replay_churn(
            reference.graph, reference, ops_log, state.warm_reads + log.sample, table
        )
        outcome.notes["checked_reads"] = len(state.warm_reads) + len(log.sample)
    else:
        cold = create("spanner3", graph, seed=LCA_SEED)
        problems = checks.cold_sample_mismatches(cold, log.sample)
        outcome.notes["checked_reads"] = len(log.sample)
    outcome.problems.extend(problems)
    outcome.failed += len(problems)

    # ---- metrics --------------------------------------------------------
    m = outcome.metrics
    if trace:
        m.update(_span_metrics(recorder))
        m["bench.trace_overhead"] = _overhead(rates)
        calls = m["core.query_batch_calls"]
        lookups = totals.hits + totals.misses
        m["core.reads_per_call"] = totals.served / calls if calls else 0.0
        m["core.memo_hit_rate"] = totals.hits / lookups if lookups else 0.0
        m["core.epoch_invalidations"] = next(
            row["calls"] for row in profiler.outcome_rows()
            if row["outcome"] == EPOCH_INVALIDATED
        )
        m["core.memo_evictions"] = totals.evictions
        m["core.memo_resident"] = sum(_resident(s) for s in shards)
        m["core.rss_growth_mb"] = rss_after - rss_before
        m["service.batches"] = totals.batches
        m["service.batch_size_mean"] = totals.served / totals.batches if totals.batches else 0.0
        m["service.queue_depth_max"] = totals.depth
        m["service.shard_imbalance"] = statistics.fmean(totals.imbalance)
        m["service.shed"] = totals.shed
        m.update(table.metrics("spanner3", lca0.params.expected_probe_bound()))
        m.update(dict.fromkeys(MATERIALIZE_ONLY, 0))
        m["bench.calibration_ms"] = speed.median_loop_ms()
    else:
        ordered = sorted(log.latency)
        p99 = nearest_rank_percentile(ordered, 99.0)
        tail_batches = len({b for lat, b in zip(log.latency, log.batch) if lat > p99})
        outcome.notes["latency_samples"] = len(ordered)
        outcome.notes["batches"] = len(set(log.batch))
        outcome.notes["tail_batches_beyond_p99"] = tail_batches
        if tail_batches < MIN_TAIL_BATCHES and size is SIZES["full"][spec.name]:
            outcome.problems.append(
                f"only {tail_batches} batch stamps beyond read_p99_ms "
                f"(need {MIN_TAIL_BATCHES}); the p99 is not supported"
            )
        m["ops_per_s"] = timed[0] / timed[1]
        m["read_p50_ms"] = nearest_rank_percentile(ordered, 50.0) * 1e3
        m["read_p99_ms"] = p99 * 1e3
        m["peak_rss_mb"] = peak_rss
        m["probes_mean"] = log.probe_sum / log.reads
        m["probes_max"] = log.probe_max
        m["kept_frac"] = log.kept / log.reads
        m["ok_frac"] = (outcome.attempted - outcome.failed) / outcome.attempted
        outcome.notes["import_s"] = import_s
        _speed_notes(outcome, speed, timed[0] / timed[2], sorted(log.raw_latency))
        outcome.notes["chunk_rates"] = [round(r, 1) for r in rates[False]]
    outcome.kernel = lca0.kernel_name
    outcome.recorder = recorder
    state.close()
    return outcome


def _speed_notes(outcome: Outcome, speed: HostSpeed, ops_per_s, raw_latency) -> None:
    """The unscaled timed-phase figures and the calibration loop, as run notes."""
    outcome.notes["calibration_loop_ms_median"] = speed.median_loop_ms()
    outcome.notes["calibration_loop_ms_range"] = [
        round(min(speed.loops) * 1e3, 4), round(max(speed.loops) * 1e3, 4)
    ]
    outcome.notes["raw_ops_per_s"] = ops_per_s
    outcome.notes["raw_read_p50_ms"] = nearest_rank_percentile(raw_latency, 50.0) * 1e3
    outcome.notes["raw_read_p99_ms"] = nearest_rank_percentile(raw_latency, 99.0) * 1e3


def _overhead(rates) -> float:
    """Traced over untraced median throughput, minus 1."""
    return statistics.median(rates[True]) / statistics.median(rates[False]) - 1


def _evictions(shards) -> int:
    return sum(getattr(s.lca.oracle_cache, "evictions", 0) for s in shards)


def _resident(shard) -> int:
    cache = shard.lca.oracle_cache
    return getattr(cache, "resident_entries", 0) if cache is not None else 0


# --------------------------------------------------------------------------- #
# Offline materialization
# --------------------------------------------------------------------------- #
def _tuned_k2_params(n: int) -> KSquaredParams:
    """O(k^2) parameters that keep the sparse and dense regimes active at this n.

    The paper's defaults degenerate below n of about 10^4 (the same recipe
    as ``benchmarks/conftest.py``).
    """
    budget = max(4, round(n ** (1 / 3)))
    return KSquaredParams(
        num_vertices=n,
        stretch_parameter=2,
        exploration_budget=budget,
        center_probability=min(1.0, 3.0 / budget),
        mark_probability=min(1.0, 1.0 / budget),
        rank_quota=max(4, round(2 * n ** 0.5)),
        independence=12,
    )


def _constructions(size: dict):
    """``(name, graph builder, LCA factory)`` for the three constructions."""
    return [
        (
            "spanner3",
            lambda: graphs.gnp_graph(size["s3_n"], size["s3_p"], seed=GRAPH_SEED),
            lambda g: create("spanner3", g, seed=LCA_SEED),
        ),
        (
            "spanner5",
            lambda: graphs.build_family(
                "clustered", size["s5_n"], density=size["s5_p"], seed=GRAPH_SEED
            ),
            lambda g: create("spanner5", g, seed=LCA_SEED),
        ),
        (
            "spannerk",
            lambda: graphs.build_family("bounded", size["sk_n"], seed=GRAPH_SEED),
            lambda g: KSquaredSpannerLCA(
                g, seed=LCA_SEED, params=_tuned_k2_params(g.num_vertices)
            ),
        ),
    ]


def _build_constructions(constructions, recorder) -> tuple:
    """Build every graph and LCA; returns ``(built, seconds)``."""
    started = clock()
    built = []
    for name, make_graph, make_lca in constructions:
        with _maybe_span(recorder, "graphs.build"):
            graph = make_graph().to_backend("csr")
        with _maybe_span(recorder, "core.lca_init"):
            lca = make_lca(graph)
        built.append((name, graph, lca))
    return built, clock() - started


def run_materialize(
    size: dict, seed: int, seconds: float, trace: bool, workdir, import_s: float,
    setup_speed: SetupSpeed,
) -> Outcome:
    outcome = Outcome()
    recorder = SpanRecorder() if trace else None
    constructions = _constructions(size)
    built, setup_s = _build_constructions(constructions, recorder)
    setup_s += import_s
    outcome.setup = (setup_s, setup_speed.scaled(setup_s))
    speed = HostSpeed()
    gc.collect()

    # ---- timed phase: whole rounds, so the construction mix is fixed ----
    rss_before = _rss_mb()
    rates = {False: [], True: []}  # traced? -> scaled edges decided per second of each round
    timed = [0, 0.0, 0.0]  # untraced edges decided, scaled seconds, raw seconds
    profiler = ProbeProfiler()
    spannerk_traced_edges = 0
    results = {}
    elapsed = 0.0
    round_index = 0
    # Cold reads of the latency construction run between rounds, so the
    # latency sample spans the timed phase like the rounds do.
    rng = random.Random(f"materialize-sample:{seed}")
    timed_position = [name for name, _, _ in built].index(LATENCY_CONSTRUCTION)
    timed_graph = built[timed_position][1]
    timed_edges = timed_graph.edge_list()
    timed_cold = constructions[timed_position][2](timed_graph)
    timed_reads = []
    latencies = array("d")   # scaled to the nominal host speed
    raw_latencies = array("d")
    while elapsed < seconds or round_index < (2 if trace else 1):
        traced = trace and round_index % 2 == 1
        _pin(round_index // 2)
        round_edges = 0
        round_s = 0.0   # scaled
        round_raw_s = 0.0
        for position, (name, graph, lca) in enumerate(built):
            if round_index > 0:
                lca = constructions[position][2](graph)
            if traced and name == "spannerk":
                lca.attach_profiler(profiler)
            speed.begin()
            started = clock()
            if traced:
                with recorder.wrapped(LAYER_TARGETS), recorder.span(
                    f"core.materialize.{name}"
                ):
                    result = lca.materialize(mode="batched")
            else:
                result = lca.materialize(mode="batched")
            took = clock() - started
            scale = speed.scale()
            decided = result.probe_stats.queries
            round_edges += decided
            round_s += took * scale
            round_raw_s += took
            outcome.attempted += decided
            if traced and name == "spannerk":
                spannerk_traced_edges += decided
            previous = results.get(name)
            if previous is not None and previous[0].edges != result.edges:
                outcome.problems.append(f"{name}: round {round_index} decided a different H")
            results[name] = (result, lca)
        elapsed += round_raw_s
        rates[traced].append(round_edges / round_s)
        if not traced:
            timed[0] += round_edges
            timed[1] += round_s
            timed[2] += round_raw_s
        round_index += 1
        block = array("d")
        speed.begin()
        for _ in range(size["latency_reads"]):
            u, v = timed_edges[rng.randrange(len(timed_edges))]
            started = clock()
            answer = timed_cold.query_with_stats(u, v)
            block.append(clock() - started)
            timed_reads.append((u, v, answer.in_spanner, answer.probe_total))
        scale = speed.scale()
        raw_latencies.extend(block)
        latencies.extend(read_s * scale for read_s in block)
    _pin(-1)
    rss_after = _rss_mb()
    peak_rss = _peak_rss_mb()

    # ---- answer, class and stretch checks on cold reads -----------------
    spanner3_table = checks.ClassTable(SPANNER3_CLASSES)
    spanner5_table = checks.ClassTable(SPANNER5_CLASSES)
    for position, (name, graph, _) in enumerate(built):
        result, lca = results[name]
        if position == timed_position:
            reads = timed_reads
        else:
            edges = graph.edge_list()
            cold = constructions[position][2](graph)
            reads = []
            for _ in range(size["sample"]):
                u, v = edges[rng.randrange(len(edges))]
                answer = cold.query_with_stats(u, v)
                reads.append((u, v, answer.in_spanner, answer.probe_total))
        sample = [(u, v) for u, v, _, _ in reads]
        outcome.attempted += len(reads)
        problems = checks.answer_mismatches(result.contains, reads)
        problems += checks.stretch_violations(
            graph, result.edges, sample, lca.stretch_bound()
        )
        outcome.problems.extend(f"{name}: {p}" for p in problems)
        outcome.failed += len(problems)
        if name == "spanner3":
            checks.classify_reads(spanner3_table, lca.params, graph.degree, reads)
        elif name == "spanner5":
            checks.classify_reads(spanner5_table, lca.params, graph.degree, reads)

    m = outcome.metrics
    if trace:
        m.update(_span_metrics(recorder))
        m["bench.trace_overhead"] = _overhead(rates)
        for name, graph, _ in built:
            result, lca = results[name]
            params = lca.params
            m[f"{name}.edge_bound_ratio"] = result.num_edges / params.expected_edge_bound()
        s3_lca = results["spanner3"][1]
        s5_lca = results["spanner5"][1]
        m.update(spanner3_table.metrics("spanner3", s3_lca.params.expected_probe_bound()))
        m.update(spanner5_table.metrics("spanner5", s5_lca.params.expected_probe_bound()))
        phases = {row["phase"]: row["probes"] for row in profiler.phase_rows()}
        for label in SPANNERK_PHASES:
            m[f"spannerk.probes.{label}"] = (
                phases.get(label, 0) / spannerk_traced_edges if spannerk_traced_edges else 0.0
            )
        m["core.rss_growth_mb"] = rss_after - rss_before
        m.update(dict.fromkeys(SERVE_ONLY, 0))
        m["bench.calibration_ms"] = speed.median_loop_ms()
    else:
        ordered = sorted(latencies)
        m["ops_per_s"] = timed[0] / timed[1]
        m["read_p50_ms"] = nearest_rank_percentile(ordered, 50.0) * 1e3
        m["read_p99_ms"] = nearest_rank_percentile(ordered, 99.0) * 1e3
        m["peak_rss_mb"] = peak_rss
        totals = [t for result, _ in results.values() for t in result.probe_stats.query_totals]
        m["probes_mean"] = statistics.fmean(totals)
        m["probes_max"] = max(totals)
        kept = sum(result.num_edges for result, _ in results.values())
        m["kept_frac"] = kept / len(totals)
        m["ok_frac"] = (outcome.attempted - outcome.failed) / outcome.attempted
        outcome.notes["import_s"] = import_s
        _speed_notes(outcome, speed, timed[0] / timed[2], sorted(raw_latencies))
        outcome.notes["latency_samples"] = len(ordered)
        outcome.notes["round_rates"] = [round(r, 1) for r in rates[False]]
    outcome.kernel = results["spanner3"][1].kernel_name
    outcome.recorder = recorder
    return outcome


_SERVE_SPECS = {
    "serve-dense": _dense_spec,
    "serve-churn": _churn_spec,
    "serve-scale": _scale_spec,
}


def run(
    name: str, seed: int, seconds: float, trace: bool, workdir, size_profile: str,
    import_s: float, setup_speed: SetupSpeed,
) -> Outcome:
    """Run one workload in this process and return its outcome.

    ``import_s`` is the time the process took to import the program; it is
    part of ``setup_s``.  ``setup_speed`` calibrated the host before the
    import.  An untraced run ends with ``SETUP_RUNS - 1`` more cold set-ups
    in fresh processes.
    """
    size = SIZES[size_profile][name]
    if name == "materialize":
        outcome = run_materialize(size, seed, seconds, trace, workdir, import_s, setup_speed)
    else:
        spec = _SERVE_SPECS[name](size)
        outcome = run_serve(spec, seed, seconds, trace, workdir, import_s, setup_speed)
    if not trace:
        gc.collect()
        setups = [outcome.setup] + [
            _setup_in_new_process(name, seed, size_profile) for _ in range(SETUP_RUNS - 1)
        ]
        outcome.notes["raw_setup_s"] = [raw for raw, _ in setups]
        outcome.notes["scaled_setup_s"] = [scaled for _, scaled in setups]
        outcome.metrics["setup_s"] = statistics.median(outcome.notes["scaled_setup_s"])
    return outcome


def cold_setup_s(name: str, seed: int, workdir, size_profile: str, import_s: float) -> float:
    """Unscaled seconds of one set-up in this fresh process, program import included."""
    size = SIZES[size_profile][name]
    if name == "materialize":
        return import_s + _build_constructions(_constructions(size), None)[1]
    state = _setup_serve(_SERVE_SPECS[name](size), seed, None, workdir)
    state.close()
    return import_s + state.setup_s


def _setup_in_new_process(name: str, seed: int, size_profile: str) -> tuple:
    """``(raw, scaled)`` seconds of one cold set-up in a fresh process."""
    command = [
        sys.executable, str(Path(__file__).with_name("run.py")), "--setup-only",
        "--workload", name, "--seed", str(seed), "--size", size_profile,
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=60, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"set-up process exited {done.returncode}: {done.stderr[-2000:]}")
    timed = json.loads(lines[-1])
    return timed["raw_setup_s"], timed["setup_s"]
