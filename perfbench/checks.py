"""Answer checks and per-edge-class probe tables (run outside the timed phase).

Every check compares what the program served against an independent
reference computed by a fresh LCA:

* :func:`cold_sample_mismatches` replays a sample of served reads through a
  fresh LCA in cold mode (``query_with_stats``), the scalar reference probe
  schedule, and compares both the answer and the probe total;
* :func:`replay_churn` replays a whole read/write stream, in order, on a
  fresh copy of the graph through a fresh LCA pinned to the scalar
  reference kernel (``set_kernel("python")``);
* :func:`stretch_violations` checks dist_H(u, v) <= t on sampled edges with
  :func:`repro.analysis.verify.measure_stretch`.

The class tables bucket reads by the construction's own ``classify_edge``
over endpoint degrees, computed here from the graph rather than inside the
program.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Sequence, Tuple

from repro.analysis.verify import measure_stretch
from repro.service.trace import TraceOp

#: One served read: ``(u, v, answer, probe_total)``.
Read = Tuple[int, int, bool, int]


class ClassTable:
    """Reads, mean and max probes per edge class."""

    def __init__(self, classes: Sequence[str]) -> None:
        self.classes = tuple(classes)
        self.rows: Dict[str, List[int]] = {c: [0, 0, 0] for c in self.classes}

    def add(self, edge_class: str, probes: int) -> None:
        row = self.rows[edge_class]
        row[0] += 1
        row[1] += probes
        if probes > row[2]:
            row[2] = probes

    def metrics(self, prefix: str, probe_bound: float) -> Dict[str, float]:
        """Per class ``c``: ``<prefix>.reads.c``, ``.probes_mean.c``,
        ``.probes_max.c`` and ``.probe_bound_ratio.c``.

        The ratio is the class's max probes over ``expected_probe_bound``;
        a class with no reads reports zeros.
        """
        out: Dict[str, float] = {}
        for edge_class in self.classes:
            reads, total, peak = self.rows[edge_class]
            out[f"{prefix}.reads.{edge_class}"] = reads
            out[f"{prefix}.probes_mean.{edge_class}"] = total / reads if reads else 0.0
            out[f"{prefix}.probes_max.{edge_class}"] = peak
            out[f"{prefix}.probe_bound_ratio.{edge_class}"] = peak / probe_bound
        return out


def classify_reads(table: ClassTable, params, degree, reads: Iterable[Read]) -> None:
    """Add static-graph reads to ``table`` by ``params.classify_edge``."""
    classify = params.classify_edge
    for u, v, _, probes in reads:
        table.add(classify(degree(u), degree(v)), probes)


def cold_sample_mismatches(lca, reads: Iterable[Read]) -> List[str]:
    """Served reads whose answer or probe total differs from a cold replay.

    ``lca`` must be fresh and in cold mode; each read is answered with
    ``query_with_stats``.  Returns one line per mismatch.
    """
    problems = []
    for u, v, answer, probes in reads:
        outcome = lca.query_with_stats(u, v)
        if outcome.in_spanner != answer or outcome.probe_total != probes:
            problems.append(
                f"read ({u}, {v}): served ({answer}, {probes} probes), "
                f"cold reference ({outcome.in_spanner}, {outcome.probe_total} probes)"
            )
    return problems


def replay_churn(
    graph, lca, ops: Sequence, served: Sequence[Read], table: ClassTable
) -> List[str]:
    """Replay a read/write stream in order and compare every served read.

    ``graph`` is a fresh copy of the starting graph and ``lca`` a fresh LCA
    over it.  ``served`` holds the served reads in stream order.  Degrees
    for the class table are read at the moment each read executes.
    """
    problems = []
    classify = lca.params.classify_edge
    degree = graph.degree
    position = 0
    for op in ops:
        if isinstance(op, TraceOp) and op.is_mutation:
            graph.apply_mutation(op.op, op.u, op.v)
            continue
        u, v = op.edge if isinstance(op, TraceOp) else op
        if position >= len(served):
            problems.append(f"read ({u}, {v}) at stream position {position} was not served")
            break
        su, sv, answer, probes = served[position]
        position += 1
        outcome = lca.query_with_stats(u, v)
        table.add(classify(degree(u), degree(v)), outcome.probe_total)
        if (su, sv) != (u, v):
            problems.append(f"served read ({su}, {sv}) out of order, expected ({u}, {v})")
        elif outcome.in_spanner != answer or outcome.probe_total != probes:
            problems.append(
                f"read ({u}, {v}): served ({answer}, {probes} probes), "
                f"scalar replay ({outcome.in_spanner}, {outcome.probe_total} probes)"
            )
    if position != len(served):
        problems.append(f"{len(served) - position} served reads beyond the replayed stream")
    return problems


def stretch_violations(graph, spanner_edges, sample, bound: int) -> List[str]:
    """Sampled edges whose spanner distance exceeds ``bound`` (or is infinite)."""
    report = measure_stretch(graph, spanner_edges, limit=bound, sample_edges=sample)
    if report.satisfies(bound):
        return []
    return [
        f"stretch check failed: {report.disconnected_edges} sampled edges farther "
        f"than {bound} in H (first: {report.worst_edge})"
    ]


def answer_mismatches(
    spanner_contains: Callable[[int, int], bool], reads: Iterable[Read]
) -> List[str]:
    """Cold reads whose answer disagrees with the materialized spanner."""
    return [
        f"edge ({u}, {v}): materialized {spanner_contains(u, v)}, cold read {answer}"
        for u, v, answer, _ in reads
        if spanner_contains(u, v) != answer
    ]
