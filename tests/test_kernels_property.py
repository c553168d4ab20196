"""Property-based scalar-vs-vectorized kernel equivalence (hypothesis).

The hand-picked fixtures in ``test_kernels.py`` pin the equivalence on a few
known graph shapes; this module hammers the same contract on *arbitrary*
small graphs and seeds, including a randomly chosen mutation epoch: for every
generated instance, the numpy kernels must produce the same spanner edges,
the same per-query probe totals and the same per-kind probe counts as the
scalar reference path, before and after mutations.
"""

from __future__ import annotations

import pytest

pytest.importorskip("numpy")

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.registry import create
from repro.graphs import Graph


@pytest.fixture(autouse=True)
def force_kernel_paths(monkeypatch):
    """Drop the minimum-workload floors so hypothesis-sized graphs vectorize."""
    from repro.kernels import bfs as kernel_bfs
    from repro.kernels import spanner5 as kernel_spanner5
    from repro.kernels.engine import NumpyKernel

    monkeypatch.setattr(kernel_bfs, "_MIN_BATCH_WORK", 0)
    monkeypatch.setattr(kernel_spanner5, "_MIN_GRID", 0)
    monkeypatch.setattr(NumpyKernel, "min_explore_work", 0)


@st.composite
def graph_and_mutations(draw, max_vertices=20):
    """A small random graph plus a random batch of remove/add mutations."""
    n = draw(st.integers(min_value=4, max_value=max_vertices))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(
        st.lists(st.sampled_from(possible), min_size=2, max_size=3 * n, unique=True)
    )
    removals = draw(
        st.lists(st.sampled_from(edges), min_size=0, max_size=3, unique=True)
    )
    additions = draw(
        st.lists(st.sampled_from(possible), min_size=0, max_size=3, unique=True)
    )
    mutations = [("remove", u, v) for (u, v) in removals]
    mutations += [("add", u, v) for (u, v) in additions if (u, v) not in edges]
    return list(range(n)), edges, mutations


relaxed = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.data_too_large,
        HealthCheck.function_scoped_fixture,
    ],
)


def _run(algorithm, vertices, edges, mutations, seed, kernel):
    graph = Graph.from_edges(edges, vertices=vertices).to_backend("csr")
    lca = create(algorithm, graph, seed=seed).set_kernel(kernel)
    fingerprints = []
    for batch in ([], mutations):
        lca.apply_mutations(batch)
        materialized = lca.materialize(mode="batched")
        counter = lca.probe_counter.snapshot()
        fingerprints.append(
            (
                frozenset(materialized.edges),
                tuple(materialized.probe_stats.query_totals),
                (counter.degree, counter.neighbor, counter.adjacency),
            )
        )
    return fingerprints


@pytest.mark.parametrize("algorithm", ["spanner3", "spanner5", "spannerk"])
@relaxed
@given(
    instance=graph_and_mutations(),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_kernels_match_scalar_on_random_graphs_and_epochs(
    algorithm, instance, seed
):
    vertices, edges, mutations = instance
    scalar = _run(algorithm, vertices, edges, mutations, seed, "python")
    vectorized = _run(algorithm, vertices, edges, mutations, seed, "numpy")
    assert scalar == vectorized


# --------------------------------------------------------------------------- #
# Patched kernel tables equal from-scratch builds
# --------------------------------------------------------------------------- #
def _toggle_ops(data, graph, count):
    """``count`` valid writes drawn against the live graph.

    A removal picks a row offset, so it lands inside or beyond the row's
    prefix; an addition appends to both rows (inside the prefix of a short
    row, beyond it for a long one); ``"again"`` undoes the previous write,
    so an edge is added and then removed (or the reverse).
    """
    vertices = graph.vertices()
    ops = []
    for _ in range(count):
        kind = data.draw(st.sampled_from(["remove", "add", "again"]))
        if kind == "again" and ops:
            op, u, v = ops[-1]
            ops.append(("add" if op == "remove" else "remove", u, v))
        else:
            u = data.draw(st.sampled_from(vertices))
            row = graph.neighbors(u)
            absent = [v for v in vertices if v != u and v not in row]
            if row and (kind == "remove" or not absent):
                j = data.draw(st.integers(min_value=0, max_value=len(row) - 1))
                ops.append(("remove", u, row[j]))
            elif absent:
                ops.append(("add", u, data.draw(st.sampled_from(absent))))
            else:
                continue
        graph.apply_mutation(*ops[-1])
    return ops


def _assert_same_arrays(np, patched, scratch, names):
    for name in names:
        got, want = getattr(patched, name), getattr(scratch, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name


@relaxed
@given(
    n=st.integers(min_value=6, max_value=16),
    density=st.floats(min_value=0.3, max_value=0.9),
    seed=st.integers(min_value=0, max_value=10**6),
    data=st.data(),
)
def test_patched_tables_equal_from_scratch_builds(n, density, seed, data):
    """After 1-3 writes per read, patched view/prefix/scan tables match a rebuild."""
    import numpy as np

    from repro import graphs
    from repro.kernels import spanner3 as kernel_spanner3
    from repro.kernels.engine import NumpyKernel
    from repro.kernels.view import build_view

    graph = graphs.gnp_graph(n, density, seed=seed).to_backend("csr")
    lca = create("spanner3", graph, seed=seed, hitting_constant=1.0)
    _, _, high, super_block = lca.components
    variants = [(high.centers, None), (super_block.centers, super_block.threshold)]
    kernel = NumpyKernel(np)
    for _ in range(data.draw(st.integers(min_value=1, max_value=5))):
        # Read a random subset of the variants, so some tables are patched
        # across several epochs at once.
        view = kernel.view(graph)
        scratch = build_view(np, graph)
        _assert_same_arrays(
            np, view, scratch,
            ("ids", "deg", "indptr", "nbr_id", "nbr_pos", "entry_src", "entry_j"),
        )
        for system, block in variants:
            if not data.draw(st.booleans()):
                continue
            scan = kernel.scan_tables(view, system, block)
            prefix = kernel.prefix_tables(view, system)
            scratch_prefix = kernel_spanner3.build_prefix_tables(np, scratch, system)
            _assert_same_arrays(
                np, prefix, scratch_prefix, ("elected", "pc_indptr", "pc_val")
            )
            _assert_same_arrays(
                np, scan,
                kernel_spanner3.build_scan_tables(np, scratch, scratch_prefix, block),
                ("kept", "steps", "adj"),
            )
        _toggle_ops(data, graph, data.draw(st.integers(min_value=1, max_value=3)))
        if data.draw(st.booleans()):
            graph.compact()
