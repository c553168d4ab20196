"""The numpy kernel engine: epoch-cached views plus per-algorithm kernels.

A :class:`NumpyKernel` is created per LCA (by
:func:`repro.kernels.resolve_kernel`) and attached to that LCA's cached
oracle as ``oracle.kernel``.  Call sites in the scalar code branch on the
attribute: when a kernel is present *and* can build a view of the current
graph epoch, the vectorized path answers with the exact scalar probe
schedule; otherwise the scalar loop runs unchanged.  The engine holds one
epoch-stamped :class:`~repro.kernels.view.CSRView` slot plus scan-table
caches keyed by center system, so repeated queries against an unchanged
graph reuse every precomputed table.  When the graph's epoch moves, the new
view and tables are derived from the previous epoch's copies, recomputing
only the rows the writes since then can have changed.
"""

from __future__ import annotations

from typing import Optional

from . import bfs as _bfs
from . import spanner3 as _spanner3
from . import spanner5 as _spanner5
from .view import build_view


class NumpyKernel:
    """Vectorized probe kernels bound to one LCA (one view slot + tables)."""

    name = "numpy"

    #: Minimum ``sources × limit`` workload before :meth:`explore_many`
    #: beats the scalar deque loop; hot call sites check it up front to
    #: skip the call entirely for tiny explorations.
    min_explore_work = _bfs._MIN_BATCH_WORK

    def __init__(self, np_module) -> None:
        self.np = np_module
        self._view_slot = None
        self._prefix_tables = {}
        self._scan_tables = {}

    # ------------------------------------------------------------------ #
    # Views
    # ------------------------------------------------------------------ #
    def view(self, graph):
        """The CSRView of ``graph`` at its current epoch (``None`` if unbuildable)."""
        slot = self._view_slot
        epoch = graph.epoch
        if slot is not None and slot[0] is graph and slot[1] == epoch:
            return slot[2]
        built = build_view(self.np, graph, None if slot is None else slot[2])
        self._view_slot = (graph, epoch, built)
        return built

    # ------------------------------------------------------------------ #
    # spanner3 scan kernels
    # ------------------------------------------------------------------ #
    def prefix_tables(self, view, system) -> "_spanner3.PrefixTables":
        """Election bitmap + prefix-center rows for ``system`` over ``view``."""
        key = id(system)
        entry = self._prefix_tables.get(key)
        base = None
        if entry is not None and entry[0] is system:
            if entry[1] is view:
                return entry[2]
            base = entry[1:]
        tables = _spanner3.build_prefix_tables(self.np, view, system, base)
        self._prefix_tables[key] = (system, view, tables)
        return tables

    def scan_tables(self, view, system, block: Optional[int]) -> "_spanner3.ScanTables":
        """Closed-form scan outcomes for ``system`` (per block variant).

        After a write, only the rows :func:`~repro.kernels.spanner3.dirty_scan_rows`
        names are rebuilt; the rest are copied from the previous tables.
        """
        key = (id(system), block)
        entry = self._scan_tables.get(key)
        base = None
        if entry is not None and entry[0] is system:
            if entry[1] is view:
                return entry[3]
            base = entry[1:]
        prefix = self.prefix_tables(view, system)
        np = self.np
        rows = _spanner3.dirty_scan_rows(np, view, prefix, base)
        fresh = _spanner3.build_scan_tables(np, view, prefix, block, rows)
        tables = _spanner3.splice_scan_tables(np, view, rows, fresh, base)
        self._scan_tables[key] = (system, view, prefix, tables)
        return tables

    def scan_profile(self, oracle, system, w, x, index, block):
        """One ``_new_cluster_scan_fast`` answer from the precomputed tables."""
        return _spanner3.scan_profile(self, oracle, system, w, x, index, block)

    def materialize_spanner3(self, lca, oracle, result) -> bool:
        """Whole-graph batched spanner3 materialization (True when handled)."""
        return _spanner3.materialize_batched(lca, oracle, self, result)

    # ------------------------------------------------------------------ #
    # spannerk exploration kernel
    # ------------------------------------------------------------------ #
    def explore_many(self, oracle, sources, radius, limit, is_center):
        """Batched frontier-at-once D^k_L explorations (None = fallback)."""
        return _bfs.explore_many(self, oracle, sources, radius, limit, is_center)

    # ------------------------------------------------------------------ #
    # spanner5 bucket kernels
    # ------------------------------------------------------------------ #
    def cluster_row(self, oracle, center, prefix):
        """The cluster-members memo value for ``center`` (None = fallback)."""
        return _spanner5.cluster_row(self, oracle, center, prefix)

    def minimum_bucket_edge(self, oracle, bucket_a, bucket_b, med, degree):
        """Bucket pair scan; 1-tuple with the winning edge id (None = fallback)."""
        return _spanner5.minimum_bucket_edge(
            self, oracle, bucket_a, bucket_b, med, degree
        )
