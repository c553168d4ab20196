"""Epoch-stamped numpy images of a graph's adjacency (the kernel substrate).

A :class:`CSRView` freezes one mutation epoch of a graph into flat int64
arrays — exactly the CSR layout, plus the derived per-entry tables the
kernels index into (entry source, in-row offset, reverse-entry permutation).
Views are read-only copies: mutating the graph never corrupts a view, and
the epoch stamp lets the kernel engine replace a stale view on the next call.

A later epoch's view is derived from an earlier one: mutations never add
vertices, so positions carry over, and only the rows named in the graph's
mutation log since the earlier epoch are read again (:func:`moved_rows`,
:func:`splice_rows`).  The kernel tables built over a view are patched the
same way (see :mod:`repro.kernels.spanner3`).

Building a view performs **zero probes**: it reads the adjacency structure
directly, the same way :meth:`repro.graphs.graph.Graph.edges` does.  All
probe charging stays in the kernels, which replicate the scalar schedule.
"""

from __future__ import annotations

from typing import Optional

from ..graphs.csr import CSRGraph


class CSRView:
    """Immutable numpy adjacency image of one graph epoch.

    Vertices are addressed by *position* (row index); ``ids``/``pos`` map
    between positions and vertex ids.  For every CSR entry ``e`` (one
    directed arc), ``entry_src[e]`` is the source position, ``entry_j[e]``
    the offset of ``e`` inside its row, ``nbr_id``/``nbr_pos`` the target.
    ``rev_entry`` (lazy) maps each entry to its reverse arc's entry index.
    ``graph``/``epoch`` name the graph and mutation epoch the view images.
    """

    __slots__ = (
        "np",
        "graph",
        "epoch",
        "n",
        "nnz",
        "ids",
        "pos",
        "deg",
        "indptr",
        "nbr_id",
        "nbr_pos",
        "entry_src",
        "entry_j",
        "_rev_entry",
        "_rev_pos",
        "_adj_keys",
    )

    def __init__(self, np_module, graph, ids, pos, deg, indptr, nbr_id, nbr_pos,
                 entry_src, entry_j):
        self.np = np_module
        self.graph = graph
        self.epoch = graph.epoch
        self.n = len(ids)
        self.nnz = len(nbr_id)
        self.ids = ids
        self.pos = pos
        self.deg = deg
        self.indptr = indptr
        self.nbr_id = nbr_id
        self.nbr_pos = nbr_pos
        self.entry_src = entry_src
        self.entry_j = entry_j
        self._rev_entry = None
        self._rev_pos = None
        self._adj_keys = None

    @property
    def rev_entry(self):
        """Entry index of each entry's reverse arc (lazy double lexsort).

        Sorting entries by ``(src, nbr)`` and by ``(nbr, src)`` yields the
        same rank for an arc and its reverse (arcs are distinct, the graph is
        simple), so matching the two orders position-by-position pairs every
        arc with its reverse in two O(nnz log nnz) sorts.
        """
        if self._rev_entry is None:
            np = self.np
            by_src = np.lexsort((self.nbr_pos, self.entry_src))
            by_nbr = np.lexsort((self.entry_src, self.nbr_pos))
            rev = np.empty(self.nnz, dtype=np.int64)
            rev[by_src] = by_nbr
            self._rev_entry = rev
        return self._rev_entry

    @property
    def adj_keys(self):
        """Sorted ``src_pos * n + nbr_pos`` arc keys (lazy edge-existence set).

        A batched membership test for arbitrary vertex-position pairs is one
        ``searchsorted`` against this array (positions are < n, so the packed
        key fits int64 for any graph this library can hold).
        """
        if self._adj_keys is None:
            np = self.np
            keys = self.entry_src * self.n + self.nbr_pos
            self._adj_keys = np.sort(keys)
        return self._adj_keys

    def arcs_exist(self, src_pos, nbr_pos):
        """Vectorized edge-existence test on position pairs (bool array)."""
        np = self.np
        keys = src_pos * self.n + nbr_pos
        idx = np.searchsorted(self.adj_keys, keys)
        idx = np.minimum(idx, max(self.nnz - 1, 0))
        if not self.nnz:
            return np.zeros(len(keys), dtype=bool)
        return self.adj_keys[idx] == keys

    @property
    def rev_pos(self):
        """In-row offset of each entry's reverse arc (= adjacency index)."""
        if self._rev_pos is None:
            self._rev_pos = self.rev_entry - self.indptr[self.nbr_pos]
        return self._rev_pos


def moved_rows(np_module, base: Optional[CSRView], graph, epoch: int):
    """Sorted positions of the rows mutations changed from ``base`` to ``epoch``.

    ``None`` when ``base`` is not an earlier view of ``graph`` — then no row
    can be carried over.  Each logged mutation changed exactly the rows of
    its two endpoints.
    """
    np = np_module
    if base is None or base.graph is not graph:
        return None
    log = graph.mutations_since(base.epoch)[: epoch - base.epoch]
    pos = base.pos
    return np.array(sorted({pos[x] for pair in log for x in pair}), dtype=np.int64)


def row_entries(np_module, indptr, rows):
    """Entry indexes of ``rows`` (sorted positions), row after row.

    ``rows=None`` stands for every row and gives ``slice(None)``, so indexing
    with the result never copies a whole-view array.
    """
    np = np_module
    if rows is None:
        return slice(None)
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    ends = np.cumsum(counts)
    return np.repeat(starts - (ends - counts), counts) + np.arange(
        int(ends[-1]) if len(ends) else 0, dtype=np.int64
    )


def splice_rows(np_module, rows, fresh, indptr, base_vals, base_indptr):
    """A row-major array laid out by ``indptr`` from fresh and carried rows.

    ``rows`` (sorted positions) take their values from ``fresh``, which holds
    them row after row; every other row is copied from the same row of
    ``base_vals`` (laid out by ``base_indptr``).  Rows between two fresh ones
    are contiguous in both layouts, so the copy is one slice per run.
    """
    np = np_module
    pieces = []
    done = at = 0
    for row in rows.tolist():
        pieces.append(base_vals[base_indptr[done] : base_indptr[row]])
        size = int(indptr[row + 1] - indptr[row])
        pieces.append(fresh[at : at + size])
        at += size
        done = row + 1
    pieces.append(base_vals[base_indptr[done] :])
    return np.concatenate(pieces)


def build_view(np_module, graph, base: Optional[CSRView] = None) -> Optional[CSRView]:
    """Build a :class:`CSRView` of ``graph`` at its current epoch.

    With ``base`` — an earlier view of the same graph — only the rows a
    mutation touched since ``base.epoch`` are read from the graph; the rest
    are copied from ``base``.  Otherwise every row is read: compacted CSR
    graphs (including shared-memory exports) array-at-once from their flat
    buffers, every other backend (dict adjacency, CSR with pending delta
    overlays) through the generic ``neighbors()`` walk.  Returns ``None``
    when vertex ids do not fit int64 — callers then fall back to the scalar
    path.
    """
    np = np_module
    rows = moved_rows(np, base, graph, graph.epoch)
    try:
        if rows is None:
            ids_list = list(graph.vertices())
            ids = np.array(ids_list, dtype=np.int64)
            pos = {vertex: index for index, vertex in enumerate(ids_list)}
        else:
            ids, pos = base.ids, base.pos
            ids_list = ids[rows].tolist()
        n = len(ids)
        flat = (
            rows is None
            and isinstance(graph, CSRGraph)
            and graph.delta_count == 0
            and not isinstance(graph._indices, list)
        )
        if flat:
            if isinstance(graph._indices, memoryview):
                # Read-only storage (mmap snapshots, shared-memory
                # attachments): alias the buffers instead of copying —
                # safe because these graphs refuse mutation, so the view
                # can never drift from the arrays it wraps.
                indptr = np.frombuffer(graph._indptr, dtype=np.int64)
                fresh_id = np.frombuffer(graph._indices, dtype=np.int64)
            else:
                indptr = np.array(graph._indptr, dtype=np.int64)
                fresh_id = np.array(graph._indices, dtype=np.int64)
            deg = indptr[1:] - indptr[:-1]
        else:
            read = [graph.neighbors(v) for v in ids_list]
            counts = np.array([len(row) for row in read], dtype=np.int64)
            fresh_id = np.fromiter(
                (w for row in read for w in row), dtype=np.int64, count=int(counts.sum())
            )
            if rows is None:
                deg = counts
            else:
                deg = base.deg.copy()
                deg[rows] = counts
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(deg, out=indptr[1:])
    except OverflowError:
        return None
    nnz = int(indptr[-1]) if n else 0
    if nnz:
        order = np.argsort(ids, kind="stable")
        fresh_pos = order[np.searchsorted(ids[order], fresh_id)]
        read_rows = np.arange(n, dtype=np.int64) if rows is None else rows
        read_deg = deg[read_rows]
        fresh_src = np.repeat(read_rows, read_deg)
        fresh_j = np.arange(len(fresh_src), dtype=np.int64) - np.repeat(
            np.cumsum(read_deg) - read_deg, read_deg
        )
        fresh = (fresh_id, fresh_pos, fresh_src, fresh_j)
        if rows is None:
            nbr_id, nbr_pos, entry_src, entry_j = fresh
        else:
            old = (base.nbr_id, base.nbr_pos, base.entry_src, base.entry_j)
            nbr_id, nbr_pos, entry_src, entry_j = (
                splice_rows(np, rows, values, indptr, carried, base.indptr)
                for values, carried in zip(fresh, old)
            )
    else:
        nbr_id = np.zeros(0, dtype=np.int64)
        nbr_pos = np.zeros(0, dtype=np.int64)
        entry_src = np.zeros(0, dtype=np.int64)
        entry_j = np.zeros(0, dtype=np.int64)
    return CSRView(
        np, graph, ids, pos, deg, indptr, nbr_id, nbr_pos, entry_src, entry_j
    )
