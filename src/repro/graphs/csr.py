"""CSR graph representation used by the partitioner cores (paper §3.2.1).

Per the paper, the column array stores each vertex's adjacency as a
contiguous block: the *out-list* (edges where the vertex is the
left-hand ``src`` in the input edge list) followed by the *in-list*
(edges where it is ``dst``). Two index arrays locate the two lists, and
per-list *size fields* track the number of valid entries so that lazy
edge removal can swap-delete an entry in O(1) (Alg. 2).

Two build modes, both filled by one list builder (a counting sort in
C, with a numpy reference):

* :func:`build_csr` — full graph, plus a parallel edge-id array that
  the NE *baseline*'s eager edge-validity bookkeeping keys on (the
  auxiliary structure the paper criticizes, §3.2.2).
* :func:`build_pruned_csr` — NE++'s pruned representation: adjacency
  lists of high-degree vertices (``d(v) > τ·∅_d``) are omitted, and
  edges between two high-degree vertices are written to the external
  ``h2h`` array instead (they are streamed later).
"""
from __future__ import annotations

import ctypes
from dataclasses import dataclass, field

import numpy as np

from .degrees import high_mask_np
from .generators import EdgeList

ID_BYTES = 4  # b_id in the paper's memory model (32-bit vertex ids)


@dataclass
class CSR:
    """Mutable CSR with separated out/in lists and swap-removal support."""

    n: int
    out_start: np.ndarray  # (n,) int64 — start of v's out-list in col
    out_size: np.ndarray  # (n,) int64 — valid entries in v's out-list
    in_start: np.ndarray  # (n,) int64
    in_size: np.ndarray  # (n,) int64
    col: np.ndarray  # (2·|E_inmem_sides|,) uint32 neighbor ids
    high: np.ndarray  # (n,) bool — high-degree mask (all False when full)
    h2h: np.ndarray  # (m2, 2) uint32 — external high-high edges
    col_eid: np.ndarray | None = None  # parallel edge ids (full CSR only)
    # (n,) vertex degrees the pruning classified by (pruned CSR only),
    # kept so HEP's streaming phase weighs endpoints without a recount
    degrees: np.ndarray | None = None
    # paging instrumentation: called with (byte_lo, byte_hi) for every
    # non-empty list read, in read order; the accessors below call it as
    # they read, partition_nepp replays its C loop's reads after the run.
    # None → no tracing.
    touch: object = field(default=None, repr=False)

    def degree(self, v: int) -> int:
        """Current (valid) stored degree of v."""
        return int(self.out_size[v] + self.in_size[v])

    def out_neighbors(self, v: int) -> np.ndarray:
        s = self.out_start[v]
        e = s + self.out_size[v]
        if self.touch is not None and e > s:
            self.touch(int(s) * ID_BYTES, int(e) * ID_BYTES)
        return self.col[s:e]

    def in_neighbors(self, v: int) -> np.ndarray:
        s = self.in_start[v]
        e = s + self.in_size[v]
        if self.touch is not None and e > s:
            self.touch(int(s) * ID_BYTES, int(e) * ID_BYTES)
        return self.col[s:e]

    def remove_neighbors(self, v: int, mask_out: np.ndarray, mask_in: np.ndarray) -> int:
        """Swap-remove the masked entries from v's lists; returns count.

        ``mask_out``/``mask_in`` are boolean over the *current valid*
        out/in entries. Compaction (keep unmasked, shrink size) is
        equivalent to repeated swap-with-last + size decrement and keeps
        the cost linear in the list length, as in the paper.
        """
        removed = 0
        s = self.out_start[v]
        sz = int(self.out_size[v])
        if sz and mask_out.any():
            keep = self.col[s : s + sz][~mask_out]
            self.col[s : s + len(keep)] = keep
            self.out_size[v] = len(keep)
            removed += sz - len(keep)
        s = self.in_start[v]
        sz = int(self.in_size[v])
        if sz and mask_in.any():
            keep = self.col[s : s + sz][~mask_in]
            self.col[s : s + len(keep)] = keep
            self.in_size[v] = len(keep)
            removed += sz - len(keep)
        return removed

    @property
    def col_entries(self) -> int:
        """Total currently-valid column-array entries."""
        return int(self.out_size.sum() + self.in_size.sum())


def _fill_lists(el: EdgeList, *, high: np.ndarray, eid: bool) -> CSR:
    """Build the CSR of ``el`` whose lists omit high-degree owners.

    Edge (u, v) is stored in u's out-list unless u is high and in v's
    in-list unless v is high; an edge stored in neither is an ``h2h``
    edge. Each list holds its entries in edge order, and a vertex's
    out-list is followed by its in-list in ``col``. With ``eid``, the
    edge id of every entry goes to ``col_eid``. The lists and ``h2h``
    are counted and filled by the C counting sort in
    ``core/_kernels.c``; :func:`_fill_lists_np` is the same build in
    numpy, its reference.
    """
    from ..core._native import LIB  # repro.core imports this module: not at the top

    n = el.n
    edges = np.ascontiguousarray(el.edges, dtype=np.uint32)
    high = np.ascontiguousarray(high, dtype=bool)
    out_size = np.zeros(n, dtype=np.int64)
    in_size = np.zeros(n, dtype=np.int64)
    n_h2h = ctypes.c_int64()
    total = LIB.csr_count(edges.ctypes.data, len(edges), n, high.ctypes.data,
                          out_size.ctypes.data, in_size.ctypes.data, ctypes.byref(n_h2h))
    if total < 0:
        raise ValueError(f"edge ids must be < n={n}")
    out_start = np.empty(n, dtype=np.int64)
    in_start = np.empty(n, dtype=np.int64)
    col = np.empty(total, dtype=np.uint32)
    col_eid = np.empty(total, dtype=np.int64) if eid else None
    h2h = np.empty((n_h2h.value, 2), dtype=np.uint32)
    status = LIB.csr_fill(edges.ctypes.data, len(edges), n, high.ctypes.data,
                          out_start.ctypes.data, out_size.ctypes.data, in_start.ctypes.data,
                          in_size.ctypes.data, col.ctypes.data,
                          col_eid.ctypes.data if eid else None, total, h2h.ctypes.data,
                          len(h2h))
    if status != 0:
        raise ValueError("the edge list does not match its list counts")
    return CSR(n=n, out_start=out_start, out_size=out_size, in_start=in_start,
               in_size=in_size, col=col, high=high, h2h=h2h, col_eid=col_eid)


def _fill_lists_np(el: EdgeList, *, high: np.ndarray, eid: bool) -> CSR:
    """:func:`_fill_lists` with numpy: a stable argsort places each list
    entry, giving byte-identical arrays."""
    n = el.n
    src, dst = el.edges[:, 0], el.edges[:, 1]
    out_keep = ~high[src]
    in_keep = ~high[dst]
    edge_id = np.arange(el.m, dtype=np.int64)
    out_size = np.bincount(src[out_keep], minlength=n)
    in_size = np.bincount(dst[in_keep], minlength=n)
    total = out_size + in_size
    out_start = np.concatenate([[0], np.cumsum(total)])[:-1]
    in_start = out_start + out_size
    col = np.zeros(int(total.sum()), dtype=np.uint32)
    col_eid = np.zeros(len(col), dtype=np.int64) if eid else None
    for start, size, keep, key, value in (
        (out_start, out_size, out_keep, src, dst),
        (in_start, in_size, in_keep, dst, src),
    ):
        key, value, ids = key[keep], value[keep], edge_id[keep]
        # the i-th entry in key order goes to start[key] + i - first[key],
        # where first[key] is the number of this list's entries with a
        # smaller key
        o = np.argsort(key, kind="stable")
        pos = np.arange(len(o), dtype=np.int64)
        pos += (start - (np.cumsum(size) - size))[key[o]]
        col[pos] = value[o]
        if col_eid is not None:
            col_eid[pos] = ids[o]
    return CSR(n=n, out_start=out_start, out_size=out_size, in_start=in_start,
               in_size=in_size, col=col, high=high, h2h=el.edges[h2h_mask(el, high)], col_eid=col_eid)


def h2h_mask(el: EdgeList, high: np.ndarray) -> np.ndarray:
    """E_h2h as a mask over ``el.edges``: both endpoints high-degree."""
    return high[el.edges[:, 0]] & high[el.edges[:, 1]]


def build_csr(el: EdgeList) -> CSR:
    """Full CSR over all edges (the NE baseline's representation)."""
    return _fill_lists(el, high=np.zeros(el.n, dtype=bool), eid=True)


def build_pruned_csr(el: EdgeList, *, tau: float) -> CSR:
    """Pruned CSR (paper §3.2.1): drop high-degree adjacency lists.

    Edges between two high-degree vertices go to the external ``h2h``
    array (the paper's external-memory edge file); an edge with exactly
    one high endpoint survives only in the low endpoint's list. The
    degrees the split was made by are kept as ``degrees``.
    """
    degrees = el.degrees()
    csr = _fill_lists(el, high=high_mask_np(degrees, tau), eid=False)
    csr.degrees = degrees
    return csr
