"""CSR graph representation used by the partitioner cores (paper §3.2.1).

Per the paper, the column array stores each vertex's adjacency as a
contiguous block: the *out-list* (edges where the vertex is the
left-hand ``src`` in the input edge list) followed by the *in-list*
(edges where it is ``dst``). Two index arrays locate the two lists, and
per-list *size fields* track the number of valid entries so that lazy
edge removal can swap-delete an entry in O(1) (Alg. 2).

Two build modes, both filled by one list builder:

* :func:`build_csr` — full graph, plus a parallel edge-id array that
  the NE *baseline*'s eager edge-validity bookkeeping keys on (the
  auxiliary structure the paper criticizes, §3.2.2).
* :func:`build_pruned_csr` — NE++'s pruned representation: adjacency
  lists of high-degree vertices (``d(v) > τ·∅_d``) are omitted, and
  edges between two high-degree vertices are written to the external
  ``h2h`` array instead (they are streamed later).
"""
from __future__ import annotations

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
    # paging instrumentation: called with (byte_lo, byte_hi) on every
    # contiguous column-array access; None → zero overhead.
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


def _fill_lists(
    n: int,
    out_lists: tuple[np.ndarray, np.ndarray],
    in_lists: tuple[np.ndarray, np.ndarray],
    *,
    high: np.ndarray,
    h2h: np.ndarray,
    eid: np.ndarray | None = None,
) -> CSR:
    """Build a CSR from (key, value) arrays for the out- and in-lists.

    Each list entry ``value`` is stored in ``key``'s list, in input
    order; the out- and in-segments of a vertex are adjacent in
    ``col``. ``eid`` (full CSR only) gives the edge id of each entry of
    both lists, which then come from the same edge order.
    """
    out_size = np.bincount(out_lists[0], minlength=n)
    in_size = np.bincount(in_lists[0], minlength=n)
    total = out_size + in_size
    out_start = np.concatenate([[0], np.cumsum(total)])[:-1]
    in_start = out_start + out_size
    col = np.zeros(int(total.sum()), dtype=np.uint32)
    col_eid = np.zeros(len(col), dtype=np.int64) if eid is not None else None
    for start, size, (key, value) in (
        (out_start, out_size, out_lists),
        (in_start, in_size, in_lists),
    ):
        # the i-th entry in key order goes to start[key] + i - first[key],
        # where first[key] is the number of this list's entries with a
        # smaller key
        o = np.argsort(key, kind="stable")
        pos = np.arange(len(o), dtype=np.int64)
        pos += (start - (np.cumsum(size) - size))[key[o]]
        col[pos] = value[o]
        if col_eid is not None:
            col_eid[pos] = eid[o]
    return CSR(
        n=n,
        out_start=out_start,
        out_size=out_size,
        in_start=in_start,
        in_size=in_size,
        col=col,
        high=high,
        h2h=h2h,
        col_eid=col_eid,
    )


def build_csr(el: EdgeList) -> CSR:
    """Full CSR over all edges (the NE baseline's representation)."""
    src, dst = el.edges[:, 0], el.edges[:, 1]
    return _fill_lists(
        el.n,
        (src, dst),
        (dst, src),
        high=np.zeros(el.n, dtype=bool),
        h2h=np.empty((0, 2), dtype=np.uint32),
        eid=np.arange(el.m, dtype=np.int64),
    )


def build_pruned_csr(el: EdgeList, *, tau: float) -> CSR:
    """Pruned CSR (paper §3.2.1): drop high-degree adjacency lists.

    Edges between two high-degree vertices go to the external ``h2h``
    array (the paper's external-memory edge file); an edge with exactly
    one high endpoint survives only in the low endpoint's list.
    """
    high = high_mask_np(el.degrees(), tau)
    src, dst = el.edges[:, 0], el.edges[:, 1]
    # a list entry is kept iff its owner is low-degree; an edge kept on
    # neither side is an h2h edge
    out_keep = ~high[src]
    in_keep = ~high[dst]
    return _fill_lists(
        el.n,
        (src[out_keep], dst[out_keep]),
        (dst[in_keep], src[in_keep]),
        high=high,
        h2h=el.edges[~(out_keep | in_keep)],
    )
