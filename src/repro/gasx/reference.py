"""Dense numpy reference implementations of the gasx algorithms.

Used only by tests: gasx results must match these exactly (BFS/CC) or
to float tolerance (PageRank), for every partitioning — the *results*
of distributed graph processing are partitioning-invariant; only the
cost varies.
"""
from __future__ import annotations

import numpy as np

from ..graphs.generators import EdgeList
from .algorithms import DAMPING


def _sym_adj(el: EdgeList) -> tuple[np.ndarray, np.ndarray]:
    """Symmetrized (src, dst) arrays."""
    src = np.concatenate([el.edges[:, 0], el.edges[:, 1]]).astype(np.int64)
    dst = np.concatenate([el.edges[:, 1], el.edges[:, 0]]).astype(np.int64)
    return src, dst


def pagerank_ref(el: EdgeList, *, n_iter: int = 10) -> np.ndarray:
    """rank = 0.15 + 0.85 Σ contrib, matching gasx.pagerank. Isolated
    vertices keep rank 1.0 only if they never appear — gasx operates on
    incident vertices, so callers index by incident vertex id."""
    src, dst = _sym_adj(el)
    outdeg = np.bincount(src, minlength=el.n).astype(np.float64)
    rank = np.ones(el.n)
    for _ in range(n_iter):
        contrib = np.zeros(el.n)
        w = rank[src] / outdeg[src]
        np.add.at(contrib, dst, w)
        rank = (1 - DAMPING) + DAMPING * contrib
    return rank


def bfs_ref(el: EdgeList, *, source: int) -> np.ndarray:
    """Hop distance from source; -1 for unreachable."""
    src, dst = _sym_adj(el)
    dist = np.full(el.n, -1, dtype=np.int64)
    dist[source] = 0
    frontier = np.array([source])
    d = 0
    while len(frontier):
        d += 1
        mask = np.isin(src, frontier)
        nxt = np.unique(dst[mask])
        nxt = nxt[dist[nxt] < 0]
        dist[nxt] = d
        frontier = nxt
    return dist


def cc_ref(el: EdgeList) -> np.ndarray:
    """Min-vertex-id component label per vertex."""
    src, dst = _sym_adj(el)
    lbl = np.arange(el.n, dtype=np.int64)
    while True:
        new = lbl.copy()
        np.minimum.at(new, dst, lbl[src])
        if np.array_equal(new, lbl):
            return lbl
        lbl = new
