"""Checks computed apart from the program, with numpy only.

Nothing here imports ``repro``: each quantity is recomputed from the
edge array and the assignment the program returned, so a fault in the
program cannot also hide in its check.
"""
from __future__ import annotations

import math

import numpy as np

ALPHA = 1.05  # edge-balance slack of HEP's capacity bound


class CheckFailed(Exception):
    """An output of the program disagrees with its independent check."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _pair_keys(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    lo = np.minimum(u, v).astype(np.uint64)
    hi = np.maximum(u, v).astype(np.uint64)
    return np.sort((lo << np.uint64(32)) | hi)


def check_assignment(edges: np.ndarray, assignment: np.ndarray, k: int) -> None:
    """Same undirected edge set as the input, pids in [0, k), and every
    partition at most ⌈α·|E|/k⌉ edges."""
    m = len(edges)
    require(assignment.shape == (m, 3), f"assignment shape {assignment.shape}, want ({m}, 3)")
    require(
        np.array_equal(_pair_keys(edges[:, 0], edges[:, 1]), _pair_keys(assignment[:, 0], assignment[:, 1])),
        "assigned edge set differs from the input edge set",
    )
    pid = assignment[:, 2]
    require(bool((pid >= 0).all() and (pid < k).all()), "pid out of [0, k)")
    cap = math.ceil(ALPHA * m / k)
    biggest = int(np.bincount(pid, minlength=k).max())
    require(biggest <= cap, f"partition of {biggest} edges exceeds ⌈α|E|/k⌉ = {cap}")


def replica_pairs(assignment: np.ndarray) -> int:
    """Σ_i |V(p_i)|: distinct (pid, vertex) pairs."""
    pv = np.concatenate([assignment[:, [2, 0]], assignment[:, [2, 1]]]).astype(np.int64)
    return int(len(np.unique(pv[:, 0] << 32 | pv[:, 1])))


def replication_factor(assignment: np.ndarray) -> float:
    """Σ_i |V(p_i)| / |V| over vertices incident to an edge."""
    return replica_pairs(assignment) / len(np.unique(assignment[:, :2]))


def edge_balance(assignment: np.ndarray, k: int) -> float:
    """max_i |p_i| / (|E|/k)."""
    return float(np.bincount(assignment[:, 2], minlength=k).max()) / (len(assignment) / k)


def h2h_count(edges: np.ndarray, n: int, tau: float) -> int:
    """|E_h2h|: edges whose endpoints both have degree > τ·(mean degree
    over vertices with degree ≥ 1)."""
    deg = np.bincount(edges[:, 0], minlength=n) + np.bincount(edges[:, 1], minlength=n)
    high = deg > tau * deg[deg > 0].mean()
    return int((high[edges[:, 0]] & high[edges[:, 1]]).sum())


def _symmetric(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    src = np.concatenate([edges[:, 0], edges[:, 1]]).astype(np.int64)
    dst = np.concatenate([edges[:, 1], edges[:, 0]]).astype(np.int64)
    return src, dst


def pagerank(edges: np.ndarray, n: int, iters: int, beta: float = 0.85) -> np.ndarray:
    """Unnormalised power iteration, rank = (1-β) + β·Σ rank(u)/deg(u)."""
    src, dst = _symmetric(edges)
    deg = np.bincount(src, minlength=n).astype(np.float64)
    rank = np.ones(n)
    for _ in range(iters):
        rank = (1 - beta) + beta * np.bincount(dst, weights=rank[src] / deg[src], minlength=n)
    return rank


def min_labels(edges: np.ndarray, n: int) -> np.ndarray:
    """Min-vertex-id label of each vertex's component (fixpoint)."""
    src, dst = _symmetric(edges)
    lbl = np.arange(n, dtype=np.int64)
    while True:
        new = lbl.copy()
        np.minimum.at(new, dst, lbl[src])
        if np.array_equal(new, lbl):
            return lbl
        lbl = new


def _require_all_vertices(v: np.ndarray, n: int, what: str) -> None:
    # generated graphs have compact ids: every vertex 0..n-1 has an edge
    require(np.array_equal(np.sort(v), np.arange(n)), f"{what} vertex set differs")


def check_ranks(v: np.ndarray, rank: np.ndarray, want: np.ndarray, rel: float = 1e-9) -> None:
    _require_all_vertices(v, len(want), "PageRank")
    err = np.abs(rank - want[v]) / np.abs(want[v])
    require(float(err.max()) <= rel, f"PageRank relative error {err.max():.3g} > {rel:g}")


def check_labels(v: np.ndarray, lbl: np.ndarray, want: np.ndarray) -> None:
    _require_all_vertices(v, len(want), "CC")
    require(np.array_equal(lbl, want[v]), "CC labels differ from the min-label fixpoint")
