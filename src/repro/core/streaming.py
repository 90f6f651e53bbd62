"""Stateful streaming edge partitioning (paper §3.3, Alg. 4).

One pass over the edge stream; each edge is scored against every
partition and assigned to the argmax (HDRF scoring by default, λ=1.1
per Appendix A). The scorer state — per-partition replica sets and
loads — can be *warm-started* from NE++'s in-memory phase, which is
exactly HEP's "informed" streaming: a vertex is replicated on p_i iff
it entered S_i ∪ C during p_i's construction.

Degrees are the exact degrees computed at graph-building time (HEP has
them from ingestion; §3.3). Scores are vectorized over the k partitions
with numpy, so the per-edge cost is Θ(k) with small constants — the
paper's Θ(|E|·k) streaming complexity (Table 1).
"""
from __future__ import annotations

import numpy as np

from ..graphs.generators import EdgeList
from .common import PartitionResult, assignment_array

_EPS = 1.0  # ε in HDRF's balance term


class StreamState:
    """Mutable scorer state shared between HEP's two phases."""

    def __init__(self, n: int, k: int, replicas: np.ndarray | None = None, sizes: np.ndarray | None = None):
        self.k = k
        self.n = n
        self.replicas = replicas if replicas is not None else np.zeros((k, n), dtype=bool)
        self.sizes = (
            sizes.astype(np.int64) if sizes is not None else np.zeros(k, dtype=np.int64)
        )


def _choose_balanced(cands: np.ndarray, sizes: np.ndarray) -> int:
    """Least-loaded partition among candidate indices."""
    return int(cands[np.argmin(sizes[cands])])


def stream_edges(
    edges: np.ndarray,
    *,
    state: StreamState,
    degrees: np.ndarray,
    cap: int,
    method: str = "hdrf",
    lam: float = 1.1,
    seed: int = 0,
) -> np.ndarray:
    """Assign ``edges`` (m,2) one at a time; returns (m,) pid array.

    ``cap`` is the balance bound α·|E|/k over the *whole* graph's edge
    count (partitions already warm from NE++ count toward it).
    ``method``: "hdrf" | "greedy" | "random".
    """
    k = state.k
    replicas, sizes = state.replicas, state.sizes
    pids = np.empty(len(edges), dtype=np.int64)
    rng = np.random.default_rng(seed)
    deg = degrees.astype(np.float64)
    for idx in range(len(edges)):
        u = int(edges[idx, 0])
        v = int(edges[idx, 1])
        open_ = sizes < cap
        if not open_.any():  # cap rounding corner: fall back to least loaded
            open_ = sizes == sizes.min()
        if method == "hdrf":
            du, dv = deg[u], deg[v]
            tot = du + dv
            theta_u = du / tot if tot else 0.5
            c_rep = replicas[:, u] * (2.0 - theta_u) + replicas[:, v] * (1.0 + theta_u)
            mx, mn = sizes.max(), sizes.min()
            c_bal = lam * (mx - sizes) / (_EPS + mx - mn)
            score = np.where(open_, c_rep + c_bal, -np.inf)
            best = score.max()
            p = _choose_balanced(np.flatnonzero(score == best), sizes)
        elif method == "greedy":
            au = replicas[:, u] & open_
            av = replicas[:, v] & open_
            both = au & av
            if both.any():
                p = _choose_balanced(np.flatnonzero(both), sizes)
            elif (au | av).any():
                p = _choose_balanced(np.flatnonzero(au | av), sizes)
            else:
                p = _choose_balanced(np.flatnonzero(open_), sizes)
        elif method == "random":
            cands = np.flatnonzero(open_)
            p = int(cands[rng.integers(0, len(cands))])
        else:
            raise ValueError(f"unknown streaming method {method!r}")
        pids[idx] = p
        replicas[p, u] = True
        replicas[p, v] = True
        sizes[p] += 1
    return pids


def partition_streaming(
    el: EdgeList,
    *,
    k: int,
    method: str = "hdrf",
    alpha: float = 1.05,
    lam: float = 1.1,
    seed: int = 0,
) -> PartitionResult:
    """Stand-alone streaming partitioner over the full edge list (the
    HDRF / Greedy / random baselines of the evaluation)."""
    state = StreamState(el.n, k)
    cap = max(1, int(np.ceil(alpha * el.m / k)))
    pids = stream_edges(
        el.edges,
        state=state,
        degrees=el.degrees(),
        cap=cap,
        method=method,
        lam=lam,
        seed=seed,
    )
    assignment = assignment_array(el.edges[:, 0], el.edges[:, 1], pids)
    return PartitionResult(
        assignment=assignment, k=k, n=el.n, replicas=state.replicas, stats={"method": method}
    )
