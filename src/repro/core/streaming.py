"""Stateful streaming edge partitioning kernel (paper §3.3, Alg. 4).

One pass over the edge stream; each edge is scored against every
partition and assigned to the argmax (HDRF scoring by default, λ=1.1
per Appendix A). The scorer state — per-partition replica sets and
loads — is passed in and updated in place, so a stream can start from
NE++'s in-memory phase, which is exactly HEP's "informed" streaming: a
vertex is replicated on p_i iff it entered S_i ∪ C during p_i's
construction. The drivers (HEP, the simple hybrid and the stand-alone
baselines, which start from an empty state) are in :mod:`.hep`.

Degrees are the exact degrees computed at graph-building time (HEP has
them from ingestion; §3.3). Scores are vectorized over the k partitions
with numpy, so the per-edge cost is Θ(k) with small constants — the
paper's Θ(|E|·k) streaming complexity (Table 1).
"""
from __future__ import annotations

import numpy as np

_EPS = 1.0  # ε in HDRF's balance term
_LAMBDA = 1.1  # λ, HDRF's balance weight (Appendix A)
ALPHA = 1.05  # α, the balance bound |p_i| ≤ α·|E|/k (Appendix A)


def _choose_balanced(cands: np.ndarray, sizes: np.ndarray) -> int:
    """Least-loaded partition among candidate indices."""
    return int(cands[np.argmin(sizes[cands])])


def stream_edges(
    edges: np.ndarray,
    *,
    replicas: np.ndarray,
    sizes: np.ndarray,
    degrees: np.ndarray,
    cap: int,
    method: str = "hdrf",
    seed: int = 0,
) -> np.ndarray:
    """Assign ``edges`` (m,2) one at a time; returns (m,) pid array.

    ``replicas`` ((k, n) bool) and ``sizes`` ((k,) int64) are the
    scorer state; both are updated in place. ``cap`` bounds every
    partition's load, streamed edges included; it must leave room for
    all of ``edges`` (k·cap ≥ Σ sizes + m), so some partition is always
    open. ``method``: "hdrf" | "greedy" | "random".
    """
    k = len(sizes)
    if sizes.sum() + len(edges) > k * cap:
        raise ValueError(f"cap {cap} leaves no room: {k} partitions hold "
                         f"{sizes.sum()} edges and {len(edges)} more arrive")
    pids = np.empty(len(edges), dtype=np.int64)
    rng = np.random.default_rng(seed)
    deg = degrees.astype(np.float64)
    for idx in range(len(edges)):
        u = int(edges[idx, 0])
        v = int(edges[idx, 1])
        open_ = sizes < cap
        if method == "hdrf":
            du, dv = deg[u], deg[v]
            tot = du + dv
            theta_u = du / tot if tot else 0.5
            c_rep = replicas[:, u] * (2.0 - theta_u) + replicas[:, v] * (1.0 + theta_u)
            mx, mn = sizes.max(), sizes.min()
            c_bal = _LAMBDA * (mx - sizes) / (_EPS + mx - mn)
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
