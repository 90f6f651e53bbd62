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
them from ingestion; §3.3). HDRF and Greedy run as one compiled C loop
(``_kernels.c``), Θ(k) work per edge — the paper's Θ(|E|·k) streaming
complexity (Table 1) and its single-threaded C++ design (Appendix A).
HDRF's loop scores every partition without a data-dependent branch,
adding the replica weights to a buffer of cached balance terms that it
recomputes in full only when the max or min load moves; the score and
balance buffers (k doubles each) are allocated here, so the C code
allocates nothing.
``stream_edges_py`` is the same algorithm as a Python loop with numpy
over the k partitions: the reference the C loop must match bit for bit,
and the only implementation of random streaming, whose draws come from
numpy's generator.
"""
from __future__ import annotations

import numpy as np

from . import _native

_EPS = 1.0  # ε in HDRF's balance term
_LAMBDA = 1.1  # λ, HDRF's balance weight (Appendix A)
ALPHA = 1.05  # α, the balance bound |p_i| ≤ α·|E|/k (Appendix A)

_NATIVE_METHODS = {"hdrf": 0, "greedy": 1}


def stream_edges(
    edges: np.ndarray,
    *,
    replicas: np.ndarray,
    sizes: np.ndarray,
    degrees: np.ndarray,
    cap: int,
    method: str = "hdrf",
) -> np.ndarray:
    """Assign ``edges`` (m,2) one at a time; returns (m,) pid array.

    ``replicas`` ((k, n) bool, C-contiguous) and ``sizes`` ((k,) int64,
    C-contiguous) are the scorer state; both are updated in place.
    ``degrees`` ((n,), integer) are the vertex degrees HDRF weighs
    endpoints by. ``cap`` bounds every partition's load, streamed edges
    included; it must leave room for all of ``edges`` (k·cap ≥ Σ sizes
    + m), so some partition is always open. ``method``: "hdrf" |
    "greedy" | "random"; random's draws are seeded with 0.
    """
    if method not in _NATIVE_METHODS and method != "random":
        raise ValueError(f"unknown streaming method {method!r}")
    edges, degrees = _checked(edges, replicas, sizes, degrees)
    if method == "random":
        return stream_edges_py(edges, replicas=replicas, sizes=sizes, degrees=degrees,
                               cap=cap, method=method)
    _check_room(sizes, len(edges), cap)
    k, n = replicas.shape
    pids = np.empty(len(edges), dtype=np.int64)
    score, bal = np.empty((2, k), dtype=np.float64)  # HDRF's work buffers
    status = _native.LIB.stream_edges(
        edges.ctypes.data, len(edges), replicas.ctypes.data, sizes.ctypes.data, k, n,
        degrees.ctypes.data, int(cap), _NATIVE_METHODS[method], _LAMBDA, _EPS,
        score.ctypes.data, bal.ctypes.data, pids.ctypes.data,
    )
    if status != 0:
        raise RuntimeError("native streaming found every partition closed")
    return pids


def _checked(edges, replicas, sizes, degrees) -> tuple[np.ndarray, np.ndarray]:
    """Validate the kernel's inputs before any pointer reaches C; returns
    ``edges`` as C-contiguous uint32 and ``degrees`` as C-contiguous
    int64, copying only what is not already in that form. ``replicas``
    and ``sizes`` are never copied: the caller relies on their in-place
    update."""
    def require(ok: bool, what: str) -> None:
        if not ok:
            raise ValueError(f"stream_edges: {what}")

    require(isinstance(replicas, np.ndarray) and replicas.dtype == np.bool_
            and replicas.ndim == 2 and replicas.flags.c_contiguous
            and replicas.flags.writeable,
            "replicas must be a writeable C-contiguous (k, n) bool array")
    k, n = replicas.shape
    require(isinstance(sizes, np.ndarray) and sizes.dtype == np.int64
            and sizes.shape == (k,) and sizes.flags.c_contiguous and sizes.flags.writeable,
            f"sizes must be a writeable C-contiguous int64 array of length k={k}")
    edges = np.asarray(edges)
    require(edges.ndim == 2 and edges.shape[1] == 2 and edges.dtype.kind in "iu",
            f"edges must be an (m, 2) integer array, got {edges.dtype} {edges.shape}")
    if len(edges):
        lo, hi = int(edges.min()), int(edges.max())
        require(lo >= 0 and hi < min(n, 2**32),
                f"edge ids must lie in [0, {n}) (replicas has n={n} columns), "
                f"got [{lo}, {hi}]")
    degrees = np.asarray(degrees)
    require(degrees.shape == (n,) and degrees.dtype.kind in "iu",
            f"degrees must be an integer array of length n={n}, "
            f"got {degrees.dtype} {degrees.shape}")
    return (np.ascontiguousarray(edges, dtype=np.uint32),
            np.ascontiguousarray(degrees, dtype=np.int64))


def _check_room(sizes: np.ndarray, m: int, cap: int) -> None:
    """Refuse a cap that cannot hold ``m`` more edges on top of ``sizes``."""
    k = len(sizes)
    if sizes.sum() + m > k * cap:
        raise ValueError(f"cap {cap} leaves no room: {k} partitions hold "
                         f"{sizes.sum()} edges and {m} more arrive")


def _choose_balanced(cands: np.ndarray, sizes: np.ndarray) -> int:
    """Least-loaded partition among candidate indices."""
    return int(cands[np.argmin(sizes[cands])])


def stream_edges_py(
    edges: np.ndarray,
    *,
    replicas: np.ndarray,
    sizes: np.ndarray,
    degrees: np.ndarray,
    cap: int,
    method: str = "hdrf",
) -> np.ndarray:
    """:func:`stream_edges` as a Python loop, scores vectorized over the
    k partitions with numpy: the reference for the C kernel, and the
    random path."""
    _check_room(sizes, len(edges), cap)
    pids = np.empty(len(edges), dtype=np.int64)
    rng = np.random.default_rng(0)
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
