"""HEP — Hybrid Edge Partitioner (the paper's system, §3), and the §5.4
simple hybrid it is measured against.

Phase 1 partitions ``E \\ E_h2h`` in memory with NE++ (pruned CSR);
phase 2 streams ``E_h2h`` through HDRF, warm-started with the replica
sets and partition loads produced by phase 1 ("informed stateful
streaming", §3.3). ``τ`` is the memory knob: lower τ ⇒ more vertices
classified high-degree ⇒ smaller column array, more edges streamed.

The simple hybrid (Fig. 9) swaps both phases' algorithms — plain NE
on G_REST (full CSR, eager bookkeeping) and uninformed random
streaming of G_H2H — and shares everything else, phase 2's warm start
and concatenation included, so the ablation measures the design, not
the hybridization.
"""
from __future__ import annotations

import time

import numpy as np

from ..graphs.csr import CSR
from ..graphs.degrees import high_mask_np, split_edges_np
from ..graphs.generators import EdgeList
from .common import PartitionResult, assignment_array
from .ne import partition_ne
from .nepp import partition_nepp
from .streaming import ALPHA, StreamState, stream_edges


def partition_hep(
    el: EdgeList,
    *,
    k: int,
    tau: float,
    csr: CSR | None = None,
) -> PartitionResult:
    """Run full HEP (NE++ then informed HDRF streaming) at threshold ``tau``."""
    t0 = time.perf_counter()
    inmem = partition_nepp(el, k=k, tau=tau, csr=csr)
    return _stream_h2h(
        el,
        inmem,
        inmem.stats["h2h"],
        k=k,
        tau=tau,
        method="hdrf",
        t_inmem_s=time.perf_counter() - t0,
    )


def partition_simple_hybrid(el: EdgeList, *, k: int, tau: float) -> PartitionResult:
    """NE on G_REST + random streaming on G_H2H at threshold ``tau``."""
    t0 = time.perf_counter()
    high = high_mask_np(el.degrees().astype(np.int64), tau)
    rest, h2h = split_edges_np(el, high)
    # NE runs on the rest-subgraph; vertex ids are shared with el so no
    # relabeling is needed (isolated ids simply never appear).
    inmem = partition_ne(EdgeList(edges=rest.copy(), n=el.n), k=k)
    return _stream_h2h(
        el,
        inmem,
        h2h,
        k=k,
        tau=tau,
        method="random",
        t_inmem_s=time.perf_counter() - t0,
    )


def _stream_h2h(
    el: EdgeList,
    inmem: PartitionResult,
    h2h: np.ndarray,
    *,
    k: int,
    tau: float,
    method: str,
    t_inmem_s: float,
) -> PartitionResult:
    """Phase 2: stream ``h2h`` into the state the in-memory phase left.

    The scorer starts from ``inmem``'s replica sets and partition loads;
    the balance cap counts all of ``el``'s edges. Returns the in-memory
    assignment followed by the streamed edges.
    """
    t1 = time.perf_counter()
    state = StreamState(el.n, k, replicas=inmem.replicas, sizes=inmem.sizes)
    cap = max(1, int(np.ceil(ALPHA * el.m / k)))
    pids = stream_edges(
        h2h.astype(np.int64),
        state=state,
        degrees=el.degrees(),
        cap=cap,
        method=method,
    )
    t_stream_s = time.perf_counter() - t1
    assignment = inmem.assignment
    if len(h2h):
        streamed = assignment_array(h2h[:, 0], h2h[:, 1], pids)
        assignment = np.concatenate([assignment, streamed])
    return PartitionResult(
        assignment=assignment,
        k=k,
        n=el.n,
        replicas=state.replicas,
        stats={
            **{s: v for s, v in inmem.stats.items() if s != "h2h"},
            "tau": tau,
            "n_h2h": int(len(h2h)),
            "t_inmem_s": t_inmem_s,
            "t_stream_s": t_stream_s,
            "streaming_method": method,
        },
    )
