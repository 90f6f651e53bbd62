"""HEP — Hybrid Edge Partitioner (the paper's system, §3), the §5.4
simple hybrid it is measured against, and the stand-alone streaming
baselines.

Phase 1 partitions ``E \\ E_h2h`` in memory with NE++ (pruned CSR);
phase 2 streams ``E_h2h`` through HDRF, warm-started with the replica
sets and partition loads produced by phase 1 ("informed stateful
streaming", §3.3). ``τ`` is the memory knob: lower τ ⇒ more vertices
classified high-degree ⇒ smaller column array, more edges streamed.

The simple hybrid (Fig. 9) swaps both phases' algorithms — plain NE
on G_REST (full CSR, eager bookkeeping) and uninformed random
streaming of G_H2H — and shares everything else, phase 2's warm start
and assignment included, so the ablation measures the design, not
the hybridization.

The HDRF / Greedy / random baselines are phase 2 run over every edge
from an empty state; HEP at τ=0 (every vertex with an edge is
high-degree) gives the same assignment as the HDRF baseline.
"""
from __future__ import annotations

import time

import numpy as np

from ..graphs.csr import CSR, build_pruned_csr, h2h_mask
from ..graphs.degrees import high_mask_np
from ..graphs.generators import EdgeList
from .common import PartitionResult, check_k
from .ne import partition_ne
from .nepp import partition_nepp
from .streaming import ALPHA, stream_edges


def partition_hep(
    el: EdgeList,
    *,
    k: int,
    tau: float,
    csr: CSR | None = None,
) -> PartitionResult:
    """Run full HEP (NE++ then informed HDRF streaming) at threshold ``tau``.

    ``csr`` is the pruned CSR for ``tau``, built here when not given; it
    is consumed (NE++'s clean-up mutates it). Both phases use the
    degrees the CSR was pruned by, and write one assignment array: NE++
    its first rows, phase 2 the rest."""
    check_k(k)
    t0 = time.perf_counter()
    csr = csr if csr is not None else build_pruned_csr(el, tau=tau)
    degrees = csr.degrees
    assignment = np.empty((el.m, 3), dtype=np.int64)
    inmem = partition_nepp(el, k=k, csr=csr, out=assignment)
    h2h = csr.h2h
    del csr  # phase 2 needs only E_h2h and the degrees, not the column array
    t_inmem_s = time.perf_counter() - t0
    res = _stream_h2h(el, inmem, h2h, method="hdrf", degrees=degrees, out=assignment)
    res.stats.update(tau=tau, t_inmem_s=t_inmem_s)
    return res


def partition_simple_hybrid(el: EdgeList, *, k: int, tau: float) -> PartitionResult:
    """NE on G_REST + random streaming on G_H2H at threshold ``tau``."""
    check_k(k)
    t0 = time.perf_counter()
    degrees = el.degrees()
    is_h2h = h2h_mask(el, high_mask_np(degrees, tau))
    rest, h2h = el.edges[~is_h2h], el.edges[is_h2h]
    # NE runs on the rest-subgraph; vertex ids are shared with el so no
    # relabeling is needed (isolated ids simply never appear).
    inmem = partition_ne(EdgeList(edges=rest, n=el.n), k=k)
    t_inmem_s = time.perf_counter() - t0
    res = _stream_h2h(el, inmem, h2h, method="random", degrees=degrees)
    res.stats.update(tau=tau, t_inmem_s=t_inmem_s)
    return res


def partition_streaming(el: EdgeList, *, k: int, method: str = "hdrf") -> PartitionResult:
    """Stand-alone streaming partitioner over the full edge list (the
    HDRF / Greedy / random baselines of the evaluation): phase 2 from
    an empty state."""
    check_k(k)
    empty = PartitionResult(
        assignment=np.empty((0, 3), dtype=np.int64),
        k=k,
        n=el.n,
        replicas=np.zeros((k, el.n), dtype=bool),
    )
    return _stream_h2h(el, empty, el.edges, method=method, degrees=el.degrees())


def _stream_h2h(
    el: EdgeList, inmem: PartitionResult, edges: np.ndarray, *, method: str,
    degrees: np.ndarray, out: np.ndarray | None = None,
) -> PartitionResult:
    """Phase 2: stream ``edges`` into the state the in-memory phase left.

    The scorer starts from ``inmem``'s replica sets and partition loads
    (its ``loads`` when it kept them), which it consumes, and weighs
    endpoints by ``degrees``, ``el``'s vertex degrees; the balance cap
    ⌈α·|E|/k⌉ counts all of ``el``'s edges, which are ``inmem``'s plus
    ``edges``. Returns the in-memory assignment followed by the streamed
    edges, written after it in place when ``out`` is the array whose
    first rows ``inmem.assignment`` is, else into a new array.
    """
    t1 = time.perf_counter()
    k = inmem.k
    replicas = inmem.replicas
    sizes = inmem.loads if inmem.loads is not None else inmem.sizes
    pids = stream_edges(
        edges,
        replicas=replicas,
        sizes=sizes,
        degrees=degrees,
        cap=int(np.ceil(ALPHA * el.m / k)),
        method=method,
    )
    t_stream_s = time.perf_counter() - t1
    m0 = len(inmem.assignment)
    if out is None:
        out = np.empty((m0 + len(edges), 3), dtype=np.int64)
        out[:m0] = inmem.assignment
    assignment = out[:m0 + len(edges)]
    assignment[m0:, :2] = edges
    assignment[m0:, 2] = pids
    return PartitionResult(
        assignment=assignment,
        k=k,
        n=el.n,
        replicas=replicas,
        stats={
            **inmem.stats,
            "n_h2h": int(len(edges)),
            "t_stream_s": t_stream_s,
            "streaming_method": method,
        },
    )
