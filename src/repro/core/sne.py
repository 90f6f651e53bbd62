"""SNE — streaming neighborhood expansion (Zhang et al., KDD '17), the
bounded-memory variant of NE the paper uses as a streaming baseline.

The edge stream is buffered in chunks of ``sample_size · |E|/k`` edges
(sample size 2 per the paper's Appendix A); each partition is grown by
NE-style expansion *inside the buffer only*, then the buffer is
refilled. Quality sits between NE and hash/stream partitioners: the
expansion never sees the whole graph, so cuts are locally good but
globally uninformed.

The buffer graph is a dict-of-eid-sets adjacency with eager edge
removal — faithful to SNE's (non-NE++) bookkeeping.
"""
from __future__ import annotations

import heapq

import numpy as np

from ..graphs.generators import EdgeList
from .common import PartitionResult, assignment_array, check_k


def partition_sne(
    el: EdgeList, *, k: int, sample_size: float = 2.0
) -> PartitionResult:
    """Partition ``el`` into ``k`` parts with chunked streaming NE."""
    check_k(k)
    m, n = el.m, el.n
    cap = max(1, -(-m // k))
    buf_cap = max(cap, int(sample_size * cap))
    edges = el.edges
    pid_of = np.full(m, -1, dtype=np.int64)
    adj: dict[int, set[int]] = {}
    buffered = 0
    stream_pos = 0

    def buffer_fill() -> None:
        nonlocal buffered, stream_pos
        while buffered < buf_cap and stream_pos < m:
            e = stream_pos
            u, v = int(edges[e, 0]), int(edges[e, 1])
            adj.setdefault(u, set()).add(e)
            adj.setdefault(v, set()).add(e)
            buffered += 1
            stream_pos += 1

    def other(e: int, v: int) -> int:
        u0, u1 = int(edges[e, 0]), int(edges[e, 1])
        return u1 if v == u0 else u0

    def remove_edge(e: int, *ends: int) -> None:
        nonlocal buffered
        for v in ends:
            s = adj.get(v)
            if s is not None:
                s.discard(e)
                if not s:
                    del adj[v]
        buffered -= 1

    for i in range(k - 1):
        buffer_fill()
        if buffered == 0 and stream_pos >= m:
            break
        core: set[int] = set()
        sec: set[int] = set()
        d_ext: dict[int, int] = {}
        heap: list[tuple[int, int]] = []
        size_i = 0

        def assign(e: int, u: int, v: int, i: int = i) -> bool:
            """Assign within capacity; a full partition leaves the edge
            in the buffer for a later partition (strict balance)."""
            nonlocal size_i
            if size_i >= cap:
                return False
            pid_of[e] = i
            size_i += 1
            remove_edge(e, u, v)
            return True

        def move_to_secondary(u: int) -> None:
            sec.add(u)
            ext = 0
            for e in list(adj.get(u, ())):
                w = other(e, u)
                if w in core or w in sec:
                    if assign(e, u, w):
                        if w in sec and w not in core and w in d_ext:
                            d_ext[w] -= 1
                            heapq.heappush(heap, (d_ext[w], w))
                    else:
                        ext += 1
                else:
                    ext += 1
            d_ext[u] = ext
            heapq.heappush(heap, (ext, u))

        def move_to_core(v: int) -> None:
            core.add(v)
            for e in list(adj.get(v, ())):
                w = other(e, v)
                if not (w in core or w in sec):
                    move_to_secondary(w)

        while size_i < cap:
            if buffered == 0:
                buffer_fill()
                if buffered == 0:
                    break
            v = -1
            while heap:
                d, u = heapq.heappop(heap)
                if u in sec and u not in core and d == d_ext.get(u):
                    v = u
                    break
            if v < 0:
                v = next((w for w in adj if w not in core), -1)
                if v < 0:
                    # only core vertices hold edges — cannot happen, but
                    # avoid livelock by draining into this partition
                    for w in list(adj):
                        for e in list(adj.get(w, ())):
                            assign(e, w, other(e, w))
                    continue
            move_to_core(v)

    # last partition: remaining buffer + untouched stream tail
    last = k - 1
    rest = np.flatnonzero(pid_of < 0)
    pid_of[rest] = last

    assignment = assignment_array(edges[:, 0], edges[:, 1], pid_of)
    return PartitionResult(assignment=assignment, k=k, n=n, stats={"sample_size": sample_size})
