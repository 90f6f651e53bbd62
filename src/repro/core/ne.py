"""NE baseline — neighborhood expansion as in the *reference*
implementation the paper compares against (Zhang et al., KDD '17).

Deliberately reproduces the overheads NE++ removes (paper §3.2.2 and
§5.2), so that the HEP-vs-NE run-time/memory comparison is honest:

* the **complete** graph is CSR-resident (no pruning),
* **eager edge bookkeeping**: a per-edge validity array (the auxiliary
  data structure) is consulted on every adjacency scan and updated on
  every assignment,
* **randomized seed selection** with retry (the initialization strategy
  whose cost grows as partitioning progresses).

Quality-wise NE and NE++ should coincide (the paper reports identical
replication factors up to noise); tests assert this on fixed graphs.
"""
from __future__ import annotations

import heapq

import numpy as np

from ..graphs.csr import build_csr
from ..graphs.generators import EdgeList
from .common import PartitionResult, assignment_array, check_k


def partition_ne(el: EdgeList, *, k: int) -> PartitionResult:
    """Partition all edges of ``el`` into ``k`` parts with basic NE."""
    check_k(k)
    csr = build_csr(el)
    n, m = csr.n, el.m
    cap = max(1, -(-m // k))
    rng = np.random.default_rng(0)  # fixed seed: repeatable runs

    valid = np.ones(m, dtype=bool)  # eager per-edge bookkeeping
    pid_of = np.full(m, -1, dtype=np.int64)
    core = np.zeros(n, dtype=bool)
    in_s = np.zeros(n, dtype=bool)
    replicas = np.zeros((k, n), dtype=bool)
    d_ext = np.zeros(n, dtype=np.int64)
    sizes = np.zeros(k, dtype=np.int64)
    assigned_total = 0
    seed_probes = 0

    def valid_adj(v: int) -> tuple[np.ndarray, np.ndarray]:
        """(neighbors, eids) of v's still-valid incident edges."""
        s, e = csr.out_start[v], csr.out_start[v] + csr.out_size[v]
        s2, e2 = csr.in_start[v], csr.in_start[v] + csr.in_size[v]
        nb = np.concatenate([csr.col[s:e], csr.col[s2:e2]])
        eid = np.concatenate([csr.col_eid[s:e], csr.col_eid[s2:e2]])
        ok = valid[eid]
        return nb[ok], eid[ok]

    def assign(eids: np.ndarray, i: int) -> None:
        nonlocal assigned_total
        for eid in eids:
            e = int(eid)
            if not valid[e]:  # may have been assigned from the other side
                continue
            j = i  # spill-over cascades to the next non-full partition
            while j < k - 1 and sizes[j] >= cap:
                j += 1
            valid[e] = False
            pid_of[e] = j
            sizes[j] += 1
            assigned_total += 1
            if j != i:
                replicas[j, el.edges[e, 0]] = True
                replicas[j, el.edges[e, 1]] = True

    for i in range(k - 1):
        if assigned_total >= m:
            break
        in_s[:] = False
        heap: list[tuple[int, int]] = []

        def move_to_secondary(u: int, i: int = i, heap=heap) -> None:
            in_s[u] = True
            replicas[i, u] = True
            nb, eid = valid_adj(u)
            hit = core[nb] | in_s[nb]
            assign(eid[hit], i)
            d_ext[u] = int((~hit).sum())
            heapq.heappush(heap, (int(d_ext[u]), u))
            for w in nb[hit]:
                wi = int(w)
                if in_s[wi] and not core[wi]:
                    d_ext[wi] -= 1
                    heapq.heappush(heap, (int(d_ext[wi]), wi))

        def move_to_core(v: int, i: int = i) -> None:
            core[v] = True
            replicas[i, v] = True
            nb, _ = valid_adj(v)
            for w in nb:
                wi = int(w)
                if not (core[wi] or in_s[wi]):
                    move_to_secondary(wi)

        while sizes[i] < cap and assigned_total < m:
            v = -1
            while heap:
                d, u = heapq.heappop(heap)
                if in_s[u] and not core[u] and d == d_ext[u]:
                    v = u
                    break
            if v < 0:
                # randomized initialization with retry (reference NE);
                # falls back to a scan once probing keeps missing.
                for _ in range(64):
                    seed_probes += 1
                    c = int(rng.integers(0, n))
                    if not core[c] and valid_adj(c)[0].size:
                        v = c
                        break
                if v < 0:
                    cand = np.flatnonzero(~core)
                    for c in cand:
                        if valid_adj(int(c))[0].size:
                            v = int(c)
                            break
                if v < 0:
                    break
            move_to_core(v)

    # last partition: everything still valid
    rest = np.flatnonzero(valid)
    last = k - 1
    for e in rest:
        valid[e] = False
        pid_of[e] = last
        sizes[last] += 1
    replicas[last, el.edges[rest, 0]] = True
    replicas[last, el.edges[rest, 1]] = True

    return PartitionResult(
        assignment=assignment_array(el.edges[:, 0], el.edges[:, 1], pid_of),
        k=k,
        n=n,
        replicas=replicas,
        stats={"seed_probes": seed_probes},
    )
