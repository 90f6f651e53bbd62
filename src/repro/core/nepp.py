"""NE++ — the paper's memory-efficient in-memory partitioner (§3.2).

Differences from the NE baseline (:mod:`repro.core.ne`), per the paper:

* **Pruned CSR** (§3.2.1): adjacency lists of high-degree vertices are
  not stored; high-degree vertices sit *a priori* in every secondary
  set and are never moved to the core ("no expansion via a high-degree
  vertex"), so their lists are never needed.
* **Lazy edge removal** (§3.2.2): edge assignment never mutates the
  column array during expansion; after each partition a clean-up pass
  (Alg. 2) walks only the vertices remaining in S_i and swap-removes
  entries pointing into C ∪ S_i (Theorem 3.1 guarantees core vertices
  are never rescanned, so their stale entries are harmless).
* **Sequential seed search** (§3.2.3): a monotone vertex-id cursor
  replaces NE's randomized retry loop (skipped vertices can never
  become suitable again: the high/core/empty-adjacency conditions are
  permanent).
* **Adapted capacity bound** ``⌈|E \\ E_h2h|/k⌉`` (§3.2.3).
* **Last-partition fast path** (Alg. 3): remaining in-memory edges are
  assigned by a single sweep — out-lists fully, in-lists only for
  high-degree sources (low-low edges are assigned from the src side
  only, avoiding double assignment without any bookkeeping).
* **Spill-over** (Alg. 1, lines 26-28): edges overflowing a full
  partition go to the next partition, whose covered set gains their
  endpoints. So each of the first k−1 partitions closes at exactly the
  cap, or once every in-memory edge is assigned, and the last one gets
  at most m_inmem − (k−1)·cap ≤ cap: every partition stays within it.
"""
from __future__ import annotations

import heapq

import numpy as np

from ..graphs.csr import CSR
from ..graphs.generators import EdgeList
from .common import PartitionResult, check_k


def partition_nepp(el: EdgeList, *, k: int, csr: CSR) -> PartitionResult:
    """Partition the in-memory edge set of ``el`` into ``k`` parts.

    Returns a :class:`PartitionResult` whose assignment covers only the
    in-memory edges ``E \\ E_h2h``; the external ``E_h2h`` edges stay in
    ``csr.h2h`` for the streaming phase (:mod:`.hep`). ``csr`` is the
    pruned CSR of ``el`` (:func:`~repro.graphs.csr.build_pruned_csr`),
    whose ``high`` mask carries the τ classification; it may carry a
    paging ``touch`` hook, and it is consumed (mutated by clean-up).
    """
    check_k(k)
    n = csr.n
    high = csr.high
    m_inmem = el.m - len(csr.h2h)
    cap = max(1, -(-m_inmem // k))  # ⌈|E \ E_h2h| / k⌉
    initial_entries = csr.col_entries  # before clean-up shrinks lists

    core = np.zeros(n, dtype=bool)
    in_s = np.zeros(n, dtype=bool)  # low vertices in the current S_i
    replicas = np.zeros((k, n), dtype=bool)
    d_ext = np.zeros(n, dtype=np.int64)
    sizes = np.zeros(k, dtype=np.int64)
    assignment = np.empty((m_inmem, 3), dtype=np.int64)
    assigned_total = 0  # also the write cursor into ``assignment``
    cleaned_entries = 0
    seed_ptr = 0

    def assign(v: int, w_out: np.ndarray, w_in: np.ndarray, i: int) -> None:
        """Assign the edges between vertex ``v`` and its covered
        neighbors (``w_out`` from v's out-list ⇒ edges (v, w); ``w_in``
        from v's in-list ⇒ edges (w, v)) to partition ``i``, spilling
        onward what does not fit under ``cap`` (Alg. 1 lines 26-28).
        Both endpoints of a run join its partition's covered set: this
        covers high-degree endpoints, whose a-priori S_i membership is
        never materialized, and spilled endpoints."""
        nonlocal assigned_total
        no = len(w_out)
        end = assigned_total + no + len(w_in)
        rows = assignment[assigned_total:end]
        rows[:no, 0] = v
        rows[:no, 1] = w_out
        rows[no:, 0] = w_in
        rows[no:, 1] = v
        j = i
        while assigned_total < end:
            remaining = end - assigned_total
            take = remaining if j >= k - 1 else min(int(cap - sizes[j]), remaining)
            if take <= 0:
                j += 1
                continue
            run = assignment[assigned_total : assigned_total + take]
            run[:, 2] = j
            sizes[j] += take
            replicas[j, run[:, 0]] = True
            replicas[j, run[:, 1]] = True
            assigned_total += take

    def join(u: int) -> None:
        """MoveToSecondary (Alg. 1 lines 16-28) into the current S_i,
        with high-degree vertices counted as members of S_i. Only
        called inside the partition loop, which binds ``i``, ``s_list``
        and ``heap``."""
        in_s[u] = True
        replicas[i, u] = True
        s_list.append(u)
        out_nb = csr.out_neighbors(u)
        in_nb = csr.in_neighbors(u)
        no = len(out_nb)
        nb = np.concatenate([out_nb, in_nb]).astype(np.int64)
        hit = core[nb] | in_s[nb] | high[nb]
        # edges to already-covered neighbors are assigned now; the
        # out-list holds (u, w) edges, the in-list (w, u) edges.
        w_out = nb[:no][hit[:no]]
        w_in = nb[no:][hit[no:]]
        assign(u, w_out, w_in, i)
        d_ext[u] = len(nb) - len(w_out) - len(w_in)
        heapq.heappush(heap, (int(d_ext[u]), u))
        # external degrees of low S_i neighbors shrink by one
        w_all = np.concatenate([w_out, w_in])
        upd = w_all[in_s[w_all] & ~core[w_all]]
        if len(upd):
            np.subtract.at(d_ext, upd, 1)
            for wi in upd.tolist():
                heapq.heappush(heap, (int(d_ext[wi]), wi))

    for i in range(k - 1):
        if assigned_total >= m_inmem:
            break
        in_s[:] = False
        s_list: list[int] = []
        heap: list[tuple[int, int]] = []
        while sizes[i] < cap and assigned_total < m_inmem:
            v = -1
            while heap:
                d, u = heapq.heappop(heap)
                if in_s[u] and not core[u] and d == d_ext[u]:
                    v = u
                    break
            if v < 0:
                # Initialization (§3.2.3): sequential seed search.
                while seed_ptr < n and (
                    high[seed_ptr] or core[seed_ptr] or csr.degree(seed_ptr) == 0
                ):
                    seed_ptr += 1
                if seed_ptr >= n:
                    break  # no suitable vertex anywhere: all edges done
                v = seed_ptr
            # MoveToCore (Alg. 1 lines 12-15). A seed (never in S_i) has
            # its edges to a-priori-secondary high-degree neighbors
            # assigned here, since no join ever scans the high side.
            out_nb = csr.out_neighbors(v)
            in_nb = csr.in_neighbors(v)
            if not in_s[v]:
                assign(v, out_nb[high[out_nb]], in_nb[high[in_nb]], i)
            core[v] = True
            replicas[i, v] = True
            nb = np.concatenate([out_nb, in_nb])
            for w in nb[~(core[nb] | in_s[nb] | high[nb])].tolist():
                join(w)

        # Clean-up (Alg. 2): only vertices still in S_i can be rescanned.
        for u in s_list:
            if core[u]:
                continue
            out_nb = csr.out_neighbors(u)
            in_nb = csr.in_neighbors(u)
            cleaned_entries += csr.remove_neighbors(
                u,
                core[out_nb] | in_s[out_nb] | high[out_nb],
                core[in_nb] | in_s[in_nb] | high[in_nb],
            )

    # Last partition (Alg. 3): sweep low non-core vertices that still
    # hold column entries (the others cannot contribute edges).
    nonempty = (csr.out_size + csr.in_size) > 0
    for v in np.flatnonzero(~high & ~core & nonempty).tolist():
        out_nb = csr.out_neighbors(v)
        in_nb = csr.in_neighbors(v)
        assign(v, out_nb, in_nb[high[in_nb]], k - 1)

    return PartitionResult(
        assignment=assignment[:assigned_total],
        k=k,
        n=n,
        replicas=replicas,
        stats={
            "m_inmem": m_inmem,
            "cap": cap,
            "cleaned_entries": cleaned_entries,
            "initial_col_entries": initial_entries,
            "high_count": int(high.sum()),
        },
    )
