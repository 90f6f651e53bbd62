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

The loop runs in C (``nepp`` in ``_kernels.c``), as the paper's
single-threaded C++ NE++ does (Appendix A): :func:`partition_nepp`
checks the pruned CSR, allocates every output and working array in
numpy and calls it. :func:`partition_nepp_py` is the same algorithm
as a Python loop, the reference the C loop must match bit for bit:
assignment, replica sets, clean-up and column-read trace.
"""
from __future__ import annotations

import heapq
from dataclasses import replace

import numpy as np

from ..graphs.csr import CSR
from ..graphs.generators import EdgeList
from . import _native
from .common import PartitionResult, check_k

MAX_COL = 2**31  # column entries the C loop's packed heap keys allow
TRACE_SLICE = 4096  # trace rows turned into Python ints at a time


def partition_nepp(el: EdgeList, *, k: int, csr: CSR,
                   out: np.ndarray | None = None) -> PartitionResult:
    """Partition the in-memory edge set of ``el`` into ``k`` parts.

    Returns a :class:`PartitionResult` whose assignment covers only the
    in-memory edges ``E \\ E_h2h``; the external ``E_h2h`` edges stay in
    ``csr.h2h`` for the streaming phase (:mod:`.hep`). ``csr`` is the
    pruned CSR of ``el`` (:func:`~repro.graphs.csr.build_pruned_csr`),
    whose ``high`` mask carries the τ classification; it is consumed
    (mutated by clean-up). With ``out``, a writeable C-contiguous
    ``(rows, 3)`` int64 array of at least |E \\ E_h2h| rows, the
    assignment is written into its first rows and is a view of it.
    ``loads`` holds the partition loads the loop kept.

    A paging ``touch`` hook on ``csr`` is the one way to see the run's
    column reads: the C loop then records them, one call per non-empty
    list read, and they are replayed into ``touch`` in read order after
    the run, :data:`TRACE_SLICE` of them at a time. An exception in the
    hook reaches the caller.

    Besides the counts :func:`partition_nepp_py` reports (clean-up,
    seed probes, ...), ``stats`` holds ``col_reads`` and
    ``col_read_bytes``, the reads and bytes a ``touch`` hook sees, and
    ``phases``, the thread-CPU seconds of expansion, clean-up and the
    last sweep (a ``touch`` hook's time is not in them).
    """
    check_k(k)
    m_inmem = el.m - len(csr.h2h)
    _check_csr(csr, m_inmem)
    if out is not None and not (
            isinstance(out, np.ndarray) and out.dtype == np.int64 and out.ndim == 2
            and out.shape[1] == 3 and len(out) >= m_inmem and out.flags.c_contiguous
            and out.flags.writeable):
        raise ValueError(f"partition_nepp: out must be a writeable C-contiguous (rows, 3) "
                         f"int64 array of at least {m_inmem} rows")
    cap = max(1, -(-m_inmem // k))  # ⌈|E \ E_h2h| / k⌉
    initial_entries = csr.col_entries  # before clean-up shrinks lists
    # a (byte_lo, byte_hi) int64 row per column read; a traced run is
    # sized by an untraced run on copies of the arrays the loop mutates,
    # freed before the real run
    touch = csr.touch
    trace = np.empty((0, 2), dtype=np.int64)
    if touch is not None:
        reads = _run(replace(csr, out_size=csr.out_size.copy(), in_size=csr.in_size.copy(),
                             col=csr.col.copy()), k, cap, m_inmem, trace, out)[3][2]
        trace = np.empty((reads, 2), dtype=np.int64)
    assignment, replicas, sizes, counters, phases = _run(csr, k, cap, m_inmem, trace, out)
    _, cleaned, reads, read_bytes, probes = counters.tolist()
    expansion_s, cleanup_s, sweep_s = phases.tolist()
    for i in range(0, len(trace), TRACE_SLICE):  # one slice alive as Python ints
        part = trace[i:i + TRACE_SLICE]
        for lo, hi in zip(part[:, 0].tolist(), part[:, 1].tolist()):
            touch(lo, hi)
    return PartitionResult(
        assignment=assignment,
        k=k,
        n=csr.n,
        replicas=replicas,
        loads=sizes,
        stats={
            "m_inmem": m_inmem,
            "cap": cap,
            "cleaned_entries": cleaned,
            "initial_col_entries": initial_entries,
            "high_count": int(csr.high.sum()),
            "col_reads": reads,
            "col_read_bytes": read_bytes,
            "seed_probes": probes,
            "phases": {"expansion_s": expansion_s, "cleanup_s": cleanup_s,
                       "sweep_s": sweep_s},
        },
    )


def _run(csr: CSR, k: int, cap: int, m_inmem: int, trace: np.ndarray,
         out: np.ndarray | None = None):
    """One call of the C loop over ``csr``, writing the assignment into
    the first ``m_inmem`` rows of ``out`` (a new array when None) and
    recording its column reads into the ``(reads, 2)`` int64 ``trace``:
    (assignment, replicas, sizes, counters, phases), the assignment a
    view of the rows written. A status other than NEPP_OK is raised."""
    n = csr.n
    if out is None:
        out = np.empty((m_inmem, 3), dtype=np.int64)
    replicas = np.zeros((k, n), dtype=bool)
    sizes = np.zeros(k, dtype=np.int64)
    state = np.empty(n, dtype=np.uint8)  # seeded from csr.high by the loop
    heap, heap_pos, s_list = np.empty((3, n), dtype=np.int64)
    counters = np.zeros(5, dtype=np.int64)
    phases = np.zeros(3)
    status = _native.LIB.nepp(
        n, csr.out_start.ctypes.data, csr.out_size.ctypes.data, csr.in_start.ctypes.data,
        csr.in_size.ctypes.data, csr.col.ctypes.data, csr.high.ctypes.data, k, cap, m_inmem,
        out.ctypes.data, replicas.ctypes.data, sizes.ctypes.data, state.ctypes.data,
        heap.ctypes.data, heap_pos.ctypes.data, s_list.ctypes.data, trace.ctypes.data,
        len(trace), counters.ctypes.data, phases.ctypes.data,
    )
    if status == -2:  # NEPP_TRACE_FULL
        raise RuntimeError(f"partition_nepp: the trace buffer of {len(trace)} reads is full; "
                           f"the traced run read more column lists than its untraced copy")
    if status != 0:  # NEPP_ROWS_FULL
        raise ValueError(f"partition_nepp: csr holds more in-memory edges than "
                         f"el.m - len(csr.h2h) = {m_inmem}")
    return out[:counters[0]], replicas, sizes, counters, phases


def _check_csr(csr: CSR, m_inmem: int) -> None:
    """Refuse a CSR the C loop could not read safely: every array of
    the right dtype, length and layout (the ones it writes writeable),
    every list inside ``col``, every id < n."""
    def require(ok, what: str) -> None:
        if not ok:
            raise ValueError(f"partition_nepp: {what}")

    def array(a, dtype, length: int, writeable: bool) -> bool:
        return (isinstance(a, np.ndarray) and a.dtype == dtype and a.shape == (length,)
                and a.flags.c_contiguous and (a.flags.writeable or not writeable))

    n = csr.n
    require(isinstance(n, (int, np.integer)) and n >= 0, f"csr.n must be an integer >= 0, "
            f"got {n!r}")
    for name, writeable in (("out_start", False), ("out_size", True), ("in_start", False),
                            ("in_size", True)):
        require(array(getattr(csr, name), np.int64, n, writeable),
                f"csr.{name} must be a {'writeable ' * writeable}C-contiguous int64 array "
                f"of length n={n}")
    require(array(csr.high, np.bool_, n, False),
            f"csr.high must be a C-contiguous bool array of length n={n}")
    col = csr.col
    require(isinstance(col, np.ndarray) and col.ndim == 1
            and array(col, np.uint32, len(col), True),
            "csr.col must be a writeable C-contiguous 1-D uint32 array")
    # the C heap packs a vertex's external degree, at most the length of
    # its two lists (each within col), above its 32-bit id
    require(len(col) < MAX_COL, f"csr.col holds {len(col)} entries; the C loop's packed "
            f"heap keys take at most {MAX_COL - 1}")
    require(m_inmem >= 0, "csr.h2h holds more edges than el.m")
    for side in ("out", "in"):
        start, size = getattr(csr, f"{side}_start"), getattr(csr, f"{side}_size")
        require(((start >= 0) & (size >= 0) & (size <= len(col) - start)).all(),
                f"csr.{side}_start + csr.{side}_size must lie within len(csr.col)={len(col)}")
    require(len(col) == 0 or int(col.max()) < n, f"csr.col ids must be < n={n}")


def partition_nepp_py(el: EdgeList, *, k: int, csr: CSR) -> PartitionResult:
    """:func:`partition_nepp` as a Python loop over numpy arrays: the
    reference for the C loop. It reads the CSR through its accessors,
    so a ``touch`` hook sees each read as it happens; ``stats`` lacks
    the C loop's read counts and phase times."""
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
    seed_probes = 0  # cursor positions skipped or taken

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
                    seed_probes += 1
                if seed_ptr >= n:
                    break  # no suitable vertex anywhere: all edges done
                v = seed_ptr
                seed_probes += 1
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
            "seed_probes": seed_probes,
        },
    )
