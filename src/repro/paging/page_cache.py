"""LRU page-cache simulation of NE++ under memory limits (Table 6).

The paper restricts NE++'s memory with cgroups and an SSD swap device,
then counts hard page faults. The sandbox has neither cgroup delegation
nor swap (DESIGN.md substitution 3), so we reproduce the *measured
quantity* directly: NE++ reports every column-array read to the
pruned CSR's ``touch`` hook as the byte range ``[byte_lo, byte_hi)``,
and this module replays those reads as touches against an LRU cache
of 4 KiB pages sized to the memory limit minus HEP's fixed structures
(§4.2). A miss on a never-seen page is a
compulsory load (the initial file read — not a fault); a miss on a
previously-resident page is a **hard page fault**. Run-time is modeled
as measured compute time + faults × SSD latency.

NE++ never reads the cache, so its touches do not depend on the memory
limit: one NE++ run hands each read to a fresh cache per limit; a second
NE++ run, with no hook, is timed from its CSR build on, as HEP times its
in-memory phase.
"""
from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

PAGE_SIZE = 4096
SSD_FAULT_SECONDS = 100e-6  # ~100 µs per 4 KiB hard fault from SSD swap


class LruPageCache:
    """LRU page cache over byte-range touches."""

    def __init__(self, capacity_bytes: int):
        self.capacity_pages = max(1, -(-capacity_bytes // PAGE_SIZE))
        self._lru: OrderedDict[int, None] = OrderedDict()
        self._seen: set[int] = set()
        self.compulsory = 0
        self.hard_faults = 0

    def touch(self, byte_lo: int, byte_hi: int) -> None:
        """Access the half-open byte range [byte_lo, byte_hi)."""
        lru = self._lru
        for page in range(byte_lo // PAGE_SIZE, (byte_hi - 1) // PAGE_SIZE + 1):
            if page in lru:
                lru.move_to_end(page)
                continue
            if page in self._seen:
                self.hard_faults += 1
            else:
                self._seen.add(page)
                self.compulsory += 1
            lru[page] = None
            if len(lru) > self.capacity_pages:
                lru.popitem(last=False)


@dataclass
class PagingRun:
    """One row of the Table 6 reproduction."""

    limit_bytes: int
    hard_faults: int
    compute_s: float
    modeled_runtime_s: float


def run_nepp_paged(el, *, k: int, tau: float, limits) -> list[PagingRun]:
    """Run NE++ once with an LRU cache of each limit in ``limits``, minus
    the fixed §4.2 structures, on its CSR's ``touch`` hook, and once
    timed with no hook; one :class:`PagingRun` per limit, in order."""
    import time

    from ..core.memory_model import hep_fixed_bytes
    from ..core.nepp import partition_nepp
    from ..graphs.csr import build_pruned_csr

    fixed = hep_fixed_bytes(el.n, k=k)
    # only the column array pages; the §4.2 fixed structures are pinned
    caches = [(limit, LruPageCache(max(PAGE_SIZE, limit - fixed))) for limit in limits]

    def touch(lo: int, hi: int) -> None:  # every cache sees every read, in order
        for _, cache in caches:
            cache.touch(lo, hi)

    csr = build_pruned_csr(el, tau=tau)
    csr.touch = touch
    partition_nepp(el, k=k, csr=csr)
    del csr  # consumed by clean-up: the timed run builds its own
    t0 = time.perf_counter()
    partition_nepp(el, k=k, csr=build_pruned_csr(el, tau=tau))
    compute = time.perf_counter() - t0
    return [
        PagingRun(
            limit_bytes=limit,
            hard_faults=cache.hard_faults,
            compute_s=compute,
            modeled_runtime_s=compute + cache.hard_faults * SSD_FAULT_SECONDS,
        )
        for limit, cache in caches
    ]
