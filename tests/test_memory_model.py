"""§4.2 memory model + paging simulator unit tests."""
import tracemalloc

import numpy as np
import pytest

from repro.core.hep import partition_hep
from repro.core.nepp import TRACE_SLICE, partition_nepp
from repro.core.memory_model import (
    hep_fixed_bytes,
    hep_footprint_bytes,
    ne_footprint_bytes,
    streaming_footprint_bytes,
)
from repro.graphs.csr import ID_BYTES, build_pruned_csr
from repro.paging.page_cache import PAGE_SIZE, LruPageCache, run_nepp_paged

from .conftest import TEST_GRAPHS, tiny_graph


@pytest.mark.parametrize("name", TEST_GRAPHS)
def test_hep_footprint_monotone_in_tau(name):
    deg = tiny_graph(name).degrees().astype(np.int64)
    sizes = [hep_footprint_bytes(deg, tau=t, k=32) for t in (0.5, 1.0, 10.0, 100.0)]
    assert sizes == sorted(sizes)


@pytest.mark.parametrize("name", TEST_GRAPHS)
def test_hep_footprint_below_ne(name):
    """HEP's model must undercut NE's at any τ (the paper's memory
    axis: in-memory partitioners use up to an order of magnitude more)."""
    deg = tiny_graph(name).degrees().astype(np.int64)
    k = 32
    assert hep_footprint_bytes(deg, tau=1.0, k=k) < ne_footprint_bytes(deg, k=k)


def test_footprint_formula_terms():
    """Hand-checked formula on a known degree vector, τ high (no
    pruning): Σd(v)·4 + 6·n·4 + ceil(n·(k+1)/8)."""
    deg = np.array([2, 2, 4, 4], dtype=np.int64)
    k = 7
    want = 12 * ID_BYTES + 6 * 4 * ID_BYTES + int(np.ceil(4 * 8 / 8))
    assert hep_footprint_bytes(deg, tau=100.0, k=k) == want
    # the τ-independent terms, with the bitset bytes rounded up
    assert hep_fixed_bytes(4, k=k) == 6 * 4 * ID_BYTES + 4
    assert hep_fixed_bytes(3, k=2) == 6 * 3 * ID_BYTES + 2


def test_footprint_column_term_matches_pruned_csr():
    """The Σ_{v∈V_l} d(v) term equals the pruned column array size."""
    el = tiny_graph("OK")
    deg = el.degrees().astype(np.int64)
    tau, k = 1.0, 8
    csr = build_pruned_csr(el, tau=tau)
    col_bytes = csr.col_entries * ID_BYTES
    fixed = 6 * el.n * ID_BYTES + int(np.ceil(el.n * (k + 1) / 8))
    assert hep_footprint_bytes(deg, tau=tau, k=k) == col_bytes + fixed


@pytest.mark.parametrize("tau", [100.0, 10.0, 1.0])
def test_hep_traced_peak_within_model(tau):
    """Measured memory stays within a stated factor of the §4.2 model:
    partition_hep's tracemalloc peak is at most 1.5·(model + the 24·|E|
    bytes of the int64 (src, dst, pid) assignment, which NE++ and the
    streaming phase share)."""
    el = tiny_graph("OK", scale=0.1)
    k = 32
    tracemalloc.start()
    try:
        partition_hep(el, k=k, tau=tau)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = 1.5 * (hep_footprint_bytes(el.degrees(), tau=tau, k=k) + 24 * el.m)
    assert peak <= bound, f"traced peak {peak} B is {peak / bound:.2f}× the bound {bound} B"


def _nepp_peak(el, *, traced: bool) -> tuple[int, dict, int]:
    """(tracemalloc peak, stats, bytes of the arrays a traced run's
    sizing run copies) of one ``partition_nepp`` on a fresh CSR, with a
    no-op ``touch`` hook when ``traced``."""
    csr = build_pruned_csr(el, tau=100.0)
    if traced:
        csr.touch = lambda lo, hi: None
    copies = csr.col.nbytes + csr.out_size.nbytes + csr.in_size.nbytes
    tracemalloc.start()
    try:
        res = partition_nepp(el, k=32, csr=csr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, res.stats, copies


def test_nepp_touch_replay_peak_bounded():
    """A ``touch`` hook costs at most the (reads, 2) int64 trace, the
    sizing run's copies of ``col``, ``out_size`` and ``in_size``, and one
    replay slice: two lists of TRACE_SLICE ints (8-byte pointers to int
    objects of at most 32 bytes). Turning the whole trace into lists at
    once cost about 4.5 times the trace."""
    el = tiny_graph("OK", scale=0.1)
    untraced, stats, _ = _nepp_peak(el, traced=False)
    traced, _, copies = _nepp_peak(el, traced=True)
    assert stats["col_reads"] > 4 * TRACE_SLICE  # the replay takes several slices
    bound = untraced + 16 * stats["col_reads"] + copies + TRACE_SLICE * 2 * (8 + 32)
    assert traced <= bound, f"traced peak {traced} B exceeds {bound} B"


def test_streaming_footprint_smallest():
    el = tiny_graph("OK")
    deg = el.degrees().astype(np.int64)
    k = 32
    assert streaming_footprint_bytes(el.n, k=k) < hep_footprint_bytes(deg, tau=1.0, k=k)


# --- LRU page cache ----------------------------------------------------

def test_lru_no_faults_when_fits():
    c = LruPageCache(10 * PAGE_SIZE)
    for _ in range(3):
        for p in range(5):
            c.touch(p * PAGE_SIZE, (p + 1) * PAGE_SIZE)
    assert c.hard_faults == 0
    assert c.compulsory == 5


def test_lru_faults_on_eviction_cycle():
    c = LruPageCache(2 * PAGE_SIZE)
    for _ in range(2):
        for p in range(4):  # cyclic over 4 pages with room for 2
            c.touch(p * PAGE_SIZE, (p + 1) * PAGE_SIZE)
    assert c.compulsory == 4
    assert c.hard_faults == 4  # every revisit misses under LRU + cyclic


def test_lru_range_spanning_pages():
    c = LruPageCache(10 * PAGE_SIZE)
    c.touch(0, 3 * PAGE_SIZE)  # touches pages 0,1,2
    assert c.compulsory == 3


def test_paged_nepp_fault_monotonicity():
    """Table 6 shape: tighter memory ⇒ (weakly) more hard faults."""
    el = tiny_graph("OK")
    deg = el.degrees().astype(np.int64)
    full = hep_footprint_bytes(deg, tau=100.0, k=8)
    runs = run_nepp_paged(el, k=8, tau=100.0, limits=[int(full * f) for f in (1.0, 0.5, 0.25)])
    faults = [r.hard_faults for r in runs]
    assert faults[0] <= faults[1] <= faults[2]


def test_paged_nepp_zero_faults_with_slack():
    el = tiny_graph("LJ")
    deg = el.degrees().astype(np.int64)
    full = hep_footprint_bytes(deg, tau=100.0, k=8)
    (r,) = run_nepp_paged(el, k=8, tau=100.0, limits=[full * 4])
    assert r.hard_faults == 0
    assert r.modeled_runtime_s == pytest.approx(r.compute_s)
    # Table 6's cache capacity is the limit minus the §4.2 fixed terms;
    # these counts pin it (a shifted capacity changes the fault count).
    runs = run_nepp_paged(el, k=8, tau=100.0, limits=[int(full * f) for f in (1.0, 0.5)])
    faults = [r.hard_faults for r in runs]
    assert faults == [0, 748]
