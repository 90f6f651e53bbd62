"""The C NE++ loop, the C CSR fill and the C degree count against their
Python references: NE++ (``partition_nepp`` vs ``partition_nepp_py``)
must agree on the assignment, replica sets, loads, clean-up and
column-read trace; the counting-sort fill must give the numpy fill's
arrays byte for byte; ``EdgeList.degrees`` must equal two bincounts."""
from array import array

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import nepp as nepp_mod
from repro.core.nepp import partition_nepp, partition_nepp_py
from repro.graphs import csr as csr_mod
from repro.graphs.csr import build_csr, build_pruned_csr
from repro.graphs.degrees import high_mask_np
from repro.graphs.generators import EdgeList

from .conftest import TEST_GRAPHS, path_graph, tiny_graph, two_triangles
from .test_csr import random_edgelist

CSR_ARRAYS = ("out_start", "out_size", "in_start", "in_size", "col", "high", "h2h", "col_eid")


def run_traced(fn, el, k, tau):
    """NE++ by ``fn`` on a fresh pruned CSR with a recording touch hook:
    (result, consumed CSR, flattened (lo, hi) trace)."""
    csr = build_pruned_csr(el, tau=tau)
    trace = array("q")
    csr.touch = lambda lo, hi: trace.extend((lo, hi))
    return fn(el, k=k, csr=csr), csr, trace


def assert_native_matches_python(el, k, tau):
    native, native_csr, native_trace = run_traced(partition_nepp, el, k, tau)
    ref, ref_csr, ref_trace = run_traced(partition_nepp_py, el, k, tau)
    a, b = native.assignment, ref.assignment
    assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)
    assert np.array_equal(native.replicas, ref.replicas)
    assert np.array_equal(native.sizes, ref.sizes)
    # the loads the C loop kept, which HEP's streaming phase starts from
    assert native.loads.dtype == np.int64
    assert np.array_equal(native.loads, np.bincount(a[:, 2], minlength=k))
    for key, value in ref.stats.items():  # cleaned_entries, seed_probes, cap, ...
        assert native.stats[key] == value, key
    for name in ("col", "out_size", "in_size"):
        assert np.array_equal(getattr(native_csr, name), getattr(ref_csr, name)), name
    assert native_trace == ref_trace
    # the C loop's own read counts are what the hook saw, with or without a hook
    assert native.stats["col_reads"] == len(native_trace) // 2
    assert native.stats["col_read_bytes"] == sum(native_trace[1::2]) - sum(native_trace[0::2])
    untraced = partition_nepp(el, k=k, csr=build_pruned_csr(el, tau=tau))
    assert np.array_equal(untraced.assignment, a)
    for key in ("col_reads", "col_read_bytes", "cleaned_entries", "seed_probes"):
        assert untraced.stats[key] == native.stats[key], key


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_native_nepp_matches_python(data):
    el = random_edgelist(data.draw)
    k = data.draw(st.integers(min_value=1, max_value=8), label="k")
    tau = data.draw(st.sampled_from([0.0, 0.5, 1.0, 2.0, 100.0]), label="tau")
    assert_native_matches_python(el, k, tau)


@pytest.mark.parametrize("el, k, tau", [
    pytest.param(path_graph(4), 8, 100.0, id="k>m"),
    pytest.param(two_triangles(), 1, 100.0, id="k=1"),
    pytest.param(tiny_graph("OK"), 8, 0.0, id="tau=0"),
    # a 5-cycle: every degree equals the mean, so τ = 0.5 makes every vertex high
    pytest.param(EdgeList(edges=np.array([[i, (i + 1) % 5] for i in range(5)],
                                         dtype=np.uint32), n=5), 4, 0.5, id="all-high"),
])
def test_native_nepp_matches_python_edge_cases(el, k, tau):
    assert_native_matches_python(el, k, tau)


@pytest.mark.parametrize("name", TEST_GRAPHS)
@pytest.mark.parametrize("k, tau", [(8, 100.0), (33, 1.0)])
def test_native_nepp_matches_python_on_corpus(name, k, tau):
    assert_native_matches_python(tiny_graph(name), k, tau)


def test_nepp_stats_report_work_and_phases():
    el = tiny_graph("IT")
    res = partition_nepp(el, k=8, csr=build_pruned_csr(el, tau=10.0))
    s = res.stats
    assert s["col_reads"] > 0 and s["col_read_bytes"] >= 4 * s["col_reads"]
    assert 0 < s["seed_probes"] <= 2 * el.n
    assert set(s["phases"]) == {"expansion_s", "cleanup_s", "sweep_s"}
    assert all(t >= 0.0 for t in s["phases"].values())


def test_touch_hook_failure_propagates():
    """An exception in the touch hook, raised while the recorded reads
    are replayed after the run, reaches the caller."""
    el = tiny_graph("OK")
    csr = build_pruned_csr(el, tau=100.0)

    def touch(lo, hi):
        raise RuntimeError("page fault handler failed")

    csr.touch = touch
    with pytest.raises(RuntimeError, match="page fault handler failed"):
        partition_nepp(el, k=4, csr=csr)


def test_trace_buffer_one_pair_short_stops_the_run():
    """Given a trace buffer one pair shorter than the run's reads, the C
    loop stops with NEPP_TRACE_FULL, which partition_nepp raises as a
    full trace buffer, and writes nothing past the buffer."""
    el = tiny_graph("OK")
    csr = build_pruned_csr(el, tau=100.0)
    k, m_inmem = 4, el.m - len(csr.h2h)
    reads = partition_nepp(el, k=k, csr=build_pruned_csr(el, tau=100.0)).stats["col_reads"]
    buf = np.full((reads + 3, 2), -7, dtype=np.int64)  # rows from reads - 1 on are canaries
    with pytest.raises(RuntimeError, match=f"^partition_nepp: the trace buffer of "
                                           f"{reads - 1} reads is full"):
        nepp_mod._run(csr, k, -(-m_inmem // k), m_inmem, buf[:reads - 1])
    assert (buf[:reads - 1] >= 0).all()
    assert (buf[reads - 1:] == -7).all()


def test_col_too_long_for_heap_keys_rejected(monkeypatch):
    """A col of MAX_COL (2**31) entries or more is refused before the C
    loop, whose packed heap keys hold a vertex's list length in 32 bits.
    A real one would take an 8 GiB array, so the limit is lowered to
    this CSR's length; one entry fewer passes."""
    el = tiny_graph("OK")
    csr = build_pruned_csr(el, tau=100.0)
    monkeypatch.setattr(nepp_mod, "MAX_COL", len(csr.col))
    with pytest.raises(ValueError, match=f"^partition_nepp: csr.col holds {len(csr.col)} "
                                         f"entries; the C loop's packed heap keys take at "
                                         f"most {len(csr.col) - 1}$"):
        partition_nepp(el, k=4, csr=csr)
    monkeypatch.setattr(nepp_mod, "MAX_COL", len(csr.col) + 1)
    partition_nepp(el, k=4, csr=csr)


def test_nepp_writes_into_out():
    """With ``out``, the assignment is written into its first rows and
    the result is a view of them; the rows past it are untouched."""
    el = tiny_graph("OK")
    ref = partition_nepp(el, k=8, csr=build_pruned_csr(el, tau=1.0))
    buf = np.full((el.m + 2, 3), -7, dtype=np.int64)
    res = partition_nepp(el, k=8, csr=build_pruned_csr(el, tau=1.0), out=buf)
    assert np.shares_memory(res.assignment, buf)
    assert np.array_equal(res.assignment, ref.assignment)
    assert np.array_equal(buf[:len(ref.assignment)], ref.assignment)
    assert (buf[len(ref.assignment):] == -7).all()


@pytest.mark.parametrize("fault", ["int32", "too few rows", "2 columns", "not C-contiguous",
                                   "read-only"])
def test_bad_out_rejected(fault):
    el = tiny_graph("OK")
    csr = build_pruned_csr(el, tau=1.0)
    rows = el.m - len(csr.h2h)
    out = {
        "int32": lambda: np.empty((rows, 3), dtype=np.int32),
        "too few rows": lambda: np.empty((rows - 1, 3), dtype=np.int64),
        "2 columns": lambda: np.empty((rows, 2), dtype=np.int64),
        "not C-contiguous": lambda: np.empty((3, rows), dtype=np.int64).T,
        "read-only": lambda: np.lib.stride_tricks.as_strided(np.empty((rows, 3), np.int64),
                                                             writeable=False),
    }[fault]()
    with pytest.raises(ValueError, match=f"^partition_nepp: out must be .* at least {rows} rows"):
        partition_nepp(el, k=8, csr=csr, out=out)


def _bad_csr(fault):
    el = tiny_graph("OK")
    csr = build_pruned_csr(el, tau=100.0)
    n, ncol = csr.n, len(csr.col)
    v = int(np.flatnonzero(csr.out_size)[0])
    if fault == "col id >= n":
        csr.col[ncol // 2] = n
    elif fault == "out list past col":
        csr.out_size[v] = ncol - csr.out_start[v] + 1
    elif fault == "in list past col":
        csr.in_start[v] = ncol
    elif fault == "negative start":
        csr.out_start[v] = -1
    elif fault == "col not uint32":
        csr.col = csr.col.astype(np.int64)
    elif fault == "sizes not int64":
        csr.in_size = csr.in_size.astype(np.int32)
    elif fault == "high of wrong length":
        csr.high = np.zeros(n + 1, dtype=bool)
    elif fault == "start not C-contiguous":
        csr.out_start = np.repeat(csr.out_start, 2)[::2]
    elif fault == "sizes read-only":
        csr.out_size.flags.writeable = False
    elif fault == "h2h larger than el":
        csr.h2h = np.zeros((el.m + 1, 2), dtype=np.uint32)
    return el, csr


@pytest.mark.parametrize("fault", [
    "col id >= n", "out list past col", "in list past col", "negative start", "col not uint32",
    "sizes not int64", "high of wrong length", "start not C-contiguous", "sizes read-only",
    "h2h larger than el",
])
def test_malformed_csr_rejected_before_c(fault):
    """Each fault is refused with a ValueError before the C loop reads a
    byte: the touch hook never fires."""
    el, csr = _bad_csr(fault)
    reads = []
    csr.touch = lambda lo, hi: reads.append((lo, hi))
    with pytest.raises(ValueError, match="^partition_nepp: "):
        partition_nepp(el, k=4, csr=csr)
    assert reads == []


def assert_same_csr(a, b):
    for name in CSR_ARRAYS:
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None) == (y is None), name
        if x is not None:
            assert x.dtype == y.dtype and x.shape == y.shape, name
            assert x.tobytes() == y.tobytes(), name
    assert a.n == b.n


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_native_fill_matches_numpy(data):
    """build_csr (with col_eid) and build_pruned_csr, filled by the C
    counting sort, are byte-identical to the numpy argsort fill."""
    el = random_edgelist(data.draw)
    tau = data.draw(st.sampled_from([0.0, 0.5, 1.0, 2.0, 100.0]), label="tau")
    assert_same_csr(build_csr(el),
                    csr_mod._fill_lists_np(el, high=np.zeros(el.n, dtype=bool), eid=True))
    assert_same_csr(build_pruned_csr(el, tau=tau),
                    csr_mod._fill_lists_np(el, high=high_mask_np(el.degrees(), tau), eid=False))


def test_fill_refuses_id_out_of_range():
    """An edge array changed after its EdgeList was checked is still
    refused by the C fill, not written out of bounds."""
    el = path_graph(4)
    el.edges[1, 1] = 4
    with pytest.raises(ValueError, match="edge ids must be < n=4"):
        build_csr(el)


@st.composite
def sparse_edgelist(draw) -> EdgeList:
    """An edge list over ``n`` ids, some of them isolated (unused ids,
    ids past the largest one used), possibly with no edges at all."""
    n = draw(st.integers(min_value=0, max_value=40), label="n")
    ids = st.integers(min_value=0, max_value=max(0, n - 1))
    pairs = draw(st.lists(st.tuples(ids, ids), max_size=80), label="pairs") if n else []
    seen, edges = set(), []
    for u, v in pairs:
        if u != v and (min(u, v), max(u, v)) not in seen:
            seen.add((min(u, v), max(u, v)))
            edges.append((u, v))
    return EdgeList(edges=np.array(edges, dtype=np.uint32).reshape(-1, 2), n=n)


@settings(max_examples=150, deadline=None)
@given(sparse_edgelist())
@example(EdgeList(edges=np.empty((0, 2), dtype=np.uint32), n=0))
@example(EdgeList(edges=np.empty((0, 2), dtype=np.uint32), n=5))
@example(EdgeList(edges=np.array([[0, 2]], dtype=np.uint32), n=6))  # ids 1, 3, 4, 5 isolated
def test_native_degrees_match_bincounts(el):
    """The C one-pass degree count equals the two-bincount formula,
    dtype and length included."""
    want = (np.bincount(el.edges[:, 0], minlength=el.n)
            + np.bincount(el.edges[:, 1], minlength=el.n))
    got = el.degrees()
    assert got.dtype == np.int64 and got.shape == (el.n,)
    assert np.array_equal(got, want)


def test_degrees_refuse_id_out_of_range():
    """An edge array changed after its EdgeList was checked is refused
    by the C count, not written out of bounds."""
    el = path_graph(4)
    el.edges[1, 1] = 4
    with pytest.raises(ValueError, match="edge ids must be < n=4"):
        el.degrees()
