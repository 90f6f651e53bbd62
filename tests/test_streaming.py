"""Streaming partitioner unit tests (HDRF / Greedy / random, §3.3)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hep import partition_hep, partition_streaming
from repro.core.streaming import ALPHA, stream_edges, stream_edges_py

from .conftest import TEST_GRAPHS, star_graph, tiny_graph

METHODS = ("hdrf", "greedy", "random")


def _empty_state(n: int, k: int):
    """(replicas, sizes) of a stream that has seen no edge."""
    return np.zeros((k, n), dtype=bool), np.zeros(k, dtype=np.int64)


def test_hdrf_beats_random_quality():
    el = tiny_graph("OK")
    rf_h = partition_streaming(el, k=16, method="hdrf").replication_factor()
    rf_r = partition_streaming(el, k=16, method="random").replication_factor()
    assert rf_h < rf_r


def test_greedy_beats_random_quality():
    el = tiny_graph("OK")
    rf_g = partition_streaming(el, k=16, method="greedy").replication_factor()
    rf_r = partition_streaming(el, k=16, method="random").replication_factor()
    assert rf_g < rf_r


def test_hdrf_respects_capacity():
    el = tiny_graph("TW")
    res = partition_streaming(el, k=8, method="hdrf")
    assert res.sizes.max() <= np.ceil(ALPHA * el.m / 8)


def test_hdrf_deterministic():
    el = tiny_graph("LJ")
    a = partition_streaming(el, k=8, method="hdrf")
    b = partition_streaming(el, k=8, method="hdrf")
    assert np.array_equal(a.assignment, b.assignment)


def test_unknown_method_raises():
    el = star_graph(3)
    with pytest.raises(ValueError):
        partition_streaming(el, k=2, method="nope")


def test_replicas_match_assignment_coverage():
    """For pure streaming the replica sets equal the covered sets."""
    el = tiny_graph("WI")
    res = partition_streaming(el, k=8, method="hdrf")
    assert np.array_equal(res.replicas, res.covered())


def test_warm_start_attracts_edges():
    """An edge whose endpoints are already replicated on partition 0
    must be assigned there by HDRF when loads are level."""
    replicas, sizes = _empty_state(n=4, k=3)
    replicas[0, 1] = True
    replicas[0, 2] = True
    degrees = np.array([1, 2, 2, 1])
    pids = stream_edges(
        np.array([[1, 2]]), replicas=replicas, sizes=sizes, degrees=degrees, cap=10,
        method="hdrf",
    )
    assert pids[0] == 0


def test_hdrf_balance_term_spreads_load():
    """With no replication signal, HDRF must spread edges (balance term
    dominates): a stream of disjoint edges lands on distinct partitions."""
    replicas, sizes = _empty_state(n=8, k=4)
    edges = np.array([[0, 1], [2, 3], [4, 5], [6, 7]])
    degrees = np.ones(8, dtype=np.int64)
    pids = stream_edges(
        edges, replicas=replicas, sizes=sizes, degrees=degrees, cap=10, method="hdrf"
    )
    assert len(set(pids.tolist())) == 4


@pytest.mark.parametrize("method", ["hdrf", "greedy", "random"])
def test_tight_cap_places_every_edge(method):
    """At the tightest cap that fits the stream (α=1: k·cap = |E| + 2
    for a 10-edge star on 3 partitions, cap 4), every edge is placed and
    no partition exceeds the cap."""
    el = star_graph(10)
    replicas, sizes = _empty_state(el.n, 3)
    pids = stream_edges(el.edges, replicas=replicas, sizes=sizes, degrees=el.degrees(),
                        cap=4, method=method)
    assert len(pids) == el.m
    assert sizes.sum() == el.m and sizes.max() <= 4


def test_cap_without_room_raises():
    """A cap that cannot hold the stream is refused before any edge is
    placed, instead of overrunning a partition."""
    el = star_graph(10)
    replicas, sizes = _empty_state(el.n, 3)
    with pytest.raises(ValueError, match="no room"):
        stream_edges(el.edges, replicas=replicas, sizes=sizes, degrees=el.degrees(), cap=3)
    assert sizes.sum() == 0


def test_stream_state_shared_mutation():
    """The replica sets and loads passed in are the stream's state."""
    replicas, sizes = _empty_state(n=4, k=2)
    stream_edges(
        np.array([[0, 1]]), replicas=replicas, sizes=sizes, degrees=np.ones(4, dtype=np.int64),
        cap=5,
        method="hdrf",
    )
    assert sizes.sum() == 1
    assert replicas.any()


@pytest.mark.parametrize("k", [4, 32])
@pytest.mark.parametrize("name", TEST_GRAPHS)
def test_hdrf_baseline_is_hep_at_tau_zero(name, k):
    """At τ=0 every vertex with an edge is high-degree, so HEP streams
    every edge from an empty state: the stand-alone HDRF baseline."""
    el = tiny_graph(name)
    hep = partition_hep(el, k=k, tau=0.0)
    assert hep.stats["n_h2h"] == el.m
    assert np.array_equal(hep.assignment, partition_streaming(el, k=k, method="hdrf").assignment)


def _assert_native_matches_python(edges, replicas, sizes, degrees, cap, method):
    """The C kernel and the Python loop give the same pids and leave the
    same replica sets and loads when run from copies of one state."""
    state = {}
    for name, fn in (("native", stream_edges), ("python", stream_edges_py)):
        r, s = replicas.copy(), sizes.copy()
        pids = fn(edges, replicas=r, sizes=s, degrees=degrees, cap=cap, method=method)
        state[name] = (pids, r, s)
    for a, b in zip(state["native"], state["python"]):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("method", ["hdrf", "greedy"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_native_matches_python_oracle(method, data):
    """From a random warm state — replicas, loads (sometimes all equal,
    where ties decide) and a cap that leaves room, down to the tight
    α = 1 cap — the C kernel matches the Python loop. Up to 70
    partitions and a few hundred edges, so the max and min loads move
    many times and partitions close mid-stream, each of which makes the
    C loop recompute its cached balance terms."""
    n = data.draw(st.integers(1, 40), label="n")
    k = data.draw(st.integers(1, 70), label="k")
    m = data.draw(st.integers(0, 400), label="m")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    edges = rng.integers(0, n, size=(m, 2)).astype(np.uint32)
    replicas = rng.random((k, n)) < data.draw(st.sampled_from([0.0, 0.2, 0.6]), label="density")
    if data.draw(st.booleans(), label="level loads"):
        sizes = np.full(k, data.draw(st.integers(0, 5), label="load"), dtype=np.int64)
    else:
        sizes = rng.integers(0, data.draw(st.sampled_from([2, 12, 40]), label="spread"),
                            size=k).astype(np.int64)
    degrees = rng.integers(0, 10, size=n)
    tight = -(-(int(sizes.sum()) + m) // k)  # ⌈(Σ loads + m) / k⌉
    cap = tight + data.draw(st.sampled_from([0, 1, 5]), label="slack")
    _assert_native_matches_python(edges, replicas, sizes, degrees, cap, method)


def _pinned_stream(case: str):
    """(edges, replicas, sizes, degrees, cap) of a hand-set stream."""
    rng = np.random.default_rng(3)
    n = 12
    degrees = rng.integers(1, 10, size=n)
    if case == "min-load partition reaches the cap":
        # the loads climb to the cap from the least-loaded partition up:
        # partition 1 leaves the min, then partition 1 and 2 close at it
        k, sizes, cap, m = 3, [5, 3, 4], 5, 3
    elif case == "level loads":
        k, sizes, cap, m = 5, [7] * 5, 7 + 60, 300
    else:  # "k = 1": every edge moves the max and the min
        k, sizes, cap, m = 1, [4], 4 + 200, 200
    edges = rng.integers(0, n, size=(m, 2)).astype(np.uint32)
    replicas = rng.random((k, n)) < 0.3
    return edges, replicas, np.array(sizes, dtype=np.int64), degrees, cap


@pytest.mark.parametrize("method", ["hdrf", "greedy"])
@pytest.mark.parametrize("case", ["min-load partition reaches the cap", "level loads", "k = 1"])
def test_native_matches_python_pinned(case, method):
    """The C kernel matches the Python loop on the streams where the
    cached HDRF balance terms are recomputed most: the partition at the
    min load filling up to the cap, all loads level at the start, and a
    single partition."""
    edges, replicas, sizes, degrees, cap = _pinned_stream(case)
    _assert_native_matches_python(edges, replicas, sizes, degrees, cap, method)
    if case == "min-load partition reaches the cap":
        s = sizes.copy()
        stream_edges(edges, replicas=replicas.copy(), sizes=s, degrees=degrees, cap=cap,
                     method=method)
        assert s.tolist() == [5, 5, 5]


def test_edge_id_out_of_range_raises():
    """An id ≥ n would be an out-of-bounds write in the C kernel; every
    method, random included, refuses it before any edge is placed."""
    for method in METHODS:
        replicas, sizes = _empty_state(n=4, k=2)
        with pytest.raises(ValueError, match="edge ids"):
            stream_edges(np.array([[0, 4]]), replicas=replicas, sizes=sizes,
                         degrees=np.ones(4, dtype=np.int64), cap=5, method=method)
        assert sizes.sum() == 0 and not replicas.any(), method


@pytest.mark.parametrize("bad", [
    "negative id", "edges not (m, 2)", "replicas not bool", "replicas not C-contiguous",
    "sizes not int64", "sizes of wrong length", "degrees of wrong length", "degrees not integer",
])
def test_malformed_stream_state_raises(bad):
    """Every array the C kernel reads or writes is checked for shape,
    dtype and layout first, for every method, the Python-only random
    one included; state is never copied to make it fit."""
    n, k = 4, 2
    args = dict(edges=np.array([[0, 1]]), replicas=np.zeros((k, n), dtype=bool),
                sizes=np.zeros(k, dtype=np.int64), degrees=np.ones(n, dtype=np.int64))
    args.update({
        "negative id": dict(edges=np.array([[-1, 1]])),
        "edges not (m, 2)": dict(edges=np.array([[0, 1, 2]])),
        "replicas not bool": dict(replicas=np.zeros((k, n), dtype=np.uint8)),
        "replicas not C-contiguous": dict(replicas=np.zeros((k, n), dtype=bool, order="F")),
        "sizes not int64": dict(sizes=np.zeros(k, dtype=np.int32)),
        "sizes of wrong length": dict(sizes=np.zeros(k + 1, dtype=np.int64)),
        "degrees of wrong length": dict(degrees=np.ones(n + 1, dtype=np.int64)),
        "degrees not integer": dict(degrees=np.ones(n)),
    }[bad])
    for method in METHODS:
        with pytest.raises(ValueError, match="stream_edges"):
            stream_edges(**args, cap=5, method=method)
