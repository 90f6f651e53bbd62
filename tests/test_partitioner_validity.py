"""Validity matrix: every partitioner must produce a *valid* edge
partitioning (each edge exactly once, pids in range, balance bound)
on every analog graph for every k — the paper's §2 problem definition.
"""
import numpy as np
import pytest

from repro.core import hep as hep_mod
from repro.core.common import check_valid
from repro.core.hashing import dbh_np
from repro.core.hep import partition_hep, partition_simple_hybrid, partition_streaming
from repro.core.ne import partition_ne
from repro.core.nepp import partition_nepp
from repro.core.sne import partition_sne
from repro.graphs.csr import build_pruned_csr
from repro.graphs.generators import EdgeList

from .conftest import TEST_GRAPHS, path_graph, star_graph, tiny_graph, two_triangles

KS = (4, 8, 32)


PARTITIONERS = {
    "hep-100": lambda el, k: partition_hep(el, k=k, tau=100.0),
    "hep-10": lambda el, k: partition_hep(el, k=k, tau=10.0),
    "hep-1": lambda el, k: partition_hep(el, k=k, tau=1.0),
    "ne": lambda el, k: partition_ne(el, k=k),
    "sne": lambda el, k: partition_sne(el, k=k),
    "hdrf": lambda el, k: partition_streaming(el, k=k, method="hdrf"),
    "greedy": lambda el, k: partition_streaming(el, k=k, method="greedy"),
    "random": lambda el, k: partition_streaming(el, k=k, method="random"),
    "simple-hybrid-1": lambda el, k: partition_simple_hybrid(el, k=k, tau=1.0),
}

# DBH is stateless hashing: valid but unbalanced by design, so it is
# checked without the α bound.
UNBALANCED = {"dbh": lambda el, k: dbh_np(el, k=k)}


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("name", TEST_GRAPHS)
@pytest.mark.parametrize("pname", sorted(PARTITIONERS))
def test_valid_partitioning(pname, name, k):
    el = tiny_graph(name)
    res = PARTITIONERS[pname](el, k)
    check_valid(el, res, alpha=1.10)


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("name", TEST_GRAPHS)
def test_dbh_valid(name, k):
    el = tiny_graph(name)
    check_valid(el, UNBALANCED["dbh"](el, k))


@pytest.mark.parametrize("pname", sorted(PARTITIONERS))
def test_valid_on_star(pname):
    el = star_graph(12)
    res = PARTITIONERS[pname](el, 2)
    check_valid(el, res, alpha=1.5)


@pytest.mark.parametrize("pname", sorted(PARTITIONERS))
def test_valid_on_path(pname):
    el = path_graph(25)
    res = PARTITIONERS[pname](el, 4)
    check_valid(el, res, alpha=1.5)


@pytest.mark.parametrize("pname", sorted(PARTITIONERS))
def test_valid_on_disconnected(pname):
    """Disconnected components force re-initialization (§3.2.3 case 2)."""
    el = two_triangles()
    res = PARTITIONERS[pname](el, 2)
    check_valid(el, res, alpha=1.5)


def empty_graph() -> EdgeList:
    """Three vertices and no edge."""
    return EdgeList(edges=np.empty((0, 2), dtype=np.uint32), n=3)


@pytest.mark.parametrize("k", (1, 4))
@pytest.mark.parametrize("pname", sorted(PARTITIONERS) + ["dbh"])
def test_valid_on_empty_graph(pname, k):
    el = empty_graph()
    res = PARTITIONERS.get(pname, UNBALANCED.get(pname))(el, k)
    assert res.assignment.shape == (0, 3)
    check_valid(el, res, alpha=1.0)


@pytest.mark.parametrize("metric", ["replication_factor", "edge_balance", "vertex_balance"])
def test_metrics_refuse_empty_result(metric):
    res = partition_hep(empty_graph(), k=4, tau=1.0)
    with pytest.raises(ValueError, match="has no edges"):
        getattr(res, metric)()


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("tau", [100.0, 10.0, 1.0, 0.5])
def test_nepp_plus_h2h_cover_everything(tau, k):
    """NE++'s assignment plus its external h2h edges cover the graph."""
    el = tiny_graph("OK")
    csr = build_pruned_csr(el, tau=tau)
    res = partition_nepp(el, k=k, csr=csr)
    assert res.assignment.shape[0] + len(csr.h2h) == el.m


@pytest.mark.parametrize("tau", [100.0, 1.0, 0.0])
def test_hep_counts_degrees_once(tau, monkeypatch):
    """HEP computes the vertex degrees once: the pruned CSR keeps the
    array its split was made by, and the streaming phase weighs
    endpoints by that same array."""
    el = tiny_graph("OK")
    calls = []
    degrees = EdgeList.degrees
    monkeypatch.setattr(EdgeList, "degrees", lambda self: calls.append(1) or degrees(self))
    partition_hep(el, k=8, tau=tau)
    assert len(calls) == 1


@pytest.mark.parametrize("tau", [100.0, 1.0])
def test_hep_writes_one_assignment(tau, monkeypatch):
    """NE++ writes its rows into the array HEP returns, and the
    streaming phase starts from the loads NE++ kept."""
    el = tiny_graph("OK")
    seen = []
    nepp = hep_mod.partition_nepp
    monkeypatch.setattr(hep_mod, "partition_nepp",
                        lambda *a, **kw: seen.append(nepp(*a, **kw)) or seen[-1])
    res = partition_hep(el, k=8, tau=tau)
    inmem = seen[0]
    assert np.shares_memory(res.assignment, inmem.assignment)
    assert np.array_equal(res.assignment[:len(inmem.assignment)], inmem.assignment)
    # phase 2 advanced NE++'s own load array to the final loads
    assert np.array_equal(inmem.loads, res.sizes)
    check_valid(el, res, alpha=1.1)


@pytest.mark.parametrize("pname", sorted(PARTITIONERS) + ["dbh"])
def test_k1_single_partition(pname):
    el = tiny_graph("LJ")
    fn = PARTITIONERS.get(pname, UNBALANCED.get(pname))
    res = fn(el, 1)
    assert (res.assignment[:, 2] == 0).all()
    assert res.assignment.shape[0] == el.m


@pytest.mark.parametrize("pname", ["hep-10", "ne", "hdrf"])
def test_replicas_superset_of_covered(pname):
    """The partitioner-maintained replica sets must cover at least the
    assignment-derived covered sets (they may be slightly larger for
    NE++ because seeds/secondary vertices may end up contributing no
    edge to that partition)."""
    el = tiny_graph("OK")
    res = PARTITIONERS[pname](el, 8)
    cov = res.covered()
    assert (res.replicas | cov == res.replicas).all()


ENTRY_POINTS = {
    "partition_hep": lambda el, k, tau: partition_hep(el, k=k, tau=tau),
    "partition_simple_hybrid": lambda el, k, tau: partition_simple_hybrid(el, k=k, tau=tau),
    "partition_nepp": lambda el, k, tau: partition_nepp(
        el, k=k, csr=build_pruned_csr(el, tau=tau)
    ),
    "partition_streaming": lambda el, k, tau: partition_streaming(el, k=k),
    "partition_ne": lambda el, k, tau: partition_ne(el, k=k),
    "partition_sne": lambda el, k, tau: partition_sne(el, k=k),
    "dbh_np": lambda el, k, tau: dbh_np(el, k=k),
}
TAU_ENTRY_POINTS = ("partition_hep", "partition_simple_hybrid", "partition_nepp")


@pytest.mark.parametrize(
    "entry, arg, value",
    [(e, "k", v) for e in ENTRY_POINTS for v in (0, -1, 2.5)]
    + [(e, "tau", v) for e in TAU_ENTRY_POINTS for v in (-1.0, float("nan"), float("inf"))],
)
def test_bad_k_and_tau_rejected_up_front(entry, arg, value):
    args = {"k": 4, "tau": 1.0, arg: value}
    with pytest.raises(ValueError, match=f"^{arg} must"):
        ENTRY_POINTS[entry](two_triangles(), args["k"], args["tau"])
