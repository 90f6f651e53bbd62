"""τ pre-computation (Table 2 machinery): Spark sweep vs numpy model."""
import numpy as np
import pytest

from repro.core.memory_model import hep_footprint_bytes
from repro.graphs.generators import EdgeList, to_spark
from repro.tau.precompute import footprint_sweep

from .conftest import tiny_graph

TAUS = [0.5, 1.0, 2.0, 10.0, 100.0]


@pytest.mark.parametrize("name", ["OK", "IT"])
def test_sweep_matches_memory_model(spark, name):
    el = tiny_graph(name)
    deg = el.degrees().astype(np.int64)
    got = footprint_sweep(to_spark(spark, el), taus=TAUS, k=32)
    for tau, b in got:
        assert b == hep_footprint_bytes(deg, tau=tau, k=32)


def test_sweep_counts_isolated_ids(spark):
    """|V| is the id space, as in the model: id 3 has no edge."""
    edges = np.array([[0, 1], [1, 2], [2, 0], [4, 5]], dtype=np.uint32)
    el = EdgeList(edges=edges, n=6)
    got = footprint_sweep(to_spark(spark, el), taus=TAUS, k=32)
    for tau, b in got:
        assert b == hep_footprint_bytes(el.degrees(), tau=tau, k=32)


def test_sweep_monotone(spark):
    el = tiny_graph("OK")
    got = footprint_sweep(to_spark(spark, el), taus=TAUS, k=32)
    sizes = [b for _, b in got]
    assert sizes == sorted(sizes)


def test_sweep_rejects_empty_edges(spark):
    empty = spark.createDataFrame([], "src long, dst long")
    with pytest.raises(ValueError, match="at least one edge"):
        footprint_sweep(empty, taus=TAUS, k=32)


@pytest.mark.parametrize("rows, fault", [
    ([(0, 1), (1, 2), (1, 0)], "repeats the unordered pair"),
    ([(0, 1), (2, 2)], "self-loop"),
    ([(0, 1), (-1, 2)], r"\[0, 2\*\*32\)"),
    ([(0, 1), (1, 2**32)], r"\[0, 2\*\*32\)"),
])
def test_sweep_rejects_what_hep_rejects(spark, rows, fault):
    """The sweep takes the edge table HEP takes: a repeated pair, a
    self-loop or an id outside [0, 2³²) raises before any τ is priced."""
    edges = spark.createDataFrame(rows, "src long, dst long")
    with pytest.raises(ValueError, match=fault):
        footprint_sweep(edges, taus=TAUS, k=32)


def test_sweep_is_one_transfer(spark):
    """The sweep's only Spark work is the Arrow transfer of the edge
    table: one job of one stage, so no shuffle and no aggregation."""
    edges = to_spark(spark, tiny_graph("OK")).localCheckpoint()
    sc = spark.sparkContext
    sc.setJobGroup("tau-sweep", "footprint_sweep")
    try:
        footprint_sweep(edges, taus=TAUS, k=32)
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    tracker = sc.statusTracker()
    jobs = tracker.getJobIdsForGroup("tau-sweep")
    assert [len(tracker.getJobInfo(j).stageIds) for j in jobs] == [1]


def test_single_pass_many_taus(spark):
    """The sweep is one degree pass regardless of the τ-grid size."""
    el = tiny_graph("LJ")
    taus = list(np.linspace(0.5, 50, 25))
    got = footprint_sweep(to_spark(spark, el), taus=taus, k=8)
    assert len(got) == 25
