"""Quality metrics of PartitionResult: hand-computed values, and the
lifted assignment: its rows and schema, and its per-partition sizes
against the DuckDB oracle."""
import numpy as np
import pytest

from repro.core.common import PartitionResult
from repro.core.hep import partition_hep, partition_streaming
from repro.core.metrics import assignment_to_spark
from repro.oracle import assert_equivalent

from .conftest import star_graph, tiny_graph, two_triangles


def _assignment_pdf(res):
    import pandas as pd

    return pd.DataFrame(
        {
            "src": res.assignment[:, 0],
            "dst": res.assignment[:, 1],
            "pid": res.assignment[:, 2],
        }
    )


@pytest.fixture(scope="module")
def hep_result():
    return partition_hep(tiny_graph("OK"), k=8, tau=2.0)


def test_star_graph_rf_hand_computed():
    """Paper Fig. 1: star split across 2 partitions ⇒ only the hub is
    replicated twice ⇒ RF = (n_leaves + 2) / (n_leaves + 1)."""
    el = star_graph(6)
    res = partition_streaming(el, k=2, method="hdrf")
    if len(np.unique(res.assignment[:, 2])) == 2:
        assert res.replication_factor() == pytest.approx(8 / 7)


def test_rf_lower_bound_one(hep_result):
    assert hep_result.replication_factor() >= 1.0


def test_balance_metrics_hand_computed():
    """Two triangles, k=2: the first triangle and one edge of the second
    on p0, the other two edges on p1. Sizes (4, 2) ⇒ edge balance
    4 / (6/2) = 4/3; covered vertices p0 = {0,1,2,3,5}, p1 = {3,4,5}
    ⇒ counts (5, 3), mean 4, population std 1 ⇒ vertex balance 1/4."""
    el = two_triangles()
    pids = np.array([0, 0, 0, 1, 1, 0], dtype=np.int64)
    res = PartitionResult(
        assignment=np.column_stack([el.edges.astype(np.int64), pids]), k=2, n=el.n
    )
    assert res.edge_balance() == pytest.approx(4 / 3)
    assert res.vertex_balance() == pytest.approx(1 / 4)
    assert res.replication_factor() == pytest.approx(8 / 6)


def test_sizes_oracle(spark, hep_result):
    adf = assignment_to_spark(spark, hep_result)
    sizes = adf.groupBy("pid").count()
    assert_equivalent(
        sizes,
        "SELECT pid, count(*) AS count FROM a GROUP BY pid",
        a=_assignment_pdf(hep_result),
    )


def test_assignment_round_trip(spark, hep_result):
    """The lifted assignment is ``res.assignment`` row for row, in
    order, as the nullable long columns a pandas-built frame had."""
    adf = assignment_to_spark(spark, hep_result)
    assert adf.schema == spark.createDataFrame(_assignment_pdf(hep_result)).schema
    back = adf.toArrow()
    got = np.column_stack([back.column(c).to_numpy() for c in ("src", "dst", "pid")])
    assert np.array_equal(got, hep_result.assignment)
