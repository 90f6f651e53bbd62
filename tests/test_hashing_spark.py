"""DBH Spark partitioner, oracle-checked end-to-end in DuckDB."""
import numpy as np
import pytest

from repro.core.hashing import _KNUTH, dbh_np, partition_dbh
from repro.graphs.generators import to_pandas, to_spark
from repro.oracle import assert_equivalent

from .conftest import tiny_graph

DEGREE_SQL = """
    SELECT v, count(*) AS degree FROM (
        SELECT src AS v FROM edges UNION ALL SELECT dst AS v FROM edges
    ) GROUP BY v
"""


@pytest.mark.parametrize("k", [4, 8, 32])
def test_dbh_oracle(spark, k):
    """Full DBH assignment reproduced independently in DuckDB SQL."""
    el = tiny_graph("OK")
    edges = to_spark(spark, el)
    sql = f"""
        WITH d AS ({DEGREE_SQL})
        SELECT e.src, e.dst,
               CAST((((CASE WHEN ds.degree < dd.degree
                             OR (ds.degree = dd.degree AND e.src < e.dst)
                        THEN e.src ELSE e.dst END) * {_KNUTH})
                     % 4294967296) % {k} AS BIGINT) AS pid
        FROM edges e
        JOIN d ds ON ds.v = e.src JOIN d dd ON dd.v = e.dst
    """
    assert_equivalent(partition_dbh(edges, k=k), sql, edges=to_pandas(el))


@pytest.mark.parametrize("k", [8, 32])
def test_dbh_spark_matches_numpy(spark, k):
    el = tiny_graph("WI")
    got = {
        (r["src"], r["dst"]): r["pid"]
        for r in partition_dbh(to_spark(spark, el), k=k).collect()
    }
    res = dbh_np(el, k=k)
    for s, d, p in res.assignment:
        assert got[(s, d)] == p


def test_dbh_hashes_low_degree_endpoint():
    """DBH's point: the low-degree endpoint determines the partition,
    so a hub's edges spread while leaves stay put. On a star, every
    edge hashes by its leaf."""
    from .conftest import star_graph

    el = star_graph(10)
    res = dbh_np(el, k=4)
    leaf_pid = ((np.arange(1, 11) * _KNUTH) % 4294967296) % 4
    assert (res.assignment[:, 2] == leaf_pid[res.assignment[:, 1] - 1]).all()
