"""Spark degree pipeline + τ split, oracle-checked against DuckDB."""
import re

import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.core.memory_model import hep_fixed_bytes
from repro.graphs.csr import build_pruned_csr
from repro.graphs.degrees import (
    degrees_df,
    high_mask_np,
    high_vertices,
    split_edges,
)
from repro.graphs.generators import EdgeList, to_pandas, to_spark
from repro.oracle import assert_equivalent
from repro.tau.precompute import footprint_sweep

from .conftest import tiny_graph

DEGREE_SQL = """
    SELECT v, count(*) AS degree FROM (
        SELECT src AS v FROM edges UNION ALL SELECT dst AS v FROM edges
    ) GROUP BY v
"""


@pytest.mark.parametrize("name", ["OK", "IT"])
def test_degrees_oracle(spark, name):
    el = tiny_graph(name)
    edges = to_spark(spark, el)
    assert_equivalent(degrees_df(edges), DEGREE_SQL, edges=to_pandas(el))


@pytest.mark.parametrize("name", ["OK", "WI"])
def test_degrees_match_numpy(spark, name):
    el = tiny_graph(name)
    deg_np = el.degrees()
    rows = degrees_df(to_spark(spark, el)).collect()
    for r in rows:
        assert deg_np[r["v"]] == r["degree"]
    assert len(rows) == int((deg_np > 0).sum())


def test_high_mask_np_is_mean_over_nonzero():
    """The in-place mean equals ``deg[deg > 0].mean()`` bit for bit, on
    arrays with zeros, with none of degree ≥ 1, and near 2³¹."""
    rng = np.random.default_rng(5)
    cases = [np.zeros(17, dtype=np.int64), np.array([0, 3, 3, 3], dtype=np.int64)]
    for lo, hi in ((0, 50), (1, 10**4), (2**31 - 1000, 2**31 + 1000)):
        for _ in range(20):
            size = int(rng.integers(1, 400))
            cases.append(rng.integers(lo, hi, size=size) * (rng.random(size) < 0.6))
    for deg in cases:
        nz = deg[deg > 0]
        mean = nz.mean() if len(nz) else 0.0
        for tau in (0.0, 0.5, 1.0, 2.5, 100.0):
            np.testing.assert_array_equal(high_mask_np(deg, tau), deg > tau * mean)


@pytest.mark.parametrize("tau", [1.0, 2.0])
def test_high_vertices_oracle(spark, tau):
    el = tiny_graph("OK")
    edges = to_spark(spark, el)
    sql = f"""
        WITH d AS ({DEGREE_SQL})
        SELECT v FROM d WHERE degree > {tau!r} * (SELECT avg(degree) FROM d)
    """
    assert_equivalent(high_vertices(degrees_df(edges), tau), sql, edges=to_pandas(el))


@pytest.mark.parametrize("tau", [1.0, 2.0, 10.0])
def test_split_matches_numpy(spark, tau):
    el = tiny_graph("TW")
    edges = to_spark(spark, el)
    high = high_vertices(degrees_df(edges), tau)
    inmem, h2h = split_edges(edges, high)
    h2h_np = build_pruned_csr(el, tau=tau).h2h
    assert inmem.count() == el.m - len(h2h_np)
    assert h2h.count() == len(h2h_np)
    got = {(r["src"], r["dst"]) for r in h2h.collect()}
    want = {(int(a), int(b)) for a, b in h2h_np}
    assert got == want


def test_split_is_partition_of_edges(spark):
    el = tiny_graph("OK")
    edges = to_spark(spark, el)
    high = high_vertices(degrees_df(edges), 1.0)
    inmem, h2h = split_edges(edges, high)
    assert inmem.count() + h2h.count() == el.m
    assert inmem.intersect(h2h).count() == 0


def test_h2h_oracle_via_join(spark):
    """The h2h split expressed independently in DuckDB SQL."""
    el = tiny_graph("OK")
    edges = to_spark(spark, el)
    tau = 1.0
    _, h2h = split_edges(edges, high_vertices(degrees_df(edges), tau))
    sql = f"""
        WITH d AS ({DEGREE_SQL}), t AS (SELECT {tau!r} * avg(degree) AS thresh FROM d)
        SELECT e.src, e.dst FROM edges e, t
        JOIN d ds ON ds.v = e.src JOIN d dd ON dd.v = e.dst
        WHERE ds.degree > t.thresh AND dd.degree > t.thresh
    """
    assert_equivalent(h2h, sql, edges=to_pandas(el))


def test_high_mask_threshold_strict(spark):
    """d(v) > τ·∅_d is strict: a vertex exactly at the mean is low at
    τ=1 (star-free regular graph ⇒ nothing high), in every engine: the
    numpy rule, the Spark split, the pruned CSR and the Spark sweep."""
    cyc = EdgeList(
        edges=np.array([[i, (i + 1) % 5] for i in range(5)], dtype=np.uint32), n=5
    )
    assert not high_mask_np(cyc.degrees(), 1.0).any()
    edges = to_spark(spark, cyc)
    high = high_vertices(degrees_df(edges), 1.0)
    assert high.count() == 0
    inmem, h2h = split_edges(edges, high)
    assert (inmem.count(), h2h.count()) == (5, 0)
    csr = build_pruned_csr(cyc, tau=1.0)
    assert not csr.high.any() and len(csr.h2h) == 0 and len(csr.col) == 10
    # the sweep against the column array HEP actually builds
    assert footprint_sweep(edges, taus=[1.0], k=4) == [
        (1.0, 4 * len(csr.col) + hep_fixed_bytes(5, k=4))
    ]


def test_split_broadcasts_local_high_set(spark):
    """The high set comes back as local rows with ``v`` non-null: the
    split broadcasts them as they are, with no degree aggregate and no
    null filter on that side."""
    edges = to_spark(spark, tiny_graph("OK"))
    high = high_vertices(degrees_df(edges), 1.0)
    assert high.schema.simpleString() == "struct<v:bigint>"
    assert not high.schema["v"].nullable
    plan = split_edges(edges, high)[1]._jdf.queryExecution().executedPlan().toString()
    assert "HashAggregate" not in plan
    assert re.search(r"BroadcastExchange [^\n]*\n[:\s]*\+- LocalTableScan \[src#\d+L\]", plan)


@pytest.mark.parametrize("tau", [-1.0, float("nan"), float("inf")])
def test_high_vertices_rejects_bad_tau(spark, tau):
    """The Spark τ rule refuses what the numpy rule refuses, before any
    job runs: τ = −1 would make every vertex high, NaN none."""
    degrees = degrees_df(to_spark(spark, tiny_graph("OK")))
    with pytest.raises(ValueError, match="^tau must"):
        high_vertices(degrees, tau)


def test_high_vertices_of_no_edges(spark):
    """No edges, no mean: the high set and E_h2h are empty."""
    edges = spark.createDataFrame([], "src long, dst long")
    high = high_vertices(degrees_df(edges), 1.0)
    assert high.count() == 0
    assert split_edges(edges, high)[1].count() == 0
