"""Stateless hashing partitioner DBH as a Spark DataFrame job.

DBH is the Θ(|E|) baseline of the paper (Table 1): every edge's
partition is a pure function of its endpoint ids/degrees, so — unlike
the sequential stateful partitioners — it is embarrassingly parallel
and is implemented end-to-end in the DataFrame API. The hash is a
Knuth multiplicative hash expressible identically in Spark SQL and
DuckDB SQL, so tests oracle-check the full assignment. Vertex ids must
stay below 2^22 so the 64-bit product cannot overflow (ids here are
≤ ~2^21).

``dbh_np`` is a numpy twin used where a driver-side result object is
needed (complexity benches, Table 4 harness).
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from ..graphs.degrees import degrees_df
from ..graphs.generators import EdgeList
from .common import PartitionResult, assignment_array

_KNUTH = 2654435761


def hash_expr(col: str, k: int) -> str:
    """SQL text of the vertex hash, valid in Spark SQL and DuckDB."""
    return f"cast((({col} * {_KNUTH}) % 4294967296) % {k} as bigint)"


def partition_dbh(edges: DataFrame, *, k: int) -> DataFrame:
    """Degree-Based Hashing (Xie et al., NeurIPS '14): hash the edge by
    its lower-degree endpoint (ties → smaller id). Returns
    DataFrame(src, dst, pid)."""
    deg = degrees_df(edges)
    d_src = deg.select(F.col("v").alias("src"), F.col("degree").alias("d_src"))
    d_dst = deg.select(F.col("v").alias("dst"), F.col("degree").alias("d_dst"))
    j = edges.join(d_src, "src").join(d_dst, "dst")
    pick = F.when(
        (F.col("d_src") < F.col("d_dst"))
        | ((F.col("d_src") == F.col("d_dst")) & (F.col("src") < F.col("dst"))),
        F.col("src"),
    ).otherwise(F.col("dst"))
    return j.withColumn("picked", pick).selectExpr(
        "src", "dst", hash_expr("picked", k) + " as pid"
    )


def dbh_np(el: EdgeList, *, k: int) -> PartitionResult:
    """Driver-side DBH with identical semantics to :func:`partition_dbh`."""
    deg = el.degrees().astype(np.int64)
    src = el.edges[:, 0].astype(np.int64)
    dst = el.edges[:, 1].astype(np.int64)
    use_src = (deg[src] < deg[dst]) | ((deg[src] == deg[dst]) & (src < dst))
    picked = np.where(use_src, src, dst)
    pid = ((picked * _KNUTH) % 4294967296) % k
    assignment = assignment_array(src, dst, pid)
    cov = np.zeros((k, el.n), dtype=bool)
    cov[pid, src] = True
    cov[pid, dst] = True
    return PartitionResult(assignment=assignment, k=k, n=el.n, replicas=cov, stats={})
