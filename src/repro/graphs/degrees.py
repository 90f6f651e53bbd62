"""Degree pipeline and the τ split (paper §3.1) as Spark DataFrame jobs.

The split classifies vertices into high-degree (``d(v) > τ·∅_d``, with
∅_d the mean degree) and low-degree, then partitions the edge set into

* ``E_h2h`` — both endpoints high-degree → streaming phase, and
* ``E \\ E_h2h`` — at least one low endpoint → in-memory NE++ phase.

The Spark functions here serve only the benchmark set-up and their
DuckDB-oracle tests. The high set is one job: the degree table comes to
the driver in one Arrow read, is classified by ``high_mask_np``, the one
τ rule, and goes back as a local relation. E_h2h is the edges
semi-joined twice with that high set, broadcast. The τ footprint
sweep (:mod:`repro.tau`) and the driver-side partitioner cores classify
with the same ``high_mask_np`` over ``EdgeList.degrees``; HEP's numpy
split is the pruned CSR's ``h2h``. Tests assert numpy and Spark agree
and oracle-check the Spark jobs against DuckDB SQL.
"""
from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
from pyspark.sql import DataFrame
from pyspark.sql import functions as F


def degrees_df(edges: DataFrame) -> DataFrame:
    """Undirected per-vertex degree: DataFrame(v, degree).

    Counts each edge once per endpoint (the input holds each undirected
    edge exactly once). Both endpoints come from one pass over the
    edges (an ``explode``, not a union of two scans), so the map side of
    the aggregation is one generated stage.
    """
    ends = edges.select(F.explode(F.array("src", "dst")).alias("v"))
    return ends.groupBy("v").agg(F.count("*").alias("degree"))


def check_tau(tau: float) -> None:
    """Raise ``ValueError`` unless τ is finite and ≥ 0; the τ rule
    calls this first. τ = 0 makes every vertex with an edge high (HEP
    then streams everything, as the HDRF baseline does)."""
    if not (math.isfinite(tau) and tau >= 0):
        raise ValueError(f"tau must be finite and >= 0, got {tau!r}")


def high_vertices(degrees: DataFrame, tau: float) -> DataFrame:
    """Vertices with d(v) > τ·∅_d: DataFrame(v). The degree table comes
    to the driver in one Arrow job and :func:`high_mask_np` classifies
    it. The high set goes back as a local relation built from Arrow, one
    row per high vertex and ``v`` declared non-null, so a join with it
    plans no null filter and no later plan recomputes the degrees. A bad
    τ is refused before the job."""
    check_tau(tau)
    table = degrees.select("v", "degree").toArrow()
    v = table.column("v").to_numpy()
    high = v[high_mask_np(table.column("degree").to_numpy(), tau)]
    ids = pa.table({"v": high}, schema=pa.schema([pa.field("v", pa.int64(), nullable=False)]))
    return degrees.sparkSession.createDataFrame(ids)


def split_edges(edges: DataFrame, high: DataFrame) -> tuple[DataFrame, DataFrame]:
    """Split into (in-memory edges, E_h2h) given the high-vertex set.

    E_h2h is two semi-joins with the broadcast high set, the rest an
    anti-join with E_h2h. A using-join puts its key column first, hence
    the ``select``s.
    """
    high = F.broadcast(high)
    h2h = (
        edges.join(high.withColumnRenamed("v", "src"), "src", "left_semi")
        .join(high.withColumnRenamed("v", "dst"), "dst", "left_semi")
        .select("src", "dst")
    )
    inmem = edges.join(h2h, ["src", "dst"], "left_anti").select("src", "dst")
    return inmem, h2h


def high_mask_np(deg: np.ndarray, tau: float) -> np.ndarray:
    """Boolean mask of high-degree vertices: the one τ rule, used by
    the pruned CSR, the §4.2 model, the τ sweep and the Spark high set
    alike.

    The mean is taken over vertices with degree ≥ 1, so the Spark degree
    table, which lists only those, classifies as ``EdgeList.degrees``
    does (compact analog graphs have no isolated vertices, but subgraphs
    passed through here may). Exact integer sums make it
    ``deg[deg > 0].mean()`` bit for bit, without the copy.
    τ is checked by :func:`check_tau`.
    """
    check_tau(tau)
    mean = deg.sum() / max(np.count_nonzero(deg), 1)
    return deg > tau * mean
