"""PageRank, BFS and Connected Components on the gasx engine — the three
workloads of the paper's Table 4 (communication-heavy, frontier-driven,
and shrinking-active-set respectively)."""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from pyspark.sql import DataFrame, Observation
from pyspark.sql import functions as F

from ..graphs.generators import arrays_to_spark
from .engine import (
    compiled_classes,
    edge_table,
    observed_rows,
    ship,
    two_stage_agg,
    vertex_table,
)

DAMPING = 0.85  # PageRank's β, GraphX's default resetProb of 0.15
BFS_MAX_ITER = 50  # supersteps before BFS stops short of its fixpoint


@dataclass
class RunStats:
    """Outcome of one gasx algorithm run."""

    iterations: int
    comm_rows: int  # Σ over iterations of stage-2 partial rows
    wall_s: float
    compiled_classes: int  # generated classes Spark compiled during the run


def pagerank(assignment: DataFrame, *, n_iter: int = 10) -> tuple[DataFrame, RunStats]:
    """GraphX-style PageRank on the undirected graph: every vertex
    active every iteration (the paper's communication-bound workload).
    Returns (DataFrame(v, rank), stats). rank = 0.15 + 0.85·Σ in-contrib,
    unnormalized, as in GraphX's staticPageRank."""
    spark = assignment.sparkSession
    t0, c0 = time.perf_counter(), compiled_classes(spark)
    edges = edge_table(assignment)
    # every incident vertex has a neighbour, so from the first iteration
    # on ``total`` holds a contribution for each of them
    ranks = vertex_table(edges, "rank", F.min(F.lit(1.0))).localCheckpoint()
    rank = F.lit(1 - DAMPING) + F.lit(DAMPING) * F.col("contrib")
    comm = 0
    for _ in range(n_iter):
        msgs = ship(edges, ranks).select(
            "pid", "dst", (F.col("rank") / F.col("outdeg")).alias("contrib")
        )
        total, sync = two_stage_agg(msgs, "contrib", "sum")
        ranks = total.select(F.col("dst").alias("v"), rank.alias("rank")).localCheckpoint()
        comm += observed_rows(sync)
    return ranks, RunStats(n_iter, comm, time.perf_counter() - t0, compiled_classes(spark) - c0)


def bfs(assignment: DataFrame, *, source: int) -> tuple[DataFrame, RunStats]:
    """Level-synchronous BFS from ``source``. Returns
    (DataFrame(v, dist) over *reached* vertices, stats)."""
    spark = assignment.sparkSession
    t0, c0 = time.perf_counter(), compiled_classes(spark)
    edges = edge_table(assignment)
    start = arrays_to_spark(spark, {"v": np.array([source]), "dist": np.array([0])})
    # every vertex with its distance once reached (the source too, edges
    # or not) and whether the last superstep reached it: the frontier
    unreached = edges.select(
        F.col("src").alias("v"), F.lit(None).cast("long").alias("dist")
    )
    state = (
        unreached.unionAll(start)
        .groupBy("v")
        .agg(F.min("dist").alias("dist"))
        .withColumn("new", F.col("dist").isNotNull())
        .localCheckpoint()
    )
    comm = it = 0
    while it < BFS_MAX_ITER:
        it += 1
        msgs = ship(edges, state.where("new")).select(
            "pid", "dst", (F.col("dist") + 1).alias("cand")
        )
        total, sync = two_stage_agg(msgs, "cand", "min")
        reached = Observation()
        state = (
            state.join(total.hint("shuffle_hash"), state.v == total.dst, "left")
            .select(
                "v",
                F.coalesce("dist", "cand").alias("dist"),
                (F.col("dist").isNull() & F.col("cand").isNotNull()).alias("new"),
            )
            .observe(reached, F.count(F.when(F.col("new"), 1)).alias("rows"))
            .localCheckpoint()
        )
        comm += observed_rows(sync)
        if observed_rows(reached) == 0:
            break
    dist = state.where(F.col("dist").isNotNull()).select("v", "dist")
    return dist, RunStats(it, comm, time.perf_counter() - t0, compiled_classes(spark) - c0)


def connected_components(assignment: DataFrame, *, max_iter: int = 50) -> tuple[DataFrame, RunStats]:
    """Min-label propagation until fixpoint (or ``max_iter``). Returns
    (DataFrame(v, lbl), stats); vertices of one component share the
    minimum vertex id of the component."""
    spark = assignment.sparkSession
    t0, c0 = time.perf_counter(), compiled_classes(spark)
    edges = edge_table(assignment)
    labels = vertex_table(edges, "lbl", F.min("src")).localCheckpoint()
    comm = it = 0
    while it < max_iter:
        it += 1
        msgs = ship(edges, labels).select(
            "pid", "dst", F.col("lbl").alias("cand")
        )
        total, sync = two_stage_agg(msgs, "cand", "min")
        changed = Observation()
        labels = (
            labels.join(total.hint("shuffle_hash"), labels.v == total.dst, "left")
            .observe(changed, F.count(F.when(F.col("cand") < F.col("lbl"), 1)).alias("rows"))
            .select("v", F.least("lbl", "cand").alias("lbl"))  # least skips a null cand
            .localCheckpoint()
        )
        comm += observed_rows(sync)
        if observed_rows(changed) == 0:
            break
    return labels, RunStats(it, comm, time.perf_counter() - t0, compiled_classes(spark) - c0)
