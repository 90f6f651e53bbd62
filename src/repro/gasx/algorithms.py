"""PageRank, BFS and Connected Components on the gasx engine — the three
workloads of the paper's Table 4 (communication-heavy, frontier-driven,
and shrinking-active-set respectively)."""
from __future__ import annotations

import time
from dataclasses import dataclass

from pyspark.sql import DataFrame, Observation
from pyspark.sql import functions as F

from .engine import observed_rows, symmetrize, two_stage_agg, vertices

DAMPING = 0.85  # PageRank's β, GraphX's default resetProb of 0.15
BFS_MAX_ITER = 50  # supersteps before BFS stops short of its fixpoint


@dataclass
class RunStats:
    """Outcome of one gasx algorithm run."""

    iterations: int
    comm_rows: int  # Σ over iterations of stage-2 partial rows
    wall_s: float


def pagerank(assignment: DataFrame, *, n_iter: int = 10) -> tuple[DataFrame, RunStats]:
    """GraphX-style PageRank on the undirected graph: every vertex
    active every iteration (the paper's communication-bound workload).
    Returns (DataFrame(v, rank), stats). rank = 0.15 + 0.85·Σ in-contrib,
    unnormalized, as in GraphX's staticPageRank."""
    t0 = time.perf_counter()
    sym = symmetrize(assignment)
    outdeg = sym.groupBy("src").agg(F.count("*").alias("outdeg"))
    sym_deg = sym.join(outdeg, "src").localCheckpoint()
    # every incident vertex has a neighbour, so from the first iteration
    # on ``total`` holds a contribution for each of them
    ranks = vertices(assignment).withColumn("rank", F.lit(1.0))
    rank = F.lit(1 - DAMPING) + F.lit(DAMPING) * F.col("contrib")
    comm = 0
    for _ in range(n_iter):
        msgs = sym_deg.join(ranks, sym_deg.src == ranks.v).select(
            "pid", "dst", (F.col("rank") / F.col("outdeg")).alias("contrib")
        )
        total, sync = two_stage_agg(msgs, "contrib", "sum")
        ranks = total.select(F.col("dst").alias("v"), rank.alias("rank")).localCheckpoint()
        comm += observed_rows(sync)
    return ranks, RunStats(n_iter, comm, time.perf_counter() - t0)


def bfs(assignment: DataFrame, *, source: int) -> tuple[DataFrame, RunStats]:
    """Level-synchronous BFS from ``source``. Returns
    (DataFrame(v, dist) over *reached* vertices, stats)."""
    t0 = time.perf_counter()
    sym = symmetrize(assignment).localCheckpoint()
    spark = assignment.sparkSession
    dist = spark.createDataFrame([(source, 0)], ["v", "dist"]).localCheckpoint()
    frontier = dist
    comm = it = 0
    while it < BFS_MAX_ITER:
        it += 1
        msgs = sym.join(frontier, sym.src == frontier.v).select(
            "pid", "dst", (F.col("dist") + 1).alias("cand")
        )
        total, sync = two_stage_agg(msgs, "cand", "min")
        reached = Observation()
        new = (
            total.join(dist, total.dst == dist.v, "left_anti")
            .select(F.col("dst").alias("v"), F.col("cand").alias("dist"))
            .observe(reached, F.count(F.lit(1)).alias("rows"))
            .localCheckpoint()
        )
        comm += observed_rows(sync)
        if observed_rows(reached) == 0:
            break
        dist, frontier = dist.unionAll(new), new  # each part is checkpointed
    return dist, RunStats(it, comm, time.perf_counter() - t0)


def connected_components(assignment: DataFrame, *, max_iter: int = 50) -> tuple[DataFrame, RunStats]:
    """Min-label propagation until fixpoint (or ``max_iter``). Returns
    (DataFrame(v, lbl), stats); vertices of one component share the
    minimum vertex id of the component."""
    t0 = time.perf_counter()
    sym = symmetrize(assignment).localCheckpoint()
    labels = vertices(assignment).withColumn("lbl", F.col("v")).localCheckpoint()
    comm = it = 0
    while it < max_iter:
        it += 1
        msgs = sym.join(labels, sym.src == labels.v).select(
            "pid", "dst", F.col("lbl").alias("cand")
        )
        total, sync = two_stage_agg(msgs, "cand", "min")
        changed = Observation()
        labels = (
            labels.join(total, labels.v == total.dst, "left")
            .observe(changed, F.count(F.when(F.col("cand") < F.col("lbl"), 1)).alias("rows"))
            .select("v", F.least("lbl", "cand").alias("lbl"))  # least skips a null cand
            .localCheckpoint()
        )
        comm += observed_rows(sync)
        if observed_rows(changed) == 0:
            break
    return labels, RunStats(it, comm, time.perf_counter() - t0)
