"""PageRank, BFS and Connected Components on the gasx engine — the three
workloads of the paper's Table 4 (communication-heavy, frontier-driven,
and shrinking-active-set respectively).

All three run on one superstep driver, :func:`_supersteps`; each
algorithm is an initial vertex state and a superstep function."""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from pyspark.sql import DataFrame, Observation
from pyspark.sql import functions as F

from ..graphs.generators import arrays_to_spark
from .engine import (checkpoint, compiled_classes, edge_table, observed_rows, ship,
                     two_stage_agg, vertex_table)

DAMPING = 0.85  # PageRank's β, GraphX's default resetProb of 0.15
BFS_MAX_ITER = 50  # supersteps before BFS stops short of its fixpoint


@dataclass
class RunStats:
    """Outcome of one gasx algorithm run."""

    sync_rows: tuple[int, ...]  # stage-2 partial rows of each superstep
    wall_s: float
    compiled_classes: int  # generated classes Spark compiled during the run

    @property
    def iterations(self) -> int:
        return len(self.sync_rows)

    @property
    def comm_rows(self) -> int:
        """Σ over supersteps of the replica-sync rows."""
        return sum(self.sync_rows)


def _supersteps(assignment: DataFrame, init, step, max_iter: int) -> tuple[DataFrame, RunStats]:
    """Run ``step`` over the :func:`edge_table` of ``assignment`` from the
    vertex state ``init(edges)``, checkpointing the state serialized
    (:func:`checkpoint`) before the first superstep and after each one,
    so each superstep is one Spark action. ``step(edges, state)`` returns
    (next state, the sync observation of its :func:`two_stage_agg`, a
    change observation or None); its callers build their ``Column``
    expressions once, outside ``step``. The loop stops after
    ``max_iter`` supersteps, or once a change observation counted 0
    rows. Returns (last state, stats)."""
    spark = assignment.sparkSession
    t0, c0 = time.perf_counter(), compiled_classes(spark)
    edges = edge_table(assignment)
    state = checkpoint(init(edges))
    sync_rows = []
    while len(sync_rows) < max_iter:
        state, sync, change = step(edges, state)
        state = checkpoint(state)
        sync_rows.append(observed_rows(sync))
        if change is not None and observed_rows(change) == 0:
            break
    return state, RunStats(tuple(sync_rows), time.perf_counter() - t0,
                           compiled_classes(spark) - c0)


def _merge(state: DataFrame, total: DataFrame) -> DataFrame:
    """Every vertex of ``state`` with its superstep aggregate, null where
    it received none: a hash join on the key both sides share."""
    return state.join(total.hint("shuffle_hash"), state.v == total.dst, "left")


def pagerank(assignment: DataFrame, *, n_iter: int = 10) -> tuple[DataFrame, RunStats]:
    """GraphX-style PageRank on the undirected graph: every vertex
    active every iteration (the paper's communication-bound workload).
    Returns (DataFrame(v, rank), stats). rank = 0.15 + 0.85·Σ in-contrib,
    unnormalized, as in GraphX's staticPageRank."""
    contrib = (F.col("rank") / F.col("outdeg")).alias("contrib")
    v = F.col("dst").alias("v")
    rank = (F.lit(1 - DAMPING) + F.lit(DAMPING) * F.col("contrib")).alias("rank")

    def step(edges, ranks):
        msgs = ship(edges, ranks).select("pid", "dst", contrib)
        total, sync = two_stage_agg(msgs, "contrib", "sum")
        return total.select(v, rank), sync, None

    # every incident vertex has a neighbour, so from the first iteration
    # on ``total`` holds a contribution for each of them
    return _supersteps(
        assignment, lambda edges: vertex_table(edges, "rank", F.min(F.lit(1.0))), step, n_iter
    )


def bfs(assignment: DataFrame, *, source: int) -> tuple[DataFrame, RunStats]:
    """Level-synchronous BFS from ``source``. Returns
    (DataFrame(v, dist) over *reached* vertices, stats)."""
    def init(edges):
        # every vertex with its distance once reached (the source too,
        # edges or not) and whether the last superstep reached it: the
        # frontier
        start = arrays_to_spark(edges.sparkSession,
                                {"v": np.array([source]), "dist": np.array([0])})
        unreached = edges.select(F.col("src").alias("v"), F.lit(None).cast("long").alias("dist"))
        state = unreached.unionAll(start).groupBy("v").agg(F.min("dist").alias("dist"))
        return state.withColumn("new", F.col("dist").isNotNull())

    cand = (F.col("dist") + 1).alias("cand")
    dist = F.coalesce("dist", "cand").alias("dist")
    new = (F.col("dist").isNull() & F.col("cand").isNotNull()).alias("new")
    reached = F.count(F.when(F.col("new"), 1)).alias("rows")

    def step(edges, state):
        msgs = ship(edges, state.where("new")).select("pid", "dst", cand)
        total, sync = two_stage_agg(msgs, "cand", "min")
        obs = Observation()
        return _merge(state, total).select("v", dist, new).observe(obs, reached), sync, obs

    state, stats = _supersteps(assignment, init, step, BFS_MAX_ITER)
    return state.where(F.col("dist").isNotNull()).select("v", "dist"), stats


def connected_components(assignment: DataFrame, *, max_iter: int = 50) -> tuple[DataFrame, RunStats]:
    """Min-label propagation until fixpoint (or ``max_iter``). Returns
    (DataFrame(v, lbl), stats); vertices of one component share the
    minimum vertex id of the component."""
    cand = F.col("lbl").alias("cand")
    lowered = F.count(F.when(F.col("cand") < F.col("lbl"), 1)).alias("rows")
    lbl = F.least("lbl", "cand").alias("lbl")  # least skips a null cand

    def step(edges, labels):
        msgs = ship(edges, labels).select("pid", "dst", cand)
        total, sync = two_stage_agg(msgs, "cand", "min")
        obs = Observation()
        return _merge(labels, total).observe(obs, lowered).select("v", lbl), sync, obs

    return _supersteps(
        assignment, lambda edges: vertex_table(edges, "lbl", F.min("src")), step, max_iter
    )
