"""gasx — a GraphX-like vertex-cut graph processing engine on DataFrames.

PySpark has no GraphX binding, so the paper's Spark/GraphX evaluation
(Table 4) runs on this engine. It executes iterative graph algorithms
in the GAS/Pregel pattern over an *edge-partitioned* graph, with the
same two-stage aggregation that makes edge partitioning matter on a
real cluster:

1. **local combine** — messages are aggregated per ``(pid, vertex)``
   inside each edge partition;
2. **global combine** — the per-partition partials are shuffled and
   merged per vertex (the replica synchronization step).

Stage 2's row count per iteration is exactly the number of (partition,
vertex) replica pairs that carry messages — bounded by Σ_i |V(p_i)| =
RF·|V|. That count is the machine-independent communication volume the
paper's processing-time differences come from; gasx observes it on each
superstep's one Spark action (DESIGN.md substitution 2).

Input everywhere: an assignment DataFrame(src, dst, pid) as produced by
:func:`repro.core.metrics.assignment_to_spark`. Graphs are
undirected: edges are symmetrized (each copy stays in its partition)
before messaging. The symmetrized edge table is built once per
assignment frame and plan settings and reused by every later call on
that frame (:func:`edge_table`), so gasx treats the frame as immutable.
Vertex state is stored serialized (:func:`checkpoint`).
"""
from __future__ import annotations

import weakref

from pyspark import StorageLevel
from pyspark.sql import Column, DataFrame, Observation, Window
from pyspark.sql import functions as F


# The settings gasx runs under, which the jobs (``jobs/_session``) and the
# Table 4 bench apply. Adaptive execution is off for :func:`edge_table`.
SQL_CONF = {
    "spark.sql.shuffle.partitions": "16",
    "spark.sql.adaptive.enabled": "false",
    "spark.sql.execution.arrow.pyspark.enabled": "true",
}
# Static: read once, when the session starts (a running session refuses
# to change it). Spark's generated-class cache defaults to 100 entries
# in four LRU segments; one Table 4 row's gasx runs overflow a segment,
# so every later row recompiled its classes.
STATIC_CONF = {"spark.sql.codegen.cache.maxEntries": "1000"}


# The settings an edge table's partitioning is planned under; a table
# built under others is rebuilt.
PLAN_CONF = ("spark.sql.shuffle.partitions", "spark.sql.adaptive.enabled")
# assignment frame -> (its session's PLAN_CONF values, its edge table); an
# entry goes when its frame is garbage collected
_tables: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def edge_table(assignment: DataFrame) -> DataFrame:
    """The edges every superstep scans: DataFrame(pid, src, dst, outdeg),
    both directions of every edge, each keeping its pid, with the
    out-degree of ``src``, checkpointed hash-partitioned and sorted by
    ``src``, so that vertex state partitioned the same way joins it
    without moving an edge (with adaptive execution off: under it a
    checkpoint keeps no partitioning, so every superstep would
    re-shuffle the table).

    Built once per assignment frame and :data:`PLAN_CONF`, as GraphX
    builds a graph's edge partitions once for every algorithm run on
    them: a later call with the same frame, under the same settings,
    returns the same table and runs no job. gasx treats an assignment
    frame as immutable; a rebuilt table would re-read a file-backed
    frame, a reused one does not.

    Ids are declared non-null, so no superstep plans a null check and
    every vertex state has one type. The partitioning comes from the
    out-degree window's exchange. ``repartition("src")`` would not do:
    with one shuffle partition Spark plans it as a single partition,
    which satisfies every later distribution and so drops the
    replica-sync exchanges of :func:`two_stage_agg`.
    """
    conf = tuple(assignment.sparkSession.conf.get(key) for key in PLAN_CONF)
    cached = _tables.get(assignment)
    if cached is not None and cached[0] == conf:
        return cached[1]
    ids = assignment.where(
        F.col("src").isNotNull() & F.col("dst").isNotNull() & F.col("pid").isNotNull()
    )
    fwd = ids.select("pid", "src", "dst")
    rev = ids.select("pid", F.col("dst").alias("src"), F.col("src").alias("dst"))
    outdeg = F.count(F.lit(1)).over(Window.partitionBy("src"))
    table = fwd.unionAll(rev).withColumn("outdeg", outdeg).localCheckpoint()
    _tables[assignment] = (conf, table)
    return table


def checkpoint(state: DataFrame) -> DataFrame:
    """Vertex state computed now, stored serialized in memory (spilling
    to disk) and cut from its lineage. PySpark's ``MEMORY_AND_DISK`` is
    the serialized level: the default, ``MEMORY_AND_DISK_DESER``, has
    Spark estimate each stored row's object size, which cost a
    superstep's storing stage 70 against 18 ms of executor CPU. The
    edge table keeps the default level."""
    return state.localCheckpoint(True, StorageLevel.MEMORY_AND_DISK)


def vertex_table(edges: DataFrame, name: str, init: Column) -> DataFrame:
    """Initial vertex state DataFrame(v, <name>) over the distinct ``src``
    of an :func:`edge_table`, so over every vertex incident to an edge:
    the aggregate ``init`` of each vertex's out-edges. It is partitioned
    like the table and, like a superstep's aggregate, nullable, so the
    first superstep plans as every later one does."""
    return edges.groupBy("src").agg(init.alias(name)).withColumnRenamed("src", "v")


def ship(edges: DataFrame, state: DataFrame) -> DataFrame:
    """Every row of an :func:`edge_table` joined with the vertex state
    DataFrame(v, ...) of its ``src``: the vertex→replica ship. Both sides
    are partitioned on the key, so this is a hash join that moves and
    sorts nothing, as GraphX joins vertex values into edge partitions."""
    return edges.join(state.hint("shuffle_hash"), edges.src == state.v)


def two_stage_agg(msgs: DataFrame, agg_col: str, how: str) -> tuple[DataFrame, Observation]:
    """The engine kernel: local per-(pid, dst) combine, then global
    per-dst combine. Lazy: returns (DataFrame(dst, <agg_col>), obs), where
    ``obs`` counts the partial rows, this iteration's replica-sync volume,
    on the action that runs the plan. ``how`` is "sum" or "min".
    """
    fn = F.sum if how == "sum" else F.min
    obs = Observation()
    partial = msgs.groupBy("pid", "dst").agg(fn(agg_col).alias(agg_col))
    partial = partial.observe(obs, F.count(F.lit(1)).alias("rows"))
    return partial.groupBy("dst").agg(fn(agg_col).alias(agg_col)), obs


def observed_rows(obs: Observation) -> int:
    """``obs``'s "rows" after its action. Adaptive execution prunes a plan
    whose input turned out empty, observer included: that is zero rows
    (``obs.get`` fails on the missing metric, hence the JVM-side map)."""
    return int(obs._jo.getAsJava().getOrDefault("rows", 0))


def compiled_classes(spark) -> int:
    """Classes Spark's code generator has compiled in this JVM so far.
    It compiles only on a miss of its cache of generated code, so a
    call's delta of this counter shows whether the call recompiled."""
    metrics = spark.sparkContext._jvm.org.apache.spark.metrics.source.CodegenMetrics
    return int(metrics.METRIC_SOURCE_CODE_SIZE().getCount())
