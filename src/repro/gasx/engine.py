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
before messaging.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, Observation
from pyspark.sql import functions as F


def symmetrize(assignment: DataFrame) -> DataFrame:
    """Both directions of every edge, each keeping its pid."""
    fwd = assignment.select("pid", "src", "dst")
    rev = assignment.select(
        "pid", F.col("dst").alias("src"), F.col("src").alias("dst")
    )
    return fwd.unionAll(rev)


def vertices(assignment: DataFrame) -> DataFrame:
    """DataFrame(v): all vertices incident to at least one edge."""
    return (
        assignment.select(F.col("src").alias("v"))
        .unionAll(assignment.select(F.col("dst").alias("v")))
        .distinct()
    )


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
