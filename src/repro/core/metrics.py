"""Lift a driver-side partitioning into Spark for graph processing.

The quality metrics (replication factor, edge balance, vertex balance)
are methods of :class:`PartitionResult`; this module only turns a
result into the ``DataFrame(src, dst, pid)`` that gasx consumes.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession

from ..graphs.generators import arrays_to_spark
from .common import PartitionResult


def assignment_to_spark(spark: SparkSession, res: PartitionResult) -> DataFrame:
    """Lift a driver-side PartitionResult into DataFrame(src, dst, pid)."""
    a = res.assignment
    return arrays_to_spark(spark, {"src": a[:, 0], "dst": a[:, 1], "pid": a[:, 2]})
