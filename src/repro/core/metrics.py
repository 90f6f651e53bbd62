"""Lift a driver-side partitioning into Spark for graph processing.

The quality metrics (replication factor, edge balance, vertex balance)
are methods of :class:`PartitionResult`; this module only turns a
result into the ``DataFrame(src, dst, pid)`` that gasx consumes.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from .common import PartitionResult


def assignment_to_spark(spark: SparkSession, res: PartitionResult) -> DataFrame:
    """Lift a driver-side PartitionResult into DataFrame(src, dst, pid)."""
    return spark.createDataFrame(
        pd.DataFrame(
            {
                "src": res.assignment[:, 0],
                "dst": res.assignment[:, 1],
                "pid": res.assignment[:, 2],
            }
        )
    )
