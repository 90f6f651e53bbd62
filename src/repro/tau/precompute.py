"""τ pre-computation (paper §4.4, Table 2).

To fit a memory bound, HEP pre-computes — per candidate τ — the size of
the dominant data structure, the pruned column array (the cumulative
adjacency-list size of the low-degree vertices), plus the fixed §4.2
terms, and picks the largest τ that fits. The paper reports this step's
run-time per graph (Table 2) and argues it is negligible next to
partitioning; our Table 2 bench measures the same.

The sweep reads the degree table once: Spark computes the degree
histogram, and the driver prices every τ with the §4.2 formula
(:func:`~repro.core.memory_model.hep_footprint_bytes`).
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from ..core.memory_model import hep_footprint_bytes
from ..graphs.degrees import degrees_df


def footprint_sweep(
    edges: DataFrame, *, taus: list[float], k: int
) -> list[tuple[float, int]]:
    """[(τ, modeled HEP footprint in bytes)] from one Spark aggregation,
    the degree histogram with the largest id of each degree.

    The histogram is expanded on the driver into a zero-padded int64
    degree array over the id space max(v) + 1: 8 bytes per id, a third
    of the 24·|V| bytes of index arrays the footprint itself budgets
    (pricing a τ reads it in place and adds one-byte masks). |V| is
    thus the id space, as in the model and the pruned CSR. Ids above the
    largest endpoint cannot be seen from an edge DataFrame, so a graph
    whose highest ids are isolated is undercounted.
    """
    hist = (
        degrees_df(edges)
        .groupBy("degree")
        .agg(F.count("*").alias("vertices"), F.max("v").alias("top"))
        .collect()
    )
    if not hist:
        raise ValueError("footprint_sweep needs at least one edge; the edge DataFrame is empty")
    n = max(r["top"] for r in hist) + 1
    deg = np.zeros(n, dtype=np.int64)
    nonzero = np.repeat([r["degree"] for r in hist], [r["vertices"] for r in hist])
    deg[: len(nonzero)] = nonzero
    return [(tau, hep_footprint_bytes(deg, tau=tau, k=k)) for tau in taus]


def max_tau_within(
    edges: DataFrame, *, taus: list[float], k: int, budget_bytes: int
) -> float | None:
    """Largest candidate τ whose modeled footprint fits the budget."""
    fits = [t for t, b in footprint_sweep(edges, taus=taus, k=k) if b <= budget_bytes]
    return max(fits) if fits else None
