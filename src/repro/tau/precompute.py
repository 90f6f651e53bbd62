"""τ pre-computation (paper §4.4, Table 2).

To fit a memory bound, HEP pre-computes — per candidate τ — the size of
the dominant data structure, the pruned column array (the cumulative
adjacency-list size of the low-degree vertices), plus the fixed §4.2
terms, and picks the largest τ that fits. The paper reports this step's
run-time per graph (Table 2) and argues it is negligible next to
partitioning; our Table 2 bench measures the same.

The sweep reads the degree table twice: once for the mean degree and
the id space, then once for a conditional sum per τ candidate, all
computed in a single aggregation.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from ..core.memory_model import hep_fixed_bytes
from ..graphs.csr import ID_BYTES
from ..graphs.degrees import degrees_df


def footprint_sweep(
    edges: DataFrame, *, taus: list[float], k: int
) -> list[tuple[float, int]]:
    """[(τ, modeled HEP footprint in bytes)]: one Spark aggregation for
    the mean degree and the id space, then one for every τ at once.

    |V| in the fixed terms is the id space max(v) + 1, as in
    :func:`~repro.core.memory_model.hep_footprint_bytes` and the pruned
    CSR. Ids above the largest endpoint cannot be seen from an edge
    DataFrame, so a graph whose highest ids are isolated is undercounted.
    """
    deg = degrees_df(edges).localCheckpoint()
    mean, top = deg.agg(F.avg("degree"), F.max("v")).first()
    n = int(top) + 1
    aggs = [
        F.sum(
            F.when(F.col("degree") <= F.lit(tau * mean), F.col("degree")).otherwise(
                F.lit(0)
            )
        ).alias(f"t{i}")
        for i, tau in enumerate(taus)
    ]
    row = deg.agg(*aggs).first()
    fixed = hep_fixed_bytes(n, k=k)
    return [
        (tau, int(row[f"t{i}"]) * ID_BYTES + fixed) for i, tau in enumerate(taus)
    ]


def max_tau_within(
    edges: DataFrame, *, taus: list[float], k: int, budget_bytes: int
) -> float | None:
    """Largest candidate τ whose modeled footprint fits the budget."""
    fits = [t for t, b in footprint_sweep(edges, taus=taus, k=k) if b <= budget_bytes]
    return max(fits) if fits else None
