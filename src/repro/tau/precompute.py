"""τ pre-computation (paper §4.4, Table 2).

To fit a memory bound, HEP pre-computes — per candidate τ — the size of
the dominant data structure, the pruned column array (the cumulative
adjacency-list size of the low-degree vertices), plus the fixed §4.2
terms, and picks the largest τ that fits. The paper reports this step's
run-time per graph (Table 2) and argues it is negligible next to
partitioning; our Table 2 bench measures the same.

The sweep is HEP's own degree pass: one Arrow transfer of the edge table
into an :class:`~repro.graphs.generators.EdgeList`, then every τ priced
from its ``degrees()`` with the §4.2 formula
(:func:`~repro.core.memory_model.hep_footprint_bytes`).
"""
from __future__ import annotations

from pyspark.sql import DataFrame

from ..core.memory_model import hep_footprint_bytes
from ..graphs.generators import from_spark


def footprint_sweep(
    edges: DataFrame, *, taus: list[float], k: int
) -> list[tuple[float, int]]:
    """[(τ, modeled HEP footprint in bytes)] from one degree pass over
    the edge table.

    The table must hold what ``partition_hep`` takes: ids in [0, 2³²),
    no self-loop, no repeated pair (``ValueError`` otherwise). |V| is
    the id space max(v) + 1, as in the model and the pruned CSR; ids
    above the largest endpoint cannot be seen from an edge DataFrame, so
    a graph whose highest ids are isolated is undercounted.
    """
    el = from_spark(edges)
    if not el.m:
        raise ValueError("footprint_sweep needs at least one edge; the edge DataFrame is empty")
    deg = el.degrees()
    return [(tau, hep_footprint_bytes(deg, tau=tau, k=k)) for tau in taus]

