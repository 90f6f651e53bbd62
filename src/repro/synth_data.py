"""Synthetic data for the HEP reproduction.

The paper evaluates on power-law *graphs* only, so the data this
module offers is the graph corpus of :mod:`repro.graphs.generators`,
re-exported here (``graph``, ``GRAPH_NAMES``, ``graph_to_spark``).
"""
from .graphs.generators import (  # noqa: F401
    GRAPH_NAMES,
    EdgeList,
    graph,
    graph_type,
)
from .graphs.generators import to_spark as graph_to_spark  # noqa: F401
