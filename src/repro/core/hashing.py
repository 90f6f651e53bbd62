"""Stateless hashing partitioner DBH (the paper's Θ(|E|) baseline).

DBH (Xie et al., NeurIPS '14) hashes every edge by its lower-degree
endpoint (ties → smaller id), so an edge's partition is a pure
function of its endpoint ids and degrees. The hash is a Knuth
multiplicative hash in signed 64-bit integers; vertex ids must stay
below 2^31 so the product cannot overflow.
"""
from __future__ import annotations

import numpy as np

from ..graphs.generators import EdgeList
from .common import PartitionResult, assignment_array

_KNUTH = 2654435761


def dbh_np(el: EdgeList, *, k: int) -> PartitionResult:
    """Degree-Based Hashing: each edge goes to the hash of its
    lower-degree endpoint."""
    deg = el.degrees().astype(np.int64)
    src = el.edges[:, 0].astype(np.int64)
    dst = el.edges[:, 1].astype(np.int64)
    use_src = (deg[src] < deg[dst]) | ((deg[src] == deg[dst]) & (src < dst))
    picked = np.where(use_src, src, dst)
    pid = ((picked * _KNUTH) % 4294967296) % k
    return PartitionResult(assignment=assignment_array(src, dst, pid), k=k, n=el.n)
