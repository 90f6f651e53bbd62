"""Stateless hashing partitioner DBH (the paper's Θ(|E|) baseline).

DBH (Xie et al., NeurIPS '14) hashes every edge by its lower-degree
endpoint (ties → smaller id), so an edge's partition is a pure
function of its endpoint ids and degrees. The hash is a Knuth
multiplicative hash, (v·2654435761) mod 2^32, in signed 64-bit
integers. The product wraps for ids above about 3.47·10^9, but the
residue mod 2^32 stays exact because 2^32 divides 2^64, so every
uint32 id hashes as with unbounded integers.
"""
from __future__ import annotations

import numpy as np

from ..graphs.generators import EdgeList
from .common import PartitionResult, assignment_array, check_k

_KNUTH = 2654435761


def knuth_bucket(ids: np.ndarray, k: int) -> np.ndarray:
    """Bucket in [0, k) of each int64 id: (id·2654435761) mod 2^32 mod k."""
    return ((ids * _KNUTH) % 4294967296) % k


def dbh_np(el: EdgeList, *, k: int) -> PartitionResult:
    """Degree-Based Hashing: each edge goes to the hash of its
    lower-degree endpoint."""
    check_k(k)
    deg = el.degrees()
    src = el.edges[:, 0].astype(np.int64)
    dst = el.edges[:, 1].astype(np.int64)
    use_src = (deg[src] < deg[dst]) | ((deg[src] == deg[dst]) & (src < dst))
    pid = knuth_bucket(np.where(use_src, src, dst), k)
    return PartitionResult(assignment=assignment_array(src, dst, pid), k=k, n=el.n)
