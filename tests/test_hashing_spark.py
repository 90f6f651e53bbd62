"""DBH: the low-degree endpoint decides each edge's partition."""
import numpy as np
import pytest

from repro.core.hashing import _KNUTH, dbh_np, knuth_bucket

from .conftest import star_graph


def test_dbh_hashes_low_degree_endpoint():
    """DBH's point: the low-degree endpoint determines the partition,
    so a hub's edges spread while leaves stay put. On a star, every
    edge hashes by its leaf."""
    el = star_graph(10)
    res = dbh_np(el, k=4)
    leaf_pid = ((np.arange(1, 11) * _KNUTH) % 4294967296) % 4
    assert (res.assignment[:, 2] == leaf_pid[res.assignment[:, 1] - 1]).all()


@pytest.mark.parametrize("k", [4, 7, 32])
def test_knuth_bucket_exact_above_2_31(k):
    """The int64 product wraps for ids above about 3.47·10^9, yet the
    bucket equals the unbounded-integer hash up to the largest uint32
    id, because 2^32 divides 2^64."""
    ids = [2**31 - 1, 2**31, 3_500_000_000, 2**32 - 1]
    got = knuth_bucket(np.array(ids, dtype=np.int64), k)
    assert got.tolist() == [(v * _KNUTH) % 2**32 % k for v in ids]
