"""DBH: the low-degree endpoint decides each edge's partition."""
import numpy as np

from repro.core.hashing import _KNUTH, dbh_np

from .conftest import star_graph


def test_dbh_hashes_low_degree_endpoint():
    """DBH's point: the low-degree endpoint determines the partition,
    so a hub's edges spread while leaves stay put. On a star, every
    edge hashes by its leaf."""
    el = star_graph(10)
    res = dbh_np(el, k=4)
    leaf_pid = ((np.arange(1, 11) * _KNUTH) % 4294967296) % 4
    assert (res.assignment[:, 2] == leaf_pid[res.assignment[:, 1] - 1]).all()
