"""Unit tests for the synthetic graph corpus (Table 3 substrate)."""
import hashlib

import numpy as np
import pytest

from repro.graphs.generators import (
    GRAPH_NAMES,
    LIFT_CHUNK,
    EdgeList,
    arrays_to_spark,
    dense_communities,
    from_spark,
    graph,
    graph_type,
    rmat,
    to_pandas,
    to_spark,
    web_locality,
)

from .conftest import TEST_GRAPHS, tiny_graph


@pytest.mark.parametrize("name", TEST_GRAPHS)
class TestCorpusInvariants:
    def test_no_self_loops(self, name):
        el = tiny_graph(name)
        assert (el.edges[:, 0] != el.edges[:, 1]).all()

    def test_no_duplicate_undirected_pairs(self, name):
        el = tiny_graph(name)
        lo = np.minimum(el.edges[:, 0], el.edges[:, 1]).astype(np.uint64)
        hi = np.maximum(el.edges[:, 0], el.edges[:, 1]).astype(np.uint64)
        key = (lo << np.uint64(32)) | hi
        assert len(np.unique(key)) == el.m

    def test_compact_vertex_ids(self, name):
        el = tiny_graph(name)
        seen = np.unique(el.edges)
        assert seen[0] == 0 and seen[-1] == el.n - 1
        assert len(seen) == el.n  # every id 0..n-1 is incident to an edge

    def test_deterministic(self, name):
        a = graph(name, scale=0.01)
        b = graph(name, scale=0.01)
        assert a.n == b.n
        assert np.array_equal(a.edges, b.edges)

    def test_degrees_sum_to_2m(self, name):
        el = tiny_graph(name)
        assert el.degrees().sum() == 2 * el.m

    def test_size_bytes_is_binary_edge_list(self, name):
        el = tiny_graph(name)
        assert el.size_bytes == 8 * el.m  # two 32-bit ids per edge

    def test_scale_grows_edge_count(self, name):
        small = graph(name, scale=0.01)
        large = graph(name, scale=0.04)
        assert large.m > small.m


# SHA-256 of ``graph(name).edges.tobytes()`` (uint32, C order), one graph
# per generator kind at bench scale
SCALE_1_DIGESTS = {
    "OK": "c367cc5198911ac97c677200f341b236281d11d604464e4ea8d94833f3b061ed",
    "IT": "1c78407105815d46c7a95bc63a40aa1bff62c429c214277db2f798c5558b969d",
    "BR": "d482274eb50bfad85359575a97e3dd7620af079496e362bff93dc1895cc8c12f",
}


@pytest.mark.parametrize("name", SCALE_1_DIGESTS)
def test_scale_above_one_grows_id_space(name):
    """Bench scale keeps its edges, and ×2 doubles the id space with the
    edge count, so the mean degree stays level."""
    base = graph(name)
    assert hashlib.sha256(base.edges.tobytes()).hexdigest() == SCALE_1_DIGESTS[name]
    big = graph(name, scale=2.0)
    assert 1.8 <= big.n / base.n <= 2.2
    assert 1.8 <= big.m / base.m <= 2.2


@pytest.mark.parametrize("name", [g for g in TEST_GRAPHS if g != "BR"])
def test_degree_skew_present(name):
    """Social/web analogs are skewed: the top-1% vertices carry far more
    than 1% of edge endpoints (power-law-ish tail, paper §2 Graph
    Type). BR is exempt — the brain graph is dense, not power-law."""
    el = tiny_graph(name)
    deg = np.sort(el.degrees())[::-1]
    top = max(1, el.n // 100)
    share = deg[:top].sum() / deg.sum()
    assert share > 0.05, f"{name}: top-1% share {share:.3f} too flat"


def test_social_analogs_more_skewed_than_web():
    """RMAT social analogs have heavier max-degree tails (relative to
    mean) than the host-locality web analogs' page-level structure."""
    tw = tiny_graph("TW")
    it = tiny_graph("IT")
    skew = lambda el: el.degrees().max() / el.degrees().mean()
    assert skew(tw) > 3.0


@pytest.mark.parametrize("name", GRAPH_NAMES)
def test_graph_type_labels(name):
    assert graph_type(name) in {"Social", "Web", "Biological"}


def test_rmat_respects_id_space():
    el = rmat(scale=8, n_edges=500, seed=1)
    assert el.n <= 256
    assert el.m <= 500


def test_rmat_different_seeds_differ():
    a = rmat(scale=10, n_edges=1000, seed=1)
    b = rmat(scale=10, n_edges=1000, seed=2)
    assert a.m != b.m or not np.array_equal(a.edges, b.edges)


def test_web_locality_mostly_intra_host():
    el = web_locality(n_hosts=50, mean_host_size=10.0, n_edges=2000, p_intra=0.9, seed=3)
    assert el.m > 500


def test_dense_communities_high_mean_degree():
    el = dense_communities(n=200, n_comms=5, n_edges=5000, seed=4)
    assert el.degrees().mean() > 10


def test_brain_analog_denser_than_social():
    br = tiny_graph("BR")
    ok = tiny_graph("OK")
    assert br.degrees().mean() > ok.degrees().mean()


def test_to_pandas_roundtrip():
    el = tiny_graph("OK")
    pdf = to_pandas(el)
    assert list(pdf.columns) == ["src", "dst"]
    assert len(pdf) == el.m
    assert (pdf["src"].to_numpy() == el.edges[:, 0]).all()


@pytest.mark.parametrize("el", [
    tiny_graph("OK"),
    EdgeList(edges=np.array([[0, 1], [1, 2], [2, 0], [4, 5]], dtype=np.uint32), n=6),
], ids=["OK", "isolated-id"])
def test_from_spark_inverts_to_spark(spark, el):
    """One Arrow transfer gives back the same edge array, row order
    included, and n (the isolated id 3 lies below the largest id); the
    frame has the nullable long columns a pandas-built one has."""
    df = to_spark(spark, el)
    assert df.schema == spark.createDataFrame(to_pandas(el)).schema
    back = from_spark(df)
    assert back.n == el.n
    assert back.edges.dtype == np.uint32
    assert np.array_equal(back.edges, el.edges)


@pytest.mark.parametrize("m", [0, 1, LIFT_CHUNK, LIFT_CHUNK + 1, 3 * LIFT_CHUNK - 7])
def test_arrays_to_spark_round_trip(spark, m):
    """Every row, in order, for sizes at and around the chunk, with ids
    up to 2³² − 1; Spark's local relation holds one row per chunk, not
    one per index."""
    rng = np.random.default_rng(m)
    a = rng.integers(0, 2**32, size=m, dtype=np.uint64).astype(np.uint32)
    a[-1:] = 2**32 - 1
    b = np.arange(m, dtype=np.int64)[::-1]  # a strided view
    df = arrays_to_spark(spark, {"a": a, "b": b})
    assert df.schema.simpleString() == "struct<a:bigint,b:bigint>"
    assert all(f.nullable for f in df.schema)
    back = df.toArrow()
    assert np.array_equal(back.column("a").to_numpy(), a.astype(np.int64))
    assert np.array_equal(back.column("b").to_numpy(), b)
    leaves = df._jdf.queryExecution().optimizedPlan().collectLeaves()
    assert leaves.size() == 1
    leaf = leaves.apply(0)
    assert leaf.getClass().getSimpleName() == "LocalRelation"
    assert leaf.data().size() <= -(-m // LIFT_CHUNK)


def test_arrays_to_spark_refuses_ragged_columns():
    """Columns of different lengths are refused before Spark is asked
    (the list offsets would otherwise drop a longer column's tail)."""
    with pytest.raises(ValueError, match="differ in length"):
        arrays_to_spark(None, {"a": np.arange(3), "b": np.arange(4)})


def test_unknown_graph_raises():
    with pytest.raises(KeyError):
        graph("NOPE")


@pytest.mark.parametrize("edges, n, fault", [
    (np.array([[0, 1]], dtype=np.int64), 2, "uint32"),
    (np.array([0, 1], dtype=np.uint32), 2, "uint32"),
    (np.array([[0, 1, 2]], dtype=np.uint32), 3, "uint32"),
    (np.array([[0, 1], [1, 2]], dtype=np.uint32), 2, "vertex id 2 >= n=2"),
    (np.array([[0, 1], [2, 2]], dtype=np.uint32), 3, "self-loop at vertex 2"),
    (np.array([[0, 1], [1, 2], [0, 1]], dtype=np.uint32), 3, r"repeats the unordered pair \(0, 1\)"),
    (np.array([[2, 1], [0, 1], [1, 2]], dtype=np.uint32), 3, r"repeats the unordered pair \(1, 2\)"),
])
def test_malformed_edge_list_rejected(edges, n, fault):
    """An EdgeList is checked when it is made: a wrong dtype or shape,
    an id ≥ n, a self-loop or a repeated unordered pair (in either
    direction) is refused, with the fault named."""
    with pytest.raises(ValueError, match=fault):
        EdgeList(edges=edges, n=n)
