"""The graph corpus that synth_data re-exports, oracle-checked."""
from pyspark.sql import functions as F

from repro import synth_data
from repro.oracle import assert_equivalent


def test_graph_reexport(spark):
    """synth_data exposes the paper's graph corpus (schema extension)."""
    el = synth_data.graph("OK", scale=0.01)
    assert el.m > 0
    df = synth_data.graph_to_spark(spark, el)
    assert df.count() == el.m
    assert set(df.columns) == {"src", "dst"}
    assert "OK" in synth_data.GRAPH_NAMES


def test_graph_edges_oracle(spark):
    """Spark-side edge count per src vs DuckDB over the same frame."""
    from repro.graphs.generators import to_pandas

    el = synth_data.graph("LJ", scale=0.01)
    df = synth_data.graph_to_spark(spark, el)
    got = df.groupBy("src").agg(F.count("*").alias("out"))
    assert_equivalent(
        got,
        "SELECT src, count(*) AS out FROM edges GROUP BY src",
        edges=to_pandas(el),
    )
