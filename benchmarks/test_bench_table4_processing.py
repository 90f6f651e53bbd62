"""Table 4 bench: the full partitioning + distributed-processing grid.

This is the paper's headline Spark/GraphX experiment: for OK/IT/TW and
each of HEP-100/10/1, NE, SNE, HDRF, DBH — partitioning time, RF, and
PageRank/BFS/CC cost on the gasx engine (wall time + replica-sync
rows). EXPERIMENTS.md diffs the shape against the paper's Table 4.
"""
from repro.gasx.engine import SQL_CONF
from repro.harness import print_rows, run_table4

from ._scales import K, T4_SCALE


def test_bench_table4(spark, benchmark):
    # gasx's settings, which the jobs run under too: with adaptive
    # execution on, a checkpoint keeps no partitioning and every
    # superstep re-shuffles the edge table
    old = {key: spark.conf.get(key) for key in SQL_CONF}
    for key, value in SQL_CONF.items():
        spark.conf.set(key, value)
    try:
        rows = benchmark.pedantic(
            lambda: run_table4(
                spark,
                scale=T4_SCALE,
                k=K,
                pr_iters=4,
                bfs_sources=1,
                cc_max_iter=10,
            ),
            rounds=1,
            iterations=1,
        )
    finally:
        for key, value in old.items():
            spark.conf.set(key, value)
    print_rows(f"Table 4 (graph processing, k={K})", rows)
    by = {(r["graph"], r["partitioner"]): r for r in rows}
    for g in ("OK", "IT", "TW"):
        # RF ordering: HEP-100 competitive with NE, clearly better than DBH
        assert by[(g, "HEP-100")]["rf"] <= by[(g, "NE")]["rf"] * 1.3
        assert by[(g, "HEP-100")]["rf"] < by[(g, "DBH")]["rf"]
        # communication: better partitioning ⇒ fewer replica-sync rows
        assert by[(g, "HEP-100")]["pr_comm"] < by[(g, "DBH")]["pr_comm"]
        # DBH partitions fastest (stateless hashing)
        t_dbh = by[(g, "DBH")]["t_partition_s"]
        assert all(
            t_dbh <= by[(g, p)]["t_partition_s"]
            for p in ("HEP-100", "NE", "HDRF")
        )
